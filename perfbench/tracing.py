"""Span tracing of the gmrf_active layers from outside the package.

:class:`Tracer` replaces the package's public functions that
``run_experiment`` calls with wrappers that record one span per call, runs
the real harness, and puts the originals back. No source file is edited.
A span is ``[name, start_ns, end_ns, parent_index, query, extra]``; ``query``
is the ``(run, strategy label, t)`` of the query step the call belongs to
(``t = 0`` for a run's set-up). For an outer observe call ``extra`` is
``[state_bytes, alloc_peak_bytes]``; the allocation peak is taken with
``tracemalloc`` only on each run's first observe (``-1`` elsewhere), because
tracing allocations slows a call many times over, and those sampled calls are
left out of the observe timings.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc

import numpy as np

ROOT = "bench.run_experiment"
OBSERVE = ("gmrf.GmrfModel.observe", "gmrf.MulticlassModel.observe")
FROM_INVERSE = ("gmrf.GmrfModel.from_inverse", "gmrf.MulticlassModel.from_inverse")

# (module, attribute path, span name)
TARGETS = (
    ("graph", "from_spec", "graph.from_spec"),
    ("graph", "regularized_laplacian", "graph.regularized_laplacian"),
    ("gmrf", "spd_inverse", "gmrf.spd_inverse"),
    ("gmrf", "GmrfModel.from_inverse", FROM_INVERSE[0]),
    ("gmrf", "MulticlassModel.from_inverse", FROM_INVERSE[1]),
    ("gmrf", "GmrfModel.observe", OBSERVE[0]),
    ("gmrf", "MulticlassModel.observe", OBSERVE[1]),
    ("gmrf", "GmrfModel.hypothetical_mean", "gmrf.hypothetical_mean"),
    ("strategies", "select", "strategies.select"),
    ("strategies", "utility_scores", "strategies.utility_scores"),
    ("bench", "predicted_classes", "bench.predicted_classes"),
)


def _state_bytes(model) -> int:
    """8 |U|^2 bytes per stored field: one G per class model."""
    fields = len(getattr(model, "models", ())) or 1
    u = int(model.num_unlabeled)
    return 8 * u * u * fields


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, package: str, strategy_labels, budget: int, spans: list[list]):
        self.package = package
        self.first_label = strategy_labels[0]
        self.last_label = strategy_labels[-1]
        self.budget = budget
        self.spans = spans  # appended to; may already hold earlier calls' spans
        self.stack: list[int] = []
        self.run = 0
        self.query = (0, "", 0)
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"{self.package}.{m}")
                   for m in ("bench", "gmrf", "graph", "strategies")]
        for mod_name, path, span in TARGETS:
            module = importlib.import_module(f"{self.package}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if attr not in vars(owner):
                self.missing.append(span)
                continue
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(span, original.__func__)))
                self._restore.append((owner, attr, original))
                continue
            wrapped = self._wrap(span, original)
            # Rebind every module-level alias, e.g. ``bench.select``.
            targets = modules if not owner_name else [owner]
            for holder in targets:
                if vars(holder).get(attr) is original:
                    setattr(holder, attr, wrapped)
                    self._restore.append((holder, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        is_select = name == "strategies.select"
        is_observe = name in OBSERVE

        def traced(*args, **kwargs):
            if is_select:
                strategy = args[0] if args else kwargs["strategy"]
                t = args[2] if len(args) > 2 else kwargs["t"]
                self.query = (self.run, strategy.label, int(t))
            parent = stack[-1] if stack else -1
            outer_observe = is_observe and not (
                parent >= 0 and spans[parent][0] in OBSERVE)
            extra = sample = None
            if outer_observe:
                extra = [_state_bytes(args[0]), -1]
                sample = self.query[2] == 1 and self.query[1] == self.first_label
                if sample:
                    tracemalloc.start()
            rec = [name, 0, 0, parent, self.query, extra]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if sample:
                    extra[1] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return traced

    def hook(self, *, strategy, run, t, **_):
        """Step hook: moves the query id on to the next run's set-up."""
        self.run = run
        if t == self.budget and strategy.label == self.last_label:
            self.run = run + 1
            self.query = (run + 1, "", 0)

    def run_root(self, fn, *args, **kwargs):
        """Call ``fn`` (``run_experiment``) inside a root span."""
        self.run = 0
        self.query = (0, "", 0)
        rec = [ROOT, 0, 0, -1, self.query, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()



def write_spans(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,name,start_ns,end_ns,parent,run,strategy,t,"
                 "state_bytes,alloc_peak_bytes\n")
        for i, (name, start, end, parent, (run, label, t), extra) in enumerate(spans):
            sb, ab = extra or ("", "")
            fh.write(f"{i},{name},{start},{end},{parent},{run},{label},{t},{sb},{ab}\n")


# -- per-layer metrics ------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def _layer(name: str) -> str:
    """The layer a span belongs to; the two model classes share one."""
    if name in OBSERVE:
        return "gmrf.observe"
    if name in FROM_INVERSE:
        return "gmrf.from_inverse"
    return name


def layer_metrics(spans: list[list], experiments: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of ``experiments`` traced runs.

    ``.ms``/``.us`` are medians per call, ``.calls`` are per experiment and
    ``.share`` is the layer's outer-span time over the root spans' time.
    """
    dur = {}      # layer -> its outer spans
    counts = {}   # span name -> number of spans, nested ones included
    roots = []     # indices of root spans
    child_ns = {}  # root index -> time covered by its direct children
    for i, s in enumerate(spans):
        name, start, end, parent = s[0], s[1], s[2], s[3]
        counts[name] = counts.get(name, 0) + 1
        if parent < 0:
            roots.append(i)
            continue
        if spans[parent][0] == ROOT:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        layer = _layer(name)
        if _layer(spans[parent][0]) == layer:
            continue  # nested inside the same layer, e.g. per-class observe
        dur.setdefault(layer, []).append(s)
    root_ns = sum(spans[i][2] - spans[i][1] for i in roots) or 1

    def ns(layer):
        return [s[2] - s[1] for s in dur.get(layer, [])]

    def per_exp(n):
        return n / experiments

    out: dict[str, tuple[float, str]] = {}
    for layer in ("graph.from_spec", "graph.regularized_laplacian",
                  "gmrf.spd_inverse", "gmrf.from_inverse", "gmrf.observe",
                  "strategies.select", "strategies.utility_scores",
                  "bench.predicted_classes"):
        d = ns(layer)
        out[f"{layer}.ms"] = (_median(d) / 1e6, "ms")
        out[f"{layer}.calls"] = (per_exp(len(d)), "count")
        out[f"{layer}.share"] = (sum(d) / root_ns, "fraction")
    out["strategies.select.p90_ms"] = (_p90(ns("strategies.select")) / 1e6, "ms")

    # observe timings leave out the calls whose allocations were traced
    obs = dur.get("gmrf.observe", [])
    timed = [s for s in obs if s[5][1] < 0]
    sampled = [s for s in obs if s[5][1] >= 0]
    timed_ns = [s[2] - s[1] for s in timed]
    out["gmrf.observe.ms"] = (_median(timed_ns) / 1e6, "ms")
    out["gmrf.observe.p90_ms"] = (_p90(timed_ns) / 1e6, "ms")
    out["gmrf.observe.binary_calls"] = (per_exp(counts.get(OBSERVE[0], 0)), "count")
    out["gmrf.observe.state_mb"] = (max((s[5][0] for s in sampled), default=0) / 1e6, "MB")
    out["gmrf.observe.alloc_peak_mb"] = (
        max((s[5][1] for s in sampled), default=0) / 1e6, "MB")
    out["gmrf.observe.gbps_computed"] = (
        _median([2 * s[5][0] / (s[2] - s[1]) for s in timed]), "GB/s")

    hyp = ns("gmrf.hypothetical_mean")
    out["gmrf.hypothetical_mean.us"] = (_median(hyp) / 1e3, "us")
    out["gmrf.hypothetical_mean.calls"] = (per_exp(len(hyp)), "count")
    out["gmrf.hypothetical_mean.share"] = (sum(hyp) / root_ns, "fraction")
    scans = len(ns("strategies.utility_scores"))
    selects = len(ns("strategies.select"))
    out["strategies.retrain_calls_per_scan"] = (len(hyp) / scans if scans else 0.0, "count")
    out["strategies.scored_share"] = (scans / selects if selects else 0.0, "fraction")

    self_ns = [spans[i][2] - spans[i][1] - child_ns.get(i, 0) for i in roots]
    out["bench.self_s"] = (_median(self_ns) / 1e9, "s")
    out["bench.self_share"] = (sum(self_ns) / root_ns, "fraction")
    return out
