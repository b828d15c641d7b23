"""Seeded Monte-Carlo harness for active-sampling experiments.

A run draws the graph (generator sources are re-sampled per run with seed
``base_seed + r``; file sources stay fixed), then lets every strategy play
the same budget of queries. A run whose graph equals the previous run's
reuses that run's Laplacian, inverse and start model: a grid redraws only its
labels, and file and ready-graph sources never change, so they pay for the
inverse, and for checking it, once per experiment. A file source is read
once, before the first run. The label oracle is the graph's label array
``LabeledGraph.labels``: a query on node ``i`` reads entry ``i``.
All strategies in one config share the per-run seed, so their first random
query coincides and curve differences are strategy-driven. Accuracy after
each query is the fraction of correctly predicted nodes, evaluated on the
shrinking unlabeled set by default or on the full initial node set behind a
flag.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import graph as graph_mod
from .gmrf import GmrfModel, class_decision, spd_inverse
from .graph import LabeledGraph, _as_int, _as_real, regularized_laplacian
from .strategies import BINARY_ONLY_KINDS, Strategy, select

EVAL_MODES = ("remaining", "initial")


@dataclass
class AccuracyCurve:
    """Per-iteration accuracy of one strategy across Monte-Carlo runs."""

    strategy: str
    values: np.ndarray  # shape (runs, budget)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a (runs, budget) array")
        if not ((self.values >= 0) & (self.values <= 1)).all():  # NaN fails both
            raise ValueError("accuracy values must lie in [0, 1]")

    @property
    def runs(self) -> int:
        return self.values.shape[0]

    @property
    def budget(self) -> int:
        return self.values.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        return self.values.std(axis=0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; see :func:`run_experiment`.

    ``graph`` is either a source spec string (``grid:RxC``,
    ``community:..``, ``file:EDGES:LABELS``) or a ready ``LabeledGraph``
    reused across runs. ``strategies`` is stored as a tuple. Frozen: no
    field can be reassigned past these checks.
    """

    graph: str | LabeledGraph
    strategies: Iterable[Strategy]
    budget: int
    runs: int = 50
    seed: int = 0
    delta: float = 0.005
    eval_on: str = "remaining"

    def __post_init__(self):
        if not isinstance(self.graph, (str, LabeledGraph)):
            raise ValueError("graph must be a source spec string or a LabeledGraph, "
                             f"got {self.graph!r}")
        strategies = tuple(self.strategies)
        for i, strat in enumerate(strategies):
            if not isinstance(strat, Strategy):
                raise ValueError(f"strategies[{i}] must be a Strategy, got {strat!r}")
        if not strategies:
            raise ValueError("need at least one strategy")
        object.__setattr__(self, "strategies", strategies)
        labels = [s.label for s in strategies]
        if len(set(labels)) != len(labels):
            raise ValueError(f"strategy labels must be unique, got {labels}")
        for label in labels:
            if any(ch in label for ch in ',"\r\n'):  # emit_csv writes unquoted fields
                raise ValueError(f"strategy label {label!r} must not contain , \" CR or LF")
        for name in ("budget", "runs"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, 1))
        object.__setattr__(self, "delta", _as_real(self.delta, "delta", 0, strict=True))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))
        if self.eval_on not in EVAL_MODES:
            raise ValueError(f"eval_on must be one of {EVAL_MODES}")


def accuracy(model: GmrfModel, labels: np.ndarray, eval_on: str = "remaining") -> float:
    """Fraction of correctly predicted nodes.

    The model predicts by :func:`~gmrf_active.gmrf.class_decision`, the same
    rule as :meth:`GmrfModel.predict`. The model's node count ``n`` is its
    unlabeled plus its labeled nodes, and ``labels`` must hold one true
    class id per model node, an array of shape ``(n,)`` indexed by node id,
    as ``LabeledGraph.labels`` holds; any other input is rejected before
    anything is counted. With ``eval_on="remaining"`` the fraction is over
    the unlabeled nodes; with ``"initial"`` it is over the model's ``n``
    nodes, and the queried ones count as correct because they carry their
    disclosed label.
    """
    if eval_on not in EVAL_MODES:
        raise ValueError(f"eval_on must be one of {EVAL_MODES}")
    ids = model.unlabeled
    n = ids.size + len(model.labeled)
    if not isinstance(labels, np.ndarray) or labels.shape != (n,):
        raise ValueError(f"labels must be a 1-D array of class ids, one per model node (n={n})")
    if ids.size == 0:
        raise ValueError("no unlabeled nodes left to evaluate")
    hits = int(np.count_nonzero(class_decision(model.means) == labels[ids]))
    if eval_on == "remaining":
        return hits / ids.size
    return (hits + (n - ids.size)) / n


def baseline_accuracy(labels) -> float:
    """Relative frequency of the most common class."""
    values = list(labels.values()) if isinstance(labels, Mapping) else list(labels)
    if not values:
        raise ValueError("empty label set")
    return Counter(values).most_common(1)[0][1] / len(values)


def _check_graph(cfg: ExperimentConfig, lg: LabeledGraph) -> None:
    """Reject a config the graph cannot run, before any inverse is built."""
    n = lg.graph.n
    if cfg.budget >= n:
        raise ValueError(f"budget {cfg.budget} must be smaller than the node count {n}")
    if lg.num_classes > 2:
        for strat in cfg.strategies:
            if strat.kind in BINARY_ONLY_KINDS:
                raise ValueError(
                    f"strategy {strat.label!r} ({strat.kind}) is defined for binary models only, "
                    f"but the graph has {lg.num_classes} classes"
                )


def run_experiment(cfg: ExperimentConfig,
                   step_hook: Callable | None = None) -> dict[str, AccuracyCurve]:
    """Run the full Monte-Carlo experiment; returns one curve per strategy.

    A run whose graph equals the previous run's (same ``n`` and edge arrays,
    as for every grid, file and ready-graph source) reuses that run's
    Laplacian and inverse; equal graphs give byte-equal inverses, so the
    curves are the same as with a fresh inverse per run. The inverse is
    computed over the Laplacian's own array, which nothing else holds, and
    the previous graph's inverse is let go before the new Laplacian is
    built, so inverting holds one ``n^2`` array, not two, on every graph. It
    is made read-only, and one model over it is built, which checks and sums
    it once; every strategy of those runs starts from a copy of that model,
    in ``O(C n)``, and aliases the inverse.

    ``step_hook``, when given, is called as
    ``step_hook(strategy=..., model=..., run=..., t=...)`` after every
    observation, which is handy for invariant tracking.
    """
    curves = {s.label: np.zeros((cfg.runs, cfg.budget)) for s in cfg.strategies}
    budget, eval_on = cfg.budget, cfg.eval_on
    source = cfg.graph
    if isinstance(source, str) and source.startswith("file:"):
        source = graph_mod.from_spec(source)  # file sources ignore the seed
    graph = None
    for r in range(cfg.runs):
        run_seed = cfg.seed + r
        lg = source if isinstance(source, LabeledGraph) else graph_mod.from_spec(source, run_seed)
        _check_graph(cfg, lg)
        if lg.graph != graph:
            graph = lg.graph
            # the start model and the last strategy's model alias the previous
            # inverse; letting all three go frees it before the next is built
            prior = model = inverse = None
            # the Laplacian is this loop's own, so it is inverted in its buffer
            inverse = spd_inverse(regularized_laplacian(graph, cfg.delta).matrix,
                                  overwrite_a=True)
            inverse.flags.writeable = False
            # a source's class count is fixed, so it holds for later equal graphs
            prior = GmrfModel.from_inverse(inverse, lg.num_classes)
        truth = lg.labels
        for strat in cfg.strategies:
            model = prior.copy()
            rng = np.random.default_rng(run_seed)
            row = curves[strat.label][r]
            for t in range(1, budget + 1):
                node = select(strat, model, t, rng)
                model.observe(node, truth[node])
                row[t - 1] = accuracy(model, truth, eval_on)
                if step_hook is not None:
                    step_hook(strategy=strat, model=model, run=r, t=t)
    return {s.label: AccuracyCurve(s.label, curves[s.label]) for s in cfg.strategies}


def emit_csv(results: dict[str, AccuracyCurve], path) -> None:
    """Write curves as ``strategy,t,mean_accuracy,std_accuracy,runs`` rows.

    Floats carry 6 decimals; lines end with LF. An empty result set is an
    error and no file is created.
    """
    if not results:
        raise ValueError("no results to write")
    lines = ["strategy,t,mean_accuracy,std_accuracy,runs"]
    for label, curve in results.items():
        mean, std = curve.mean, curve.std
        for t in range(curve.budget):
            lines.append(f"{label},{t + 1},{mean[t]:.6f},{std[t]:.6f},{curve.runs}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary(results: dict[str, AccuracyCurve]) -> str:
    """Plain-text mean +/- std table at t = 5, 10, 20 and the last iteration."""
    if not results:
        raise ValueError("no results to summarize")
    budget = min(curve.budget for curve in results.values())
    points = sorted({t for t in (5, 10, 20, budget) if 1 <= t <= budget})
    width = max(len(label) for label in results) + 2
    header = "strategy".ljust(width) + "".join(f"t={t}".rjust(16) for t in points)
    lines = [header]
    for label, curve in results.items():
        cells = "".join(
            f"{curve.mean[t - 1]:.3f}+/-{curve.std[t - 1]:.3f}".rjust(16) for t in points
        )
        lines.append(label.ljust(width) + cells)
    return "\n".join(lines)
