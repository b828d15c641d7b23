#!/usr/bin/env python3
"""Benchmark of the gmrf_active experiment harness.

    python3 perfbench/run.py --workload grid-small --seed 7 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory. With ``--trace 0`` it repeats untraced ``run_experiment``
calls for ``--seconds`` (at least two) and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced calls and reports the
per-layer metrics. Every call's CSV must be byte-identical, and the final
means must match a fresh direct solve; a failed check makes the result
``correct: false`` and the exit code 1. The last stdout line is the result
JSON; the line before it records the config, the machine and sample counts.
Spans of the traced calls go to ``.perfbench_out/<workload>.spans.csv``.

``--workload all`` runs every workload in its own process and prints a
table of every metric with its unit; it exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS. At these sizes a second
# thread gains nothing, and an idle OpenBLAS worker spins on the second CPU
# between the per-run inverses, which made timings drift with its scheduling.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from tracing import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PACKAGE = "gmrf_active"
ORACLE_TOL = 1e-8


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: {src / PACKAGE} not found; run from a source checkout")
    sys.path.insert(0, str(src))
    import gmrf_active
    if Path(gmrf_active.__file__).resolve().parent != (src / PACKAGE).resolve():
        sys.exit(f"error: imported {gmrf_active.__file__}, not the checkout's copy")
    return gmrf_active


# -- machine facts ----------------------------------------------------------

def _openblas_threads(libs_dir: str, symbol: str):
    for path in glob.glob(os.path.join(libs_dir, "libscipy_openblas*.so*")):
        try:
            return int(getattr(ctypes.CDLL(path), symbol)())
        except (OSError, AttributeError):
            continue
    return None


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    page = os.sysconf("SC_PAGE_SIZE")
    np_blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    sp_lapack = scipy.__config__.CONFIG["Build Dependencies"]["lapack"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * page / 2**20),
        "mem_avail_mb": round(os.sysconf("SC_AVPHYS_PAGES") * page / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{np_blas.get('name')} {np_blas.get('version')}",
        "numpy_blas_threads": _openblas_threads(
            os.path.dirname(np.__file__) + ".libs", "scipy_openblas_get_num_threads64_"),
        "scipy_lapack": f"{sp_lapack.get('name')} {sp_lapack.get('version')}",
        "scipy_lapack_threads": _openblas_threads(
            os.path.dirname(scipy.__file__) + ".libs", "scipy_openblas_get_num_threads"),
    }


# -- one experiment ---------------------------------------------------------

def make_config(pkg, wl, seed: int, graph: str | None = None, runs=None, budget=None):
    return pkg.ExperimentConfig(
        graph=graph or wl.graph,
        strategies=[pkg.Strategy(kind, confidence=conf) for kind, conf in wl.strategies],
        budget=budget or wl.budget,
        runs=runs or wl.runs,
        seed=seed,
        delta=wl.delta,
    )


def _snapshot(model) -> dict:
    """Copy of what the oracle check needs from a final model."""
    multi = hasattr(model, "class_means")
    return {
        "unlabeled": np.array(model.unlabeled, copy=True),
        "labeled": dict(model.labeled),
        "means": model.class_means() if multi else np.array(model.mu)[None, :],
        "multi": multi,
    }


class Experiment:
    """One ``run_experiment`` call: wall time, query intervals, CSV bytes.

    Only compact results outlive the call, so that repeats do not grow the
    process's peak RSS.
    """

    def __init__(self, cfg, csv_path: Path):
        self.cfg = cfg
        self.csv_path = csv_path
        self.total_steps = cfg.runs * len(cfg.strategies) * cfg.budget
        self.seconds = 0.0
        self.absorbed = 0
        self.intervals = np.zeros(0, dtype=np.int64)
        self.finals: list[tuple[str, dict]] = []
        self.error: str | None = None
        self.csv = b""
        self.accuracy = (0.0, 0.0)  # mean over strategies at t = T, and of the curve

    def run(self, pkg, tracer: Tracer | None = None) -> "Experiment":
        stamps: list[int] = []
        clock, total, budget = time.perf_counter_ns, self.total_steps, self.cfg.budget
        last_run = self.cfg.runs - 1

        if tracer is None:
            def hook(*, strategy, model, **_):
                stamps.append(clock())
                if len(stamps) == total:
                    self.finals.append((strategy.label, _snapshot(model)))
            call = pkg.run_experiment
        else:
            def hook(*, strategy, model, run, t):
                stamps.append(clock())
                tracer.hook(strategy=strategy, run=run, t=t)
                if run == last_run and t == budget:
                    self.finals.append((strategy.label, _snapshot(model)))

            def call(cfg, step_hook):
                return tracer.run_root(pkg.run_experiment, cfg, step_hook=step_hook)

        results = None
        start = clock()
        try:
            results = call(self.cfg, step_hook=hook)
        except Exception as exc:  # a failing run is reported, not fatal
            self.error = f"{type(exc).__name__}: {exc}"
        end = clock()
        self.seconds = (end - start) / 1e9
        self.absorbed = len(stamps)
        # from the start to the first absorbed query, between queries, and
        # from the last query to the return
        self.intervals = np.diff(np.array([start, *stamps, end], dtype=np.int64))
        if results is not None:
            pkg.emit_csv(results, self.csv_path)
            self.csv = self.csv_path.read_bytes()
            curves = list(results.values())
            self.accuracy = (float(np.mean([c.mean[-1] for c in curves])),
                             float(np.mean([c.mean.mean() for c in curves])))
        return self

    @property
    def failed_steps(self) -> int:
        return self.total_steps - self.absorbed


def interval_masks(cfg) -> tuple[np.ndarray, np.ndarray]:
    """Which intervals of a complete call are run set-ups and which are steps.

    Queries arrive in run, strategy, t order, so an interval's position fixes
    its (run, strategy, t). A run's set-up ends with its first absorbed query
    and starts when the previous run's last query was absorbed; a step is
    the interval ending with a query at t >= 2.
    """
    k = np.arange(cfg.runs * len(cfg.strategies) * cfg.budget)
    t, s = k % cfg.budget + 1, (k // cfg.budget) % len(cfg.strategies)
    return np.append((t == 1) & (s == 0), False), np.append(t >= 2, False)


# -- output checks ----------------------------------------------------------

class Checks:
    """Output checks made so far; each failure counts as a failed op."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)

    def experiments(self, exps: list[Experiment]) -> None:
        """Each call completed, and its CSV equals the first call's byte for byte."""
        ref = exps[0].csv
        for i, e in enumerate(exps):
            self.expect(e.error is None, f"experiment {i}: {e.error}")
            if e.error is None:
                self.expect(e.csv == ref, f"experiment {i}: CSV differs from experiment 0")

    def oracle(self, pkg, wl, seed: int, finals) -> None:
        """Final means against ``conditional_mean_direct`` on the last run's graph."""
        lg = pkg.from_spec(wl.graph, seed=seed + wl.runs - 1)
        lap = pkg.regularized_laplacian(lg.graph, wl.delta)
        for label, snap in finals:
            order = np.argsort(snap["unlabeled"])
            expected_ids = [i for i in range(lap.n) if i not in snap["labeled"]]
            if not np.array_equal(snap["unlabeled"][order], expected_ids):
                self.expect(False, f"{label}: unlabeled set does not match the labels")
                continue
            for c, mu in enumerate(snap["means"]):
                if snap["multi"]:
                    y = {k: (1.0 if v == c else -1.0) for k, v in snap["labeled"].items()}
                else:
                    y = snap["labeled"]
                try:
                    err = float(np.max(np.abs(mu[order] - pkg.conditional_mean_direct(lap, y))))
                except Exception as exc:  # a failing oracle is a failed check
                    self.expect(False, f"{label} class {c}: direct solve raised {exc!r}")
                    continue
                self.expect(err <= ORACLE_TOL,
                            f"{label} class {c}: mean off the direct solve by {err:.3e}")


# -- modes ------------------------------------------------------------------

def warm_up(pkg, wl) -> None:
    """Load BLAS/LAPACK pages and first-call paths before anything is timed."""
    rng = np.random.default_rng(0)
    a = rng.random((400, 400))
    a = a @ a.T + 400 * np.eye(400)
    for _ in range(2):
        scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), np.eye(400))
    pkg.run_experiment(make_config(pkg, wl, 0, graph=wl.warm_graph, runs=1, budget=3))


def envelope(exps: list[Experiment]) -> np.ndarray:
    """Each interval of a call at its fastest repeat (the lower envelope).

    Every repeat does identical work, and contention from other tenants of
    the machine only ever adds time, so the envelope estimates the
    program's own cost far more steadily than a median over calls does.
    """
    good = [e.intervals for e in exps if not e.error]
    return np.min(good, axis=0) if good else np.zeros(1, np.int64)


def _keep_going(done: list[Experiment], seconds: float, t0: float, minimum: int, per: int) -> bool:
    """Another round of ``per`` calls if fewer than ``minimum`` ran or it fits in ``seconds``."""
    if any(e.error for e in done):
        return False
    if len(done) < minimum:
        return True
    elapsed = time.perf_counter() - t0
    last_round = sum(e.seconds for e in done[-per:])
    return elapsed + last_round <= seconds


def untraced_mode(pkg, wl, seed: int, seconds: float, checks: Checks):
    cfg = make_config(pkg, wl, seed)
    exps: list[Experiment] = []
    t0 = time.perf_counter()
    while _keep_going(exps, seconds, t0, minimum=2, per=1):
        exps.append(Experiment(cfg, OUT_DIR / f"{wl.name}.csv").run(pkg))
    checks.experiments(exps)
    if exps[0].finals:
        checks.oracle(pkg, wl, seed, exps[0].finals)

    env = envelope(exps)
    setup_mask, step_mask = interval_masks(cfg) if env.size > 1 else (env > 0, env > 0)
    setup, steps = env[setup_mask], env[step_mask]
    metrics = {
        "setup_s": (float(np.median(setup)) / 1e9 if setup.size else 0.0, "s"),
        "experiment_s": (float(env.sum()) / 1e9, "s"),
        "step_p50_ms": (float(np.percentile(steps, 50)) / 1e6 if steps.size else 0.0, "ms"),
        "step_p90_ms": (float(np.percentile(steps, 90)) / 1e6 if steps.size else 0.0, "ms"),
        "queries_per_s": (steps.size / (float(steps.sum()) / 1e9) if steps.size else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_accuracy": (exps[0].accuracy[0], "fraction"),
        "mean_accuracy": (exps[0].accuracy[1], "fraction"),
    }
    samples = {"experiments": len(exps), "setup": int(setup.size), "steps": int(steps.size),
               "experiment_s": [round(e.seconds, 4) for e in exps]}
    return exps, metrics, samples


def traced_mode(pkg, wl, seed: int, seconds: float, checks: Checks):
    """Alternates untraced and traced calls; all traced spans share one list."""
    cfg = make_config(pkg, wl, seed)
    labels = [s.label for s in cfg.strategies]
    plain: list[Experiment] = []
    traced: list[Experiment] = []
    both: list[Experiment] = []
    spans: list[list] = []
    missing: list[str] = []
    t0 = time.perf_counter()
    while _keep_going(both, seconds, t0, minimum=2, per=2):
        # which of the pair goes first alternates, so drift favours neither
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                with Tracer(PACKAGE, labels, cfg.budget, spans) as tracer:
                    e = Experiment(cfg, OUT_DIR / f"{wl.name}.traced.csv").run(pkg, tracer)
                missing = tracer.missing
                traced.append(e)
            else:
                e = Experiment(cfg, OUT_DIR / f"{wl.name}.csv").run(pkg)
                plain.append(e)
            both.append(e)
            if e.error:
                break
    checks.experiments(both)
    if traced and traced[0].finals:
        checks.oracle(pkg, wl, seed, traced[0].finals)
    metrics = layer_metrics(spans, max(len(traced), 1))
    plain_s = float(envelope(plain).sum()) / 1e9
    traced_s = float(envelope(traced).sum()) / 1e9 if traced else plain_s
    metrics["bench.traced_experiment_s"] = (traced_s, "s")
    metrics["trace_overhead"] = (traced_s / plain_s - 1.0, "fraction")
    write_spans(spans, OUT_DIR / f"{wl.name}.spans.csv")
    samples = {"untraced_s": [round(e.seconds, 4) for e in plain],
               "traced_s": [round(e.seconds, 4) for e in traced],
               "spans": len(spans), "unwrapped": missing}
    return both, metrics, samples


# -- entry points -----------------------------------------------------------

def run_one(args) -> int:
    pkg = import_package()
    wl = WORKLOADS[args.workload]
    seed = wl.seed if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    facts = machine_facts()
    warm_up(pkg, wl)
    mode = traced_mode if args.trace else untraced_mode
    checks = Checks()
    exps, metrics, samples = mode(pkg, wl, seed, args.seconds, checks)
    problems = checks.problems
    attempted = sum(e.total_steps for e in exps) + checks.attempted
    failed = sum(e.failed_steps for e in exps) + len(problems)
    info = {
        "workload": wl.name, "seed": seed, "trace": args.trace,
        "config": {"graph": wl.graph, "strategies": wl.strategies, "budget": wl.budget,
                   "runs": wl.runs, "delta": wl.delta},
        "why": wl.why, "layer_map": wl.layer_map, "expect": wl.expect,
        "machine": facts, "samples": samples, "problems": problems,
    }
    print(json.dumps(info))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every listed workload in its own process; one table of metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment base seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
