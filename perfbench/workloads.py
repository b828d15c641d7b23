"""Benchmark workloads: one experiment config each, why it was chosen, and
which end-to-end metric each per-layer metric should move on it.

Every workload is a closed loop: one caller runs ``run_experiment`` and each
query step starts only after the previous one has been absorbed.

Sizes are kept small on purpose. On the shared 2-core machine the benchmark
was built on, the timings of grids with n=900 to 3969 spread by 9-50% between
runs minutes apart. At n <= 400 a run repeats its call 25-150 times, and the
spread of the lower envelope of those repeats fell to 7-21%.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    strategies: tuple[tuple[str, str], ...]  # (kind, confidence)
    budget: int
    runs: int
    seed: int  # used when --seed is not given
    delta: float
    warm_graph: str  # small graph of the same kind, run once before timing
    why: str
    # per-layer metric -> end-to-end metric it should move on this workload
    layer_map: dict[str, str] = field(default_factory=dict)
    # prediction for optimisations that bypass this workload's hot layer
    expect: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-small",
            graph="grid:10x10",
            strategies=(("tv", "inv_sqrt"), ("msd", "none"), ("klg", "none"),
                        ("random", "none")),
            budget=30,
            runs=50,
            seed=7,
            delta=0.005,
            warm_graph="grid:6x6",
            why="acceptance criterion 6 config; at n=100 interpreter overhead "
                "(observe bookkeeping, predicted_classes, select) dominates",
            layer_map={
                "bench.predicted_classes.ms": "experiment_s",
                "gmrf.observe.ms": "step_p50_ms",
                "strategies.select.ms": "step_p50_ms",
            },
            expect="dense-kernel work (inverse, downdate memory traffic) "
                   "predicts no change here",
        ),
        Workload(
            name="community-mc",
            graph="community:75,105,120:pin=0.15:pout=0.006",
            strategies=(("tv", "inv_sqrt"), ("msd", "inv_sqrt"), ("vm", "none"),
                        ("sigma-opt", "none")),
            budget=20,
            runs=5,
            seed=11,
            delta=0.2,
            warm_graph="community:10,10,10:pin=0.5:pout=0.05",
            why="criterion 7's strategies, T and delta on a 300-node 3-class "
                "graph; the only multi-class workload, where one inverse "
                "shared by the class fields would show",
            layer_map={
                "graph.from_spec.ms": "setup_s",
                "graph.regularized_laplacian.ms": "setup_s",
                "gmrf.spd_inverse.ms": "setup_s",
                "gmrf.observe.ms": "experiment_s, step_p50_ms",
                "gmrf.observe.binary_calls": "experiment_s, step_p50_ms",
                "gmrf.observe.state_mb": "peak_rss_mb",
            },
            expect="C=3: one inverse shared by the class fields should cut "
                   "observe time and state here; grid workloads have C=1",
        ),
        Workload(
            name="grid-dense",
            graph="grid:20x20",
            strategies=(("tv", "inv_sqrt"), ("sigma-opt", "none")),
            budget=30,
            runs=2,
            seed=3,
            delta=0.005,
            warm_graph="grid:6x6",
            why="n=400 binary: dense O(|U|^2) downdate and scan kernels "
                "outweigh the interpreter, unlike on grid-small; larger grids "
                "were too unsteady here",
            layer_map={
                "gmrf.spd_inverse.ms": "setup_s",
                "gmrf.observe.ms": "experiment_s, step_p50_ms",
                "gmrf.observe.alloc_peak_mb": "peak_rss_mb",
                "gmrf.observe.state_mb": "peak_rss_mb",
                "strategies.select.ms": "step_p50_ms",
                "strategies.utility_scores.ms": "step_p50_ms",
            },
            expect="C=1: sharing one inverse between class fields predicts no "
                   "change here; an in-place downdate or dpotri should show",
        ),
        Workload(
            name="grid-retrain",
            graph="grid:10x10",
            strategies=(("fl", "none"), ("kl", "inv_sqrt")),
            budget=30,
            runs=2,
            seed=5,
            delta=0.005,
            warm_graph="grid:6x6",
            why="grid-small's graph with fl and kl: the only retraining path; "
                "each scan reads G columns 2|U| times through position() and "
                "hypothetical_mean",
            layer_map={
                "gmrf.hypothetical_mean.us": "step_p90_ms, experiment_s",
                "gmrf.hypothetical_mean.calls": "step_p90_ms, experiment_s",
                "strategies.retrain_calls_per_scan": "step_p90_ms, experiment_s",
                "strategies.select.ms": "step_p90_ms",
            },
            expect="a faster observe that slows reads (e.g. an unsorted "
                   "unlabeled array) shows here as a slower select",
        ),
        # Not listed in BENCHMARK.json: the planned n=3969 config, for per-layer
        # traces at the north star's size. A call takes 30 s or more and its
        # timings drifted by 9-13% between runs here, too much for a bound.
        Workload(
            name="grid-large",
            graph="grid:63x63",
            strategies=(("tv", "inv_sqrt"), ("sigma-opt", "none")),
            budget=30,
            runs=2,
            seed=3,
            delta=0.005,
            warm_graph="grid:6x6",
            why="n=3969: the initial inverse and the memory-bound downdate of "
                "a 126 MB G set the set-up and the step time",
            layer_map={
                "gmrf.spd_inverse.ms": "setup_s",
                "gmrf.observe.ms": "experiment_s, step_p50_ms",
                "gmrf.observe.alloc_peak_mb": "peak_rss_mb",
                "strategies.select.ms": "step_p50_ms",
            },
        ),
        # Not listed in BENCHMARK.json: the seconds-long config the smoke test
        # runs. Multi-class, so the per-class oracle check is exercised.
        Workload(
            name="smoke",
            graph="community:8,8,8:pin=0.6:pout=0.05",
            strategies=(("tv", "inv_sqrt"), ("vm", "none")),
            budget=5,
            runs=2,
            seed=0,
            delta=0.2,
            warm_graph="community:6,6,6:pin=0.6:pout=0.1",
            why="seconds-long multi-class config for the benchmark's own test",
        ),
    )
}
