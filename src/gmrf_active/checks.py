"""Numerical validation suites for the model and the selection rules.

Each check pits an implementation path against an independent reference:
incremental updates vs fresh solves, closed-form score expressions vs
explicit retraining, blocked-inverse identities vs dense algebra, and a
Monte-Carlo estimate vs a trace formula. The CLI ``check`` command runs
:func:`run_all` and the acceptance tests reuse the same functions at their
stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmrf import DECISION_ATOL, GmrfModel, conditional_mean_direct
from .graph import Graph, regularized_laplacian
from .strategies import Strategy, utility_scores

DELTA = 0.005  # regularizer of every random graph's Laplacian


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_connected_graph(n: int, rng: np.random.Generator) -> Graph:
    """Random spanning tree plus each other pair w.p. 0.2; weights in [0.5, 1.5]."""
    order = rng.permutation(n)
    edges: dict[tuple[int, int], float] = {}
    for idx in range(1, n):
        a = int(order[idx])
        b = int(order[rng.integers(idx)])
        key = (a, b) if a < b else (b, a)
        edges[key] = float(rng.uniform(0.5, 1.5))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.2:
                edges[(i, j)] = float(rng.uniform(0.5, 1.5))
    return Graph(n, edges)


def random_model(rng: np.random.Generator, n: int, num_observed: int = 0) -> tuple:
    """Random connected graph, its Laplacian, and a model with some labels."""
    g = random_connected_graph(n, rng)
    lap = regularized_laplacian(g, DELTA)
    model = GmrfModel.from_laplacian(lap, 2)
    for node in rng.permutation(n)[:num_observed]:
        model.observe(int(node), 1 if rng.random() < 0.5 else 0)
    return g, lap, model


def check_incremental_vs_direct(seed: int = 0) -> CheckResult:
    """Full observe sequences vs fresh solves and dense inverses."""
    num_graphs, tol = 30, 1e-8
    rng = np.random.default_rng(seed)
    worst_mu = 0.0
    worst_g = 0.0
    for _ in range(num_graphs):
        n = int(rng.integers(5, 41))
        g = random_connected_graph(n, rng)
        lap = regularized_laplacian(g, DELTA)
        model = GmrfModel.from_laplacian(lap, 2)
        for node in rng.permutation(n)[: n - 1]:
            model.observe(int(node), 1 if rng.random() < 0.5 else 0)
            signed = {k: 2.0 * c - 1.0 for k, c in model.labeled.items()}
            direct = conditional_mean_direct(lap, signed)
            worst_mu = max(worst_mu, float(np.abs(model.mu - direct).max()))
            unl = [int(i) for i in model.unlabeled]
            dense = np.linalg.inv(lap.matrix[np.ix_(unl, unl)])
            worst_g = max(worst_g, float(np.abs(model.G - dense).max()))
    passed = worst_mu < tol and worst_g < tol
    return CheckResult(
        "incremental updates vs direct solves",
        passed,
        f"max mean error {worst_mu:.2e}, max inverse error {worst_g:.2e} "
        f"over {num_graphs} graphs (tol {tol:.0e})",
    )


def check_partition_identity(seed: int = 1) -> CheckResult:
    """Blocked-inverse identity C_UL C_LL^{-1} = -M_UU^{-1} M_UL."""
    num_instances, tol = 20, 1e-8
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_instances):
        n = int(rng.integers(6, 31))
        g = random_connected_graph(n, rng)
        M = regularized_laplacian(g, DELTA).matrix
        C = np.linalg.inv(M)
        size_l = int(rng.integers(1, n))
        perm = rng.permutation(n)
        lab = sorted(int(i) for i in perm[:size_l])
        unl = sorted(int(i) for i in perm[size_l:])
        lhs = C[np.ix_(unl, lab)] @ np.linalg.inv(C[np.ix_(lab, lab)])
        rhs = -np.linalg.solve(M[np.ix_(unl, unl)], M[np.ix_(unl, lab)])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CheckResult(
        "blocked-inverse conditioning identity",
        worst < tol,
        f"max entry error {worst:.2e} over {num_instances} instances (tol {tol:.0e})",
    )


def check_squared_distance_identity(seed: int = 2) -> CheckResult:
    """Monte-Carlo E||x1 - x2||^2 vs 2 tr(C) + ||m1 - m2||^2.

    x1 and x2 are independent Gaussians with shared covariance C.
    """
    num_instances, draws, rel_tol = 5, 100_000, 0.02
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_instances):
        dim = int(rng.integers(3, 7))
        m1 = rng.normal(size=dim)
        m2 = rng.normal(size=dim)
        A = rng.normal(size=(dim, dim))
        C = A @ A.T + 0.5 * np.eye(dim)
        chol = np.linalg.cholesky(C)
        x1 = m1 + rng.standard_normal((draws, dim)) @ chol.T
        x2 = m2 + rng.standard_normal((draws, dim)) @ chol.T
        estimate = float(((x1 - x2) ** 2).sum(axis=1).mean())
        exact = 2.0 * np.trace(C) + float((m1 - m2) @ (m1 - m2))
        worst = max(worst, abs(estimate - exact) / exact)
    return CheckResult(
        "squared-distance trace identity",
        worst < rel_tol,
        f"max relative error {worst:.4f} over {num_instances} instances "
        f"with {draws} draws (tol {rel_tol})",
    )


def check_retraining_equivalence(seed: int = 3) -> CheckResult:
    """Closed-form update norms vs explicit hypothetical retraining."""
    num_instances, tol = 10, 1e-8
    rng = np.random.default_rng(seed)
    worst_l1 = 0.0
    worst_l2 = 0.0
    for _ in range(num_instances):
        n = int(rng.integers(6, 31))
        _, _, model = random_model(rng, n, num_observed=int(rng.integers(1, n // 2 + 1)))
        for node in model.unlabeled:
            node = int(node)
            pos = model.position(node)
            gi = model.G[:, pos]
            gii = model.G[pos, pos]
            mui = model.mu[pos]
            for value in (1.0, -1.0):
                diff = model.hypothetical_mean(node, value) - model.mu
                l1_closed = abs(value - mui) * float(np.abs(gi).sum()) / gii
                l2_closed = (value - mui) ** 2 * float(gi @ gi) / (gii * gii)
                worst_l1 = max(worst_l1, abs(float(np.abs(diff).sum()) - l1_closed))
                worst_l2 = max(worst_l2, abs(float(diff @ diff) - l2_closed))
    passed = worst_l1 < tol and worst_l2 < tol
    return CheckResult(
        "closed-form vs retraining update norms",
        passed,
        f"max l1 error {worst_l1:.2e}, max squared-l2 error {worst_l2:.2e} "
        f"over {num_instances} instances (tol {tol:.0e})",
    )


def check_nonadaptive_reduction(seed: int = 4) -> CheckResult:
    """At full confidence the adaptive scores pick the ensemble argmax.

    msd with a_t = 1 must select vm's argmax and tv must select
    sigma-opt's argmax, exactly, on tie-free instances.
    """
    num_instances = 20
    rng = np.random.default_rng(seed)
    collected = 0
    attempts = 0
    mismatches = 0
    while collected < num_instances and attempts < 20 * num_instances:
        attempts += 1
        n = int(rng.integers(6, 31))
        _, _, model = random_model(rng, n, num_observed=int(rng.integers(1, n // 2 + 1)))
        vm = utility_scores(Strategy("vm"), model, t=2)
        sig = utility_scores(Strategy("sigma-opt"), model, t=2)

        def tie_free(scores: np.ndarray) -> bool:
            top = np.sort(scores)[-2:]
            return top[1] - top[0] > 1e-9 * max(abs(top[1]), 1.0)

        if not (tie_free(vm) and tie_free(sig)):
            continue
        collected += 1
        msd_full = utility_scores(Strategy("msd", confidence="const:1"), model, t=2)
        tv_full = utility_scores(Strategy("tv", confidence="const:1"), model, t=2)
        if int(np.argmax(msd_full)) != int(np.argmax(vm)):
            mismatches += 1
        if int(np.argmax(tv_full)) != int(np.argmax(sig)):
            mismatches += 1
    passed = collected == num_instances and mismatches == 0
    return CheckResult(
        "full-confidence reduction to ensemble scores",
        passed,
        f"{collected} of {num_instances} tie-free instances, {mismatches} argmax mismatches",
    )


def check_bounds_and_symmetry(seed: int = 5) -> CheckResult:
    """Mean boundedness plus sign symmetry under label negation.

    Negating every observed label must negate the mean exactly, flip every
    prediction outside the tie band ``|m| <= DECISION_ATOL``, and leave
    the tv/msd/klg/vm/sigma-opt scores unchanged to 1e-12.
    """
    num_instances = 10
    rng = np.random.default_rng(seed)
    slack = 1e-9
    score_kinds = [Strategy(k) for k in ("tv", "msd", "klg", "vm", "sigma-opt")]
    worst_mu = 0.0
    worst_score = 0.0
    symmetry_ok = True
    for _ in range(num_instances):
        n = int(rng.integers(6, 31))
        g = random_connected_graph(n, rng)
        lap = regularized_laplacian(g, DELTA)
        pos_model = GmrfModel.from_laplacian(lap, 2)
        neg_model = GmrfModel.from_laplacian(lap, 2)
        for node in rng.permutation(n)[: n // 2 + 1]:
            class_id = 1 if rng.random() < 0.5 else 0
            pos_model.observe(int(node), class_id)
            neg_model.observe(int(node), 1 - class_id)
            if pos_model.num_unlabeled == 0:
                break
            worst_mu = max(worst_mu, float(np.abs(pos_model.mu).max()))
            if np.any(pos_model.mu != -neg_model.mu):
                symmetry_ok = False
            preds_pos = pos_model.predict()
            preds_neg = neg_model.predict()
            for unl, m in zip(pos_model.unlabeled, pos_model.mu):
                if abs(m) > DECISION_ATOL and preds_pos[int(unl)] == preds_neg[int(unl)]:
                    symmetry_ok = False
            for strat in score_kinds:
                s_pos = utility_scores(strat, pos_model, t=2)
                s_neg = utility_scores(strat, neg_model, t=2)
                worst_score = max(worst_score, float(np.abs(s_pos - s_neg).max()))
    passed = worst_mu <= 1.0 + slack and symmetry_ok and worst_score <= 1e-12
    return CheckResult(
        "mean bounds and negation symmetry",
        passed,
        f"max |mu| {worst_mu:.12f} (<= 1 + {slack:.0e}), max score asymmetry "
        f"{worst_score:.2e} (tol 1e-12), sign symmetry "
        f"{'ok' if symmetry_ok else 'violated'} over {num_instances} instances",
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every suite with seeds offset from ``seed``."""
    return [
        check_incremental_vs_direct(seed=seed),
        check_partition_identity(seed=seed + 1),
        check_squared_distance_identity(seed=seed + 2),
        check_retraining_equivalence(seed=seed + 3),
        check_nonadaptive_reduction(seed=seed + 4),
        check_bounds_and_symmetry(seed=seed + 5),
    ]
