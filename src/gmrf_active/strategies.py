"""Query-selection utilities for active sampling on graph label fields.

Every scorer evaluates how much disclosing one node's label is expected to
perturb the current field model, using only the inverse-Laplacian block ``G``,
its row sums ``G 1`` and the conditional mean ``mu``:

- ``klg``: expected Gaussian-field divergence ``(1 - mu_i^2) / (2 g_ii)``.
- ``tv``:  expected total variation ``2 (1 - mu_i^2) ||g_i||_1 / g_ii``.
- ``msd``: expected mean-square deviation ``(1 - mu_i^2) ||g_i||_2^2 / g_ii^2``.
- ``vm`` / ``sigma-opt``: label-independent ensemble scores
  ``||g_i||_2^2 / g_ii`` and ``||g_i||_1^2 / g_ii``.
- ``fl`` / ``kl``: retraining-based expected prediction flips and summed
  Bernoulli divergences. They are the only scorers that evaluate
  hypothetical means: two per candidate, with everything else built once
  per scan.
- ``unc``: negative top-two soft-label margin.

A :class:`Strategy` bundles a scorer with its confidence schedule ``a_t``
(mixing the posterior toward the uninformative prior) and an optional
hybrid schedule ``pi_t`` that diverts single queries to uniform random
exploration. Scoring changes no field of a model; fl and kl scans only add
their hypothetical means to the model's ``retrain_calls`` counter.
:func:`select` takes the best score, with scores within ``TIE_RTOL`` of it
counted as ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gmrf import DECISION_ATOL, PIVOT_FLOOR, GmrfModel, soft_labels

KINDS = ("random", "unc", "vm", "sigma-opt", "fl", "klg", "kl", "tv", "msd")
RETRAINING_KINDS = ("fl", "kl")
BINARY_ONLY_KINDS = ("fl", "kl", "klg")

_LOG_FLOOR = 1e-12

# Relative gap below which select treats two scores as tied. Scores that tie
# in exact arithmetic (grid symmetry) were measured to differ by rounding of
# at most about 2e-13 relative; no genuine top-two gap below 1e-10 was seen.
TIE_RTOL = 1e-11


@dataclass(frozen=True)
class Strategy:
    """A named scorer plus its schedule parameters.

    ``confidence`` is one of ``none``, ``inv_sqrt`` (``a_t = 1/sqrt(t)``), or
    ``const:<a>`` with ``a`` in [0, 1]. ``hybrid_scale`` sets
    ``pi_t = min(1, scale / sqrt(t))``, the per-iteration probability of a
    uniform exploration query; 0 disables it. ``maxmin`` replaces the
    expectation over candidate labels by the worst case and applies only to
    the retraining-based scorers (fl, kl).
    """

    kind: str
    confidence: str = "none"
    hybrid_scale: float = 0.0
    maxmin: bool = False
    name: str | None = None
    _confidence: tuple[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; choose from {KINDS}")
        object.__setattr__(self, "_confidence", _parse_confidence(self.confidence))
        if not (math.isfinite(self.hybrid_scale) and self.hybrid_scale >= 0):
            raise ValueError(f"hybrid_scale must be finite and >= 0, got {self.hybrid_scale}")
        if self.maxmin and self.kind not in RETRAINING_KINDS:
            raise ValueError("maxmin applies only to the retraining-based scorers (fl, kl)")

    @property
    def label(self) -> str:
        return self.name or self.kind

    def alpha(self, t: int) -> float:
        """Confidence weight ``a_t`` at iteration ``t`` (1-based)."""
        mode, value = self._confidence
        if mode == "none":
            return 0.0
        if mode == "inv_sqrt":
            return min(1.0, 1.0 / math.sqrt(max(t, 1)))
        return value

    def mixing_probability(self, t: int) -> float:
        """Uniform-branch probability ``pi_t`` at iteration ``t``."""
        if self.hybrid_scale == 0.0:
            return 0.0
        return min(1.0, self.hybrid_scale / math.sqrt(max(t, 1)))


def _parse_confidence(text: str) -> tuple[str, float]:
    if text == "none":
        return "none", 0.0
    if text == "inv_sqrt":
        return "inv_sqrt", 0.0
    if text.startswith("const:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad confidence spec {text!r}") from None
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"confidence constant must lie in [0, 1], got {value}")
        return "const", value
    raise ValueError(f"bad confidence spec {text!r}; expected none, inv_sqrt, or const:<a>")


def _gcol(model, node: int) -> tuple[int, np.ndarray, float]:
    """Position, column ``g_i`` and diagonal ``g_ii`` of ``node`` in ``model.G``.

    The column is read as the equal, contiguous row: ``G`` is symmetric.
    """
    pos = model.position(node)
    return pos, model.G[pos], model.pivot(pos)


def _binary_mu(model: GmrfModel) -> np.ndarray:
    """``model.mu``; a model with more than two classes has none to score."""
    if model.mu is None:
        raise ValueError(
            "the per-node scorers tv, msd, klg, fl and kl are defined for binary models "
            f"only, but the model has {model.num_classes} classes"
        )
    return model.mu


def _column(model: GmrfModel, node: int) -> tuple[int, np.ndarray, float, float]:
    mu = _binary_mu(model)
    pos, gi, gii = _gcol(model, node)
    return pos, gi, gii, float(mu[pos])


def score_klg(model: GmrfModel, node: int) -> float:
    """Expected Gaussian-field divergence: ``(1 - mu_i^2) / (2 g_ii)``."""
    _, _, gii, mui = _column(model, node)
    return (1.0 - mui * mui) / (2.0 * gii)


def score_tv(model: GmrfModel, node: int) -> float:
    """Expected total variation: ``2 (1 - mu_i^2) ||g_i||_1 / g_ii``."""
    _, gi, gii, mui = _column(model, node)
    return 2.0 * (1.0 - mui * mui) * float(np.abs(gi).sum()) / gii


def score_msd(model: GmrfModel, node: int) -> float:
    """Expected mean-square deviation: ``(1 - mu_i^2) ||g_i||_2^2 / g_ii^2``."""
    _, gi, gii, mui = _column(model, node)
    return (1.0 - mui * mui) * float(gi @ gi) / (gii * gii)


def score_vm(model: GmrfModel, node: int) -> float:
    """Ensemble variance score ``||g_i||_2^2 / g_ii`` (label-independent)."""
    _, gi, gii = _gcol(model, node)
    return float(gi @ gi) / gii


def score_sigma_opt(model: GmrfModel, node: int) -> float:
    """Ensemble l1 score ``||g_i||_1^2 / g_ii`` (label-independent)."""
    _, gi, gii = _gcol(model, node)
    l1 = float(np.abs(gi).sum())
    return l1 * l1 / gii


def _mix(alpha: float, p):
    """Posterior ``p`` mixed toward the uninformative prior 1/2 by ``alpha``."""
    return 0.5 * alpha + (1.0 - alpha) * p


def _expected_change(model: GmrfModel, kind: str, alpha: float, maxmin: bool,
                     positions) -> np.ndarray:
    """fl / kl scores of the unlabeled nodes at ``positions``.

    Each candidate label gives one total change over ``U \\ {node}``: the
    prediction flips (fl) or the summed Bernoulli divergences of the soft
    labels (kl) that its hypothetical mean causes. The two totals are
    combined by the confidence-mixed posterior of ``node``, or by the
    minimum when ``maxmin`` is set. The reference labels (fl), their floored
    logs (kl) and the mixed posterior are built once per call; each candidate
    costs two hypothetical means.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"confidence weight must lie in [0, 1], got {alpha}")
    mu = _binary_mu(model)
    p = soft_labels(mu)
    if kind == "fl":
        above = mu > DECISION_ATOL
    else:
        logs = _floored_log(p), _floored_log(1.0 - p)
    w_plus = _mix(alpha, p)
    scores = np.empty(len(positions))
    for k, pos in enumerate(positions):
        node = int(model.unlabeled[pos])
        totals = []
        for value in (1.0, -1.0):
            mu_plus = model.hypothetical_mean(node, value)
            if kind == "fl":
                flips = (mu_plus > DECISION_ATOL) != above
                flips[pos] = False
                totals.append(float(np.count_nonzero(flips)))
            else:
                per_node = _kl_from_logs(soft_labels(mu_plus), *logs)
                per_node[pos] = 0
                totals.append(float(per_node.sum()))
        plus, minus = totals
        w = w_plus[pos]
        scores[k] = min(plus, minus) if maxmin else w * plus + (1.0 - w) * minus
    return scores


def score_fl(model: GmrfModel, node: int, alpha: float = 0.0, maxmin: bool = False) -> float:
    """Expected number of prediction flips among the other unlabeled nodes.

    A node flips when its hypothetical mean changes its binary decision
    (above ``DECISION_ATOL`` or not) against the current one; see
    :func:`_expected_change` for how the two labels combine.
    """
    return float(_expected_change(model, "fl", alpha, maxmin, [model.position(node)])[0])


def _bernoulli_kl(p, q) -> np.ndarray:
    """Elementwise KL(Ber(p) || Ber(q)), natural log, floored log arguments.

    The analytic value is nonnegative, so rounding dips below zero are
    clamped away. The kl scan computes the same values through
    :func:`_kl_from_logs`; this form is the reference it is tested against.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    term = p * (np.log(np.maximum(p, _LOG_FLOOR)) - np.log(np.maximum(q, _LOG_FLOOR)))
    term += (1.0 - p) * (
        np.log(np.maximum(1.0 - p, _LOG_FLOOR)) - np.log(np.maximum(1.0 - q, _LOG_FLOOR))
    )
    return np.maximum(term, 0.0)


def _floored_log(x) -> np.ndarray:
    return np.log(np.maximum(x, _LOG_FLOOR))


def _kl_from_logs(p: np.ndarray, log_q: np.ndarray, log_1mq: np.ndarray) -> np.ndarray:
    """:func:`_bernoulli_kl` of ``p`` against a ``q`` given by its floored logs.

    A scan against one reference ``q`` takes ``log q`` and ``log(1 - q)``
    once instead of once per candidate.
    """
    term = p * (_floored_log(p) - log_q)
    term += (1.0 - p) * (_floored_log(1.0 - p) - log_1mq)
    return np.maximum(term, 0.0)


def score_kl(model: GmrfModel, node: int, alpha: float = 0.0, maxmin: bool = False) -> float:
    """Summed Bernoulli divergences inflicted on the other unlabeled nodes.

    Every other node's soft label moves from ``(mu_j + 1) / 2`` to that of
    the hypothetical mean; the per-node divergences are summed and the two
    labels combined as in :func:`_expected_change`.
    """
    return float(_expected_change(model, "kl", alpha, maxmin, [model.position(node)])[0])


def _top_two_margin(means: np.ndarray) -> np.ndarray:
    """Negative gap between the two largest class means, along axis 0.

    For C = 2 it equals ``-2 |mu|`` exactly: ``m - (-m)`` rounds as ``m + m``.
    """
    c = means.shape[0]
    top2 = np.partition(means, (c - 2, c - 1), axis=0)[-2:]
    return -(top2[1] - top2[0])


def score_unc(model: GmrfModel, node: int) -> float:
    """Negative top-two soft-label margin (higher = more uncertain)."""
    return float(_top_two_margin(model.means[:, model.position(node)]))


def _class_spread(mm: GmrfModel) -> np.ndarray:
    """``sum_c (1 - pbar_c^2)`` per node, with pbar the normalized shifted means."""
    shifted = soft_labels(mm.means)
    total = shifted.sum(axis=0)
    safe = np.where(total > 0, total, 1.0)
    pbar = np.where(total > 0, shifted / safe, 1.0 / mm.num_classes)
    return mm.num_classes - (pbar * pbar).sum(axis=0)


def score_tv_mc(mm: GmrfModel, node: int) -> float:
    """Multi-class total-variation score ``sum_c (1 - pbar_c^2) ||g_i||_1 / g_ii``."""
    pos, gi, gii = _gcol(mm, node)
    return float(_class_spread(mm)[pos]) * float(np.abs(gi).sum()) / gii


def score_msd_mc(mm: GmrfModel, node: int) -> float:
    """Multi-class deviation score ``sum_c (1 - pbar_c^2) ||g_i||_2^2 / g_ii^2``."""
    pos, gi, gii = _gcol(mm, node)
    return float(_class_spread(mm)[pos]) * float(gi @ gi) / (gii * gii)


def _scan_diag(G: np.ndarray) -> np.ndarray:
    dg = np.diagonal(G)
    if dg.size == 0:
        raise ValueError("no unlabeled nodes to score")
    if dg.min() < PIVOT_FLOOR:
        raise ValueError(f"degenerate diagonal in G (min {dg.min():.3e})")
    return dg


def _ensemble_scan(model: GmrfModel, dg: np.ndarray, kind: str) -> np.ndarray:
    """Label-independent vm / sigma-opt scores of every column of ``G``."""
    if kind == "vm":
        G = model.G
        return (G * G).sum(axis=0) / dg
    l1 = model.row_sums
    return l1 * l1 / dg


def _change_scan(model: GmrfModel, dg: np.ndarray, kind: str, alpha: float,
                 weight: np.ndarray) -> np.ndarray:
    """tv / msd scores with per-node label weight ``weight``.

    tv reads the column l1 norms from the carried ``G 1``, so its scan is
    O(|U|); msd sums the squares of ``G``. With ``alpha > 0`` tv blends
    toward the sigma-opt score and msd toward the vm score:
    ``0.5 alpha * ensemble + (1 - alpha) * adaptive``.
    """
    if kind == "tv":
        l1 = model.row_sums
        base = weight * l1 / dg
        if alpha == 0.0:
            return base
        return 0.5 * alpha * (l1 * l1 / dg) + (1.0 - alpha) * base
    if kind == "msd":
        G = model.G
        l2sq = (G * G).sum(axis=0)
        base = weight * l2sq / (dg * dg)
        if alpha == 0.0:
            return base
        return 0.5 * alpha * (l2sq / dg) + (1.0 - alpha) * base
    raise ValueError(f"unknown strategy kind {kind!r}")


def utility_scores(strategy: Strategy, model, t: int) -> np.ndarray:
    """Schedule-adjusted scores of every unlabeled node at iteration ``t``.

    With confidence weight ``a_t``: tv blends toward the sigma-opt score and
    msd toward the vm score (``0.5 a_t * ensemble + (1 - a_t) * adaptive``),
    while klg/fl/kl take their label expectation under the mixed posterior.
    Returned array aligns with ``model.unlabeled``.
    """
    kind = strategy.kind
    if kind == "random":
        raise ValueError("the random strategy is not score-driven")
    binary = model.num_classes == 2
    if not binary and kind in BINARY_ONLY_KINDS:
        raise ValueError(f"strategy {kind!r} is defined for binary models only")
    alpha = strategy.alpha(t)
    dg = _scan_diag(model.G)
    if kind in ("vm", "sigma-opt"):
        return _ensemble_scan(model, dg, kind)
    if kind == "unc":
        return _top_two_margin(model.means)
    if not binary:
        return _change_scan(model, dg, kind, alpha, _class_spread(model))
    if kind in RETRAINING_KINDS:
        return _expected_change(model, kind, alpha, strategy.maxmin, range(model.num_unlabeled))
    mu = model.mu
    unc_term = 1.0 - mu * mu
    if kind == "klg":
        if alpha == 0.0:
            return unc_term / (2.0 * dg)
        w_plus = _mix(alpha, soft_labels(mu))
        return (w_plus * (1.0 - mu) ** 2 + (1.0 - w_plus) * (1.0 + mu) ** 2) / (2.0 * dg)
    return _change_scan(model, dg, kind, alpha, 2.0 * unc_term if kind == "tv" else unc_term)


def _uniform_draw(ids: np.ndarray, rng: np.random.Generator) -> int:
    return int(ids[rng.integers(ids.size)])


def select(strategy: Strategy, model, t: int, rng: np.random.Generator) -> int:
    """Pick the next query node at iteration ``t`` (1-based).

    The first iteration queries uniformly at random, as does the ``random``
    strategy at every iteration. Otherwise, with probability ``pi_t`` the
    hybrid rule queries uniformly over the unlabeled nodes; else the node
    with the highest adjusted utility wins. Scores within ``TIE_RTOL`` (1e-11)
    relative of the best tie with it, and of tied nodes the lowest id wins:
    rounding alone never decides a tie.
    """
    ids = model.unlabeled
    if ids.size == 0:
        raise ValueError("no unlabeled nodes to select from")
    if t <= 1 or strategy.kind == "random":
        return _uniform_draw(ids, rng)
    pi_t = strategy.mixing_probability(t)
    if pi_t > 0.0 and rng.random() < pi_t:
        return _uniform_draw(ids, rng)
    scores = utility_scores(strategy, model, t)
    best = scores.max()
    return int(ids[(scores >= best - TIE_RTOL * abs(best)).argmax()])

