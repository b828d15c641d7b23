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
  hypothetical means: two per candidate, formed for both label values of a
  block of candidates at once from rows of ``G``, with everything else built
  once per scan. Their scan in :func:`utility_scores` is the only reader of
  :meth:`GmrfModel.rows`, so only it makes the model carry ``G``, from its
  first scan on. The one-node :func:`score_fl` and :func:`score_kl`, like
  every other per-node scorer, read ``model.G`` and leave the model
  factored.
- ``unc``: negative top-two soft-label margin.

The four closed-form kinds vm, sigma-opt, tv and msd share one scan in
:func:`utility_scores` over two column norms of ``G``: the carried ``G 1``
(sigma-opt, tv) and the column sums of squares (vm, msd). For C >= 3, tv and
msd weigh a node by its class spread ``sum_c (1 - pbar_c^2)`` in place of the
binary ``1 - mu_i^2``; the kinds in ``BINARY_ONLY_KINDS`` are binary only.

A :class:`Strategy` bundles a scorer with its confidence schedule ``a_t``
(mixing the posterior toward the uninformative prior) and an optional
hybrid schedule ``pi_t`` that diverts single queries to uniform random
exploration. Scoring changes no field of a model; fl and kl scans only count
their hypothetical means in the model's ``retrain_calls``.
:func:`select` takes the best score, with scores within ``TIE_RTOL`` of it,
relative, or ``TIE_ATOL`` per unlabeled node, absolute, counted as ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gmrf import DECISION_ATOL, PIVOT_FLOOR, GmrfModel, soft_labels
from .graph import _as_int, _as_real

KINDS = ("random", "unc", "vm", "sigma-opt", "fl", "klg", "kl", "tv", "msd")
RETRAINING_KINDS = ("fl", "kl")
BINARY_ONLY_KINDS = ("fl", "kl", "klg")

_LOG_FLOOR = 1e-12

# Relative gap below which select treats two scores as tied. Scores that tie
# in exact arithmetic (grid symmetry) were measured to differ by rounding of
# at most about 2e-13 relative; no genuine top-two gap below 1e-10 was seen.
TIE_RTOL = 1e-11

# Absolute gap, per unlabeled node, below which select treats two scores as
# tied whatever the best score is, so that scores at rounding level tie and
# the lowest id wins. A score sums at most |U| per-node terms. Late in a long
# budget every kl score is rounding noise: on grid:10x10 with T=99 the best
# one falls from 1.0e-3 at t=64 to 7.5e-16 at t=65, and over kl runs on
# grids of 36 to 144 nodes and a 30-node community the noisy best scores
# stayed below 0.2 eps per unlabeled node. The smallest best score of a
# pinned golden kl scan is 0.15, where TIE_RTOL decides.
TIE_ATOL = float(np.finfo(float).eps)

# Bytes of one block of hypothetical means in the fl / kl scan; the block
# holds both label values of as many candidate rows of G as fit. In a sweep
# from 32 KB to 4 MB at |U| = 98, 398 and 2023 (one BLAS thread, 2-core
# Xeon), 128-512 KB were fastest: smaller blocks pay per-block overhead,
# larger ones fall out of cache.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class Strategy:
    """A named scorer plus its schedule parameters.

    ``confidence`` is ``inv_sqrt`` (``a_t = 1/sqrt(t)``), ``const:<a>`` with
    ``a`` in [0, 1], or ``none``, which is ``const:0``. ``hybrid_scale`` sets
    ``pi_t = min(1, scale / sqrt(t))``, the per-iteration probability of a
    uniform exploration query; 0 disables it. ``maxmin``, a bool, replaces the
    expectation over candidate labels by the worst case and applies only to
    the retraining-based scorers (fl, kl). ``name``, a string or None, is the
    label of the strategy's curve; None (or "") labels it by its kind.
    """

    kind: str
    confidence: str = "none"
    hybrid_scale: float = 0.0
    maxmin: bool = False
    name: str | None = None
    _confidence: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; choose from {KINDS}")
        object.__setattr__(self, "_confidence", _parse_confidence(self.confidence))
        object.__setattr__(self, "hybrid_scale", _as_real(self.hybrid_scale, "hybrid_scale", 0))
        if not isinstance(self.maxmin, bool):
            raise ValueError(f"maxmin must be a bool, got {self.maxmin!r}")
        if self.maxmin and self.kind not in RETRAINING_KINDS:
            raise ValueError("maxmin applies only to the retraining-based scorers (fl, kl)")
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(f"name must be a string or None, got {self.name!r}")

    @property
    def label(self) -> str:
        return self.name or self.kind

    def alpha(self, t: int) -> float:
        """Confidence weight ``a_t`` at iteration ``t``, which goes through
        the integer rule and must be at least 1."""
        t = _as_int(t, "t", 1)
        if self._confidence is None:
            return 1.0 / math.sqrt(t)
        return self._confidence

    def mixing_probability(self, t: int) -> float:
        """Uniform-branch probability ``pi_t`` at iteration ``t``, which goes
        through the integer rule and must be at least 1."""
        return min(1.0, self.hybrid_scale / math.sqrt(_as_int(t, "t", 1)))


def _parse_confidence(text: str) -> float | None:
    """The constant ``a`` of a confidence spec (``none`` is ``const:0``), or
    None for the ``inv_sqrt`` schedule."""
    if not isinstance(text, str):
        raise ValueError(f"confidence must be a string spec, got {text!r}")
    if text == "none":
        return 0.0
    if text == "inv_sqrt":
        return None
    if text.startswith("const:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad confidence spec {text!r}") from None
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"confidence constant must lie in [0, 1], got {value}")
        return value
    raise ValueError(f"bad confidence spec {text!r}; expected none, inv_sqrt, or const:<a>")


def _gcol(model, node: int) -> tuple[int, np.ndarray, float]:
    """Position, column ``g_i`` and diagonal ``g_ii`` of ``node`` in ``model.G``.

    The column is read as the equal row, ``G`` being symmetric: a view of
    the carried block, else of one built in ``O(|U|^2 t)`` and not kept.
    Reading ``G`` never makes the model carry it, so scoring one node
    leaves every later step's cost as it was.
    """
    pos = model.position(node)
    return pos, model.G[pos], model.pivot(pos)


def _binary_mu(model: GmrfModel) -> np.ndarray:
    """``model.mu``; a model with more than two classes has none to score."""
    if model.mu is None:
        raise ValueError(
            f"the scorers {', '.join(BINARY_ONLY_KINDS)} are defined for binary models "
            f"only, but the model has {model.num_classes} classes"
        )
    return model.mu


def _pivots(model: GmrfModel, positions) -> np.ndarray:
    """``diag(G)`` at ``positions``, an index array or a slice, of which
    there must be at least one. If one is degenerate, the positions go to
    :meth:`GmrfModel.pivot` in order, and the first degenerate one raises,
    naming its node. A passing scan costs one minimum over its pivots."""
    pivots = model.diagonal[positions]
    if pivots.size == 0:
        raise ValueError("no unlabeled nodes to score")
    # the entry argmin picks is the minimum, or the first NaN, as min() gives
    if pivots[pivots.argmin()] < PIVOT_FLOOR:
        for pos in np.arange(model.num_unlabeled)[positions]:
            model.pivot(int(pos))
    return pivots


def _label_weight(model: GmrfModel, pos: int, binary_scale: float) -> float:
    """tv / msd weight: ``binary_scale (1 - mu_i^2)`` if C = 2, else the class
    spread ``sum_c (1 - pbar_c^2)``. C = 2 reads the scalar mean, not the scan."""
    if model.mu is None:
        return float(_class_spread(model)[pos])
    mui = float(model.mu[pos])
    return binary_scale * (1.0 - mui * mui)


def score_klg(model: GmrfModel, node: int) -> float:
    """Expected Gaussian-field divergence: ``(1 - mu_i^2) / (2 g_ii)``."""
    mu = _binary_mu(model)
    pos = model.position(node)
    mui = float(mu[pos])
    return (1.0 - mui * mui) / (2.0 * model.pivot(pos))


def score_tv(model: GmrfModel, node: int) -> float:
    """Expected total variation ``w_i ||g_i||_1 / g_ii``, any C >= 2.

    ``w_i`` is ``2 (1 - mu_i^2)`` for C = 2, else the class spread."""
    pos, gi, gii = _gcol(model, node)
    return _label_weight(model, pos, 2.0) * float(np.abs(gi).sum()) / gii


def score_msd(model: GmrfModel, node: int) -> float:
    """Expected mean-square deviation ``w_i ||g_i||_2^2 / g_ii^2``, any C >= 2.

    ``w_i`` is ``1 - mu_i^2`` for C = 2, else the class spread."""
    pos, gi, gii = _gcol(model, node)
    return _label_weight(model, pos, 1.0) * float(gi @ gi) / (gii * gii)


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
                     positions, rows: np.ndarray) -> np.ndarray:
    """fl / kl scores of the unlabeled nodes at ``positions``, whose rows of
    ``G`` are ``rows``.

    Each candidate label gives one total change over ``U \\ {node}``: the
    prediction flips (fl) or the summed Bernoulli divergences of the soft
    labels (kl) that its hypothetical mean causes. The two totals are
    combined by the posterior of ``node`` mixed by the confidence weight
    ``alpha``, which the caller takes from a :class:`Strategy` (so it lies
    in [0, 1]), or by the minimum when ``maxmin`` is set. The reference
    labels (fl), their floored logs (kl) and the mixed posterior are built
    once per call, and every pivot is checked by :func:`_pivots` before any
    scoring: the first degenerate one in ``positions`` order raises.

    The candidates are scored in blocks of ``h`` rows, each a basic slice
    of ``rows``, not a copy, and scored for both label values in one pass
    over a ``(2, h, |U|)`` array of about ``_BLOCK_BYTES``. For a block ``pb``
    of positions, pivots ``g = diag(G)`` and label values ``v = (+1, -1)``,
    entry ``[i, r]`` of
    ``G[pb] * ((v[:, None] - mu[pb]) / g[pb])[:, :, None] + mu`` is the
    hypothetical mean ``mu + ((v_i - mu_k) / g_kk) G[k]`` of candidate
    ``pb[r]``, element for element the same arithmetic as one candidate and
    one label at a time, and the flips or divergences are summed along the
    last axis. Each candidate still costs two hypothetical means,
    ``O(|U|)`` each, all counted in ``model.retrain_calls``; a block never
    holds more than a few ``_BLOCK_BYTES`` of temporaries, so a scan
    materializes no ``|U|^2`` array beyond the ``G`` it reads.
    """
    mu = _binary_mu(model)
    positions = np.asarray(positions, dtype=np.intp)
    pivots = _pivots(model, positions)
    p = soft_labels(mu)
    if kind == "fl":
        above = mu > DECISION_ATOL
    else:
        logs = _floored_log(p), _floored_log(1.0 - p)
    values = np.array([[1.0], [-1.0]])
    height = max(1, _BLOCK_BYTES // (values.size * mu.itemsize * max(mu.size, 1)))
    totals = np.empty((2, positions.size))
    for start in range(0, positions.size, height):
        block = slice(start, start + height)
        pb = positions[block]
        own = (slice(None), np.arange(pb.size), pb)
        means = rows[block] * ((values - mu[pb]) / pivots[block])[:, :, None]
        means += mu
        if kind == "fl":
            flips = means > DECISION_ATOL
            np.not_equal(flips, above, out=flips)
            flips[own] = False
            totals[:, block] = np.count_nonzero(flips, axis=2)
        else:
            per_node = _kl_from_logs(soft_labels(means, out=means), *logs)
            per_node[own] = 0
            totals[:, block] = per_node.sum(axis=2)
    plus, minus = totals
    if maxmin:
        scores = np.minimum(plus, minus)
    else:
        w = _mix(alpha, p)[positions]
        scores = w * plus + (1.0 - w) * minus
    model.retrain_calls += 2 * positions.size
    return scores


def score_fl(model: GmrfModel, node: int) -> float:
    """Expected number of prediction flips among the other unlabeled nodes.

    A node flips when its hypothetical mean changes its binary decision
    (above ``DECISION_ATOL`` or not) against the current one. The two
    labels are weighed by the node's own soft label, the ``none``
    confidence; a schedule or the worst case is a :class:`Strategy`'s, read
    through :func:`utility_scores`. This is the scan's own code on a
    one-row block (:func:`_expected_change`), read from ``model.G``.
    """
    pos = model.position(node)
    return float(_expected_change(model, "fl", 0.0, False, [pos], model.G[pos:pos + 1])[0])


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
    floored = np.maximum(x, _LOG_FLOOR)
    return np.log(floored, out=floored)


def _kl_from_logs(p: np.ndarray, log_q: np.ndarray, log_1mq: np.ndarray) -> np.ndarray:
    """:func:`_bernoulli_kl` of ``p`` against a ``q`` given by its floored logs.

    A scan against one reference ``q`` takes ``log q`` and ``log(1 - q)``
    once instead of once per candidate. The steps run in place on two
    arrays the shape of ``p``, each rounding as in :func:`_bernoulli_kl`.
    """
    term = _floored_log(p)
    term -= log_q
    term *= p
    rest = 1.0 - p
    tail = _floored_log(rest)
    tail -= log_1mq
    rest *= tail
    term += rest
    return np.maximum(term, 0.0, out=term)


def score_kl(model: GmrfModel, node: int) -> float:
    """Summed Bernoulli divergences inflicted on the other unlabeled nodes.

    Every other node's soft label moves from ``(mu_j + 1) / 2`` to that of
    the hypothetical mean, and the per-node divergences are summed. The two
    labels are weighed as in :func:`score_fl`, by the scan's own code on a
    one-row block.
    """
    pos = model.position(node)
    return float(_expected_change(model, "kl", 0.0, False, [pos], model.G[pos:pos + 1])[0])


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
    """``sum_c (1 - pbar_c^2)`` per node, with pbar the normalized shifted means.

    A node whose soft labels are all 0 has the uniform pbar ``1 / C``.
    """
    pbar = soft_labels(mm.means)
    c = pbar.shape[0]
    total = np.add.reduce(pbar, axis=0)
    if total[total.argmin()] > 0:  # (total > 0).all(), NaN included
        pbar /= total
    else:
        safe = np.where(total > 0, total, 1.0)
        pbar = np.where(total > 0, pbar / safe, 1.0 / c)
    pbar *= pbar
    spread = np.add.reduce(pbar, axis=0)
    return np.subtract(c, spread, out=spread)


def utility_scores(strategy: Strategy, model, t: int) -> np.ndarray:
    """Schedule-adjusted scores of every unlabeled node at iteration ``t``.

    vm, sigma-opt, tv and msd share one scan over two column norms of ``G``:
    the carried ``G 1`` (sigma-opt, tv) or the column sums of squares (vm,
    msd). With confidence weight ``a_t``, tv blends toward the sigma-opt
    score and msd toward the vm score
    (``0.5 a_t * ensemble + (1 - a_t) * adaptive``), while klg/fl/kl take
    their label expectation under the mixed posterior. Returned array aligns
    with ``model.unlabeled``. ``t`` goes through the integer rule and must
    be at least 1; every scan rejects a degenerate pivot by
    :meth:`GmrfModel.pivot`, naming the first such node.
    """
    alpha = strategy.alpha(t)  # the scan's one check of t
    kind = strategy.kind
    if kind == "random":
        raise ValueError("the random strategy is not score-driven")
    if kind in RETRAINING_KINDS:
        # every row of G, once a scan: the one read that makes the model carry G
        return _expected_change(model, kind, alpha, strategy.maxmin,
                                np.arange(model.num_unlabeled), model.rows())
    dg = _pivots(model, slice(None))
    if kind == "unc":
        return _top_two_margin(model.means)
    # every scan below runs in place on fresh arrays, each step rounding as
    # the expression in its comment, evaluated left to right
    if kind == "klg":
        mu = _binary_mu(model)
        if alpha == 0.0:
            # (1 - mu * mu) / (2 dg)
            scores = mu * mu
            np.subtract(1.0, scores, out=scores)
        else:
            # (w (1 - mu)^2 + (1 - w) (1 + mu)^2) / (2 dg)
            w = _mix(alpha, soft_labels(mu))
            scores = 1.0 - mu
            scores *= scores
            scores *= w
            plus = 1.0 + mu
            plus *= plus
            plus *= np.subtract(1.0, w, out=w)
            scores += plus
        scores /= 2.0 * dg
        return scores
    l1 = kind in ("tv", "sigma-opt")
    # sigma-opt and tv read the model's own G 1; square_sums() is fresh
    norm = model.row_sums if l1 else model.square_sums()
    adaptive = kind in ("tv", "msd")
    if adaptive:
        # weight * norm / dg (tv) or weight * norm / (dg * dg) (msd), with
        # weight 2 (1 - mu * mu) (tv), 1 - mu * mu (msd) or the class spread
        mu = model.mu
        if mu is None:
            base = _class_spread(model)
        else:
            base = mu * mu
            np.subtract(1.0, base, out=base)
            if l1:
                base *= 2.0
        base *= norm
        base /= dg if l1 else dg * dg
        if alpha == 0.0:
            return base
    # norm * norm / dg (sigma-opt, tv) or norm / dg (vm, msd)
    ensemble = norm * norm if l1 else norm
    ensemble /= dg
    if not adaptive:
        return ensemble
    # 0.5 alpha * ensemble + (1 - alpha) * base
    ensemble *= 0.5 * alpha
    base *= 1.0 - alpha
    ensemble += base
    return ensemble


def _uniform_draw(ids: np.ndarray, rng: np.random.Generator) -> int:
    return int(ids[rng.integers(ids.size)])


def select(strategy: Strategy, model, t: int, rng: np.random.Generator) -> int:
    """Pick the next query node at iteration ``t`` (1-based).

    The first iteration queries uniformly at random, as does the ``random``
    strategy at every iteration. Otherwise, with probability ``pi_t`` the
    hybrid rule queries uniformly over the unlabeled nodes; else the node
    with the highest adjusted utility wins. Scores within ``TIE_RTOL`` (1e-11)
    relative of the best, or within ``TIE_ATOL`` (machine epsilon) per
    unlabeled node of it, tie with it, and of tied nodes the lowest id wins:
    rounding alone never decides a tie, even when every score is at
    rounding level. ``t`` goes through the integer rule and must be at
    least 1, before any branch, draw or scan.
    """
    pi_t = strategy.mixing_probability(t)  # select's one check of t
    ids = model.unlabeled
    if ids.size == 0:
        raise ValueError("no unlabeled nodes to select from")
    if t == 1 or strategy.kind == "random":
        return _uniform_draw(ids, rng)
    if pi_t > 0.0 and rng.random() < pi_t:
        return _uniform_draw(ids, rng)
    scores = utility_scores(strategy, model, t)
    # the entry argmax picks is the maximum, or the first NaN, as max() gives
    best = float(scores[scores.argmax()])
    tol = max(TIE_RTOL * abs(best), TIE_ATOL * ids.size)
    return int(ids[(scores >= best - tol).argmax()])

