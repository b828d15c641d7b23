"""Gaussian field models over regularized graph Laplacians.

A :class:`GmrfModel` tracks C >= 2 one-vs-rest label fields: the inverse
``G`` of the regularized Laplacian restricted to the unlabeled nodes, which
every field shares, and a ``(C, |U|)`` matrix of conditional means given the
labels observed so far, plus the row sums ``G 1`` that the tv and sigma-opt
scans read as the l1 norms of the columns of ``G``. Observing a class costs
``O(|U|^2)`` whatever C is: one Schur-complement downdate of ``G`` and one
rank-one update of all the means and of ``G 1``; no refactorization happens
after initialization. The downdate compacts: the kept rows and columns of
``G`` are copied once into a fresh array and the rank-one term is subtracted
from that copy in place, so :meth:`GmrfModel.observe` never writes an array
a caller holds. A binary problem is the case C = 2, whose field ``mu`` is
the class-1 row of the means. :func:`conditional_mean_direct` re-solves the
linear system from scratch and serves as the reference implementation the
incremental path is tested against. :func:`soft_labels` is the one mean -> probability rule,
``clamp((m + 1) / 2)``. :func:`class_decision` turns the C means into hard
labels: the sign rule for C = 2, class-mass normalization for C >= 3.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.linalg

from .graph import RegularizedLaplacian

# Diagonal entries of G below this are treated as degenerate pivots.
PIVOT_FLOOR = 1e-12


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix via Cholesky.

    The result is explicitly symmetrized so later rank-one downdates cannot
    drift off the symmetric manifold.
    """
    try:
        factor = scipy.linalg.cho_factor(np.asarray(matrix, dtype=float), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"matrix is not positive definite: {exc}") from None
    inv = scipy.linalg.cho_solve(factor, np.eye(matrix.shape[0]))
    return (inv + inv.T) / 2.0


def soft_labels(means):
    """Soft labels ``clamp((m + 1) / 2, 0, 1)`` of field means (Zhu et al., ICML 2003)."""
    return np.clip((means + 1.0) / 2.0, 0.0, 1.0)


def _without(a: np.ndarray, pos: int) -> np.ndarray:
    """Copy of ``a`` without entry ``pos`` along its last axis."""
    return np.concatenate((a[..., :pos], a[..., pos + 1:]), axis=-1)


class GmrfModel:
    """C one-vs-rest Gaussian label fields sharing one inverse, C >= 2.

    Observing class ``c`` at a node feeds ``+1`` into field ``c`` and ``-1``
    into every other field. The downdate of ``G`` does not depend on the
    observed value, so all fields share one ``G`` and one unlabeled set and
    differ only in their means. A binary problem is the case C = 2: its two
    fields are exact negations of each other, and field 1 is the usual
    ``+/-1`` field with class 1 as ``+1``.

    The model also carries ``G 1``. ``G`` is the inverse of a nonsingular
    M-matrix, so it is entrywise nonnegative (Berman & Plemmons, 1994,
    ch. 6), and ``G 1`` is the vector of column l1 norms. It starts as
    ``G.sum(axis=0)``, which for a nonnegative ``G`` equals
    ``np.abs(G).sum(axis=0)`` bit for bit without a ``|U|^2`` temporary. It
    is stored as one extra row below the means, so the same broadcast step
    of :meth:`observe` keeps it current, with target 0 in place of the field
    values: ``s' = s_{-k} - (s_k / g_kk) g``.

    ``G`` stays exactly symmetric: :func:`spd_inverse` symmetrizes it, and
    the downdate subtracts ``(g_i g_j) / g_kk``, which rounds the same for
    ``(i, j)`` and ``(j, i)``. So row ``k`` of ``G`` equals column ``k`` bit
    for bit, and readers take the contiguous row.

    Attributes
    ----------
    unlabeled : ndarray of int
        Sorted original node ids that are still unlabeled; ``G`` and the
        means are indexed positionally against this array.
    labeled : dict
        node id -> observed class id.
    G : ndarray
        Inverse of the regularized Laplacian restricted to ``unlabeled``;
        must be symmetric.
    means : ndarray
        Conditional means of the C fields over ``unlabeled``, shape
        ``(C, |U|)``.
    row_sums : ndarray
        ``G 1`` over ``unlabeled``, carried through every :meth:`observe`.
    mu : ndarray or None
        For C = 2 the read-only view ``means[1]``, re-set by every
        :meth:`observe`; None for C > 2.
    retrain_calls : int
        Number of hypothetical-mean evaluations performed on this model;
        lets callers audit which selection rules avoid retraining.

    ``means``, ``row_sums`` and ``mu`` are views of one ``(C + 1, |U|)``
    array that :meth:`observe` replaces.

    Only :meth:`observe` changes the fields and ``G``, and each model is owned
    by one experiment run; :meth:`hypothetical_mean` only counts itself in
    ``retrain_calls``.
    """

    def __init__(self, unlabeled, labeled, G, means):
        self.unlabeled = np.asarray(unlabeled, dtype=np.int64)
        self.G = np.asarray(G, dtype=float)
        means = np.asarray(means, dtype=float)
        self.labeled = {int(k): int(v) for k, v in labeled.items()}
        ids = self.unlabeled
        n = ids.size
        if ids.ndim != 1 or np.any(ids[1:] <= ids[:-1]):
            raise ValueError("unlabeled must be a 1-D array of strictly increasing node ids")
        if self.G.shape != (n, n):
            raise ValueError(f"G has shape {self.G.shape}, expected ({n}, {n})")
        if means.ndim != 2 or means.shape[0] < 2:
            raise ValueError("means needs at least two class fields")
        if means.shape[1] != n:
            raise ValueError(f"means has {means.shape[1]} columns, expected {n}")
        if self.labeled:
            keys = np.fromiter(self.labeled, dtype=np.int64, count=len(self.labeled))
            both = keys[np.isin(keys, ids)]
            if both.size:
                raise ValueError(f"labeled nodes {sorted(both.tolist())} are also unlabeled")
        self.retrain_calls = 0
        c = means.shape[0]
        self._rows = np.empty((c + 1, n))
        self._rows[:c] = means
        self.G.sum(axis=0, out=self._rows[c])
        # row c: the +1/-1 value every field takes when class c is observed,
        # then the target 0 that turns the means' step into the G 1 update
        self._targets = 2.0 * np.eye(c, c + 1) - 1.0
        self._targets[:, c] = 0.0
        self._expose_rows()

    @classmethod
    def from_laplacian(cls, lap: RegularizedLaplacian, num_classes: int) -> "GmrfModel":
        """Fresh model with all nodes unlabeled and zero means."""
        return cls(np.arange(lap.n), {}, spd_inverse(lap.matrix),
                   np.zeros((num_classes, lap.n)))

    @classmethod
    def from_inverse(cls, G: np.ndarray, num_classes: int) -> "GmrfModel":
        """Fresh model from a precomputed full inverse (copied, not aliased).

        The copy is what keeps a shared inverse safe: ``run_experiment``
        hands one inverse to every strategy of a run, and to later runs on
        the same graph, and :meth:`observe` then works on the model's own
        ``G``.
        """
        n = G.shape[0]
        return cls(np.arange(n), {}, np.array(G, dtype=float, copy=True),
                   np.zeros((num_classes, n)))

    def _expose_rows(self) -> None:
        # stored views, not properties: the retraining scans read mu per node
        self.means = self._rows[:-1]
        self.row_sums = self._rows[-1]
        if self.num_classes == 2:
            self.mu = self.means[1]
            self.mu.flags.writeable = False
        else:
            self.mu = None

    @property
    def num_classes(self) -> int:
        return int(self.means.shape[0])

    @property
    def num_unlabeled(self) -> int:
        return int(self.unlabeled.size)

    def position(self, node: int) -> int:
        """Positional index of an unlabeled node id; raises if labeled."""
        pos = int(self.unlabeled.searchsorted(node))
        if pos >= self.unlabeled.size or self.unlabeled[pos] != node:
            raise ValueError(f"node {node} is not unlabeled")
        return pos

    def pivot(self, pos: int) -> float:
        """Diagonal entry ``g_kk`` at position ``pos``; raises if degenerate."""
        gkk = float(self.G[pos, pos])
        if gkk < PIVOT_FLOOR:
            raise ValueError(
                f"degenerate pivot g_kk={gkk:.3e} at node {int(self.unlabeled[pos])}"
            )
        return gkk

    def class_means(self) -> np.ndarray:
        """Copy of the per-class means, shape (num_classes, |U|)."""
        return self.means.copy()

    def _downdate(self, pos: int, gkk: float) -> np.ndarray:
        """Drop node ``pos`` from ``G`` and subtract ``g g^T / g_kk``.

        ``g`` is column ``pos`` of ``G`` without its own entry. The kept
        blocks of ``G`` are copied once into a fresh ``(k, k)`` array, and the
        rank-one term is subtracted from it in place, on contiguous memory.
        Every kept entry is ``G_ij - (g_i g_j) / g_kk``, the same arithmetic
        as downdating the full ``G`` and deleting row and column ``pos``
        afterwards. The old ``G`` is replaced, never written. Returns ``g``.
        """
        G = self.G
        k = G.shape[0] - 1
        g = _without(G[:, pos], pos)
        D = np.empty((k, k))
        D[:pos, :pos] = G[:pos, :pos]
        D[:pos, pos:] = G[:pos, pos + 1:]
        D[pos:, :pos] = G[pos + 1:, :pos]
        D[pos:, pos:] = G[pos + 1:, pos + 1:]
        self.G = D
        del G  # lets the old G be freed before the rank-one temporary exists
        T = np.multiply.outer(g, g)
        T /= gkk
        D -= T
        self.unlabeled = _without(self.unlabeled, pos)
        return g

    def observe(self, node: int, class_id: int) -> "GmrfModel":
        """Absorb an observed class and shrink the model to ``U \\ {node}``.

        Column ``k`` is dropped and every kept entry of field ``c`` moves by
        ``(v_c - mu_ck) / g_kk * g_k`` with ``v_c = +1`` for the observed
        class and ``-1`` otherwise, and ``G 1`` moves by the same step with
        target 0; :meth:`_downdate` shrinks ``G`` once. Cost ``O(|U|^2)``,
        independent of the class count.
        """
        if class_id not in range(self.num_classes):
            raise ValueError(f"class id {class_id} outside 0..{self.num_classes - 1}")
        class_id = int(class_id)
        pos = self.position(node)
        gkk = self.pivot(pos)
        step = (self._targets[class_id] - self._rows[:, pos]) / gkk
        g = self._downdate(pos, gkk)
        self._rows = _without(self._rows, pos) + step[:, None] * g
        self.labeled[int(node)] = class_id
        self._expose_rows()
        return self

    def hypothetical_mean(self, node: int, value) -> np.ndarray:
        """Mean ``mu`` would have if ``node`` were assigned ``value`` (C = 2).

        ``value`` is the field value, -1 or +1. Returns the updated vector
        over the current ``unlabeled`` (entry ``node`` included, as computed
        by the rank-one formula) without mutating the model. Increments
        ``retrain_calls``. Reads the row of ``G`` at the node's position,
        which equals the column because ``G`` is symmetric.
        """
        if self.mu is None:
            raise ValueError("hypothetical_mean is defined for binary models only")
        value = float(value)
        if value not in (-1.0, 1.0):
            raise ValueError(f"field value must be -1 or +1, got {value}")
        pos = self.position(node)
        gkk = self.pivot(pos)
        self.retrain_calls += 1
        return self.mu + ((value - self.mu[pos]) / gkk) * self.G[pos]

    def predict(self) -> dict[int, int]:
        """Hard class per unlabeled node by :func:`class_decision`."""
        winners = class_decision(self.means)
        return {int(node): int(c) for node, c in zip(self.unlabeled, winners)}


def conditional_mean_direct(lap: RegularizedLaplacian, labeled: dict) -> np.ndarray:
    """Conditional mean over the unlabeled nodes by a fresh SPD solve.

    Solves ``M_UU m = -M_UL y_L`` with ``M`` the regularized Laplacian and
    returns ``m`` ordered by ascending unlabeled node id. This is the
    reference the incremental :meth:`GmrfModel.observe` path is checked
    against.
    """
    if not labeled:
        raise ValueError("at least one labeled node is required")
    labeled = {int(k): float(v) for k, v in labeled.items()}
    lab_ids = sorted(labeled)
    unl_ids = [i for i in range(lap.n) if i not in labeled]
    if not unl_ids:
        raise ValueError("all nodes are labeled; the unlabeled set is empty")
    M = lap.matrix
    A = M[np.ix_(unl_ids, unl_ids)]
    B = M[np.ix_(unl_ids, lab_ids)]
    y = np.array([labeled[i] for i in lab_ids])
    factor = scipy.linalg.cho_factor(A, lower=True)
    return scipy.linalg.cho_solve(factor, -B @ y)


def class_decision(means: np.ndarray) -> np.ndarray:
    """Predicted class id per column of a ``(C, |U|)`` one-vs-rest mean matrix.

    For C = 2 the two fields are exact negations of each other, and the rule
    is the binary sign rule: class 1 iff its mean is positive. For C >= 3 it
    is class-mass normalization with uniform class weights (Zhu, Ghahramani &
    Lafferty, ICML 2003): node ``i`` gets the class maximizing
    ``(m_ci + 1) / sum_{j in U} (m_cj + 1)``, the soft labels ``(m_c + 1) / 2``
    over their class mass (the factor 1/2 cancels). Without it, the
    graph-wide offset every one-vs-rest mean carries votes for the class with
    the most labels. ``m_c + 1`` is floored at 0 against rounding below -1. A
    class with no label yet still has positive mass, ``delta * sum(G 1)``; a
    class whose mass is not positive is never predicted. Ties go to the lowest
    class id.
    """
    means = np.asarray(means, dtype=float)
    if means.shape[0] == 2:
        return (means[1] > 0.0).astype(np.intp)
    soft = np.maximum(means + 1.0, 0.0)
    mass = soft.sum(axis=1, keepdims=True)
    scores = np.divide(soft, mass, out=np.full_like(soft, -np.inf), where=mass > 0.0)
    return np.argmax(scores, axis=0)


# Not a model: ``perfbench/tracing.py`` still looks up the observe and
# from_inverse targets of the former multi-class class under this name. An
# empty namespace lets it list them as unwrapped instead of raising.
MulticlassModel = SimpleNamespace()
