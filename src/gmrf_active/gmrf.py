"""Gaussian field models over regularized graph Laplacians.

A :class:`GmrfModel` tracks, for one binary labeling problem, the inverse
``G`` of the regularized Laplacian restricted to the unlabeled nodes and the
conditional mean ``mu`` of the field given the labels observed so far.
Observing a label costs ``O(|U|^2)`` via a rank-one mean update and a
Schur-complement downdate of ``G``; no refactorization happens after
initialization. The downdate compacts: the kept rows and columns of ``G`` are
copied once into a fresh array and the rank-one term is subtracted from that
copy in place, so :meth:`observe` never writes an array a caller holds.
:func:`conditional_mean_direct` re-solves the linear system from scratch and
serves as the reference implementation the incremental path is tested
against. :class:`MulticlassModel` lifts the binary machinery to C
classes with one-vs-rest fields. The downdate of ``G`` does not depend on the
observed value, so the C fields share one ``G`` and differ only in their
means: one ``O(|U|^2)`` downdate per label whatever the class count.
:func:`class_decision` turns the C means into hard labels: the sign rule for
C = 2, class-mass normalization for C >= 3.
"""

from __future__ import annotations

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


def _without(a: np.ndarray, pos: int) -> np.ndarray:
    """Copy of ``a`` without entry ``pos`` along its last axis."""
    return np.concatenate((a[..., :pos], a[..., pos + 1:]), axis=-1)


class _SharedInverse:
    """Index bookkeeping and the inverse block ``G`` that every field shares.

    ``unlabeled`` holds the sorted original node ids that are still
    unlabeled; ``G`` and the means are indexed positionally against it.
    """

    def __init__(self, unlabeled, G, delta):
        self.unlabeled = np.asarray(unlabeled, dtype=np.int64)
        self.G = np.asarray(G, dtype=float)
        self.delta = float(delta)
        self.retrain_calls = 0

    @property
    def num_unlabeled(self) -> int:
        return int(self.unlabeled.size)

    def position(self, node: int) -> int:
        """Positional index of an unlabeled node id; raises if labeled."""
        pos = int(np.searchsorted(self.unlabeled, node))
        if pos >= self.unlabeled.size or self.unlabeled[pos] != node:
            raise ValueError(f"node {node} is not unlabeled")
        return pos

    def _pivot(self, pos: int) -> float:
        gkk = float(self.G[pos, pos])
        if gkk < PIVOT_FLOOR:
            raise ValueError(
                f"degenerate pivot g_kk={gkk:.3e} at node {int(self.unlabeled[pos])}"
            )
        return gkk

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

    def validate(self, atol: float = 1e-10) -> None:
        """Spot-check structural invariants; raises on violation."""
        if self.G.shape != (self.num_unlabeled, self.num_unlabeled):
            raise AssertionError("G shape does not match unlabeled count")
        if self.num_unlabeled and np.diagonal(self.G).min() <= 0:
            raise AssertionError("G has a non-positive diagonal entry")
        if self.num_unlabeled and np.abs(self.G - self.G.T).max() > atol:
            raise AssertionError("G is not symmetric")
        if set(map(int, self.unlabeled)) & set(self.labeled):
            raise AssertionError("labeled and unlabeled sets overlap")


class GmrfModel(_SharedInverse):
    """State of one binary Gaussian label field.

    Attributes
    ----------
    unlabeled : ndarray of int
        Sorted original node ids that are still unlabeled; ``G`` and ``mu``
        are indexed positionally against this array.
    labeled : dict
        node id -> observed value in {-1.0, +1.0}.
    G : ndarray
        Inverse of the regularized Laplacian restricted to ``unlabeled``.
    mu : ndarray
        Conditional mean of the field over ``unlabeled``.
    delta : float
        Regularizer baked into the Laplacian this model was built from.
    retrain_calls : int
        Number of hypothetical-mean evaluations performed on this model;
        lets callers audit which selection rules avoid retraining.

    Only :meth:`observe` mutates the model, and each model is owned by one
    experiment run; read-only scoring over a snapshot is side-effect free.
    """

    def __init__(self, unlabeled, labeled, G, mu, delta):
        super().__init__(unlabeled, G, delta)
        self.labeled = {int(k): float(v) for k, v in labeled.items()}
        self.mu = np.asarray(mu, dtype=float)

    @classmethod
    def from_laplacian(cls, lap: RegularizedLaplacian) -> "GmrfModel":
        """Fresh model with all nodes unlabeled, zero mean, full inverse."""
        return cls(np.arange(lap.n), {}, spd_inverse(lap.matrix), np.zeros(lap.n), lap.delta)

    @classmethod
    def from_inverse(cls, G: np.ndarray, delta: float) -> "GmrfModel":
        """Fresh model from a precomputed full inverse (copied, not aliased)."""
        n = G.shape[0]
        return cls(np.arange(n), {}, np.array(G, dtype=float, copy=True),
                   np.zeros(n), delta)

    def observe(self, node: int, value) -> "GmrfModel":
        """Absorb an observed label and shrink the model to ``U \\ {node}``.

        Entry ``k`` is dropped and every kept entry of the mean moves by
        ``(value - mu_k) / g_kk * g_k``; :meth:`_downdate` shrinks ``G``.
        Cost ``O(|U|^2)``.
        """
        value = float(value)
        if value not in (-1.0, 1.0):
            raise ValueError(f"observed value must be -1 or +1, got {value}")
        pos = self.position(node)
        gkk = self._pivot(pos)
        step = (value - self.mu[pos]) / gkk
        g = self._downdate(pos, gkk)
        self.mu = _without(self.mu, pos) + step * g
        self.labeled[int(node)] = value
        return self

    def hypothetical_mean(self, node: int, value) -> np.ndarray:
        """Mean the model would have if ``node`` were assigned ``value``.

        Returns the updated vector over the current ``unlabeled`` (entry
        ``node`` included, as computed by the rank-one formula) without
        mutating the model. Increments ``retrain_calls``.
        """
        value = float(value)
        if value not in (-1.0, 1.0):
            raise ValueError(f"observed value must be -1 or +1, got {value}")
        pos = self.position(node)
        gkk = self._pivot(pos)
        self.retrain_calls += 1
        return self.mu + ((value - self.mu[pos]) / gkk) * self.G[:, pos]

    def posterior_plus(self, node: int) -> float:
        """Probability that ``node`` has the +1 label, ``clamp((mu+1)/2)``."""
        pos = self.position(node)
        return float(np.clip((self.mu[pos] + 1.0) / 2.0, 0.0, 1.0))

    def predict(self) -> dict[int, int]:
        """Hard labels over unlabeled nodes: +1 iff ``mu > 0``, else -1."""
        return {
            int(node): (1 if m > 0 else -1)
            for node, m in zip(self.unlabeled, self.mu)
        }


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
    of :meth:`MulticlassModel.posteriors` over their class mass (the factor
    1/2 cancels). Without it, the graph-wide offset every one-vs-rest mean
    carries votes for the class with the most labels. ``m_c + 1`` is floored
    at 0 against rounding below -1. A class with no label yet still has
    positive mass, ``delta * sum(G 1)``; a class whose mass is not positive is
    never predicted. Ties go to the lowest class id.
    """
    means = np.asarray(means, dtype=float)
    if means.shape[0] == 2:
        return np.argmax(means, axis=0)
    soft = np.maximum(means + 1.0, 0.0)
    mass = soft.sum(axis=1, keepdims=True)
    scores = np.divide(soft, mass, out=np.full_like(soft, -np.inf), where=mass > 0.0)
    return np.argmax(scores, axis=0)


class MulticlassModel(_SharedInverse):
    """C one-vs-rest Gaussian fields sharing one inverse.

    Observing class ``c`` at a node feeds ``+1`` into field ``c`` and ``-1``
    into every other field. The downdate of ``G`` does not depend on the
    observed value, so all fields share one ``G`` and one unlabeled set and
    differ only in their means, the rows of ``means`` with shape
    ``(num_classes, |U|)``. Entry for entry, one :meth:`observe` does the
    same arithmetic as C separate :meth:`GmrfModel.observe` calls fed ``+/-1``.
    ``labeled`` maps node id -> observed class id.
    """

    def __init__(self, unlabeled, labeled_classes, G, means, delta):
        super().__init__(unlabeled, G, delta)
        self.means = np.asarray(means, dtype=float)
        if self.means.ndim != 2 or self.means.shape[0] < 2:
            raise ValueError("need at least two class fields")
        self.labeled = {int(k): int(v) for k, v in labeled_classes.items()}

    @classmethod
    def from_laplacian(cls, lap: RegularizedLaplacian, num_classes: int) -> "MulticlassModel":
        """Fresh model with all nodes unlabeled and zero means."""
        return cls(np.arange(lap.n), {}, spd_inverse(lap.matrix),
                   np.zeros((num_classes, lap.n)), lap.delta)

    @classmethod
    def from_inverse(cls, G: np.ndarray, delta: float, num_classes: int) -> "MulticlassModel":
        """Fresh model from a precomputed full inverse (copied, not aliased)."""
        n = G.shape[0]
        return cls(np.arange(n), {}, np.array(G, dtype=float, copy=True),
                   np.zeros((num_classes, n)), delta)

    @property
    def num_classes(self) -> int:
        return int(self.means.shape[0])

    def class_means(self) -> np.ndarray:
        """Copy of the per-class means, shape (num_classes, |U|)."""
        return self.means.copy()

    def observe(self, node: int, class_id: int) -> "MulticlassModel":
        """Absorb an observed class and shrink the model to ``U \\ {node}``.

        Column ``k`` is dropped and every kept entry of field ``c`` moves by
        ``(v_c - mu_ck) / g_kk * g_k`` with ``v_c = +1`` for the observed
        class and ``-1`` otherwise; :meth:`_downdate` shrinks ``G`` once.
        Cost ``O(|U|^2)``, independent of the class count.
        """
        class_id = int(class_id)
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class id {class_id} outside 0..{self.num_classes - 1}")
        pos = self.position(node)
        gkk = self._pivot(pos)
        values = np.full(self.num_classes, -1.0)
        values[class_id] = 1.0
        step = (values - self.means[:, pos]) / gkk
        g = self._downdate(pos, gkk)
        self.means = _without(self.means, pos) + step[:, None] * g
        self.labeled[int(node)] = class_id
        return self

    def predict(self) -> dict[int, int]:
        """Hard class per unlabeled node by :func:`class_decision`."""
        winners = class_decision(self.means)
        return {int(node): int(c) for node, c in zip(self.unlabeled, winners)}

    def posteriors(self, node: int) -> np.ndarray:
        """Class distribution at a node from normalized shifted means.

        Each mean is mapped through ``(mu + 1) / 2`` (clipped to [0, 1]) and
        the vector is normalized to sum to one; a degenerate all-zero vector
        falls back to the uniform distribution.
        """
        pos = self.position(node)
        shifted = np.clip((self.means[:, pos] + 1.0) / 2.0, 0.0, 1.0)
        total = shifted.sum()
        if total <= 0.0:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return shifted / total
