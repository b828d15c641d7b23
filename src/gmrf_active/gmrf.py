"""Gaussian field models over regularized graph Laplacians.

A :class:`GmrfModel` tracks C >= 2 one-vs-rest label fields in one state
array: the inverse ``G`` of the regularized Laplacian restricted to the
unlabeled nodes, which every field shares, the C conditional means given the
labels observed so far, and the row sums ``G 1`` that the tv and sigma-opt
scans read as the l1 norms of the columns of ``G``. Disclosing a label moves
every row by one Schur-complement step, ``O(|U|^2)`` whatever C is, into a
fresh array, so :meth:`GmrfModel.observe` never writes an array a caller
holds; no refactorization happens after initialization. A binary problem is
the case C = 2, whose field ``mu`` is the class-1 row of the means.
:func:`conditional_mean_direct` re-solves the linear system from scratch and
serves as the reference implementation the incremental path is tested
against. :func:`soft_labels` is the one mean -> probability rule,
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

# Binary means within this of 0 are ties and go to class 0: a mean that is 0
# in exact arithmetic (midway between a +1 and a -1 label) computes as about
# +/-1e-15, and rounding must not pick its class.
DECISION_ATOL = 1e-12


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
    ``np.abs(G).sum(axis=0)`` bit for bit without a ``|U|^2`` temporary.

    ``G``, ``means``, ``row_sums`` and ``mu`` are views of one
    ``(|U| + C + 1, |U|)`` state array, which the constructor fills with
    copies of its arguments. :meth:`observe` at position ``k`` replaces it,
    never writes it: every row ``r`` becomes ``r_{-k} - (r_k - t_r) g / g_kk``,
    with ``g`` column ``k`` of ``G`` without entry ``k`` and target ``t_r``
    the observed field value ``+/-1`` for the means and 0 for ``G`` and
    ``G 1``. On ``G`` that subtracts ``(g_i g_j) / g_kk``, which rounds
    the same for ``(i, j)`` and ``(j, i)``, so ``G`` stays exactly symmetric
    (:func:`spd_inverse` symmetrizes the start) and readers take the
    contiguous row ``k`` for column ``k``.

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
        For C = 2 the read-only view ``means[1]``; None for C > 2.
    retrain_calls : int
        Number of hypothetical-mean evaluations performed on this model;
        lets callers audit which selection rules avoid retraining.

    Only :meth:`observe` changes the fields and ``G``, and each model is owned
    by one experiment run; :meth:`hypothetical_mean` only counts itself in
    ``retrain_calls``.
    """

    def __init__(self, unlabeled, labeled, G, means):
        self.unlabeled = np.asarray(unlabeled, dtype=np.int64)
        G = np.asarray(G, dtype=float)
        means = np.asarray(means, dtype=float)
        self.labeled = {int(k): int(v) for k, v in labeled.items()}
        ids = self.unlabeled
        n = ids.size
        if ids.ndim != 1 or np.any(ids[1:] <= ids[:-1]):
            raise ValueError("unlabeled must be a 1-D array of strictly increasing node ids")
        if G.shape != (n, n):
            raise ValueError(f"G has shape {G.shape}, expected ({n}, {n})")
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
        self._state = np.empty((n + c + 1, n))
        self._state[:n] = G
        self._state[n:-1] = means
        self._state[:n].sum(axis=0, out=self._state[-1])
        # row c: the +1/-1 value every field takes when class c is observed
        self._targets = 2.0 * np.eye(c) - 1.0
        self._expose_state()

    @classmethod
    def from_laplacian(cls, lap: RegularizedLaplacian, num_classes: int) -> "GmrfModel":
        """Fresh model with all nodes unlabeled and zero means."""
        return cls.from_inverse(spd_inverse(lap.matrix), num_classes)

    @classmethod
    def from_inverse(cls, G: np.ndarray, num_classes: int) -> "GmrfModel":
        """Fresh model from a precomputed full inverse (copied, not aliased).

        The copy is what keeps a shared inverse safe: ``run_experiment``
        hands one inverse to every strategy of a run, and to later runs on
        the same graph, and each model fills its own state array from it.
        """
        n = G.shape[0]
        return cls(np.arange(n), {}, G, np.zeros((num_classes, n)))

    def _expose_state(self) -> None:
        # stored views, not properties: the retraining scans read mu per node
        n = self._state.shape[1]
        self.G = self._state[:n]
        self.means = self._state[n:-1]
        self.row_sums = self._state[-1]
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

    def observe(self, node: int, class_id: int) -> "GmrfModel":
        """Absorb an observed class and shrink the model to ``U \\ {node}``.

        Every row of the state takes the one Schur step of the class
        docstring, with ``t_r = +1`` for the observed class's field and
        ``-1`` for the other fields. The kept rows and columns are copied
        once into a fresh array and the rank-one term is subtracted from it
        in place, on contiguous memory. Cost ``O(|U|^2)``, independent of the
        class count.
        """
        if class_id not in range(self.num_classes):
            raise ValueError(f"class id {class_id} outside 0..{self.num_classes - 1}")
        class_id = int(class_id)
        pos = self.position(node)
        gkk = self.pivot(pos)
        S = self._state
        k = S.shape[1] - 1
        D = np.empty((S.shape[0] - 1, k))
        D[:pos, :pos] = S[:pos, :pos]
        D[:pos, pos:] = S[:pos, pos + 1:]
        D[pos:, :pos] = S[pos + 1:, :pos]
        D[pos:, pos:] = S[pos + 1:, pos + 1:]
        coef = _without(S[:, pos], pos)
        coef[k:-1] -= self._targets[class_id]
        g = coef[:k]
        self._state = D
        self.unlabeled = _without(self.unlabeled, pos)
        self.labeled[int(node)] = class_id
        # the old views go first, so the old state can be freed before the
        # rank-one temporary exists
        self._expose_state()
        del S
        T = np.multiply.outer(coef, g)
        T /= gkk
        D -= T
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
    is the binary sign rule: class 1 iff its mean exceeds ``DECISION_ATOL``,
    so a mean within rounding of 0 is a tie and goes to class 0. For C >= 3 it
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
        return (means[1] > DECISION_ATOL).astype(np.intp)
    soft = np.maximum(means + 1.0, 0.0)
    mass = soft.sum(axis=1, keepdims=True)
    scores = np.divide(soft, mass, out=np.full_like(soft, -np.inf), where=mass > 0.0)
    return np.argmax(scores, axis=0)


# Not a model: ``perfbench/tracing.py`` still looks up the observe and
# from_inverse targets of the former multi-class class under this name. An
# empty namespace lets it list them as unwrapped instead of raising.
MulticlassModel = SimpleNamespace()
