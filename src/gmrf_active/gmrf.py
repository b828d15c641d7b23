"""Gaussian field models over regularized graph Laplacians.

A :class:`GmrfModel` tracks C >= 2 one-vs-rest label fields over one
inverse ``G`` of the regularized Laplacian restricted to the unlabeled
nodes, which every field shares. ``G`` is held factored: after t queries it
is ``G_0[U, U] - V_U^T V_U``, with ``G_0`` the initial inverse, which stays
read-only and which every model of an experiment aliases, and row s of ``V``
the step column of query s. Disclosing a label appends one row to ``V`` and
moves the C conditional means and the row sums ``G 1`` (the l1 norms of the
columns of ``G`` that the tv and sigma-opt scans read) by one
Schur-complement step, one in-place BLAS rank-one update on a
``(C + 1, n)`` array whatever C is; no refactorization happens after
initialization. The fl and kl scan reads ``G`` over the unlabeled nodes
through :meth:`GmrfModel.rows`, which builds it once and makes every later
step downdate it in ``O(|U|^2)`` into a fresh read-only block. Readers get
read-only compact arrays over the unlabeled nodes, gathered afresh after
each step, so :meth:`GmrfModel.observe` never writes an array a caller
holds. A binary problem is the case C = 2, whose field ``mu`` is the
class-1 row of the means.
:func:`conditional_mean_direct` re-solves the linear system from scratch and
serves as the reference implementation the incremental path is tested
against. :func:`soft_labels` is the one mean -> probability rule,
``clamp((m + 1) / 2)``. :func:`class_decision` turns the C means into hard
labels: the sign rule for C = 2, class-mass normalization for C >= 3.
"""

from __future__ import annotations

import ctypes
import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg
from scipy.linalg import cython_blas, cython_lapack

from .graph import RegularizedLaplacian, _as_int, _as_real

# Diagonal entries of G below this are treated as degenerate pivots.
PIVOT_FLOOR = 1e-12

# Binary means within this of 0 are ties and go to class 0: a mean that is 0
# in exact arithmetic (midway between a +1 and a -1 label) computes as about
# +/-1e-15, and rounding must not pick its class.
DECISION_ATOL = 1e-12

# Columns per block of spd_inverse's mirror of the lower triangle, and rows
# per panel of _require_symmetric. At n=3969 (one BLAS thread) 64-row
# panels halved the check, 68 ms against 141 ms for one whole-array compare.
_MIRROR_BLOCK = 64

# A model folds its step columns V into a private inverse once V holds
# _FOLD_SHARE * n rows, but not fewer than _FOLD_MIN_ROWS; see GmrfModel.
# Observe steps on grids, one BLAS thread, folding at n/32 .. n/2 or never:
# at n=2025 over n/2 steps n/8 was fastest (0.26 ms a step; n/4 0.37, never
# 0.56), and it was fastest or within 10% of it with a row block or the
# column sums of squares read after every step. At n=100 and n=400 no fold
# was faster than folding at n/8, which costs a step an O(n^2) copy.
_FOLD_SHARE = 0.125
_FOLD_MIN_ROWS = 128

# Bytes of one row panel of G_0 in the first read of the column sums of
# squares; the Gram rows of a panel take as many again. With one row in V
# (one BLAS thread) 256 KB panels read in 0.27, 11 and 41 ms at n=300, 2025
# and 3969; 128 and 512 KB were within 15% of that at n=2025 and 3969, 64 KB
# and 4 MB took 1.5-2.4x as long, and the former build over G took 0.84, 47
# and 158 ms.
_PANEL_BYTES = 256 * 1024

# Columns of the largest diagonal block _invert_lower hands to one dtrtri.
# Leaves of 32, 64, 96 and 128 columns, one BLAS thread: 64 was fastest or
# within 1.3% of it from n=100 to n=2025, and at n=100 took 0.056 ms against
# 0.075 for 128 and 0.070 for dtrtri on the whole factor. With n <= 64 the
# whole factor is one leaf, so the inverse has dpotri's bits.
_INV_LEAF = 64

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _cython_function(module, name: str, *argtypes):
    """The BLAS or LAPACK routine ``name`` that scipy's Cython module
    ``module`` exports, as a ctypes function of the Fortran convention: every
    argument by pointer. It is the entry point scipy's own wrappers call, but
    it takes a pointer into any array, where an f2py wrapper copies a
    non-contiguous view."""
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, _capsule_name(capsule)))


_char, _int = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
_double, _address = ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
# side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
_dtrmm = _cython_function(cython_blas, "dtrmm", _char, _char, _char, _char, _int, _int,
                          _double, _address, _int, _address, _int)
# uplo, diag, n, a, lda, info
_dtrtri = _cython_function(cython_lapack, "dtrtri", _char, _char, _int, _address, _int, _int)


def _invert_lower(work: np.ndarray) -> int:
    """Invert in place the lower triangular matrix in the lower triangle of
    the Fortran-order square float64 array ``work``; returns 0, or ``k`` if
    its ``k``-th diagonal entry is zero (LAPACK's ``info``).

    A block of more than ``_INV_LEAF`` columns, ``[[L11, 0], [L21, L22]]``,
    is split in half. Both halves are inverted in place, and then
    ``L21 <- -inv(L22) L21`` and ``L21 <- L21 inv(L11)``, in that order, by
    two ``dtrmm`` calls that read and write their blocks in ``work`` itself,
    with leading dimension ``n``, so no block is copied. A leaf block goes to
    one ``dtrtri``. Bientinesi, Gunter & van de Geijn (ACM TOMS 35(1), 2008)
    build the inverse from the same level-3 calls. With one OpenBLAS 0.3.31
    thread it took 0.82 ms at n=400 and 52 ms at n=2025, where ``dtrtri`` on
    the whole factor took 1.99 and 79 ms. The strict upper triangle is
    neither read nor written.
    """
    n = work.shape[0]
    if (work.shape != (n, n) or work.dtype != np.float64 or not work.flags.f_contiguous
            or not work.flags.writeable):
        raise ValueError("work must be a square, writeable, Fortran-order float64 array")
    return _invert_diagonal_block(work.ctypes.data, n, 0, n)


def _invert_diagonal_block(base: int, n: int, j: int, m: int) -> int:
    """:func:`_invert_lower` on the diagonal block ``[j, j + m)`` of the
    ``n x n`` Fortran-order float64 array at address ``base``.

    It takes the address, not the array: no closure or frame of the
    recursion holds the buffer, so the caller's last reference frees it.
    """
    ld = ctypes.byref(ctypes.c_int(n))
    corner = base + 8 * j * (n + 1)  # the address of [j, j]
    if m <= _INV_LEAF:
        info = ctypes.c_int(0)
        _dtrtri(b"L", b"N", ctypes.byref(ctypes.c_int(m)), corner, ld, ctypes.byref(info))
        return info.value and j + info.value
    h = m // 2
    info = _invert_diagonal_block(base, n, j, h) or _invert_diagonal_block(base, n, j + h, m - h)
    if info == 0:
        rows, cols = ctypes.byref(ctypes.c_int(m - h)), ctypes.byref(ctypes.c_int(h))
        below = corner + 8 * h  # the address of [j + h, j]
        _dtrmm(b"L", b"L", b"N", b"N", rows, cols, ctypes.byref(ctypes.c_double(-1.0)),
               corner + 8 * h * (n + 1), ld, below, ld)
        _dtrmm(b"R", b"L", b"N", b"N", rows, cols, ctypes.byref(ctypes.c_double(1.0)),
               corner, ld, below, ld)
    return info


def spd_inverse(matrix: np.ndarray, *, overwrite_a: bool = False) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix in one working buffer.

    The input must be square, finite and exactly symmetric, or it is
    rejected before LAPACK runs. The working buffer is a straight C-order
    array handed to LAPACK as its transpose, a Fortran-order array that
    holds the same matrix because the input is symmetric. ``dpotrf`` factors
    it into ``L L^T``, :func:`_invert_lower` overwrites ``L`` with its
    inverse by recursive level-3 blocks, and ``dlauum`` forms
    ``inv(L)^T inv(L)``, all in place and reading and writing the lower
    triangle only. For n <= ``_INV_LEAF`` this is ``dpotri`` bit for bit;
    above it the result differs from ``dpotri``'s in the last bits. The
    lower triangle is then mirrored into the upper one in blocks of
    ``_MIRROR_BLOCK`` columns, so the result is exactly symmetric and later
    rank-one downdates cannot drift off the symmetric manifold. The returned
    array is the working buffer itself.

    By default the buffer is a copy, so the input is never written, and
    peak memory is about one ``n^2`` array above the input. With
    ``overwrite_a=True`` (scipy.linalg's name and meaning) a C-contiguous,
    writeable float64 input is the buffer: the inverse is returned over the
    input's own memory, and no second ``n^2`` array is allocated. The input
    is written only once every check has passed, but a matrix that LAPACK
    finds not positive definite is left overwritten. Any other input is
    copied as by default.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:  # LAPACK rejects a leading dimension of 0
        return np.empty((0, 0))
    # dpotrf reads one triangle, so a NaN or inf in the other would pass
    if not np.isfinite(a).all():
        raise ValueError("matrix holds non-finite entries")
    # dpotrf reads one triangle, so the other must equal it
    _require_symmetric(a, "matrix")
    in_place = overwrite_a and a.flags.c_contiguous and a.flags.writeable
    work = (a if in_place else np.array(a, order="C")).T
    # clean=0: the upper triangle is overwritten by the mirror below
    work, info = scipy.linalg.lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        info = _invert_lower(work)
    if info == 0:
        work, info = scipy.linalg.lapack.dlauum(work, lower=1, overwrite_c=1)
    if info != 0:
        raise ValueError(f"matrix is not positive definite: {info}-th leading minor "
                         "of the array is not positive definite")
    # column block [j, j + k): the rectangle above it is the transpose of
    # the one left of it, and its diagonal tile mirrors its own lower part
    n = work.shape[0]
    upper = np.triu(np.ones((_MIRROR_BLOCK, _MIRROR_BLOCK), dtype=bool), 1)
    for j in range(0, n, _MIRROR_BLOCK):
        k = min(_MIRROR_BLOCK, n - j)
        work[:j, j:j + k] = work[j:j + k, :j].T
        tile = work[j:j + k, j:j + k]
        np.copyto(tile, tile.T, where=upper[:k, :k])
    return work.T


def _minus_gram(B: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``B - V^T V`` in a fresh read-only array, exactly symmetric if ``B`` is.

    numpy computes a product of a matrix with its own transpose by one BLAS
    ``syrk`` and copies the triangle it wrote into the other, so ``V^T V``
    is exactly symmetric, and so is the difference. Both callers keep the
    result as a value that nothing writes: a built ``G`` and a folded
    ``G_0``.
    """
    gram = V.T @ V
    np.subtract(B, gram, out=gram)
    gram.flags.writeable = False
    return gram


def _deleted_downdate(G: np.ndarray, pos: int, s: np.ndarray) -> np.ndarray:
    """``G`` without row and column ``pos``, minus ``s s^T``, in a fresh
    read-only array.

    The delete is four quadrant copies, and the downdate is one BLAS
    ``dger`` on the copy. A product ``s_i s_j`` equals ``s_j s_i`` bit for
    bit, so the result is exactly symmetric if ``G`` is.
    """
    m = G.shape[0] - 1
    out = np.empty((m, m))
    out[:pos, :pos] = G[:pos, :pos]
    out[:pos, pos:] = G[:pos, pos + 1:]
    out[pos:, :pos] = G[pos + 1:, :pos]
    out[pos:, pos:] = G[pos + 1:, pos + 1:]
    if m:  # BLAS rejects a leading dimension of 0
        scipy.linalg.blas.dger(-1.0, s, s, a=out.T, overwrite_a=1)
    out.flags.writeable = False
    return out


def _require_symmetric(a: np.ndarray, name: str) -> None:
    """Raise unless ``a`` equals its transpose exactly, naming the first unequal pair.

    Each panel of ``_MIRROR_BLOCK`` rows is compared, from its diagonal tile
    on, with the transposed column panel below it, so every pair is read
    once and the temporaries stay panel-sized. Only a failed check compares
    the whole array, to name the first pair in row-major order.
    """
    n = a.shape[0]
    for i in range(0, n, _MIRROR_BLOCK):
        k = min(_MIRROR_BLOCK, n - i)
        if not (a[i:i + k, i:] == a[i:, i:i + k].T).all():
            i, j = np.argwhere(a != a.T)[0]
            raise ValueError(f"{name} is not exactly symmetric: {name}[{i}, {j}] = "
                             f"{float(a[i, j])!r} but {name}[{j}, {i}] = {float(a[j, i])!r}")


def soft_labels(means, out=None):
    """Soft labels ``clamp((m + 1) / 2, 0, 1)`` of an array of field means
    (Zhu et al., ICML 2003), written into ``out`` (which may be ``means``)
    if given, else into a fresh array. The steps run in place in that order,
    the clamp as a maximum with 0 and then a minimum with 1, which rounds as
    ``np.clip`` does."""
    p = np.add(means, 1.0, out=out)
    p /= 2.0
    np.maximum(p, 0.0, out=p)
    return np.minimum(p, 1.0, out=p)


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

    A model starts with every node unlabeled: ``GmrfModel(G, means)``
    takes the inverse over all ``n`` nodes and the C means over them, and
    labels are disclosed one at a time by :meth:`observe`. Node id ``i`` is
    row and column ``i`` of every array below for the model's whole life.

    ``G`` is held factored as ``G_0[U, U] - V_U^T V_U``. ``G_0`` is the
    constructor's ``G``, which the model only reads: a read-only array is
    aliased, so every model of an experiment shares one inverse, and a
    writeable one is copied once and frozen. Observing node ``k`` fetches
    its row ``g = G_0[k] - V[:, k] @ V`` in ``O(t n)`` after ``t`` queries,
    with entries at labeled nodes set to 0, and appends the step column
    ``s = g / sqrt(g_kk)`` to ``V``. The means, ``G 1`` and the diagonal
    live in one ``(C + 2, n)`` array. Each of the first C + 1 rows ``r``
    moves to ``r - c_r s`` with ``c_r = (r_k - t_r) / sqrt(g_kk)`` and
    target ``t_r`` the observed field value ``+/-1`` for the means and 0
    for ``G 1``, by one BLAS ``dger`` that rounds each entry once. Negated
    targets negate ``c`` exactly, so the two fields of a binary model stay
    exact negations. The diagonal moves by ``d -= s * s``, and, once
    :meth:`square_sums` has been read, the column sums of squares are
    carried too. When ``V`` is full (``n / 8`` rows, at
    least 128), it is folded into a private ``G_0``, ``G_0 - V^T V``, and
    starts empty again.

    ``G`` itself, exactly symmetric, is built on a model's first
    :meth:`rows` read, which only the fl and kl scan makes, and kept. From
    then on :meth:`observe` carries it: the previous block without row and
    column ``k``, minus ``s_U s_U^T``, with ``s_U`` the step column at the
    remaining unlabeled nodes, in a fresh array. The carried block is
    read-only from the moment it is built, so it is a value: ``G`` returns
    it itself, and a copy of the model shares it. Without one, ``G`` builds
    a read-only block and does not keep it. :meth:`square_sums` always
    streams row panels of ``G_0`` on its first read and builds none, so a
    model that no fl or kl scan reads never carries ``G``.

    :meth:`copy` starts an independent model from this one's state in
    ``O(C n + t n)``, aliasing the same ``G_0`` and carried ``G`` and
    checking nothing again, so an inverse shared by many models is
    validated and summed once.

    Readers see the unlabeled nodes only. ``means``, ``mu``, ``row_sums``,
    ``diagonal`` and ``G`` are read-only arrays that :meth:`observe`
    replaces and never writes, so an array a caller holds never changes.

    Attributes
    ----------
    unlabeled : ndarray of int
        Sorted node ids still unlabeled; ``G`` and the means are indexed
        positionally against this array.
    labeled : dict
        node id -> observed class id.
    G : ndarray
        Inverse of the regularized Laplacian restricted to ``unlabeled``,
        exactly symmetric and read-only: the carried block, or an
        ``O(|U|^2 t)`` build.
    means : ndarray
        Conditional means of the C fields over ``unlabeled``, shape
        ``(C, |U|)``.
    row_sums : ndarray
        ``G 1`` over ``unlabeled``, carried through every :meth:`observe`.
    diagonal : ndarray
        ``diag(G)`` over ``unlabeled``: the pivots, carried through every
        :meth:`observe`.
    mu : ndarray or None
        For C = 2 the read-only view ``means[1]``; None for C > 2.
    retrain_calls : int
        Number of hypothetical means the fl and kl scans have evaluated on
        this model; lets callers audit which selection rules avoid
        retraining.

    Only :meth:`observe` changes the fields and ``G``, and each model is owned
    by one experiment run; a copy shares no state that :meth:`observe`
    writes.
    """

    def __init__(self, G, means):
        G = np.asarray(G, dtype=float)
        means = np.asarray(means, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"G must be square, got shape {G.shape}")
        n = G.shape[0]
        if means.ndim != 2 or means.shape[0] < 2:
            raise ValueError("means needs at least two class fields")
        if means.shape[1] != n:
            raise ValueError(f"means has {means.shape[1]} columns, expected {n}")
        c = means.shape[0]
        self.unlabeled = np.arange(n)
        self.labeled = {}
        self.retrain_calls = 0
        # rows: the C means, G 1 and diag(G)
        self._fields = np.empty((c + 2, n))
        self._fields[:c] = means
        G.sum(axis=0, out=self._fields[c])
        # a non-finite G entry makes its column sum non-finite; NaN passes pivot floors
        if not np.isfinite(self._fields[c]).all():
            raise ValueError("G holds non-finite entries")
        if not np.isfinite(self._fields[:c]).all():
            raise ValueError("means hold non-finite entries")
        # the scans read row i of G as column i, and G 1 as the column l1 norms
        _require_symmetric(G, "G")
        self._fields[-1] = np.diagonal(G)
        if G.flags.writeable:  # the caller may write its array; the model never does
            G = G.copy()
            G.flags.writeable = False
        self._base = G
        self._squares = None  # column sums of squares, from the first square_sums()
        self._V = np.empty((min(n, max(_FOLD_MIN_ROWS, int(_FOLD_SHARE * n))), n))
        self._t = 0
        # 1.0 for an unlabeled node, 0.0 for a labeled one; observe reads
        # ``unlabeled`` off it
        self._unlabeled_mask = np.ones(n)
        self._G = None  # G over the unlabeled nodes, carried from the first rows()
        # row c: the value every field takes when class c is observed, then
        # the target 0 of G 1
        self._targets = np.zeros((c, c + 1))
        self._targets[:, :-1] = 2.0 * np.eye(c) - 1.0
        self._gather()

    @classmethod
    def from_laplacian(cls, lap: RegularizedLaplacian, num_classes: int) -> "GmrfModel":
        """Fresh model with all nodes unlabeled and zero means.

        The caller keeps ``lap``, so its matrix is inverted in a copy and
        never written.
        """
        num_classes = _as_int(num_classes, "num_classes")
        G = spd_inverse(lap.matrix)
        G.flags.writeable = False  # no one else holds it, so the model aliases it
        return cls.from_inverse(G, num_classes)

    @classmethod
    def from_inverse(cls, G: np.ndarray, num_classes: int) -> "GmrfModel":
        """Fresh model over a precomputed full inverse, with zero means.

        A read-only ``G`` is aliased and a writeable one copied once: the
        model never writes it either way. ``run_experiment`` freezes each
        inverse it builds, makes one model over it and starts every strategy
        of that run, and of later runs on the same graph, from a
        :meth:`copy` of that model, so all of them share it.
        """
        return cls(G, np.zeros((_as_int(num_classes, "num_classes"), G.shape[0])))

    def copy(self) -> "GmrfModel":
        """Independent model in the same state, aliasing the read-only ``G_0`` and ``G``.

        Costs ``O(C n + t n)``: it copies the ``(C + 2, n)`` fields, the
        labels, the unlabeled mask, the ``t`` used rows of ``V`` (into a
        buffer of the same size, unwritten past them) and the carried column
        sums of squares, shares the carried ``G``, which :meth:`observe`
        replaces and never writes, and checks nothing again.
        ``run_experiment`` validates each shared inverse once, by the
        constructor, and starts every strategy of every run on it from a
        copy of that model.
        """
        # set in the constructor's order, so that the copy keeps CPython's
        # compact instance layout (reading or updating __dict__ would drop it,
        # and every attribute read of a step would get slower)
        new = object.__new__(type(self))
        new.unlabeled = self.unlabeled
        new.labeled = dict(self.labeled)
        new.retrain_calls = self.retrain_calls
        new._fields = self._fields.copy()
        new._base = self._base
        new._squares = None if self._squares is None else self._squares.copy()
        new._V = np.empty_like(self._V)
        new._V[:self._t] = self._V[:self._t]
        new._t = self._t
        new._unlabeled_mask = self._unlabeled_mask.copy()
        new._G = self._G
        new._targets = self._targets
        new._gather()
        return new

    def _gather(self) -> None:
        # stored, not properties, because the scans read mu per node; views
        # of one fresh copy, so an array a caller holds never changes
        fields = self._fields.take(self.unlabeled, axis=1)
        fields.setflags(write=False)
        self.means, self.row_sums, self.diagonal = fields[:-2], fields[-2], fields[-1]
        self.mu = fields[1] if self._targets.shape[0] == 2 else None

    @property
    def G(self) -> np.ndarray:
        """``G`` over the unlabeled nodes, read-only and exactly symmetric:
        the carried block itself, else one built in ``O(|U|^2 t)`` and not
        kept, so reading it never starts the carry."""
        if self._G is not None:
            return self._G
        idx = self.unlabeled
        return _minus_gram(self._base.take(idx, axis=0).take(idx, axis=1),
                           self._V[:self._t].take(idx, axis=1))

    def rows(self) -> np.ndarray:
        """``G``, carried by :meth:`observe` from this read on.

        The fl and kl scan is its one reader: it reads every row of ``G`` in
        each scan, so its first read builds ``G`` once and every later step
        downdates it in ``O(|U|^2)``, and a row is the same bits in every
        block of a scan.
        """
        self._G = self.G  # the carried block itself, if there is one
        return self._G

    def square_sums(self) -> np.ndarray:
        """Column sums of squares ``||g_j||_2^2`` of ``G`` over ``unlabeled``.

        The first call sums them over row panels of ``G_0``
        (:meth:`_panel_square_sums`), which reads only ``G_0``, ``V`` and the
        unlabeled set, never a carried ``G``, so the sums are the same bits
        whether or not the model's rows were read; from then on
        :meth:`observe` carries them.
        """
        if self._squares is None:
            self._squares = self._panel_square_sums()
        return self._squares.take(self.unlabeled)

    def _panel_square_sums(self) -> np.ndarray:
        """Column sums of squares of ``G_0[U] - V_U^T V``, at every node id.

        The rows of ``G`` at the unlabeled nodes are read in panels of
        ``_PANEL_BYTES``, over all ``n`` columns, into one reused buffer:
        each panel is taken from ``G_0``, less its rows of the Gram term,
        squared in place, and added to the running sums in row order. Row 0
        of the buffer carries those sums into one axis-0 reduction, which
        adds row after row as ``einsum("ij,ij->j", G, G)`` does, so no
        column is gathered and no ``|U|^2`` array is built. The columns at
        labeled nodes are summed too and never read. A panel's Gram rows
        come from a BLAS ``gemm``. With one row in ``V``, as
        ``run_experiment``'s first read has unless the hybrid rule delays
        it, each entry is a single product, the same bits as the ``syrk``
        of :func:`_minus_gram`. With more rows the two kernels may round
        some entries otherwise (after a fold on a 30x30 grid, with two rows
        in ``V``, about 800 entries of ``G`` differed in the last bit), and
        the sums differ from a build over ``G`` by at most about 6e-16
        relative.
        """
        base, V, ids = self._base, self._V[:self._t], self.unlabeled
        n = base.shape[0]
        height = max(1, _PANEL_BYTES // (base.itemsize * max(n, 1)) - 1)
        work = np.empty((min(height, ids.size) + 1, n))
        gram = np.empty((work.shape[0] - 1, n))
        sums = np.zeros(n)
        for start in range(0, ids.size, height):
            rows = ids[start:start + height]
            h = rows.size
            panel = work[1:h + 1]
            # the ids are valid, and mode "raise" would buffer out
            base.take(rows, axis=0, out=panel, mode="clip")
            # np.dot, not matmul: the same bits, and with one row in V
            # matmul took numpy's own loop, 3-4x slower
            panel -= np.dot(V.take(rows, axis=1).T, V, out=gram[:h])
            panel *= panel
            work[0] = sums
            np.add.reduce(work[:h + 1], axis=0, out=sums)
        return sums

    @property
    def num_classes(self) -> int:
        return int(self.means.shape[0])

    @property
    def num_unlabeled(self) -> int:
        return int(self.unlabeled.size)

    def position(self, node: int) -> int:
        """Positional index of an unlabeled node id.

        The one node-id check of the model and of every per-node scorer:
        ``node`` goes through the integer rule, so a bool or a float (``2.0``
        too) is rejected, and a labeled or unknown id raises.
        """
        node = _as_int(node, "node id")
        pos = int(self.unlabeled.searchsorted(node))
        if pos >= self.unlabeled.size or self.unlabeled[pos] != node:
            raise ValueError(f"node {node} is not unlabeled")
        return pos

    def pivot(self, pos: int) -> float:
        """Diagonal entry ``g_kk`` at position ``pos``; raises if degenerate."""
        gkk = float(self.diagonal[pos])
        if gkk < PIVOT_FLOOR:
            raise ValueError(
                f"degenerate pivot g_kk={gkk:.3e} at node {int(self.unlabeled[pos])}"
            )
        return gkk

    def class_means(self) -> np.ndarray:
        """Writable copy of the per-class means, shape (num_classes, |U|)."""
        return self.means.copy()

    def observe(self, node: int, class_id: int) -> "GmrfModel":
        """Absorb an observed class and shrink the model to ``U \\ {node}``.

        One Schur step, as the class docstring sets out: fetch row ``k`` of
        ``G``, append ``s`` to ``V``, move the means and ``G 1`` by one
        ``dger`` with ``t_r = +1`` for the observed class's field and ``-1``
        for the other fields, and carry the diagonal. ``s`` keeps entry
        ``k``, so ``G - s s^T`` has a zero row and column ``k``, and the
        carried column sums of squares move to
        ``q - 2 s (G s) + s^2 ||s||^2``, one gemv on ``G_0``. A carried
        ``G`` is replaced by ``G_{-k} - s_U s_U^T``, a fresh read-only
        block, and never written. Cost ``O(t n)``, plus
        ``O(n^2)`` when the sums of squares are carried or ``V`` is folded
        and ``O(|U|^2)`` when ``G`` is carried; independent of the class
        count. A node or class id that is a bool or not an integer is
        rejected before any state changes: the class id here, the node id
        by :meth:`position`. The unlabeled set is read off the unlabeled
        mask.
        """
        class_id = _as_int(class_id, "class id")
        if not 0 <= class_id < self._targets.shape[0]:
            raise ValueError(f"class id {class_id} outside 0..{self.num_classes - 1}")
        pos = self.position(node)
        gkk = self.pivot(pos)
        k = int(self.unlabeled[pos])
        if self._t == self._V.shape[0]:
            self._fold()
        base, V, t = self._base, self._V[:self._t], self._t
        s = self._V[t]
        # np.dot here and below: the same bits as matmul, through less of
        # numpy's dispatch
        np.dot(V[:, k], V, out=s)
        np.subtract(base[k], s, out=s)
        s *= self._unlabeled_mask
        root = math.sqrt(gkk)
        s /= root
        fields = self._fields
        moved = fields[:-1]
        c = moved[:, k] - self._targets[class_id]
        c /= root
        # moved -= outer(c, s); moved.T is F-contiguous, so BLAS writes the
        # rows themselves, rounding each entry once
        scipy.linalg.blas.dger(-1.0, s, c, a=moved.T, overwrite_a=1)
        square = s * s
        if self._squares is not None:
            Gs = np.dot(base, s)
            Gs -= np.dot(np.dot(V, s), V)
            Gs *= s
            scipy.linalg.blas.daxpy(Gs, self._squares, a=-2.0)
            scipy.linalg.blas.daxpy(square, self._squares, a=np.add.reduce(square))
        diagonal = fields[-1]  # ``fields[-1] -= ...`` would copy the row onto itself
        diagonal -= square
        self._t = t + 1
        self._unlabeled_mask[k] = 0.0
        self.unlabeled = self._unlabeled_mask.nonzero()[0]
        self.labeled[k] = class_id
        if self._G is not None:
            self._G = _deleted_downdate(self._G, pos, s.take(self.unlabeled))
        self._gather()
        return self

    def _fold(self) -> None:
        """Fold ``V`` into a private ``G_0 - V^T V`` and empty it."""
        self._base = _minus_gram(self._base, self._V[:self._t])
        self._t = 0

    def predict(self) -> dict[int, int]:
        """Hard class per unlabeled node by :func:`class_decision`."""
        winners = class_decision(self.means)
        return {int(node): int(c) for node, c in zip(self.unlabeled, winners)}


def conditional_mean_direct(lap: RegularizedLaplacian, labeled: dict) -> np.ndarray:
    """Conditional mean over the unlabeled nodes by a fresh SPD solve.

    Solves ``M_UU m = -M_UL y_L`` with ``M`` the regularized Laplacian and
    returns ``m`` ordered by ascending unlabeled node id. This is the
    reference the incremental :meth:`GmrfModel.observe` path is checked
    against. The fresh block ``M_UU`` is factored in place through its
    Fortran-ordered transpose, which holds the same matrix because ``M`` is
    exactly symmetric, so the solve holds one ``|U|^2`` array. A labeled id
    that is not an integer in ``0..n-1``, or a label value that the
    real-number rule rejects (a bool, a string, None or a non-finite
    number), is rejected, naming the node, before anything is factored.
    """
    if not labeled:
        raise ValueError("at least one labeled node is required")
    for node in labeled:
        if not 0 <= _as_int(node, "labeled node id") < lap.n:
            raise ValueError(f"labeled node id {node} outside 0..{lap.n - 1}")
    labeled = {int(k): _as_real(v, f"label of node {k}") for k, v in labeled.items()}
    lab_ids = sorted(labeled)
    unl_ids = [i for i in range(lap.n) if i not in labeled]
    if not unl_ids:
        raise ValueError("all nodes are labeled; the unlabeled set is empty")
    M = lap.matrix
    A = M[np.ix_(unl_ids, unl_ids)]
    B = M[np.ix_(unl_ids, lab_ids)]
    y = np.array([labeled[i] for i in lab_ids])
    factor = scipy.linalg.cho_factor(A.T, lower=True, overwrite_a=True)
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
    scores = means + 1.0
    np.maximum(scores, 0.0, out=scores)
    mass = np.add.reduce(scores, axis=1, keepdims=True)
    if mass[mass.argmin(), 0] > 0.0:  # (mass > 0).all(), NaN included
        scores /= mass
    else:
        scores = np.divide(scores, mass, out=np.full_like(scores, -np.inf), where=mass > 0.0)
    return scores.argmax(axis=0)


# Not a model: ``perfbench/tracing.py`` still looks up the observe and
# from_inverse targets of the former multi-class class under this name. An
# empty namespace lets it list them as unwrapped instead of raising.
MulticlassModel = SimpleNamespace()
