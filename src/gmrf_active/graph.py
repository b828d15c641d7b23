"""Weighted graphs, synthetic benchmark generators, and dataset loaders.

This module provides:
- ``Graph``: undirected graph with strictly positive edge weights and no
  self-loops, stored as sorted canonical edge arrays.
- ``LabeledGraph``: a graph plus a read-only array of class ids 0..C-1.
- ``RegularizedLaplacian``: dense ``D - W + delta*I`` for a connected graph.
- generators ``grid_graph`` (two-block lattice) and ``community_graph``
  (planted partition), both deterministic given their seed.
- similarity-graph construction from feature matrices (``rbf``/``pearson``)
  and plain-text loaders/savers for edge lists, label files, and feature CSVs.
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

Edge = tuple[int, int]
_INT64_MAX = np.iinfo(np.int64).max  # node ids and node counts are held as int64

# Samples community_graph draws before giving up on a connected graph.
_CONNECT_ATTEMPTS = 50

# Bytes of one row block of build_from_features' rbf difference array.
_BLOCK_BYTES = 1 << 20

# Grid shapes whose lattice grid_graph keeps, most recently used first.
_LATTICES = 8


class Graph:
    """Undirected weighted graph over nodes ``0..n-1``.

    Edges are stored once per unordered pair as three read-only arrays
    sorted by ``(lo, hi)``: the end points ``lo < hi`` and the weights ``w``,
    which makes symmetry structural. Weights must be finite and strictly
    positive; zero-weight edges are simply absent. ``Graph(n, edges)`` takes
    a mapping ``{(i, j): w}`` in either orientation and
    :meth:`from_arrays` takes the three columns; both validate them in one
    vectorized pass and name the first bad edge in input order. ``edges``
    is the canonical map ``{(lo, hi): w}``, a read-only mapping built when
    first read. Instances are immutable after construction: no attribute
    can be set or deleted and no array or mapping they hold can be written,
    so one instance is safe to share across experiment runs, as
    :func:`grid_graph` shares one lattice per grid shape.
    """

    def __init__(self, n: int, edges: Mapping[Edge, float]):
        m = len(edges)
        ends = np.array(list(edges), dtype=object) if m else np.empty((0, 2), dtype=np.intp)
        if ends.shape != (m, 2):
            raise ValueError("edge keys must be (i, j) node pairs")
        self._set(n, ends[:, 0], ends[:, 1], np.fromiter(edges.values(), float, m))

    @classmethod
    def from_arrays(cls, n: int, i, j, w) -> Graph:
        """Graph from edge columns ``i``, ``j``, ``w`` (either orientation)."""
        g = cls.__new__(cls)
        g._set(n, np.asarray(i), np.asarray(j), np.asarray(w, dtype=float))
        return g

    def _set(self, n, i, j, w) -> None:
        n = _as_int(n, "node count")
        if not 1 <= n <= _INT64_MAX:
            raise ValueError("graph needs at least one node" if n < 1
                             else f"node count {n} does not fit int64")
        if not (i.ndim == j.ndim == w.ndim == 1 and len(i) == len(j) == len(w)):
            raise ValueError("edge columns must be 1-d arrays of one length")
        lo, hi, w = _canonical_edges(n, i, j, w)
        for a in (lo, hi, w):
            a.setflags(write=False)
        vars(self).update(n=n, lo=lo, hi=hi, w=w)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Graph is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (self.n == other.n and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi)
                and np.array_equal(self.w, other.w))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, num_edges={self.num_edges})"

    @cached_property
    def edges(self) -> Mapping[Edge, float]:
        return MappingProxyType(
            dict(zip(zip(self.lo.tolist(), self.hi.tolist()), self.w.tolist())))

    @property
    def num_edges(self) -> int:
        return len(self.w)

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric adjacency matrix with zero diagonal."""
        W = np.zeros((self.n, self.n))
        W[self.lo, self.hi] = self.w
        W[self.hi, self.lo] = self.w
        return W

    @cached_property
    def _components(self) -> int:
        return _count_components(self.n, (self.lo, self.hi))

    def component_count(self) -> int:
        """Number of connected components.

        Counted on the first call only: a graph is immutable after
        construction, so later calls reuse the count.
        """
        return self._components

    def is_connected(self) -> bool:
        return self._components == 1


# Checks on each edge, in the order an edge is checked, and their messages.
_EDGE_ERRORS = (
    "non-integral node id in edge ({a}, {b})",
    "node id in edge ({a}, {b}) does not fit int64",
    "edge ({a}, {b}) outside node range 0..{top}",
    "self-loop on node {a} is not allowed",
    "non-finite weight on edge ({a}, {b})",
    "negative weight {x} on edge ({a}, {b})",
    "zero-weight edge ({a}, {b}) must not be stored",
)


class _EdgeError(ValueError):
    """A failed edge check at input position ``at``; a weight conflict also
    gives the position ``earlier`` of the pair's previous weight."""

    def __init__(self, message: str, at: int, earlier: int | None = None):
        super().__init__(message)
        self.at, self.earlier = at, earlier


def _node_str(v) -> str:
    """An id as an edge message names it: an integer id as its int, another
    number as its value and anything else by its repr, so ``'a'`` and
    ``'2.0'`` do not read as numbers."""
    k = _exact_id(v)
    if k is not None:
        return str(k)
    v = v.item() if isinstance(v, np.generic) else v
    return str(v) if isinstance(v, numbers.Number) else repr(v)


def _canonical_edges(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, *, zero_ok=False):
    """Validate edges given in input order; return ``lo, hi, w`` sorted by ``(lo, hi)``.

    The first edge in input order that fails a check raises
    :class:`_EdgeError`, with the first of its failed checks: integral ids
    that fit int64 and lie in range, no self-loop, a finite, non-negative,
    non-zero weight (zero passes if ``zero_ok``), and the weight of the
    pair's earlier occurrence, if any.
    """
    (a, a_integral), (b, b_integral) = _integer_ids(i), _integer_ids(j)
    passed = (
        np.broadcast_to(a_integral & b_integral, w.shape),
        (a <= _INT64_MAX) & (b <= _INT64_MAX),
        (0 <= a) & (a < n) & (0 <= b) & (b < n),
        a != b,
        np.isfinite(w),
        ~(w < 0),
        (w != 0) | zero_ok,
    )
    ok = np.logical_and.reduce(passed)
    first = len(w) if ok.all() else int(np.argmin(ok))

    # the edges before the first bad one are valid: sort them by (lo, hi),
    # ties in input order, and find the first that disagrees with the
    # pair's earlier occurrence; edges already in that order skip the sort,
    # whose stable permutation would be the identity
    lo = np.minimum(a[:first], b[:first]).astype(np.intp, copy=False)
    hi = np.maximum(a[:first], b[:first]).astype(np.intp, copy=False)
    same_lo = lo[1:] == lo[:-1]
    if (lo[1:] >= lo[:-1]).all() and (hi[1:] >= hi[:-1])[same_lo].all():
        order, x = None, w[:first].copy()
    else:
        order = np.lexsort((hi, lo))
        lo, hi, x = lo[order], hi[order], w[:first][order]
        same_lo = lo[1:] == lo[:-1]
    repeat = same_lo & (hi[1:] == hi[:-1])
    clashes = np.flatnonzero(repeat & (x[1:] != x[:-1])) + 1
    if len(clashes):
        order = np.arange(first) if order is None else order
        k = clashes[np.argmin(order[clashes])]
        raise _EdgeError(f"conflicting weights for edge ({lo[k]}, {hi[k]}): "
                         f"{float(x[k - 1])!r} vs {float(x[k])!r}", order[k], order[k - 1])
    if first < len(w):
        failed = next(c for c, mask in enumerate(passed) if not mask[first])
        raise _EdgeError(_EDGE_ERRORS[failed].format(
            a=_node_str(i[first]), b=_node_str(j[first]), top=n - 1,
            x=float(w[first])), first)
    if repeat.any():
        keep = np.ones(first, dtype=bool)
        keep[1:] = ~repeat
        lo, hi, x = lo[keep], hi[keep], x[keep]
    return lo, hi, x


def _integer_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray | bool]:
    """Ids as the id checks compare them, and which are integers.

    The one id rule of node ids, class ids and label keys: an id is an
    integer iff ``int(id)`` equals it or its float, or it is a string that
    ``int`` reads. ``1``, ``1.0``, ``'1'``, ``Fraction(2, 2)`` and ``True``
    pass; ``1.5``, ``'1.0'``, NaN, None, ``'a'`` and ``1+2j`` do not.
    Integer arrays pass untouched, their mask the scalar True, so they take
    no extra pass; bool and float arrays are compared as floats. Any other
    array is cast through ``int`` and ``float`` inside numpy, and only a
    failed cast walks the ids one at a time (:func:`_exact_id`), reading
    each exactly, so ids past int64 stay exact; an id that fails the rule
    reads as 0.
    """
    if ids.dtype.kind in "iu":
        return ids, True
    if ids.dtype.kind in "bf":
        f = ids.astype(float)
        return f, np.isfinite(f) & (f == np.floor(f))
    ids = ids.astype(object, copy=False)
    try:
        k = ids.astype(np.int64)
        return k, k == ids.astype(float)
    except (TypeError, ValueError, OverflowError):
        exact = np.fromiter(map(_exact_id, ids.flat), object, ids.size).reshape(ids.shape)
        integral = np.not_equal(exact, None)
        exact[~integral] = 0
        return exact, integral


def _exact_id(x) -> int | None:
    """``int(x)`` if ``x`` is a string, which ``int`` reads exactly, or if it
    equals ``x`` or ``float(x)``, else None."""
    try:
        k = int(x)
        return k if isinstance(x, str) or k == x or k == float(x) else None
    except (TypeError, ValueError, OverflowError):
        return None


def _count_components(n: int, edges) -> int:
    """Connected components of nodes ``0..n-1`` over the edge arrays ``(lo, hi)``.

    Hook and pointer jumping, after Shiloach and Vishkin: each round hooks
    every root that an edge joins to a smaller root under the smallest such
    root, then jumps pointers until every node points at its root. A root
    that neither hooks nor is hooked into is joined to a smaller root by
    its neighbours' hooks, so it hooks in the next round, and the number of
    roots at least halves every two rounds. Every round hooks over every
    edge: an edge inside one tree hooks its root onto itself, which changes
    nothing, and dropping such edges each round cost more than it saved on
    every benchmark graph.
    """
    lo, hi = edges
    parent = np.arange(n)
    while True:
        a, b = parent[lo], parent[hi]
        if np.array_equal(a, b):
            return int(np.count_nonzero(parent == np.arange(n)))
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """A graph with one class id per node, classes ``0..num_classes-1``.

    ``labels`` is a read-only int64 array indexed by node id, copied from a
    sequence indexed by node id or a ``{node: class}`` mapping over every
    node. Class ids are integers by the id rule of :func:`_integer_ids`;
    every class occurs.
    Frozen: no field can be reassigned past these checks.
    """

    graph: Graph
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        n, labels = self.graph.n, self.labels
        object.__setattr__(self, "num_classes", _as_int(self.num_classes, "num_classes"))
        if self.num_classes < 2:
            raise ValueError(f"need at least two classes, got num_classes={self.num_classes!r}")
        if isinstance(labels, Mapping):
            labels = _in_node_order(labels, n)
        elif not isinstance(labels, np.ndarray):
            labels = np.fromiter(labels, dtype=object)
        if labels is None or labels.shape != (n,):
            raise ValueError("every node needs exactly one label")
        ids, integral = _integer_ids(labels)
        if integral is not True and not integral.all():
            _raise_first_fractional(labels, integral)
        if not ((ids >= 0) & (ids < self.num_classes)).all():
            raise ValueError("labels must lie in 0..num_classes-1")
        labels = ids.astype(np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        if not np.bincount(labels, minlength=self.num_classes).all():
            raise ValueError("every class must occur at least once")


def _in_node_order(mapping: Mapping, n: int) -> np.ndarray | None:
    """Values of ``{node: value}`` as an object array indexed by node id, or
    None unless the keys are exactly the nodes ``0..n-1``."""
    nodes, integral = _integer_ids(np.array(list(mapping), dtype=object))
    if (nodes.shape != (n,) or not integral.all()
            or not np.array_equal(np.sort(nodes), np.arange(n))):
        return None
    values = np.empty(n, dtype=object)
    values[nodes.astype(np.intp)] = np.fromiter(mapping.values(), dtype=object, count=n)
    return values


def _as_int(value, what: str, low: int | None = None) -> int:
    """The integer rule of every integer scalar input, ``what`` naming it:
    ``value`` as an int of at least ``low``; a bool or a number that is not
    an integer is rejected. Seeds pass ``low=0``; ``budget``, ``runs`` and
    the iteration ``t`` pass ``low=1``."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if low is None or number >= low:
                return number
            raise ValueError(f"{what} must be >= {low}, got {number}")
    raise ValueError(f"{what} {value!r} is not an integer")


def _as_real(value, what: str, low: float | None = None, *, strict: bool = False) -> float:
    """The real-number rule of every real scalar input, ``what`` naming it:
    ``value`` as a finite float of at least ``low``, or above it if
    ``strict``; a bool, a string or a non-finite number is rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int or fraction past the float range
            x = math.inf
        if math.isfinite(x) and (low is None or x > low or (x == low and not strict)):
            return x
    bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
    raise ValueError(f"{what} must be finite{bound}, got {value!r}")


def _raise_first_fractional(labels: np.ndarray, integral: np.ndarray) -> None:
    """Raise for the first node whose class id is not an integer, the first
    False of ``integral``."""
    i = int(np.argmin(integral))
    c = labels[i].item() if isinstance(labels[i], np.generic) else labels[i]
    raise ValueError(f"class id {c!r} of node {i} is not an integer")


@dataclass
class RegularizedLaplacian:
    """Dense ``D - W + delta*I`` of a connected graph, ``delta > 0``.

    Symmetric positive definite; every row sums to ``delta`` because the
    plain Laplacian has zero row sums. ``n`` is read off the matrix.
    """

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def regularized_laplacian(graph: Graph, delta: float) -> RegularizedLaplacian:
    """Build ``D - W + delta*I`` for a connected graph.

    Parameters
    ----------
    graph : Graph
        Must be connected; disconnected input is rejected with the
        component count in the message.
    delta : float
        Self-loop weight added to every node, a real number above 0.
    """
    delta = _as_real(delta, "delta", 0, strict=True)
    if not graph.is_connected():
        raise ValueError(
            f"graph is disconnected ({graph.component_count()} components); "
            "a connected graph is required for model construction"
        )
    # built inside W's array, the same bytes as np.diag(W.sum(axis=1)) - W
    # plus delta: 0 - W keeps the zeros +0.0, where negation gives -0.0
    L = graph.weight_matrix()
    row_sums = L.sum(axis=1)
    np.subtract(0.0, L, out=L)
    L.flat[::graph.n + 1] = row_sums + delta
    return RegularizedLaplacian(L)


def normalize_features(features) -> np.ndarray:
    """Affinely map every feature column onto ``[-1, 1]``.

    Each entry is ``2 q - 1`` with ``q = (x - lo) / span`` per column, one
    masked divide whose fill 0.5 maps a constant column to all zeros (the
    midpoint) instead of erroring. Doubling is exact, so this rounds as
    ``2 (x - lo) / span - 1`` does.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("features must be a non-empty 2-d array")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature entries")
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    q = np.divide(X - lo, span, out=np.full_like(X, 0.5), where=span > 0)
    return 2.0 * q - 1.0


def build_from_features(features, method: str = "rbf", *, sigma: float = 1.0,
                        threshold: float = 0.0) -> Graph:
    """Build a similarity graph from row feature vectors.

    Parameters
    ----------
    features : (N, d) array
        One row per node. Finite entries required.
    method : {"rbf", "pearson"}
        ``rbf`` uses ``exp(-||x_i - x_j||^2 / sigma^2)``; ``pearson`` uses
        ``<x_i, x_j> / (||x_i|| ||x_j||)`` on the raw rows (callers normalize
        columns beforehand, e.g. via :func:`normalize_features`). Pearson
        divides ``X X^T`` by the outer product of the row norms in one masked
        divide, so a pair with a zero row gets weight 0. It holds three
        ``(n, n)`` arrays at once, the product, the outer product and ``W``,
        and frees the outer product before the edges are read from ``W``.
    threshold : float
        Weights below ``threshold`` are dropped. Non-positive weights are
        always dropped, so all negative pearson similarities disappear.

    Returns
    -------
    Graph
        Symmetric, zero-diagonal. Raises if the thresholded graph is
        disconnected, reporting the component count.
    """
    threshold = _as_real(threshold, "threshold")
    sigma = _as_real(sigma, "sigma", 0, strict=True)
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    n, d = X.shape
    if n < 2 or d < 1:
        raise ValueError("need at least two rows and one feature column")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature entries")
    if method == "rbf":
        # row blocks of the (n, n, d) difference array, each pair summed
        # over its d-vector as in one whole-array pass
        W = np.empty((n, n))
        step = max(1, _BLOCK_BYTES // (8 * n * d))
        for r in range(0, n, step):
            diff = X[r:r + step, None, :] - X[None, :, :]
            W[r:r + step] = np.exp(-(diff * diff).sum(axis=2) / (sigma * sigma))
    elif method == "pearson":
        norms = np.linalg.norm(X, axis=1)
        denom = np.outer(norms, norms)
        W = np.divide(X @ X.T, denom, out=np.zeros((n, n)), where=denom > 0)
        del denom
    else:
        raise ValueError(f"unknown similarity method {method!r}")
    iu, ju = np.triu_indices(n, k=1)
    w = W[iu, ju]
    # drop W and the full triangle before the kept edges are sorted
    del W
    keep = (w > 0.0) & (w >= threshold)
    iu, ju, w = iu[keep], ju[keep], w[keep]
    g = Graph.from_arrays(n, iu, ju, w)
    if not g.is_connected():
        raise ValueError(
            f"similarity graph is disconnected ({g.component_count()} components); "
            "lower the threshold or increase sigma"
        )
    return g


@lru_cache(maxsize=_LATTICES)
def _lattice(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` 4-neighbor lattice with unit weights."""
    node = np.arange(rows * cols).reshape(rows, cols)
    lo = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    hi = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    return Graph.from_arrays(rows * cols, lo, hi, np.ones(len(lo)))


def grid_graph(rows: int, cols: int, seed: int) -> LabeledGraph:
    """Two-block lattice benchmark.

    A 4-neighbor grid with unit weights. Class 1 fills the 3x3 corner blocks
    at the upper-left and lower-right, plus random extras: every node on the
    center row (``rows // 2``) and center column (``cols // 2``) flips to
    class 1 independently with probability 0.5. Everything else is class 0.
    Deterministic given ``seed``, an integer >= 0. The lattice is built and
    validated once per grid shape (the last ``_LATTICES`` shapes are kept),
    and every labeled grid of that shape shares the one immutable
    :class:`Graph`; only the labels are drawn per call.
    """
    rows, cols, seed = _as_int(rows, "rows"), _as_int(cols, "cols"), _as_int(seed, "seed", 0)
    if rows < 4 or cols < 4:
        raise ValueError("grid must be at least 4x4 to hold both 3x3 class blocks")
    graph = _lattice(rows, cols)

    y = np.zeros((rows, cols), dtype=np.int64)
    y[:3, :3] = 1
    y[-3:, -3:] = 1
    line = np.zeros((rows, cols), dtype=bool)
    line[rows // 2, :] = True
    line[:, cols // 2] = True
    # one draw per line node in increasing id order
    line_nodes = np.flatnonzero(line)
    rng = np.random.default_rng(seed)
    y.flat[line_nodes[rng.random(len(line_nodes)) < 0.5]] = 1
    return LabeledGraph(graph, y.ravel(), 2)


def community_graph(sizes, p_in: float, p_out: float, seed: int) -> LabeledGraph:
    """Planted-partition benchmark with unit weights.

    Each within-block pair is connected with probability ``p_in`` and each
    cross-block pair with ``p_out < p_in``; the node label is its block
    index. Sampling repeats (consuming the stream of ``seed``, an integer
    >= 0) until the graph is connected, up to ``_CONNECT_ATTEMPTS`` attempts.
    """
    sizes = [_as_int(s, "community size") for s in sizes]
    p_in, p_out, seed = _as_real(p_in, "p_in"), _as_real(p_out, "p_out"), _as_int(seed, "seed", 0)
    if len(sizes) < 2:
        raise ValueError(f"need at least two communities, got sizes {sizes}")
    if any(s < 2 for s in sizes):
        raise ValueError(f"each community needs at least 2 nodes, got sizes {sizes}")
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ValueError(f"require 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum([0] + sizes)
    # thresholds[c, j]: p_in if column j lies in community c, else p_out
    thresholds = np.where(np.arange(len(sizes))[:, None] == block, p_in, p_out)
    hit = np.empty((n, n), dtype=bool)
    rng = np.random.default_rng(seed)
    for _ in range(_CONNECT_ATTEMPTS):
        # each community's rows of one (n, n) uniform draw, drawn as compared
        for c, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
            np.less(rng.random((b - a, n)), thresholds[c], out=hit[a:b])
        # hits above the diagonal in row-major order: sorted by (lo, hi)
        ii, jj = np.divmod(np.flatnonzero(hit), n)
        upper = ii < jj
        ii, jj = ii[upper], jj[upper]
        g = Graph.from_arrays(n, ii, jj, np.ones(len(ii)))
        if g.is_connected():
            return LabeledGraph(g, block, len(sizes))
    raise ValueError(
        f"no connected sample after {_CONNECT_ATTEMPTS} attempts; "
        "increase p_in/p_out or the community sizes"
    )


def _records(path, form: str, kinds) -> list[tuple]:
    """One tuple per non-blank line of a UTF-8 file: its line number, then the
    fields that ``form`` names, parsed by ``kinds`` (``int``, ``float``)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not (parts := raw.split()):
                continue
            if len(parts) != len(kinds):
                raise ValueError(f"{path}:{lineno}: expected {form!r}, got {raw.strip()!r}")
            try:
                rows.append((lineno, *[kind(p) for kind, p in zip(kinds, parts)]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: could not parse {raw.strip()!r}") from None
    if not rows:
        raise ValueError(f"{path}: no {form!r} records found")
    return rows


def load_edge_list(path) -> Graph:
    """Read a UTF-8 edge list: one ``i j w`` record per line, 0-based ids.

    Records are checked as :class:`Graph` checks edges, errors naming their
    line; zero-weight records join the conflict check, then are dropped.
    """
    lines, i, j, w = zip(*_records(path, "i j w", (int, int, float)))
    ends, _ = _integer_ids(np.array((i, j), dtype=object))
    n = max(int(ends.max()) + 1, 1)
    try:
        lo, hi, w = _canonical_edges(n, ends[0], ends[1], np.array(w), zero_ok=True)
        if n > _INT64_MAX:  # every id fits, so the largest is 2^63 - 1
            raise _EdgeError(f"node count {n} does not fit int64", int(ends.max(axis=0).argmax()))
    except _EdgeError as exc:
        earlier = "" if exc.earlier is None else f" (line {lines[exc.earlier]})"
        raise ValueError(f"{path}:{lines[exc.at]}: "
                         + str(exc).replace(" vs ", earlier + " vs ")) from None
    keep = w != 0
    return Graph.from_arrays(n, lo[keep], hi[keep], w[keep])


def save_edge_list(graph: Graph, path) -> None:
    """Write a graph in the ``i j w`` format read by :func:`load_edge_list`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i, j, w in zip(graph.lo.tolist(), graph.hi.tolist(), graph.w.tolist()):
            fh.write(f"{i} {j} {w!r}\n")


def load_labels(path) -> dict[int, int]:
    """Read a label file: one ``i c`` record per line, integer class values."""
    labels: dict[int, int] = {}
    for lineno, i, c in _records(path, "i c", (int, int)):
        if labels.setdefault(i, c) != c:
            raise ValueError(f"{path}:{lineno}: conflicting labels for node {i}")
    return labels


def save_labels(labels, path) -> None:
    """Write class ids indexed by node id in the ``i c`` format of :func:`load_labels`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{i} {c}\n" for i, c in enumerate(np.asarray(labels).tolist()))


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature CSV whose last column is an integer class label.

    Returns ``(features, labels)`` with one row per node. All feature
    entries must be finite and every label must fit int64; malformed rows
    report their line number.
    """
    rows: list[list[float]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not tok.strip() for tok in record):
                continue
            if len(record) < 2:
                raise ValueError(f"{path}:{lineno}: need at least one feature and a label")
            try:
                values = [float(tok) for tok in record]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: could not parse {record!r}") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: non-finite entry")
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: inconsistent column count")
            if not values[-1].is_integer():
                raise ValueError(f"{path}:{lineno}: class label {record[-1]!r} is not an integer")
            if not -_INT64_MAX - 1 <= values[-1] <= _INT64_MAX:
                raise ValueError(f"{path}:{lineno}: class label {record[-1]!r} does not fit int64")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows found")
    data = np.array(rows)
    return data[:, :-1].copy(), data[:, -1].astype(np.int64)


def canonical_labels(raw) -> tuple[np.ndarray, int]:
    """Remap integer class values, indexed by node id, onto ids ``0..C-1``.

    The mapping follows the sorted order of the distinct values, so it is
    deterministic; returns the int64 array of ids and the class count.
    """
    values, ids = np.unique(raw, return_inverse=True)
    if len(values) < 2:
        raise ValueError("need at least two distinct classes")
    return ids.astype(np.int64, copy=False), len(values)


def from_spec(spec: str, seed: int = 0) -> LabeledGraph:
    """Build a labeled graph from a compact source description.

    Grammar: ``grid:RxC``, ``community:S1,S2,..:pin=P:pout=Q`` (each option
    once), or ``file:EDGES:LABELS``. Generator sources are regenerated from
    ``seed``; file sources ignore it.
    """
    kind, _, rest = spec.partition(":")
    if kind == "grid":
        try:
            rows_s, cols_s = rest.split("x")
            rows, cols = int(rows_s), int(cols_s)
        except ValueError:
            raise ValueError(f"bad grid spec {spec!r}; expected grid:RxC") from None
        return grid_graph(rows, cols, seed)
    if kind == "community":
        parts = rest.split(":")
        try:
            sizes = [int(x) for x in parts[0].split(",")]
        except ValueError:
            raise ValueError(f"bad community sizes in {spec!r}") from None
        probs = {}
        for part in parts[1:]:
            key, _, val = part.partition("=")
            if key not in ("pin", "pout"):
                raise ValueError(f"unknown community option {part!r} in {spec!r}")
            if key in probs:
                raise ValueError(f"community option {key} given twice in {spec!r}")
            try:
                probs[key] = float(val)
            except ValueError:
                raise ValueError(
                    f"bad value {val!r} for community option {key} in {spec!r}"
                ) from None
        p_in, p_out = probs.get("pin"), probs.get("pout")
        if p_in is None or p_out is None:
            raise ValueError(f"community spec {spec!r} needs pin= and pout=")
        return community_graph(sizes, p_in, p_out, seed)
    if kind == "file":
        edge_path, _, label_path = rest.partition(":")
        if not edge_path or not label_path:
            raise ValueError("file spec must name both files: file:EDGES:LABELS")
        g = load_edge_list(edge_path)
        values = _in_node_order(load_labels(label_path), g.n)
        if values is None:
            raise ValueError(f"label file {label_path} must cover exactly the {g.n} nodes "
                             f"of {edge_path}")
        return LabeledGraph(g, *canonical_labels(values))
    raise ValueError(
        f"unknown graph spec {spec!r}; expected grid:RxC, "
        "community:SIZES:pin=..:pout=.., or file:EDGES:LABELS"
    )
