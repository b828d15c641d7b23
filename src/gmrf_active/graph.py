"""Weighted graphs, synthetic benchmark generators, and dataset loaders.

This module provides:
- ``Graph``: undirected graph with strictly positive edge weights and no
  self-loops, stored sparsely as a canonical edge map.
- ``LabeledGraph``: a graph plus a total assignment of class ids 0..C-1.
- ``RegularizedLaplacian``: dense ``D - W + delta*I`` for a connected graph.
- generators ``grid_graph`` (two-block lattice) and ``community_graph``
  (planted partition), both deterministic given their seed.
- similarity-graph construction from feature matrices (``rbf``/``pearson``)
  and plain-text loaders/savers for edge lists, label files, and feature CSVs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Edge = tuple[int, int]

# Samples community_graph draws before giving up on a connected graph.
_CONNECT_ATTEMPTS = 50


@dataclass
class Graph:
    """Undirected weighted graph over nodes ``0..n-1``.

    Edges are stored once per unordered pair under the canonical key
    ``(min(i, j), max(i, j))``, which makes symmetry structural. Weights must
    be finite and strictly positive; zero-weight edges are simply absent.
    Instances are treated as immutable after construction and are safe to
    share across concurrent experiment runs.
    """

    n: int
    edges: dict[Edge, float]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        canonical: dict[Edge, float] = {}
        for (i, j), w in self.edges.items():
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) outside node range 0..{self.n - 1}")
            if i == j:
                raise ValueError(f"self-loop on node {i} is not allowed")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight on edge ({i}, {j})")
            if w < 0:
                raise ValueError(f"negative weight {w} on edge ({i}, {j})")
            if w == 0:
                raise ValueError(f"zero-weight edge ({i}, {j}) must not be stored")
            key = (i, j) if i < j else (j, i)
            if key in canonical and canonical[key] != w:
                raise ValueError(
                    f"conflicting weights for edge {key}: {canonical[key]} vs {w}"
                )
            canonical[key] = w
        self.edges = canonical

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric adjacency matrix with zero diagonal."""
        W = np.zeros((self.n, self.n))
        for (i, j), w in self.edges.items():
            W[i, j] = w
            W[j, i] = w
        return W

    @cached_property
    def _components(self) -> int:
        return _count_components(self.n, self.edges)

    def component_count(self) -> int:
        """Number of connected components.

        Counted on the first call only: a graph is immutable after
        construction, so later calls reuse the count.
        """
        return self._components

    def is_connected(self) -> bool:
        return self._components == 1


def _count_components(n: int, edges) -> int:
    """Connected components of nodes ``0..n-1`` by union-find over ``edges``."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(a) for a in range(n)})


@dataclass
class LabeledGraph:
    """A graph with one class id per node, classes ``0..num_classes-1``.

    Every node carries exactly one label and every class occurs at least
    once; generators and loaders enforce this at construction.
    """

    graph: Graph
    labels: dict[int, int]
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        nodes = set(range(self.graph.n))
        if set(self.labels) != nodes:
            raise ValueError("every node needs exactly one label")
        self.labels = {int(i): int(c) for i, c in self.labels.items()}
        seen = set(self.labels.values())
        if not seen <= set(range(self.num_classes)):
            raise ValueError("labels must lie in 0..num_classes-1")
        if seen != set(range(self.num_classes)):
            raise ValueError("every class must occur at least once")

    def label_vector(self) -> np.ndarray:
        return np.array([self.labels[i] for i in range(self.graph.n)], dtype=np.int64)


@dataclass
class RegularizedLaplacian:
    """Dense ``D - W + delta*I`` of a connected graph, ``delta > 0``.

    Symmetric positive definite; every row sums to ``delta`` because the
    plain Laplacian has zero row sums.
    """

    n: int
    delta: float
    matrix: np.ndarray


def regularized_laplacian(graph: Graph, delta: float) -> RegularizedLaplacian:
    """Build ``D - W + delta*I`` for a connected graph.

    Parameters
    ----------
    graph : Graph
        Must be connected; disconnected input is rejected with the
        component count in the message.
    delta : float
        Finite positive self-loop weight added to every node.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if not graph.is_connected():
        raise ValueError(
            f"graph is disconnected ({graph.component_count()} components); "
            "a connected graph is required for model construction"
        )
    W = graph.weight_matrix()
    L = np.diag(W.sum(axis=1)) - W
    L[np.diag_indices_from(L)] += delta
    return RegularizedLaplacian(graph.n, float(delta), L)


def normalize_features(features) -> np.ndarray:
    """Affinely map every feature column onto ``[-1, 1]``.

    Constant columns map to all zeros (the midpoint) instead of erroring.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("features must be a non-empty 2-d array")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature entries")
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    out = np.zeros_like(X)
    varying = span > 0
    out[:, varying] = 2.0 * (X[:, varying] - lo[varying]) / span[varying] - 1.0
    return out


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
        columns beforehand, e.g. via :func:`normalize_features`).
    threshold : float
        Weights below ``threshold`` are dropped. Non-positive weights are
        always dropped, so all negative pearson similarities disappear.

    Returns
    -------
    Graph
        Symmetric, zero-diagonal. Raises if the thresholded graph is
        disconnected, reporting the component count.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    n, d = X.shape
    if n < 2 or d < 1:
        raise ValueError("need at least two rows and one feature column")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature entries")
    if method == "rbf":
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {sigma}")
        diff = X[:, None, :] - X[None, :, :]
        W = np.exp(-(diff * diff).sum(axis=2) / (sigma * sigma))
    elif method == "pearson":
        norms = np.linalg.norm(X, axis=1)
        denom = np.outer(norms, norms)
        safe = np.where(denom > 0, denom, 1.0)
        W = np.where(denom > 0, (X @ X.T) / safe, 0.0)
    else:
        raise ValueError(f"unknown similarity method {method!r}")
    iu, ju = np.triu_indices(n, k=1)
    w = W[iu, ju]
    keep = (w > 0.0) & (w >= threshold)
    edges = {
        (int(i), int(j)): float(x)
        for i, j, x in zip(iu[keep], ju[keep], w[keep])
    }
    g = Graph(n, edges)
    if not g.is_connected():
        raise ValueError(
            f"similarity graph is disconnected ({g.component_count()} components); "
            "lower the threshold or increase sigma"
        )
    return g


def grid_graph(rows: int, cols: int, seed: int) -> LabeledGraph:
    """Two-block lattice benchmark.

    A 4-neighbor grid with unit weights. Class 1 fills the 3x3 corner blocks
    at the upper-left and lower-right, plus random extras: every node on the
    center row (``rows // 2``) and center column (``cols // 2``) flips to
    class 1 independently with probability 0.5. Everything else is class 0.
    Deterministic given ``seed``.
    """
    if rows < 4 or cols < 4:
        raise ValueError("grid must be at least 4x4 to hold both 3x3 class blocks")

    def node(r: int, c: int) -> int:
        return r * cols + c

    edges: dict[Edge, float] = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges[(node(r, c), node(r, c + 1))] = 1.0
            if r + 1 < rows:
                edges[(node(r, c), node(r + 1, c))] = 1.0

    labels = {node(r, c): 0 for r in range(rows) for c in range(cols)}
    for r in range(3):
        for c in range(3):
            labels[node(r, c)] = 1
            labels[node(rows - 1 - r, cols - 1 - c)] = 1
    line_nodes = sorted(
        {node(rows // 2, c) for c in range(cols)}
        | {node(r, cols // 2) for r in range(rows)}
    )
    rng = np.random.default_rng(seed)
    for v in line_nodes:
        if rng.random() < 0.5:
            labels[v] = 1
    return LabeledGraph(Graph(rows * cols, edges), labels, 2)


def community_graph(sizes, p_in: float, p_out: float, seed: int) -> LabeledGraph:
    """Planted-partition benchmark with unit weights.

    Each within-block pair is connected with probability ``p_in`` and each
    cross-block pair with ``p_out < p_in``; the node label is its block
    index. Sampling repeats (consuming the same seeded stream) until the
    graph is connected, up to ``_CONNECT_ATTEMPTS`` attempts.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ValueError("need at least two communities")
    if any(s < 2 for s in sizes):
        raise ValueError("each community needs at least 2 nodes")
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ValueError(f"require 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    probs = np.where(block[:, None] == block[None, :], p_in, p_out)
    rng = np.random.default_rng(seed)
    for _ in range(_CONNECT_ATTEMPTS):
        hit = np.triu(rng.random((n, n)) < probs, k=1)
        ii, jj = np.nonzero(hit)
        g = Graph(n, {(int(i), int(j)): 1.0 for i, j in zip(ii, jj)})
        if g.is_connected():
            labels = {i: int(block[i]) for i in range(n)}
            return LabeledGraph(g, labels, len(sizes))
    raise ValueError(
        f"no connected sample after {_CONNECT_ATTEMPTS} attempts; "
        "increase p_in/p_out or the community sizes"
    )


def load_edge_list(path) -> Graph:
    """Read a UTF-8 edge list: one ``i j w`` record per line, 0-based ids.

    Rejects NaN/Inf and negative weights, self-loops, and duplicate records
    that disagree on the weight; zero-weight records are dropped. Errors
    carry the offending line number.
    """
    records: dict[Edge, tuple[float, int]] = {}
    max_id = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'i j w', got {line!r}")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: could not parse {line!r}") from None
            if not math.isfinite(w):
                raise ValueError(f"{path}:{lineno}: non-finite weight {parts[2]}")
            if w < 0:
                raise ValueError(f"{path}:{lineno}: negative weight {w}")
            if i == j:
                raise ValueError(f"{path}:{lineno}: self-loop on node {i}")
            if i < 0 or j < 0:
                raise ValueError(f"{path}:{lineno}: node ids must be >= 0")
            key = (i, j) if i < j else (j, i)
            if key in records and records[key][0] != w:
                prev_w, prev_line = records[key]
                raise ValueError(
                    f"{path}:{lineno}: conflicting weights for edge {key}: "
                    f"{prev_w} (line {prev_line}) vs {w}"
                )
            max_id = max(max_id, i, j)
            if w == 0.0:
                continue
            records[key] = (w, lineno)
    if max_id < 0:
        raise ValueError(f"{path}: no edge records found")
    return Graph(max_id + 1, {key: w for key, (w, _) in records.items()})


def save_edge_list(graph: Graph, path) -> None:
    """Write a graph in the ``i j w`` format read by :func:`load_edge_list`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for (i, j), w in sorted(graph.edges.items()):
            fh.write(f"{i} {j} {w!r}\n")


def load_labels(path) -> dict[int, int]:
    """Read a label file: one ``i c`` record per line, integer class values."""
    labels: dict[int, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i c', got {line!r}")
            try:
                i, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: could not parse {line!r}") from None
            if i in labels and labels[i] != c:
                raise ValueError(f"{path}:{lineno}: conflicting labels for node {i}")
            labels[i] = c
    if not labels:
        raise ValueError(f"{path}: no label records found")
    return labels


def save_labels(labels: dict[int, int], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i in sorted(labels):
            fh.write(f"{i} {labels[i]}\n")


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature CSV whose last column is an integer class label.

    Returns ``(features, labels)`` with one row per node. All feature
    entries must be finite; malformed rows report their line number.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
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
            if rows and len(values) != len(rows[0]) + 1:
                raise ValueError(f"{path}:{lineno}: inconsistent column count")
            if not values[-1].is_integer():
                raise ValueError(f"{path}:{lineno}: class label {record[-1]!r} is not an integer")
            rows.append(values[:-1])
            labels.append(int(values[-1]))
    if not rows:
        raise ValueError(f"{path}: no data rows found")
    return np.array(rows, dtype=float), np.array(labels, dtype=np.int64)


def canonical_labels(raw: dict[int, int]) -> tuple[dict[int, int], int]:
    """Remap arbitrary integer class values onto contiguous ids ``0..C-1``.

    The mapping follows the sorted order of the distinct values, so it is
    deterministic; returns the remapped dict and the class count.
    """
    values = sorted(set(raw.values()))
    if len(values) < 2:
        raise ValueError("need at least two distinct classes")
    remap = {v: k for k, v in enumerate(values)}
    return {int(i): remap[c] for i, c in raw.items()}, len(values)


def from_spec(spec: str, seed: int = 0) -> LabeledGraph:
    """Build a labeled graph from a compact source description.

    Grammar: ``grid:RxC``, ``community:S1,S2,..:pin=P:pout=Q``, or
    ``file:EDGES:LABELS``. Generator sources are regenerated from ``seed``;
    file sources ignore it.
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
        labels, num_classes = canonical_labels(load_labels(label_path))
        if set(labels) != set(range(g.n)):
            raise ValueError(
                f"label file {label_path} must cover exactly the {g.n} nodes "
                f"of {edge_path}"
            )
        return LabeledGraph(g, labels, num_classes)
    raise ValueError(
        f"unknown graph spec {spec!r}; expected grid:RxC, "
        "community:SIZES:pin=..:pout=.., or file:EDGES:LABELS"
    )
