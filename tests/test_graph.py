"""Graph construction, generators, Laplacians, and file round-trips."""

import dataclasses
import hashlib
import math
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gmrf_active import (
    Graph,
    LabeledGraph,
    RegularizedLaplacian,
    build_from_features,
    community_graph,
    from_spec,
    grid_graph,
    load_edge_list,
    load_features,
    load_labels,
    normalize_features,
    regularized_laplacian,
    save_edge_list,
    save_labels,
)
from gmrf_active import graph as graph_mod
from gmrf_active.checks import random_connected_graph
from gmrf_active.cli import main

# sha256 of (n, sorted edges with repr(w), labels) at seeds 0-4, recorded
# before Graph stored its edges as arrays
GOLDEN_GRAPHS = {
    "grid:10x10": [
        "d9af42ff82af677ca3ca3ed89033fb248d7529512f33bc4a94236cf650cfe6f2",
        "ae1ec202950b03691f21f3eee8eb2103fbbc6deed419fe43f527b6b2d6a2377e",
        "627ff841533cda626b4c9d27a5ad2a989eda93be9e525a77352c5f7726df207d",
        "f4625e1d874a0d0748a3f496176c36005805094ac1d7f519c502417df2c789d1",
        "d6af55ad2d02c8e7736375fc1f4e7fb6b2de99c8250054e7cefc0bde2b978bf1",
    ],
    "grid:20x20": [
        "477512ab32e56116ea177d09b76004d5d4022aba8be4f3d7560b5e20fe2c0915",
        "7f6e8bc4e1e23548021b3a9446c2baf69589b5194ec88bc4e1622118018630e8",
        "43f96d611adb3078412df58f8cd806f0af104cda7942c548d594186cfff0bce3",
        "f98ce654a08655847119d85ce1952b2bdb1e6044e301e3877257aa6ff8017dbc",
        "7d7b709c8c407be499ce6957c1790ea14aa9d1beebe4c85e103bf5bff6b7f5e3",
    ],
    "community:75,105,120:pin=0.15:pout=0.006": [
        "e3ee7ff1dfbb6bbad748b99deccda9e9c54080e0a925afc0bf5d7753a833810b",
        "3599a3169766717d30cfec43dab86337ef5431443f16f5acb706ba72772ceae3",
        "b4fa6635c1278b315da286476b0f0670489fd6e06304e8e7e0cd873a03298417",
        "14a76ee42acd866802b2de386d97f20fa503b0b220717b2c59545f4414321571",
        "2e99d3c365a6d97c4282dc4f8a246f518ab3fcb53dacf9cd6d6070a35b8c49fc",
    ],
    "community:8,8,8:pin=0.6:pout=0.05": [
        "b9ce56d3935e4433b6b3b24626894a5850018e5e585353984ee48c769de59b72",
        "c610692e84ea34abc96bb58b6e70d2516473d0f212f4460dd6c2621de312468d",
        "4075018f80de1cdbc279217adf2fda2a743cc7051887d113701ff84002ee4b08",
        "a885ec17533beae776569a3ae750e30ccc27c67c30598bb7bdb6e19f317324fe",
        "867b43057a534278fb33aa731a3b19313671c4cd3d10c7c2ca2a25540273301d",
    ],
}

# sha256 of the edge and label files ``gmrf-active gen`` writes
GOLDEN_GEN = {
    ("grid:10x10", 7): (
        "e70c292998e60d3d31d1484f84a285fdb09460e8b9037c699ca6bccb59d86789",
        "e3c8746c2198264ce1208fbcd21f41a5dd8963211aa5d685053eba9be8510d96",
    ),
    ("community:20,20,20:pin=0.5:pout=0.02", 4): (
        "329faced8ecaeb4a6dd2552e43c05e31986b4cda3a1dda8d05a066959e371db1",
        "ca59e520c5a6fdfba5de26d9b36f240658c0d3a14bee28255499f0269d053da7",
    ),
}

# sha256 of (n, sorted edges with repr(w)) of rbf similarity graphs over
# normalize_features(uniform(-3, 3)) rows, one matrix per shape, drawn in
# this order from seed 0. Pearson weights come from a BLAS product whose
# last bits vary with the BLAS thread count, so pearson pins only
# (n, sorted edges), and its weights are checked per pair at 1e-12.
GOLDEN_SIMILARITY = [
    ((40, 3), "rbf", {"sigma": 1.0, "threshold": 0.0},
     "5279e5f84f8270d2410cb099972b16f6fbc1e3f8aeb2be281517dedff350eefa"),
    ((40, 3), "rbf", {"sigma": 2.0, "threshold": 0.05},
     "a53718a975b05646f48d0d3772d4138fa64d685baab4186311ceebf93bd89190"),
    ((40, 3), "pearson", {"threshold": 0.0},
     "25fa0b44ea663970c48e4d0fa362abe438b9041c7bc35e027f5ac58842645fc6"),
    ((351, 34), "rbf", {"sigma": 1.0, "threshold": 0.0},
     "75b03db6dfa5f7facf67363391ddba3f77559e8861ec42c628c8e2cb9ce1d9f4"),
    ((351, 34), "rbf", {"sigma": 2.0, "threshold": 0.05}, "161 components"),
    ((351, 34), "pearson", {"threshold": 0.0},
     "b990f05350beef60d08979e678b9b985869d380d10c61db3d060e8b0b04796bc"),
    ((97, 5), "rbf", {"sigma": 1.0, "threshold": 0.0},
     "b362b432ad70d2aca04839128e723453601ba8bac000ae89cf93740a3a569cd8"),
    ((97, 5), "rbf", {"sigma": 2.0, "threshold": 0.05},
     "c5d2f20aa06350a4815ca633ca22eeb1744f29a9660c18933f055a0bf7084be5"),
    ((97, 5), "pearson", {"threshold": 0.0},
     "fbc3047e52ed2533bae6f485dbf24afc8997332f82df41ec61d9e83b7d61a078"),
]


def edge_digest(g, labels=None, weights=True) -> str:
    h = hashlib.sha256()
    h.update(f"n {g.n}\n".encode())
    for (i, j), w in sorted(g.edges.items()):
        h.update((f"{i} {j} {w!r}\n" if weights else f"{i} {j}\n").encode())
    if labels is not None:
        for i in range(g.n):
            h.update(f"{i} {labels[i]}\n".encode())
    return h.hexdigest()


class TestGoldenGraphs:
    @pytest.mark.parametrize("spec", sorted(GOLDEN_GRAPHS))
    def test_generated_graphs_unchanged(self, spec):
        for seed, digest in enumerate(GOLDEN_GRAPHS[spec]):
            lg = from_spec(spec, seed=seed)
            assert edge_digest(lg.graph, lg.labels) == digest, (spec, seed)

    @pytest.mark.parametrize("spec, seed", sorted(GOLDEN_GEN))
    def test_gen_writes_same_bytes(self, tmp_path, spec, seed):
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        assert main(["gen", "--graph", spec, "--seed", str(seed),
                     "--out-edges", str(edges), "--out-labels", str(labels)]) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (edges, labels))
        assert digests == GOLDEN_GEN[(spec, seed)]

    def test_similarity_graphs_unchanged(self):
        rng = np.random.default_rng(0)
        features = {}
        for (n, d), method, kwargs, expected in GOLDEN_SIMILARITY:
            if (n, d) not in features:
                features[(n, d)] = normalize_features(rng.uniform(-3, 3, size=(n, d)))
            X = features[(n, d)]
            if expected.endswith("components"):
                with pytest.raises(ValueError, match=expected):
                    build_from_features(X, method, **kwargs)
            else:
                g = build_from_features(X, method, **kwargs)
                pearson = method == "pearson"
                assert edge_digest(g, weights=not pearson) == expected, ((n, d), method, kwargs)
                if pearson:
                    norms = np.linalg.norm(X, axis=1)
                    dots = np.einsum("ij,ij->i", X[g.lo], X[g.hi])
                    np.testing.assert_allclose(g.w, dots / (norms[g.lo] * norms[g.hi]),
                                               rtol=0, atol=1e-12)


def union_find_components(n, pairs) -> int:
    """Reference count: the union-find the graph module used before."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(a) for a in range(n)})


def reference_edges(n, edges) -> dict:
    """Reference validation: the per-edge loop the graph module used before.

    ``edges`` is a mapping or a list of ``((i, j), w)`` items. Returns the
    canonical map or raises the first bad edge's error.
    """
    canonical = {}
    for (i, j), w in (edges.items() if isinstance(edges, Mapping) else edges):
        i, j, w = int(i), int(j), float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside node range 0..{n - 1}")
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
            raise ValueError(f"conflicting weights for edge {key}: {canonical[key]} vs {w}")
        canonical[key] = w
    return canonical


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@st.composite
def edge_maps(draw):
    """Small maps with ids just outside the range and every kind of weight."""
    n = draw(st.integers(1, 6))
    ids = st.integers(-1, n)
    weight = st.one_of(st.sampled_from([0.5, 1.0, 2.5]),
                       st.sampled_from([0.0, -0.0, -1.5, math.nan, math.inf, -math.inf]))
    items = draw(st.lists(st.tuples(st.tuples(ids, ids), weight), max_size=10))
    return n, dict(items)


@st.composite
def canonical_order_edges(draw):
    """Edge lists already sorted by ``(lo, hi)``, which skip the sort: pairs
    repeated in either orientation, often with conflicting weights, and at
    times one bad edge inserted after a sorted run."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = sorted(draw(st.lists(pair.map(lambda p: (min(p), max(p))), max_size=12)))
    items = [((j, i) if draw(st.booleans()) else (i, j), draw(st.sampled_from([0.5, 1.0])))
             for i, j in pairs]
    if draw(st.booleans()):
        bad = draw(st.sampled_from([((0, n), 1.0), ((1, 1), 1.0), ((0, 1), -1.0),
                                    ((0, 1), math.nan), ((1, 0), 0.0)]))
        items.insert(draw(st.integers(0, len(items))), bad)
    return n, items


@st.composite
def component_cases(draw):
    """Edge lists with isolated nodes, many components or one long path."""
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cut = draw(st.integers(0, max(n - 1, 0)))
        pairs = list(zip(order[1:], order[:-1]))[::-1][cut:]
    else:
        ids = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                              max_size=2 * n))
    return n, pairs


# several bad edges each; the first bad one in input order names the error
FIRST_BAD_EDGE = {
    "range": ({(0, 1): 1.0, (0, 9): 1.0, (2, 2): 1.0, (1, 2): -1.0},
              "edge (0, 9) outside node range 0..3"),
    "self-loop": ({(0, 1): 1.0, (2, 2): 1.0, (0, 9): 1.0, (1, 2): math.nan},
                  "self-loop on node 2 is not allowed"),
    "non-finite": ({(0, 1): 1.0, (1, 2): math.nan, (3, 3): 1.0, (0, 2): -1.0},
                   "non-finite weight on edge (1, 2)"),
    "negative": ({(0, 1): 1.0, (2, 1): -0.5, (1, 1): 1.0, (0, 3): 0.0},
                 "negative weight -0.5 on edge (2, 1)"),
    "zero": ({(0, 1): 1.0, (3, 0): 0.0, (1, 0): 2.0, (2, 2): 1.0},
             "zero-weight edge (3, 0) must not be stored"),
    "conflicting": ({(0, 1): 1.0, (2, 3): 1.0, (1, 0): 2.0, (3, 2): 5.0, (2, 2): 1.0},
                    "conflicting weights for edge (0, 1): 1.0 vs 2.0"),
}


class TestValidationOracle:
    @pytest.mark.parametrize("kind", sorted(FIRST_BAD_EDGE))
    def test_first_bad_edge_in_input_order(self, kind):
        edges, message = FIRST_BAD_EDGE[kind]
        assert outcome(lambda: reference_edges(4, edges)) == message
        assert outcome(lambda: Graph(4, edges)) == message
        i, j = zip(*edges)
        assert outcome(lambda: Graph.from_arrays(4, i, j, list(edges.values()))) == message

    @given(edge_maps())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_edge_loop(self, case):
        n, edges = case
        expected = outcome(lambda: reference_edges(n, edges))
        got = outcome(lambda: Graph(n, edges))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.edges == expected
            assert list(got.edges) == sorted(expected)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(40, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_loop_on_repeated_pairs(self, seed, n, m):
        # many pairs occur in both orientations; the sort must keep them in
        # input order to name the first conflict and its earlier weight
        rng = np.random.default_rng(seed)
        ends = rng.integers(0, n, size=(m, 2)).tolist()
        weights = rng.choice([0.5, 1.0], size=m, p=[0.05, 0.95]).tolist()
        edges = {(i, j): w for (i, j), w in zip(ends, weights) if i != j}
        expected = outcome(lambda: reference_edges(n, edges))
        got = outcome(lambda: Graph(n, edges))
        assert (got if isinstance(got, str) else got.edges) == expected

    @given(canonical_order_edges())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_edge_loop_on_canonical_order(self, case):
        n, items = case
        expected = outcome(lambda: reference_edges(n, items))
        ends = np.array([pair for pair, _ in items], dtype=np.intp).reshape(-1, 2)
        w = [x for _, x in items]
        got = outcome(lambda: Graph.from_arrays(n, ends[:, 0], ends[:, 1], w))
        assert (got if isinstance(got, str) else got.edges) == expected

    def test_only_unsorted_edges_are_sorted(self, monkeypatch):
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(graph_mod.np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        community_graph([8, 8, 8], 0.6, 0.05, seed=1)
        build_from_features(np.random.default_rng(0).normal(size=(12, 2)), sigma=2.0)
        Graph(4, {(0, 1): 1.0, (1, 0): 1.0, (0, 2): 1.0, (2, 3): 1.0})
        assert sorts == []
        # grid edges sort once per grid shape, when its lattice is built
        graph_mod._lattice.cache_clear()
        grid_graph(4, 4, seed=0)
        assert sorts == [1]
        grid_graph(4, 4, seed=1)
        assert sorts == [1]

    def test_fractional_node_id_rejected(self):
        with pytest.raises(ValueError, match=r"non-integral node id in edge \(0.5, 2\)"):
            Graph(3, {(0.5, 2): 1.0, (1, 2.9): 2.0})
        with pytest.raises(ValueError, match=r"non-integral node id in edge \(1, 2.9\)"):
            Graph.from_arrays(3, [0.0, 1.0], [2.0, 2.9], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"non-integral node id in edge \(nan, 1\)"):
            Graph(3, {(math.nan, 1): 1.0})
        # integral floats name the same nodes as ints
        assert Graph(3, {(0.0, 2.0): 1.0}) == Graph(3, {(0, 2): 1.0})

    def test_fractional_class_id_rejected(self):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        with pytest.raises(ValueError, match="class id 1.7 of node 1 is not an integer"):
            LabeledGraph(g, {0: 0, 1: 1.7, 2: 0}, 2)
        with pytest.raises(ValueError, match="class id nan of node 2 is not an integer"):
            LabeledGraph(g, {0: 0, 1: 1, 2: math.nan}, 2)
        with pytest.raises(ValueError, match="class id '1.7' of node 1 is not an integer"):
            LabeledGraph(g, {0: 0, 1: "1.7", 2: 0}, 2)
        lg = LabeledGraph(g, {0: 0, 1: 1.0, 2: np.int64(0)}, 2)
        assert lg.labels.tolist() == [0, 1, 0]
        # integer-valued strings name classes, as before
        lg = LabeledGraph(g, {0: "0", 1: np.str_("1"), 2: 0}, 2)
        assert lg.labels.tolist() == [0, 1, 0]
        assert lg.labels.dtype == np.int64


class TestComponentOracle:
    @given(component_cases())
    @settings(max_examples=300, deadline=None)
    def test_hook_and_jump_matches_union_find(self, case):
        n, pairs = case
        g = Graph(n, {pair: 1.0 for pair in pairs})
        assert g.component_count() == union_find_components(n, pairs)

    @pytest.mark.parametrize("n", [1, 2, 3, 2000])
    def test_reversed_long_path(self, n):
        pairs = [(i + 1, i) for i in reversed(range(n - 1))]
        g = Graph(n, {pair: 1.0 for pair in pairs})
        assert g.component_count() == union_find_components(n, pairs) == 1

    def test_many_components_and_isolated_nodes(self):
        rng = np.random.default_rng(5)
        order = rng.permutation(1000)
        pairs = [(int(a), int(b)) for a, b in zip(order[0:600:2], order[1:600:2])]
        g = Graph(1000, {pair: 1.0 for pair in pairs})
        assert g.component_count() == union_find_components(1000, pairs) == 700


class TestGraphInvariants:
    def test_canonical_symmetric_storage(self):
        g = Graph(3, {(2, 0): 1.5, (1, 2): 0.5})
        assert g.edges == {(0, 2): 1.5, (1, 2): 0.5}
        assert g.edges[(0, 2)] == 1.5

    def test_weight_matrix_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        g = random_connected_graph(12, rng)
        W = g.weight_matrix()
        assert np.array_equal(W, W.T)
        assert np.all(np.diagonal(W) == 0)
        assert W.min() >= 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, {(1, 1): 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Graph(2, {(0, 1): -0.5})

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero-weight"):
            Graph(2, {(0, 1): 0.0})

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            Graph(3, {(0, 1): 0.5, (1, 0): 0.7})

    def test_component_count(self):
        g = Graph(4, {(0, 1): 1.0, (2, 3): 1.0})
        assert g.component_count() == 2
        assert not g.is_connected()

    def test_edges_are_sorted_read_only_arrays(self):
        g = Graph(5, {(4, 1): 2.0, (0, 3): 1.0, (1, 0): 0.5, (3, 0): 1.0})
        assert g.lo.tolist() == [0, 0, 1] and g.hi.tolist() == [1, 3, 4]
        assert g.w.tolist() == [0.5, 1.0, 2.0]
        assert g.num_edges == 3
        for column in (g.lo, g.hi, g.w):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_from_arrays_copies_its_input(self):
        i, j, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        g = Graph.from_arrays(3, i, j, w)
        i[0], w[0] = 2, 9.0
        assert g.edges == {(0, 1): 1.0, (1, 2): 2.0}

    def test_equality_reads_arrays_not_the_map(self):
        a = Graph(3, {(0, 1): 1.0, (2, 1): 0.5})
        b = Graph.from_arrays(3, [1, 0], [2, 1], [0.5, 1.0])
        assert a == b
        assert a != Graph(3, {(0, 1): 1.0, (1, 2): 0.25})
        assert a != Graph(4, {(0, 1): 1.0, (1, 2): 0.5})
        assert a != "graph"
        assert "edges" not in vars(a) and "edges" not in vars(b)

    def test_weight_matrix_matches_per_edge_fill(self):
        g = random_connected_graph(30, np.random.default_rng(9))
        W = np.zeros((30, 30))
        for (i, j), w in g.edges.items():
            W[i, j] = w
            W[j, i] = w
        assert g.weight_matrix().tobytes() == W.tobytes()

    def test_construction_allocates_nothing_sized_by_n(self):
        n = 10**9
        tracemalloc.start()
        try:
            g = Graph(n, {(0, 1): 1.0, (2, n - 1): 1.0})
            h = Graph.from_arrays(n, [n - 1, 1], [2, 0], [1.0, 1.0])
            assert g == h
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_node_ids_beyond_int64_square(self):
        # n * n overflows int64 here; the edges still sort and de-duplicate
        n = 2**40
        big = n - 1
        g = Graph(n, {(big, 3): 1.0, (0, big): 2.0, (5, 4): 1.0, (3, big): 1.0})
        assert g.edges == {(0, big): 2.0, (3, big): 1.0, (4, 5): 1.0}
        with pytest.raises(ValueError, match=f"conflicting weights for edge \\(3, {big}\\)"):
            Graph(n, {(big, 3): 1.0, (0, big): 2.0, (3, big): 1.5})

    @pytest.mark.parametrize("build, message", [
        (lambda: Graph(10**20 + 1, {(1, 10**20): 1.0}),
         "node count 100000000000000000001 does not fit int64"),
        (lambda: Graph(2**63 + 5, {(0, 2**63 + 3): 1.0}),
         "node count 9223372036854775813 does not fit int64"),
        (lambda: Graph(5, {(0, 1): 1.0, (2**63 + 3, 2): 1.0}),
         "node id in edge (9223372036854775811, 2) does not fit int64"),
        (lambda: Graph(5, {(0, 1): 1.0, (1, 10**20 + 7): 1.0}),
         "node id in edge (1, 100000000000000000007) does not fit int64"),
        (lambda: Graph.from_arrays(5, np.array([2**63 + 3], dtype=np.uint64), [0], [1.0]),
         "node id in edge (9223372036854775811, 0) does not fit int64"),
        (lambda: Graph(5, {(0, -2**63 - 3): 1.0}),
         "edge (0, -9223372036854775811) outside node range 0..4"),
        # past about 1e308 a float cast of the id would overflow
        (lambda: Graph(3, {(0, 10**400): 1.0}),
         f"node id in edge (0, {10**400}) does not fit int64"),
        (lambda: Graph(3, {(0, -10**400): 1.0}),
         f"edge (0, {-10**400}) outside node range 0..2"),
    ], ids=["count-1e20", "count-2^63", "id-2^63", "id-1e20", "uint64", "negative",
            "id-1e400", "negative-1e400"])
    def test_past_int64_named_exactly(self, build, message):
        # numpy would round these ids to floats; the message names them as given
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def reference_class_ids(labels, n, num_classes) -> list:
    """Reference validation: the per-node loop ``LabeledGraph`` ran before it
    stored an array.

    A sequence is read as ``dict(enumerate(...))``. The loop walks the nodes
    in node order and names a numpy scalar by its plain value. Returns the
    class ids in node order or raises the first failed check's error.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if not isinstance(labels, Mapping):
        labels = dict(enumerate(labels))
    if set(labels) != set(range(n)):
        raise ValueError("every node needs exactly one label")
    ids = []
    for i in range(n):
        c = labels[i]
        try:
            class_id = int(c)
            integral = class_id == c or class_id == float(c)
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            c = c.item() if isinstance(c, np.generic) else c
            raise ValueError(f"class id {c!r} of node {i} is not an integer")
        ids.append(class_id)
    seen = set(ids)
    if not seen <= set(range(num_classes)):
        raise ValueError("labels must lie in 0..num_classes-1")
    if seen != set(range(num_classes)):
        raise ValueError("every class must occur at least once")
    return ids


@st.composite
def label_cases(draw):
    """Label maps and sequences mixing every accepted form of a class id with
    fractional ids, ids out of range, missing classes and wrong lengths."""
    n = draw(st.integers(1, 7))
    num_classes = draw(st.integers(2, 3))
    k = st.integers(0, num_classes - 1)
    good = st.one_of(k, k.map(float), k.map(np.int64), k.map(str), k.map(np.str_))
    bad = st.sampled_from([1.7, "1.7", math.nan, -1, num_classes, 2**70])
    size = draw(st.sampled_from([n] * 6 + [n - 1, n + 1]))
    values = draw(st.lists(good, min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2)) if size else 0):
        values[draw(st.integers(0, size - 1))] = draw(bad)
    form = draw(st.sampled_from(["dict", "shuffled dict", "list", "tuple", "array"]))
    if form == "dict":
        labels = dict(enumerate(values))
    elif form == "shuffled dict":
        labels = dict(draw(st.permutations(list(enumerate(values)))))
    elif form == "list":
        labels = values
    elif form == "tuple":
        labels = tuple(values)
    else:
        labels = np.array(values)
    return n, num_classes, labels


class TestLabeledGraph:
    def test_requires_total_labeling(self):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        with pytest.raises(ValueError, match="exactly one label"):
            LabeledGraph(g, {0: 0, 1: 1}, 2)
        with pytest.raises(ValueError, match="exactly one label"):
            LabeledGraph(g, [0, 1, 0, 1], 2)

    def test_requires_every_class(self):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        with pytest.raises(ValueError, match="every class"):
            LabeledGraph(g, {0: 0, 1: 0, 2: 0}, 2)

    @given(label_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_per_node_loop(self, case):
        n, num_classes, labels = case
        expected = outcome(lambda: reference_class_ids(labels, n, num_classes))
        got = outcome(lambda: LabeledGraph(Graph(n, {}), labels, num_classes))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.labels.dtype == np.int64
            assert got.labels.tolist() == expected

    @pytest.mark.parametrize("labels, expected", [
        ([0, 1.7, "1.7", 1], "class id 1.7 of node 1 is not an integer"),
        ({3: 1, 2: math.nan, 1: 1.7, 0: 0}, "class id 1.7 of node 1 is not an integer"),
        (np.array([0.0, 1.0, 2.5, 1.0]), "class id 2.5 of node 2 is not an integer"),
        ([np.float64(0.5), 0, 1, 0], "class id 0.5 of node 0 is not an integer"),
        ([0, 1, np.str_("1.7"), 1], "class id '1.7' of node 2 is not an integer"),
        ([0, 1, 2**70, 1], "labels must lie in 0..num_classes-1"),
        ([0, 1, "1", 1.0], [0, 1, 1, 1]),
    ])
    def test_first_bad_node_in_node_order(self, labels, expected):
        g = Graph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
        assert outcome(lambda: reference_class_ids(labels, 4, 2)) == expected
        assert outcome(lambda: LabeledGraph(g, labels, 2).labels.tolist()) == expected

    @pytest.mark.parametrize("field, value", [("labels", [7] * 36), ("num_classes", 9),
                                              ("graph", None)])
    def test_fields_cannot_be_reassigned(self, field, value):
        # a reassigned field would skip every check and fail only at the
        # first observe, after the inverse is built
        lg = grid_graph(6, 6, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lg, field, value)
        assert lg.labels.shape == (36,) and lg.labels.max() == 1
        assert lg.num_classes == 2 and lg.graph.n == 36

    @pytest.mark.parametrize("form", [np.array, list, lambda y: dict(enumerate(y))])
    def test_labels_are_a_read_only_copy(self, form):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        given_labels = form([0, 1, 0])
        lg = LabeledGraph(g, given_labels, 2)
        given_labels[0] = 1
        assert lg.labels.tolist() == [0, 1, 0]
        assert lg.labels.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            lg.labels[0] = 1

    def test_valid_labels_skip_the_per_node_loop(self, monkeypatch, tmp_path):
        def no_loop(values):
            raise AssertionError("the per-node loop ran on valid labels")

        monkeypatch.setattr(graph_mod, "_raise_first_fractional", no_loop)
        lg = grid_graph(10, 10, seed=0)
        community_graph([8, 8, 8], 0.6, 0.05, seed=1)
        LabeledGraph(lg.graph, lg.labels.astype(np.uint8), 2)
        LabeledGraph(lg.graph, lg.labels.astype(float), 2)
        LabeledGraph(lg.graph, lg.labels.astype(str), 2)
        LabeledGraph(lg.graph, dict(enumerate(lg.labels.tolist())), 2)
        save_edge_list(lg.graph, tmp_path / "g.edges")
        save_labels(lg.labels, tmp_path / "g.labels")
        from_spec(f"file:{tmp_path}/g.edges:{tmp_path}/g.labels")


class TestBuildFromFeatures:
    def test_identical_rows_rbf_weight_one(self):
        X = np.array([[0.3, -0.2], [0.3, -0.2], [1.0, 1.0]])
        g = build_from_features(X, "rbf", sigma=1.0)
        assert g.edges[(0, 1)] == pytest.approx(1.0)

    def test_orthogonal_rows_pearson_dropped(self):
        # correlation 0 is not a positive weight, so no edge survives and
        # the 2-node graph is disconnected
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="disconnected"):
            build_from_features(X, "pearson", threshold=0.0)

    def test_rbf_matches_double_loop(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(5, 3))
        sigma, threshold = 1.0, 0.1
        g = build_from_features(X, "rbf", sigma=sigma, threshold=threshold)
        expected = {}
        for i in range(5):
            for j in range(i + 1, 5):
                w = np.exp(-np.sum((X[i] - X[j]) ** 2) / sigma**2)
                if w > 0 and w >= threshold:
                    expected[(i, j)] = w
        assert set(g.edges) == set(expected)
        for key, w in expected.items():
            assert g.edges[key] == pytest.approx(w, abs=1e-12)

    def test_pearson_matches_double_loop(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(6, 4))
        g = build_from_features(X, "pearson", threshold=0.05)
        for (i, j), w in g.edges.items():
            expected = X[i] @ X[j] / (np.linalg.norm(X[i]) * np.linalg.norm(X[j]))
            assert w == pytest.approx(expected, abs=1e-12)
            assert w >= 0.05

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_from_features(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_nonfinite_threshold_or_sigma_rejected(self):
        X = np.array([[0.0, 0.1], [0.2, 0.0], [1.0, 1.0], [0.9, 1.1]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="threshold must be finite"):
                build_from_features(X, "rbf", threshold=bad)
            with pytest.raises(ValueError, match="threshold must be finite"):
                build_from_features(X, "pearson", threshold=bad)
            with pytest.raises(ValueError, match="sigma must be finite"):
                build_from_features(X, "rbf", sigma=bad)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown similarity"):
            build_from_features(np.eye(3), "cosine")

    def test_rbf_peak_memory_at_ionosphere_shape(self):
        n, d = 351, 34
        X = normalize_features(np.random.default_rng(0).uniform(-3, 3, size=(n, d)))
        tracemalloc.start()
        try:
            g = build_from_features(X, "rbf", sigma=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.num_edges == n * (n - 1) // 2
        # W and one row block, then the kept pairs' columns and their sorted
        # copies; the former (n, n, d) difference array and its square took
        # 2 d = 68 n^2 doubles on their own
        assert peak <= 8 * 8 * n * n


class TestNormalizeFeatures:
    def test_affine_map(self):
        out = normalize_features(np.array([[0.0], [5.0], [10.0]]))
        assert np.allclose(out[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        out = normalize_features(np.array([[3.0], [3.0], [3.0]]))
        assert np.all(out == 0.0)

    def test_random_matrix_hits_extremes(self):
        rng = np.random.default_rng(1)
        out = normalize_features(rng.normal(size=(4, 2)))
        assert np.allclose(out.min(axis=0), -1.0)
        assert np.allclose(out.max(axis=0), 1.0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 25), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_bounds_property(self, seed, n, d):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1e3, 1e3, size=(n, d))
        out = normalize_features(X)
        for col in range(d):
            if X[:, col].min() == X[:, col].max():
                assert np.all(out[:, col] == 0.0)
            else:
                assert out[:, col].min() == pytest.approx(-1.0, abs=1e-12)
                assert out[:, col].max() == pytest.approx(1.0, abs=1e-12)


class TestRegularizedLaplacian:
    def test_two_node_path(self):
        g = Graph(2, {(0, 1): 1.0})
        lap = regularized_laplacian(g, 0.1)
        assert np.allclose(lap.matrix, [[1.1, -1.0], [-1.0, 1.1]])

    def test_zero_delta_rejected(self):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        with pytest.raises(ValueError, match="delta"):
            regularized_laplacian(g, 0.0)

    def test_disconnected_rejected_with_component_count(self):
        g = Graph(4, {(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(ValueError, match="2 components"):
            regularized_laplacian(g, 0.1)

    def test_non_finite_delta_rejected(self):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta must be finite"):
                regularized_laplacian(g, bad)

    def test_disconnected_graph_counted_once(self, monkeypatch):
        original = graph_mod._count_components
        calls = []

        def counting(n, edges):
            calls.append(n)
            return original(n, edges)

        monkeypatch.setattr(graph_mod, "_count_components", counting)
        g = Graph(5, {(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(ValueError, match="3 components"):
            regularized_laplacian(g, 0.1)
        assert g.component_count() == 3
        assert calls == [5]

    def test_row_sums_equal_delta(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(10, rng)
        delta = 0.05
        lap = regularized_laplacian(g, delta)
        tol = 1e-12 * np.abs(lap.matrix).max()
        assert np.abs(lap.matrix.sum(axis=1) - delta).max() <= tol

    def test_smallest_eigenvalue_at_least_delta(self):
        rng = np.random.default_rng(3)
        for n in (5, 20, 50):
            g = random_connected_graph(n, rng)
            delta = 0.01
            lap = regularized_laplacian(g, delta)
            smallest = np.linalg.eigvalsh(lap.matrix)[0]
            assert smallest >= delta * (1 - 1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(15, rng)
        M = regularized_laplacian(g, 0.005).matrix
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("source", ["grid", "community", "file"])
    def test_bytes_equal_three_array_formula(self, tmp_path, source):
        if source == "file":
            src = community_graph([12, 15], 0.4, 0.05, seed=6)
            edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
            save_edge_list(src.graph, edges)
            save_labels(src.labels, labels)
            g = from_spec(f"file:{edges}:{labels}").graph
        elif source == "grid":
            g = grid_graph(7, 9, seed=1).graph
        else:
            g = community_graph([10, 20, 15], 0.3, 0.02, seed=4).graph
        delta = 0.005
        # the former formula: one array for W, one for the diagonal, one for L
        W = g.weight_matrix()
        expected = np.diag(W.sum(axis=1)) - W
        expected[np.diag_indices_from(expected)] += delta
        L = regularized_laplacian(g, delta).matrix
        assert L.dtype == expected.dtype and L.shape == expected.shape
        assert L.tobytes() == expected.tobytes()

    def test_peak_memory_is_one_array(self):
        g = grid_graph(20, 20, seed=3).graph
        n = g.n
        regularized_laplacian(g, 0.005)  # counts the components outside the measurement
        tracemalloc.start()
        try:
            regularized_laplacian(g, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the former three-array formula peaked at 2.0 n^2 doubles
        assert peak <= 1.1 * 8 * n * n


class TestGridGraph:
    def test_node_and_edge_counts(self):
        lg = grid_graph(10, 10, seed=0)
        assert lg.graph.n == 100
        assert lg.graph.num_edges == 180

    def test_corner_blocks_are_class_one(self):
        lg = grid_graph(10, 10, seed=42)
        for r in range(3):
            for c in range(3):
                assert lg.labels[r * 10 + c] == 1
                assert lg.labels[(9 - r) * 10 + (9 - c)] == 1

    def test_class_one_count_and_determinism(self):
        a = grid_graph(10, 10, seed=7)
        b = grid_graph(10, 10, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert a.graph.edges == b.graph.edges
        assert a.labels.sum() >= 18

    def test_seed_changes_line_flips(self):
        a = grid_graph(10, 10, seed=1)
        b = grid_graph(10, 10, seed=2)
        assert not np.array_equal(a.labels, b.labels)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            grid_graph(3, 10, seed=0)

    def test_connected(self):
        assert grid_graph(6, 5, seed=0).graph.is_connected()

    def test_one_immutable_lattice_per_shape(self):
        a, b = grid_graph(7, 6, seed=1), grid_graph(7, 6, seed=2)
        assert a.graph is b.graph
        assert grid_graph(6, 7, seed=1).graph is not a.graph
        g = a.graph
        with pytest.raises(TypeError):
            g.edges[(0, 1)] = 5.0
        with pytest.raises(AttributeError, match="immutable"):
            g.n = 3
        with pytest.raises(AttributeError, match="immutable"):
            g.lo = np.zeros(0, dtype=np.intp)
        with pytest.raises(AttributeError, match="immutable"):
            del g.w
        with pytest.raises(ValueError, match="read-only"):
            g.w[0] = 2.0
        assert g.edges[(0, 1)] == 1.0 and g.n == 42 and g.num_edges == 71

    def test_equal_graph_test_is_free_for_the_same_object(self, monkeypatch):
        g = grid_graph(5, 5, seed=0).graph

        def no_compare(*args):
            raise AssertionError("edge arrays compared")

        monkeypatch.setattr(graph_mod.np, "array_equal", no_compare)
        assert g == g and not g != g


def triu_nonzero_draws(sizes, p_in, p_out, seed) -> list:
    """Reference sampler: the ``(n, n)`` probability matrix, ``np.triu`` and
    2-d ``np.nonzero`` draw community_graph used before. Returns each
    attempt's ``(i, j, w)`` edge arrays up to the first connected sample."""
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    probs = np.where(block[:, None] == block[None, :], p_in, p_out)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(graph_mod._CONNECT_ATTEMPTS):
        hit = np.triu(rng.random((n, n)) < probs, k=1)
        ii, jj = np.nonzero(hit)
        draws.append((ii, jj, np.ones(len(ii))))
        if Graph.from_arrays(n, ii, jj, draws[-1][2]).is_connected():
            break
    return draws


def community_draws(sizes, p_in, p_out, seed) -> list:
    """The ``(i, j, w)`` arrays community_graph hands to ``Graph.from_arrays``."""
    draws = []
    from_arrays = Graph.from_arrays

    def recording(n, i, j, w):
        draws.append((i, j, w))
        return from_arrays(n, i, j, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod.Graph, "from_arrays", recording)
        try:
            community_graph(sizes, p_in, p_out, seed)
        except ValueError:
            pass
    return draws


def draws_match(sizes, p_in, p_out, seed) -> tuple[bool, int]:
    """Whether community_graph's draws equal the reference's, array for array
    and dtype included, and the reference's attempt count."""
    expected = triu_nonzero_draws(sizes, p_in, p_out, seed)
    got = community_draws(sizes, p_in, p_out, seed)
    same = len(got) == len(expected) and all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for new, old in zip(got, expected) for a, b in zip(new, old))
    return same, len(expected)


class TestCommunityGraph:
    @given(st.lists(st.integers(2, 40), min_size=2, max_size=4), st.floats(0.05, 1.0),
           st.floats(0.0, 0.99), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_draw_matches_triu_nonzero_reference(self, sizes, p_in, out_share, seed):
        # one bool, so a failing example reports no array reprs
        assert draws_match(sizes, p_in, p_in * out_share, seed)[0]

    @pytest.mark.parametrize("seed", [1, 9])
    def test_retried_draws_match_triu_nonzero_reference(self, seed):
        same, attempts = draws_match([3, 4, 5], 0.5, 0.05, seed)
        assert same
        assert attempts > 1

    @pytest.mark.parametrize("seed", [11, 12, 17])
    def test_row_block_draws_match_the_full_draw_at_1000_nodes(self, seed):
        # each community's rows are drawn as they are compared, from the
        # same stream as the reference's one (n, n) draw
        assert draws_match([250] * 4, 0.05, 0.002, seed)[0]

    def test_draw_holds_no_square_float_array(self):
        sizes, n = [250] * 4, 1000
        community_graph(sizes, 0.05, 0.002, seed=11)  # loads what it needs first
        tracemalloc.start()
        try:
            community_graph(sizes, 0.05, 0.002, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 0.39 x 8 n^2: the (n, n) bool hits (0.125) and one
        # community's rows of the draw (0.25); a full (n, n) draw read 1.22
        assert peak <= 0.5 * 8 * n * n

    def test_sizes_and_classes(self):
        lg = community_graph((250, 350, 400), 0.05, 0.002, seed=0)
        assert lg.graph.n == 1000
        assert lg.num_classes == 3
        counts = [0, 0, 0]
        for c in lg.labels:
            counts[c] += 1
        assert counts == [250, 350, 400]

    def test_equal_probabilities_rejected(self):
        with pytest.raises(ValueError, match="p_out < p_in"):
            community_graph((5, 5), 1.0, 1.0, seed=0)

    def test_intra_density_exceeds_inter(self):
        lg = community_graph((20, 20), 0.5, 0.01, seed=1)
        intra = inter = 0
        for i, j in lg.graph.edges:
            if lg.labels[i] == lg.labels[j]:
                intra += 1
            else:
                inter += 1
        intra_density = intra / (2 * 20 * 19 / 2)
        inter_density = inter / (20 * 20)
        assert intra_density > inter_density

    def test_deterministic_given_seed(self):
        a = community_graph((10, 12), 0.6, 0.05, seed=9)
        b = community_graph((10, 12), 0.6, 0.05, seed=9)
        assert a.graph.edges == b.graph.edges
        assert np.array_equal(a.labels, b.labels)

    def test_retry_budget_exhausted(self):
        # p_out = 0 can never connect the two blocks
        with pytest.raises(ValueError, match="attempts"):
            community_graph((4, 4), 0.9, 0.0, seed=0)


def reference_load_edge_list(path) -> Graph:
    """The former load_edge_list, kept verbatim as the loader oracle."""
    records: dict[tuple[int, int], tuple[float, int]] = {}
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
            records[key] = (w, lineno)
    if max_id < 0:
        raise ValueError(f"{path}: no edge records found")
    return Graph(max_id + 1, {key: w for key, (w, _) in records.items() if w != 0.0})


def reference_load_labels(path) -> dict[int, int]:
    """The former load_labels, kept verbatim as the loader oracle."""
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


BLANK_LINES = st.sampled_from(["", "   ", "\t"])


@st.composite
def record_files(draw, fields):
    """Text of an edge (``fields`` 3) or label (2) file, and whether every
    line parses: blank lines, node pairs repeated in both orientations, ids
    up to n, zero and -0 weights; in faulty files also id -1, self-loops,
    negative, nan and inf weights and malformed lines."""
    n = draw(st.integers(1, 5))
    faulty = draw(st.booleans())
    ids = st.integers(-1 if faulty else 0, n)
    if fields == 3:
        pair = st.tuples(ids, ids).filter(lambda p: faulty or p[0] != p[1])
        pairs = draw(st.lists(pair, min_size=1, max_size=4))
        weights = ["0.5", "1.0", "1", "2.5", "0", "-0"]
        weight = st.sampled_from(weights + (["-1.5", "nan", "inf", "-inf"] if faulty else []))
        record = st.builds(lambda p, flip, w: f"{p[flip]} {p[1 - flip]}  {w}",
                           st.sampled_from(pairs), st.integers(0, 1), weight)
        malformed = st.sampled_from(["0 1", "0 1 1 1", "0 x 1", "0.5 1 1", "0 1 w", "1e3 0 1"])
    else:
        record = st.builds(lambda i, c: f" {i}\t{c}", ids, st.sampled_from(["0", "1", "-2", "7"]))
        malformed = st.sampled_from(["0", "0 1 1", "a 1", "0 1.5", "0 x"])
    kinds = [record.map(lambda x: (x, True)), BLANK_LINES.map(lambda x: (x, True))]
    if faulty:
        kinds.append(malformed.map(lambda x: (x, False)))
    lines = draw(st.lists(st.one_of(kinds[0], *kinds), max_size=10))
    return "".join(f"{line}\n" for line, _ in lines), all(ok for _, ok in lines)


def load_outcome(load, path):
    """What ``load`` returns, or the line number its error names (None for a
    whole-file error)."""
    try:
        return load(path)
    except ValueError as exc:
        head, _, rest = str(exc).partition(f"{path}:")
        assert head == "", str(exc)
        number = rest.split(":", 1)[0]
        return ("error", int(number) if number.isdigit() else None)


class TestLoaderOracle:
    @given(record_files(3))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_edge_list_matches_former_loop(self, tmp_path, case):
        text, parses = case
        path = tmp_path / "g.edges"
        path.write_text(text)
        expected = load_outcome(reference_load_edge_list, path)
        got = load_outcome(load_edge_list, path)
        if isinstance(expected, Graph):
            assert got == expected
            assert got.edges == expected.edges
        elif parses:
            assert got == expected
        else:
            assert isinstance(got, tuple)

    @given(record_files(2))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_labels_match_former_loop(self, tmp_path, case):
        text, parses = case
        path = tmp_path / "g.labels"
        path.write_text(text)
        expected = load_outcome(reference_load_labels, path)
        got = load_outcome(load_labels, path)
        if isinstance(expected, dict):
            assert got == expected
        elif parses:
            assert got == expected
        else:
            assert isinstance(got, tuple)

    def test_malformed_line_reported_before_semantic_fault(self, tmp_path):
        # the former loop stopped at the self-loop on line 2
        path = tmp_path / "g.edges"
        path.write_text("0 1 1\n1 1 1\n0 x 1\n")
        with pytest.raises(ValueError, match=r"g.edges:3: could not parse '0 x 1'"):
            load_edge_list(path)
        with pytest.raises(ValueError, match=r"g.edges:2: self-loop"):
            reference_load_edge_list(path)


class TestLoaders:
    def test_parse_three_line_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1.0\n1 2 0.5\n0 2 2.0\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.num_edges == 3
        assert g.edges[(1, 2)] == 0.5

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 0.5\n2 1 0.7\n")
        with pytest.raises(ValueError, match=r"edges.txt:2.*conflicting"):
            load_edge_list(path)

    @pytest.mark.parametrize("lines", [("0 1 2.0", "0 1 0"), ("0 1 0", "0 1 2.0")])
    def test_zero_weight_conflict_rejected_in_either_order(self, tmp_path, lines):
        path = tmp_path / "edges.txt"
        path.write_text("\n".join(lines) + "\n1 2 1.0\n")
        with pytest.raises(ValueError, match=r"edges.txt:2.*conflicting.*\(line 1\)"):
            load_edge_list(path)

    def test_repeated_zero_weight_record_dropped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 0\n0 1 0\n1 2 1.0\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.edges == {(1, 2): 1.0}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1.0\n0 two 1.0\n")
        with pytest.raises(ValueError, match="edges.txt:2"):
            load_edge_list(path)

    def test_nan_weight_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 nan\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_edge_list(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_connected_graph(15, rng)
        path = tmp_path / "rt.txt"
        save_edge_list(g, path)
        back = load_edge_list(path)
        assert back.n == g.n
        assert back.edges == g.edges

    def test_id_past_int64_names_its_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1.0\n\n1 2 1.0\n2 100000000000000000000 1.0\n")
        with pytest.raises(ValueError) as info:
            load_edge_list(path)
        assert str(info.value) == (
            f"{path}:4: node id in edge (2, 100000000000000000000) does not fit int64")

    def test_id_past_float_range_names_its_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1 1\n1 {10**400} 1\n")
        with pytest.raises(ValueError) as info:
            load_edge_list(path)
        assert str(info.value) == f"{path}:2: node id in edge (1, {10**400}) does not fit int64"

    def test_node_count_past_int64_names_the_largest_id_line(self, tmp_path):
        # 2^63 - 1 fits int64, but the node count one above it does not
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1\n1 9223372036854775807 1\n2 3 1\n")
        with pytest.raises(ValueError) as info:
            load_edge_list(path)
        assert str(info.value) == f"{path}:2: node count 9223372036854775808 does not fit int64"

    @pytest.mark.parametrize("text, message", [
        ("0 1 1\n-1 2 1\n", ":2: edge (-1, 2) outside node range 0..2"),
        ("0 1 1\n1 1 1\n", ":2: self-loop on node 1 is not allowed"),
        ("0 1 -2\n", ":1: negative weight -2.0 on edge (0, 1)"),
        ("0 1 1\n1 2 inf\n", ":2: non-finite weight on edge (1, 2)"),
        ("0 1 2.0\n\n1 0 0\n", ":3: conflicting weights for edge (0, 1): 2.0 (line 1) vs 0.0"),
        ("\n \n", ": no 'i j w' records found"),
    ])
    def test_edge_messages_match_graph(self, tmp_path, text, message):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_edge_list(path)
        assert str(info.value) == f"{path}{message}"

    def test_label_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        save_labels(np.array([1, 0, 1]), path)
        assert load_labels(path) == {0: 1, 1: 0, 2: 1}

    def test_feature_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,1.5,1\n-0.5,0.0,0\n1.0,1.0,1\n")
        X, y = load_features(path)
        assert X.shape == (3, 2)
        assert list(y) == [1, 0, 1]

    def test_feature_csv_rejects_inf(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,inf,1\n")
        with pytest.raises(ValueError, match="data.csv:1"):
            load_features(path)

    def test_feature_csv_rejects_fractional_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,0.1,1.5\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_features(path)

    @pytest.mark.parametrize("text, message", [
        ("0.5,1\n7\n", ":2: need at least one feature and a label"),
        ("0.5,1\n0.5,x,1\n", ":2: could not parse ['0.5', 'x', '1']"),
        ("0.5,0.1,1\n0.5,1\n", ":2: inconsistent column count"),
        ("\n , \n", ": no data rows found"),
    ], ids=["one-column", "unparsable", "ragged", "empty"])
    def test_feature_csv_messages_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_features(path)
        assert str(info.value) == f"{path}{message}"


class TestFromSpec:
    def test_grid_spec(self):
        lg = from_spec("grid:6x5", seed=3)
        assert lg.graph.n == 30

    def test_community_spec(self):
        lg = from_spec("community:10,12:pin=0.8:pout=0.05", seed=3)
        assert lg.graph.n == 22

    def test_file_spec_round_trip(self, tmp_path):
        src = grid_graph(5, 5, seed=2)
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        save_edge_list(src.graph, edges)
        save_labels(src.labels, labels)
        lg = from_spec(f"file:{edges}:{labels}")
        assert lg.graph.edges == src.graph.edges
        assert np.array_equal(lg.labels, src.labels)

    def test_file_spec_maps_class_values_in_sorted_order(self, tmp_path):
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        save_edge_list(grid_graph(4, 4, seed=0).graph, edges)
        # records out of node order, one class value beyond int64
        values = [7, -3, 10**20]
        labels.write_text("".join(f"{i} {values[i % 3]}\n" for i in reversed(range(16))))
        lg = from_spec(f"file:{edges}:{labels}")
        assert lg.num_classes == 3
        assert lg.labels.tolist() == [[1, 0, 2][i % 3] for i in range(16)]

    def test_stray_node_id_rejected_in_small_memory(self, tmp_path):
        # one stray id sets n = 2,000,001; building range(n) would take over
        # 100 MB before the label file is found to be short
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        edges.write_text("0 1 1\n1 2 1\n2 2000000 1\n")
        labels.write_text("0 0\n1 1\n2 0\n3 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="must cover exactly the 2000001 nodes"):
                from_spec(f"file:{edges}:{labels}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_stray_label_node_id_rejected_in_small_memory(self, tmp_path):
        # a label record for node 10**10 must not size anything by that id
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        edges.write_text("0 1 1\n1 2 1\n")
        labels.write_text("0 0\n1 1\n10000000000 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="must cover exactly the 3 nodes"):
                from_spec(f"file:{edges}:{labels}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown graph spec"):
            from_spec("torus:3x3")

    def test_bad_option_value_names_option_and_spec(self):
        spec = "community:10,10:pin=0.5:pout=abc"
        with pytest.raises(ValueError, match=r"'abc' for community option pout in '" + spec):
            from_spec(spec)

    @pytest.mark.parametrize("spec, key", [
        ("community:6,6:pin=0.9:pout=0.0:pout=0.1", "pout"),
        ("community:6,6:pin=0.9:pout=0.1:pout=0.0", "pout"),
        ("community:6,6:pin=0.9:pin=0.8:pout=0.1", "pin"),
    ])
    def test_repeated_option_names_option_and_spec(self, monkeypatch, spec, key):
        # the last value used to win, so swapping the two pout values failed
        # 50 draws later with "no connected sample"
        monkeypatch.setattr(graph_mod, "community_graph", _no_compute)
        with pytest.raises(ValueError) as info:
            from_spec(spec)
        assert str(info.value) == f"community option {key} given twice in {spec!r}"


# a connected path and a feature matrix, built before any test patches the builders
PATH3 = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
FEATURES = np.array([[0.0, 0.1], [0.2, 0.0], [1.0, 1.0], [0.9, 1.1]])


def _no_compute(*args, **kwargs):
    raise AssertionError("a graph or Laplacian was built before the input was checked")


class TestScalarRules:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integer_rule_keeps_integers_as_int(self, value):
        got = graph_mod._as_int(value, "rows")
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [True, np.bool_(True), 3.0, np.float64(3.0), 2.5, "3",
                                       None, Fraction(3, 1)])
    def test_integer_rule_rejects_the_rest_naming_field_and_value(self, value):
        with pytest.raises(ValueError) as info:
            graph_mod._as_int(value, "rows")
        assert str(info.value) == f"rows {value!r} is not an integer"

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2), 1,
                                       np.int64(1)])
    def test_real_rule_keeps_finite_reals_as_float(self, value):
        got = graph_mod._as_real(value, "delta")
        assert got == value and type(got) is float

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, 1j, math.nan,
                                       math.inf, -math.inf, np.float64(math.nan), 10**400,
                                       Fraction(10**400, 3)])
    def test_real_rule_rejects_the_rest_naming_field_and_value(self, value):
        with pytest.raises(ValueError) as info:
            graph_mod._as_real(value, "delta")
        assert str(info.value) == f"delta must be finite, got {value!r}"

    def test_real_rule_lower_bound_is_closed_unless_strict(self):
        assert graph_mod._as_real(0, "hybrid_scale", 0) == 0.0
        with pytest.raises(ValueError) as info:
            graph_mod._as_real(-1e-300, "hybrid_scale", 0)
        assert str(info.value) == "hybrid_scale must be finite and >= 0, got -1e-300"
        assert graph_mod._as_real(5e-324, "delta", 0, strict=True) == 5e-324
        with pytest.raises(ValueError) as info:
            graph_mod._as_real(0.0, "delta", 0, strict=True)
        assert str(info.value) == "delta must be finite and > 0, got 0.0"

    @pytest.mark.parametrize("build, message", [
        (lambda: Graph(True, {}), "node count True is not an integer"),
        (lambda: Graph.from_arrays(3.0, [0], [1], [1.0]), "node count 3.0 is not an integer"),
        (lambda: grid_graph(4.5, 4, 0), "rows 4.5 is not an integer"),
        (lambda: grid_graph(4, np.float64(5.0), 0), "cols np.float64(5.0) is not an integer"),
        (lambda: community_graph([10.7, 10], 0.8, 0.1, 0),
         "community size 10.7 is not an integer"),
        (lambda: community_graph(["10", 10], 0.8, 0.1, 0),
         "community size '10' is not an integer"),
        (lambda: community_graph([10, 10], True, 0.1, 0), "p_in must be finite, got True"),
        (lambda: community_graph([10, 10], 0.8, "0.1", 0), "p_out must be finite, got '0.1'"),
        (lambda: grid_graph(4, 4, 1.5), "seed 1.5 is not an integer"),
        (lambda: grid_graph(4, 4, -1), "seed must be >= 0, got -1"),
        (lambda: grid_graph(4, 4, True), "seed True is not an integer"),
        (lambda: community_graph([10, 10], 0.8, 0.1, 1.5), "seed 1.5 is not an integer"),
        (lambda: community_graph([10, 10], 0.8, 0.1, -1), "seed must be >= 0, got -1"),
        (lambda: community_graph([10, 10], 0.8, 0.1, True), "seed True is not an integer"),
        (lambda: LabeledGraph(PATH3, [0, 1, 0], np.float64(2.0)),
         "num_classes np.float64(2.0) is not an integer"),
        (lambda: regularized_laplacian(PATH3, True), "delta must be finite and > 0, got True"),
        (lambda: regularized_laplacian(PATH3, "0.1"), "delta must be finite and > 0, got '0.1'"),
        (lambda: build_from_features(FEATURES, sigma=True),
         "sigma must be finite and > 0, got True"),
        (lambda: build_from_features(FEATURES, "pearson", threshold="0"),
         "threshold must be finite, got '0'"),
    ], ids=["graph-n-bool", "from-arrays-n-float", "grid-rows", "grid-cols", "community-size",
            "community-size-str", "p-in-bool", "p-out-str", "grid-seed-float",
            "grid-seed-negative", "grid-seed-bool", "community-seed-float",
            "community-seed-negative", "community-seed-bool", "num-classes", "delta-bool",
            "delta-str", "sigma-bool", "threshold-str"])
    def test_sites_reject_before_any_graph_or_laplacian(self, monkeypatch, build, message):
        # every graph is checked by _canonical_edges, every grid shares a
        # _lattice, every Laplacian starts from the weight matrix, and every
        # generator draws from one default_rng
        monkeypatch.setattr(graph_mod, "_canonical_edges", _no_compute)
        monkeypatch.setattr(graph_mod, "_lattice", _no_compute)
        monkeypatch.setattr(graph_mod.Graph, "weight_matrix", _no_compute)
        monkeypatch.setattr(graph_mod.np.random, "default_rng", _no_compute)
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_laplacian_n_is_read_off_its_matrix(self):
        lap = regularized_laplacian(PATH3, 0.1)
        assert lap.n == 3 and type(lap.n) is int
        assert RegularizedLaplacian(np.eye(5)).n == 5
        # n is no longer a separate field that could disagree with the matrix
        with pytest.raises(TypeError):
            RegularizedLaplacian(5, np.eye(3))
        with pytest.raises(AttributeError):
            lap.n = 4


class TestRejectedInput:
    @pytest.mark.parametrize("build, message", [
        (lambda: Graph(3, {(0, 1, 2): 1.0}), "edge keys must be (i, j) node pairs"),
        (lambda: Graph.from_arrays(3, [0, 1], [1], [1.0, 1.0]),
         "edge columns must be 1-d arrays of one length"),
        (lambda: LabeledGraph(PATH3, [0, 0, 0], 1), "need at least two classes, got num_classes=1"),
        (lambda: normalize_features(np.zeros((0, 2))), "features must be a non-empty 2-d array"),
        (lambda: normalize_features([[1.0, math.nan]]), "non-finite feature entries"),
        (lambda: build_from_features(np.zeros(3)), "features must be a 2-d array"),
        (lambda: build_from_features(np.zeros((1, 2))),
         "need at least two rows and one feature column"),
        (lambda: community_graph([10], 0.5, 0.1, 0),
         "need at least two communities, got sizes [10]"),
        (lambda: community_graph([10, 1], 0.5, 0.1, 0),
         "each community needs at least 2 nodes, got sizes [10, 1]"),
        (lambda: graph_mod.canonical_labels([3, 3, 3]), "need at least two distinct classes"),
        (lambda: from_spec("grid:4by4"), "bad grid spec 'grid:4by4'; expected grid:RxC"),
        (lambda: from_spec("community:5,a:pin=0.5:pout=0.1"),
         "bad community sizes in 'community:5,a:pin=0.5:pout=0.1'"),
        (lambda: from_spec("community:5,5:pin=0.5:q=0.1"),
         "unknown community option 'q=0.1' in 'community:5,5:pin=0.5:q=0.1'"),
        (lambda: from_spec("community:5,5:pin=0.5"),
         "community spec 'community:5,5:pin=0.5' needs pin= and pout="),
        (lambda: from_spec("file:g.edges"), "file spec must name both files: file:EDGES:LABELS"),
    ], ids=["edge-key", "edge-columns", "one-class", "no-features", "nan-feature",
            "1-d-features", "one-row", "one-community", "tiny-community", "one-label-value",
            "grid-spec", "community-sizes", "community-option", "community-pout", "file-spec"])
    def test_message_names_the_input(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


# Forms of the id 1, and ids that are not integers with the names the edge
# and class-id messages give them.
FORMS_OF_ONE = [1, 1.0, np.int64(1), "1", np.str_("1"), Fraction(2, 2), True]
NOT_INTEGERS = [
    (1.5, "1.5", "1.5"),
    ("1.0", "'1.0'", "'1.0'"),
    (math.nan, "nan", "nan"),
    (None, "None", "None"),
    ("a", "'a'", "'a'"),
    (1 + 2j, "(1+2j)", "(1+2j)"),
    (Fraction(1, 2), "1/2", "Fraction(1, 2)"),
]


class TestIdRule:
    """Edge end points, class ids and label-mapping keys read ids by one rule."""

    @pytest.mark.parametrize("x", FORMS_OF_ONE, ids=repr)
    def test_every_form_of_one_is_one_at_every_site(self, x):
        assert dict(Graph(3, {(x, 0): 1.0}).edges) == {(0, 1): 1.0}
        column = np.array([x, 2], dtype=object)
        assert Graph.from_arrays(3, column, [0, 0], [1.0, 2.0]) == Graph(
            3, {(0, 1): 1.0, (0, 2): 2.0})
        assert LabeledGraph(PATH3, [x, 0, 1], 2).labels.tolist() == [1, 0, 1]
        assert LabeledGraph(PATH3, {2: 1, x: 0, 0: 1}, 2).labels.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("x, node_name, class_name", NOT_INTEGERS,
                             ids=[repr(c[0]) for c in NOT_INTEGERS])
    def test_every_non_integer_is_rejected_at_every_site(self, x, node_name, class_name):
        # a ValueError naming the first bad edge or node, never a TypeError
        # or a warning (tier-1 turns warnings into errors)
        with pytest.raises(ValueError) as info:
            Graph(3, {(2, 0): 1.0, (x, 0): 1.0})
        assert str(info.value) == f"non-integral node id in edge ({node_name}, 0)"
        with pytest.raises(ValueError) as info:
            Graph.from_arrays(3, np.array([2, x], dtype=object), [0, 0], [1.0, 1.0])
        assert str(info.value) == f"non-integral node id in edge ({node_name}, 0)"
        with pytest.raises(ValueError) as info:
            LabeledGraph(PATH3, [0, x, 1], 2)
        assert str(info.value) == f"class id {class_name} of node 1 is not an integer"
        with pytest.raises(ValueError) as info:
            LabeledGraph(PATH3, {2: 1, x: 0, 0: 1}, 2)
        assert str(info.value) == "every node needs exactly one label"

    def test_mixed_pairs_keep_their_float_ids(self):
        # numpy would read the pair as the strings '0' and '2.0'
        assert dict(Graph(3, {("0", 2.0): 1.0}).edges) == {(0, 2): 1.0}

    @pytest.mark.parametrize("edges, message", [
        ({(2.0, "2.0"): 1.0}, "non-integral node id in edge (2, '2.0')"),
        ({(0, 1): 1.0, ("b", 2.5): 1.0}, "non-integral node id in edge ('b', 2.5)"),
        ({("5", 0): 1.0}, "edge (5, 0) outside node range 0..2"),
        ({(np.float64(1.0), "1"): 1.0}, "self-loop on node 1 is not allowed"),
    ])
    def test_edge_messages_name_numbers_by_value_and_others_by_repr(self, edges, message):
        with pytest.raises(ValueError) as info:
            Graph(3, edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("big", [10**30, 2**53 + 1], ids=["past-int64", "past-float"])
    @pytest.mark.parametrize("beside", [[], ["a"]], ids=["alone", "beside-a"])
    def test_a_decimal_string_is_read_exactly_as_its_int(self, big, beside):
        # int() reads the string exactly, whether numpy's cast or the per-id
        # walk reads the column: the same message as the int, naming it by value
        def message(node):
            edges = {(node, 0): 1.0, **{(x, 0): 1.0 for x in beside}}
            with pytest.raises(ValueError) as info:
                Graph(3, edges)
            return str(info.value)

        assert message(str(big)) == message(big)
        assert message(str(big)).startswith(
            f"node id in edge ({big}, 0) does not fit int64" if big > 2**63
            else f"edge ({big}, 0) outside node range 0..2")
        with pytest.raises(ValueError) as info:
            LabeledGraph(PATH3, [str(big), *(beside or [0]), 1], 2)
        with pytest.raises(ValueError) as as_int:
            LabeledGraph(PATH3, [big, *(beside or [0]), 1], 2)
        assert str(info.value) == str(as_int.value)

    def test_a_decimal_point_string_stays_rejected(self):
        for column in (["1.0"], ["1.0", "a"]):
            with pytest.raises(ValueError) as info:
                Graph(3, {(x, 0): 1.0 for x in column})
            assert str(info.value) == "non-integral node id in edge ('1.0', 0)"

    def test_valid_object_and_string_ids_never_walk(self, monkeypatch):
        def no_walk(x):
            raise AssertionError("the per-id fallback ran on valid ids")

        monkeypatch.setattr(graph_mod, "_exact_id", no_walk)
        g = Graph(3, {("0", "1"): 1.0, (np.str_("2"), 1.0): 2.0})
        assert g == Graph.from_arrays(3, [0, 1], [1, 2], [1.0, 2.0])
        columns = Graph.from_arrays(3, np.array(["0", 1.0], dtype=object),
                                    np.array([Fraction(1), "2"], dtype=object), [1.0, 2.0])
        assert columns == g
        for labels in ({"0": 1, 1: "0", 2.0: 1}, np.array(["1", "0", "1"]),
                       np.array([1, "0", 1.0], dtype=object)):
            assert LabeledGraph(g, labels, 2).labels.tolist() == [1, 0, 1]
