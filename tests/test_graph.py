"""Graph construction, generators, Laplacians, and file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrf_active import (
    Graph,
    LabeledGraph,
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


class TestLabeledGraph:
    def test_requires_total_labeling(self):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        with pytest.raises(ValueError, match="exactly one label"):
            LabeledGraph(g, {0: 0, 1: 1}, 2)

    def test_requires_every_class(self):
        g = Graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        with pytest.raises(ValueError, match="every class"):
            LabeledGraph(g, {0: 0, 1: 0, 2: 0}, 2)


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
        assert a.labels == b.labels
        assert a.graph.edges == b.graph.edges
        assert sum(a.labels.values()) >= 18

    def test_seed_changes_line_flips(self):
        a = grid_graph(10, 10, seed=1)
        b = grid_graph(10, 10, seed=2)
        assert a.labels != b.labels

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            grid_graph(3, 10, seed=0)

    def test_connected(self):
        assert grid_graph(6, 5, seed=0).graph.is_connected()


class TestCommunityGraph:
    def test_sizes_and_classes(self):
        lg = community_graph((250, 350, 400), 0.05, 0.002, seed=0)
        assert lg.graph.n == 1000
        assert lg.num_classes == 3
        counts = [0, 0, 0]
        for c in lg.labels.values():
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
        assert a.labels == b.labels

    def test_retry_budget_exhausted(self):
        # p_out = 0 can never connect the two blocks
        with pytest.raises(ValueError, match="attempts"):
            community_graph((4, 4), 0.9, 0.0, seed=0)


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

    def test_label_round_trip(self, tmp_path):
        labels = {0: 1, 1: 0, 2: 1}
        path = tmp_path / "labels.txt"
        save_labels(labels, path)
        assert load_labels(path) == labels

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
        assert lg.labels == src.labels

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown graph spec"):
            from_spec("torus:3x3")

    def test_bad_option_value_names_option_and_spec(self):
        spec = "community:10,10:pin=0.5:pout=abc"
        with pytest.raises(ValueError, match=r"'abc' for community option pout in '" + spec):
            from_spec(spec)
