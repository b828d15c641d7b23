"""Field-model state: initialization, rank-one updates, predictions."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrf_active import (
    ExperimentConfig,
    Graph,
    GmrfModel,
    community_graph,
    conditional_mean_direct,
    from_spec,
    grid_graph,
    regularized_laplacian,
    run_experiment,
    spd_inverse,
)
from gmrf_active import bench, gmrf, strategies
from gmrf_active.bench import accuracy
from gmrf_active.checks import random_connected_graph
from gmrf_active.gmrf import DECISION_ATOL, class_decision, soft_labels
from gmrf_active.strategies import Strategy, select


def two_node_lap(delta=0.1):
    return regularized_laplacian(Graph(2, {(0, 1): 1.0}), delta)


def random_lap(rng, n, delta=0.005):
    return regularized_laplacian(random_connected_graph(n, rng), delta)


def signed(labeled):
    """Binary class ids as the +/-1 field values of class 1."""
    return {k: 2.0 * c - 1.0 for k, c in labeled.items()}


def minus_outer_once_rounded(rows, c, s):
    """``rows - outer(c, s)`` with each entry rounded once from exact rationals."""
    rows = np.asarray(rows, dtype=float)
    exact = [[float(Fraction(x) - Fraction(ci) * Fraction(sj)) for x, sj in zip(row, s)]
             for row, ci in zip(rows, c)]
    return np.array(exact, dtype=float).reshape(rows.shape)


class TestInit:
    def test_two_node_analytic_inverse(self):
        model = GmrfModel.from_laplacian(two_node_lap(), 2)
        expected = np.array([[1.1, 1.0], [1.0, 1.1]]) / 0.21
        assert np.allclose(model.G, expected, atol=1e-12)
        assert np.all(model.mu == 0.0)
        assert list(model.unlabeled) == [0, 1]

    def test_inverse_identity(self):
        rng = np.random.default_rng(0)
        lap = random_lap(rng, 17)
        model = GmrfModel.from_laplacian(lap, 2)
        assert np.abs(model.G @ lap.matrix - np.eye(17)).max() < 1e-8

    def test_matches_dense_inverse_and_symmetry(self):
        rng = np.random.default_rng(1)
        lap = random_lap(rng, 10)
        model = GmrfModel.from_laplacian(lap, 2)
        assert np.abs(model.G - np.linalg.inv(lap.matrix)).max() < 1e-8
        assert np.abs(model.G - model.G.T).max() < 1e-10

    @pytest.mark.parametrize("G, means, name", [
        (np.eye(3)[:2], np.zeros((2, 2)), "G"),
        (np.eye(2), np.zeros((2, 3)), "means"),
        (np.diag([np.nan, 1.0]), np.zeros((2, 2)), "G"),
        (np.diag([1.0, np.inf]), np.zeros((2, 2)), "G"),
        (np.eye(2), np.array([[0.0, np.nan], [0.0, 0.0]]), "means"),
        (np.eye(2), np.array([[0.0, 0.0], [-np.inf, 0.0]]), "means"),
        (np.eye(2), np.zeros((1, 2)), "means"),
    ], ids=["G", "means", "G-nan", "G-inf", "means-nan", "means-inf", "means-one-field"])
    def test_inconsistent_state_rejected(self, G, means, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            GmrfModel(G, means)

    def test_asymmetric_G_rejected_naming_the_entries(self):
        # score_tv would read row 0 (l1 = 1.5) and the carried G 1 column 0 (1.1)
        with pytest.raises(ValueError, match=r"^G is not exactly symmetric: "
                                             r"G\[0, 1\] = 0.5 but G\[1, 0\] = 0.1$"):
            GmrfModel([[1.0, 0.5], [0.1, 1.0]], np.zeros((2, 2)))
        # one ulp off is not symmetric either
        G = spd_inverse(random_lap(np.random.default_rng(24), 9).matrix)
        G[7, 2] = np.nextafter(G[7, 2], np.inf)
        with pytest.raises(ValueError, match=r"^G is not exactly symmetric: G\[2, 7\]"):
            GmrfModel.from_inverse(G, 3)

    @pytest.mark.parametrize("num_classes", [2.0, True, np.float64(3.0), "2"])
    def test_fractional_or_bool_class_count_rejected_naming_it(self, num_classes, monkeypatch):
        # the count used to reach np.zeros, whose TypeError named nothing
        with pytest.raises(ValueError) as info:
            GmrfModel.from_inverse(np.eye(3), num_classes)
        assert str(info.value) == f"num_classes {num_classes!r} is not an integer"
        # from_laplacian checks it before the inverse is computed
        monkeypatch.setattr(gmrf, "spd_inverse", _no_lapack)
        with pytest.raises(ValueError) as info:
            GmrfModel.from_laplacian(two_node_lap(), num_classes)
        assert str(info.value) == f"num_classes {num_classes!r} is not an integer"

    def test_non_pd_rejected(self):
        lap = two_node_lap()
        lap.matrix = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError, match="not positive definite: 2-th leading minor"):
            GmrfModel.from_laplacian(lap, 2)


class TestConditionalMeanDirect:
    def test_two_node_hand_value(self):
        mu = conditional_mean_direct(two_node_lap(), {0: 1.0})
        assert mu[0] == pytest.approx(1 / 1.1, abs=1e-12)

    def test_star_center_approaches_observed_value(self):
        # center 0 with 4 leaves, all leaves labeled +1, tiny regularizer
        edges = {(0, leaf): 1.0 for leaf in range(1, 5)}
        lap = regularized_laplacian(Graph(5, edges), 1e-6)
        mu = conditional_mean_direct(lap, {leaf: 1.0 for leaf in range(1, 5)})
        assert abs(mu[0] - 1.0) < 1e-6

    @given(st.integers(0, 2**32 - 1), st.integers(3, 15))
    @settings(max_examples=25, deadline=None)
    def test_sign_equivariance_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        lap = random_lap(rng, n)
        labeled = {int(k): (1.0 if rng.random() < 0.5 else -1.0)
                   for k in rng.permutation(n)[: max(1, n // 3)]}
        if len(labeled) == n:
            return
        mu = conditional_mean_direct(lap, labeled)
        negated = conditional_mean_direct(lap, {k: -v for k, v in labeled.items()})
        assert np.array_equal(negated, -mu)

    def test_matches_factor_of_a_copy(self):
        # factoring M_UU in place through its transpose reads the same matrix
        lap = random_lap(np.random.default_rng(23), 40)
        labeled = {3: 1.0, 17: -1.0, 31: 1.0}
        unl = [i for i in range(lap.n) if i not in labeled]
        A = lap.matrix[np.ix_(unl, unl)]
        b = -lap.matrix[np.ix_(unl, sorted(labeled))] @ np.array([1.0, -1.0, 1.0])
        expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), b)
        assert np.array_equal(conditional_mean_direct(lap, labeled), expected)

    def test_peak_memory_is_one_unlabeled_block(self):
        lap = regularized_laplacian(grid_graph(20, 20, seed=3).graph, 0.005)
        labeled = {0: 1.0, 133: -1.0, 266: 1.0, 399: -1.0, 210: 1.0}
        u = lap.n - len(labeled)
        conditional_mean_direct(lap, labeled)  # loads what it needs outside the measurement
        tracemalloc.start()
        try:
            conditional_mean_direct(lap, labeled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one |U|^2 buffer plus the fancy-index buffer, the finiteness mask
        # (|U|^2 bytes) and O(n) vectors: measured 1.15 |U|^2 doubles; the
        # former factor-of-a-copy path peaked at 2.15
        assert peak <= 1.25 * 8 * u * u

    def test_empty_label_set_rejected(self):
        with pytest.raises(ValueError, match="at least one labeled"):
            conditional_mean_direct(two_node_lap(), {})

    def test_all_labeled_rejected(self):
        with pytest.raises(ValueError, match="unlabeled set is empty"):
            conditional_mean_direct(two_node_lap(), {0: 1.0, 1: -1.0})

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_id_outside_the_graph_rejected_naming_it(self, monkeypatch, bad):
        # -1 read node 15 as labeled and unlabeled at once; 16 raised a bare IndexError
        monkeypatch.setattr(scipy.linalg, "cho_factor", _no_lapack)
        lap = regularized_laplacian(grid_graph(4, 4, seed=0).graph, 0.005)
        with pytest.raises(ValueError, match=rf"^labeled node id {bad} outside 0\.\.15$"):
            conditional_mean_direct(lap, {bad: 1.0})

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True])
    def test_non_integer_id_rejected_naming_it(self, monkeypatch, bad):
        # 1.7 was solved as node 1
        monkeypatch.setattr(scipy.linalg, "cho_factor", _no_lapack)
        lap = regularized_laplacian(grid_graph(4, 4, seed=0).graph, 0.005)
        with pytest.raises(ValueError, match=rf"^labeled node id {bad!r} is not an integer$"):
            conditional_mean_direct(lap, {bad: 1.0})

    @pytest.mark.parametrize("bad", [True, "1", np.nan, np.inf, None])
    def test_non_real_label_value_rejected_naming_the_node(self, monkeypatch, bad):
        # True and "1" solved as 1.0, nan failed inside cho_solve after the
        # factorization, and None raised a TypeError
        monkeypatch.setattr(scipy.linalg, "cho_factor", _no_lapack)
        lap = regularized_laplacian(grid_graph(4, 4, seed=0).graph, 0.005)
        with pytest.raises(ValueError) as info:
            conditional_mean_direct(lap, {3: 1.0, 0: bad})
        assert str(info.value) == f"label of node 0 must be finite, got {bad!r}"

    def test_integer_ids_of_any_integer_type_accepted(self):
        lap = regularized_laplacian(grid_graph(4, 4, seed=0).graph, 0.005)
        expected = conditional_mean_direct(lap, {3: 1.0, 9: -1.0})
        for ids in ((np.int64(3), np.int32(9)), (np.uint8(3), 9)):
            labeled = dict(zip(ids, (1.0, -1.0)))
            assert np.array_equal(conditional_mean_direct(lap, labeled), expected)


class TestObserve:
    def test_matches_direct_solve_full_sequence(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(5, 41))
            lap = random_lap(rng, n)
            model = GmrfModel.from_laplacian(lap, 2)
            for node in rng.permutation(n)[: n - 1]:
                model.observe(int(node), 1 if rng.random() < 0.5 else 0)
                direct = conditional_mean_direct(lap, signed(model.labeled))
                assert np.abs(model.mu - direct).max() < 1e-8

    def test_shrunken_inverse_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 20
        lap = random_lap(rng, n)
        model = GmrfModel.from_laplacian(lap, 2)
        for node in rng.permutation(n)[:10]:
            model.observe(int(node), 1)
            unl = [int(i) for i in model.unlabeled]
            dense = np.linalg.inv(lap.matrix[np.ix_(unl, unl)])
            assert np.abs(model.G - dense).max() < 1e-8
        # the constructor raises on an inconsistent state
        GmrfModel(model.G, model.means)
        assert np.diagonal(model.G).min() > 0
        assert np.abs(model.G - model.G.T).max() < 1e-10

    def test_zero_innovation_leaves_mean_unchanged(self):
        # apply the update formula with the current mean in place of a label
        rng = np.random.default_rng(6)
        lap = random_lap(rng, 8)
        model = GmrfModel.from_laplacian(lap, 2)
        model.observe(0, 1)
        pos = model.position(3)
        step = (model.mu[pos] - model.mu[pos]) / model.diagonal[pos]
        updated = model.mu + step * model.G[pos]
        assert np.array_equal(updated, model.mu)

    def test_observe_labeled_node_rejected(self):
        model = GmrfModel.from_laplacian(two_node_lap(), 2)
        model.observe(0, 1)
        with pytest.raises(ValueError, match="not unlabeled"):
            model.observe(0, 0)

    def test_invalid_value_rejected(self):
        model = GmrfModel.from_laplacian(two_node_lap(), 2)
        for bad in (0.5, -1, 2):  # the field value -1 is not a class id
            with pytest.raises(ValueError, match="class id"):
                model.observe(0, bad)

    @pytest.mark.parametrize("node, class_id, message", [
        (True, 1, "node id True is not an integer"),
        (np.float64(3.0), 0, "node id np.float64(3.0) is not an integer"),
        (2, 1.0, "class id 1.0 is not an integer"),
        (2, False, "class id False is not an integer"),
    ])
    def test_non_integer_id_rejected_before_any_change(self, node, class_id, message):
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(6), 5), 2)
        model.rows()
        before = (model.means.copy(), model.G, model.unlabeled.copy(), model._t)
        with pytest.raises(ValueError) as raised:
            model.observe(node, class_id)
        assert str(raised.value) == message
        assert model.labeled == {}
        after = (model.means, model.G, model.unlabeled, model._t)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_numpy_integer_ids_accepted(self):
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(6), 5), 3)
        model.observe(np.int64(3), np.uint8(2))
        model.observe(np.int32(1), np.int64(0))
        assert model.labeled == {3: 2, 1: 0}
        assert all(type(key) is int and type(value) is int
                   for key, value in model.labeled.items())

    def test_degenerate_pivot_rejected(self):
        model = GmrfModel(np.diag([1e-15, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="degenerate pivot g_kk=1.000e-15 at node 0"):
            model.observe(0, 1)

    @given(st.integers(0, 2**32 - 1), st.integers(4, 20))
    @settings(max_examples=25, deadline=None)
    def test_mean_stays_bounded(self, seed, n):
        rng = np.random.default_rng(seed)
        lap = random_lap(rng, n)
        model = GmrfModel.from_laplacian(lap, 2)
        for node in rng.permutation(n)[: n - 1]:
            model.observe(int(node), 1 if rng.random() < 0.5 else 0)
            if model.num_unlabeled:
                assert model.mu.min() >= -1 - 1e-9
                assert model.mu.max() <= 1 + 1e-9

    def test_uniform_scaling_leaves_mean_invariant(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(12, rng)
        scale = 3.7
        scaled = Graph(12, {k: scale * w for k, w in g.edges.items()})
        lap_a = regularized_laplacian(g, 0.01)
        lap_b = regularized_laplacian(scaled, 0.01 * scale)
        model_a = GmrfModel.from_laplacian(lap_a, 2)
        model_b = GmrfModel.from_laplacian(lap_b, 2)
        for node, class_id in ((2, 1), (9, 0), (5, 1)):
            model_a.observe(node, class_id)
            model_b.observe(node, class_id)
        assert np.abs(model_a.mu - model_b.mu).max() < 1e-10
        assert np.abs(model_a.G / scale - model_b.G).max() < 1e-10


class TestCompactingDowndate:
    """``observe`` against the delete formula.

    The reference deletes entry ``k`` and moves every row ``r`` of ``G`` and
    of the means to ``r_{-k} - c_r s``, with ``c_r = (r_k - t) / sqrt(g_kk)``
    and ``s`` column ``k`` of ``G`` without entry ``k`` over ``sqrt(g_kk)``,
    each entry rounded once. The model holds ``G`` factored and sums the
    steps in another order, so ``G`` and the means follow the reference to
    within rounding, down to ``|U| = 0``.
    """

    @staticmethod
    def reference_step(G, pos, gkk):
        s = np.delete(G[:, pos], pos) / np.sqrt(gkk)
        kept = np.delete(np.delete(G, pos, 0), pos, 1)
        return s, minus_outer_once_rounded(kept, s, s)

    @staticmethod
    def positions(rng, n):
        # first, middle and last position, then random ones down to |U| = 0
        sizes = range(n, 0, -1)
        fixed = [0, (n - 1) // 2, n - 3]
        return [fixed[i] if i < 3 else int(rng.integers(k)) for i, k in enumerate(sizes)]

    def check_observe_sequence(self, model, state, draw_label, update_ref):
        rng = np.random.default_rng(12)
        G_ref = model.G.copy()
        ref = state(model).copy()
        ids = model.unlabeled.copy()
        for pos in self.positions(rng, ids.size):
            held, held_copy = model.G, model.G.copy()
            gkk = G_ref[pos, pos]
            s, G_ref = self.reference_step(G_ref, pos, gkk)
            label = draw_label(rng)
            ref = update_ref(ref, pos, s, gkk, label)
            model.observe(int(ids[pos]), label)
            ids = np.delete(ids, pos)
            assert np.array_equal(held, held_copy)
            scale = np.abs(G_ref).max(initial=0.0)
            np.testing.assert_allclose(model.G, G_ref, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(state(model), ref, rtol=0, atol=1e-12)
            assert np.array_equal(model.unlabeled, ids)
        assert model.G.shape == (0, 0)
        with pytest.raises(ValueError, match="no unlabeled nodes"):
            select(Strategy("tv"), model, 2, rng)

    def test_binary_matches_delete_formula(self):
        lap = random_lap(np.random.default_rng(10), 11)
        passed = spd_inverse(lap.matrix)
        kept = passed.copy()

        def update_ref(mu, pos, s, gkk, class_id):
            value = 2.0 * class_id - 1.0
            c = (mu[pos] - value) / np.sqrt(gkk)
            return minus_outer_once_rounded(np.delete(mu, pos)[None], [c], s)[0]

        for model in (GmrfModel.from_inverse(passed, 2),
                      GmrfModel(passed, np.zeros((2, 11)))):
            self.check_observe_sequence(
                model, lambda m: m.mu,
                lambda rng: 1 if rng.random() < 0.5 else 0, update_ref)
            assert np.array_equal(passed, kept)

    def test_multiclass_matches_delete_formula(self):
        lap = random_lap(np.random.default_rng(11), 10)
        passed = spd_inverse(lap.matrix)
        kept = passed.copy()

        def update_ref(means, pos, s, gkk, class_id):
            values = np.full(3, -1.0)
            values[class_id] = 1.0
            c = (means[:, pos] - values) / np.sqrt(gkk)
            return minus_outer_once_rounded(np.delete(means, pos, axis=1), c, s)

        for model in (GmrfModel.from_inverse(passed, 3),
                      GmrfModel(passed, np.zeros((3, 10)))):
            self.check_observe_sequence(
                model, lambda m: m.means, lambda rng: int(rng.integers(3)), update_ref)
            assert np.array_equal(passed, kept)

    def test_peak_memory_is_the_fresh_state(self):
        # observe writes the state in place: it allocates only the step
        # column and the readers' compact vectors, O(|U|); G is not built
        model = GmrfModel.from_laplacian(
            regularized_laplacian(grid_graph(20, 20, seed=3).graph, 0.005), 2)
        model.observe(0, 1)  # loads what it needs outside the measurement
        tracemalloc.start()
        try:
            model.observe(210, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 0.026 MB, about 8 vectors of |U| = 398 doubles; copying the
        # kept blocks into a fresh state peaked at 1.28 MB
        assert peak <= 12 * 8 * model.num_unlabeled

    def test_fold_peak_is_one_inverse(self, monkeypatch):
        # the fold's fresh G_0 - V^T V is frozen in place; freezing it by a
        # copy peaked at two n^2 arrays
        monkeypatch.setattr(gmrf, "_FOLD_MIN_ROWS", 4)
        model = GmrfModel.from_laplacian(
            regularized_laplacian(grid_graph(20, 20, seed=3).graph, 0.005), 2)
        n = model._fields.shape[1]
        rows = model._V.shape[0]
        for node in range(rows):
            model.observe(node, node % 2)
        tracemalloc.start()
        try:
            model.observe(rows, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model._t == 1  # the step folded V, then appended its column
        assert not model._base.flags.writeable
        assert 8 * n * n <= peak <= 1.25 * 8 * n * n

    def test_rank_one_update_lands_in_the_state(self, monkeypatch):
        # f2py copies an array of the wrong layout silently; the update must
        # write the model's own means and G 1, and only them
        written = []
        dger = scipy.linalg.blas.dger

        def recording_dger(*args, **kwargs):
            written.append(dger(*args, **kwargs))
            return written[-1]

        monkeypatch.setattr(scipy.linalg.blas, "dger", recording_dger)
        for num_classes in (2, 3):
            model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(16), 12),
                                             num_classes)
            for node in (4, 0, 11):
                model.observe(node, 1)
                assert np.shares_memory(written[-1], model._fields)
                assert written[-1].shape == (12, num_classes + 1)
        assert len(written) == 6

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_labeled_rows_and_columns_stay_exactly_zero(self, num_classes, monkeypatch):
        # a step column is exactly 0 at every node labeled before its step,
        # down to |U| = 0 and across folds of V into a private inverse
        monkeypatch.setattr(gmrf, "_FOLD_MIN_ROWS", 4)
        rng = np.random.default_rng(30 + num_classes)
        G0 = spd_inverse(random_lap(rng, 15).matrix)
        model = GmrfModel.from_inverse(G0, num_classes)
        shared = model._base
        order = []
        folds = 0
        while model.num_unlabeled:
            before = model._t
            order.append(int(rng.choice(model.unlabeled)))
            model.observe(order[-1], int(rng.integers(num_classes)))
            folds += model._t < before
            t = model._t
            for row, step in zip(model._V[:t], range(len(order) - t, len(order))):
                assert not row[order[:step]].any()
        assert model._V.shape == (4, 15)
        assert folds == 3
        assert model._base is not shared
        assert not shared.flags.writeable and np.array_equal(shared, G0)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_held_arrays_never_change(self, num_classes):
        rng = np.random.default_rng(40 + num_classes)
        model = GmrfModel.from_laplacian(random_lap(rng, 12), num_classes)
        held = []
        while model.num_unlabeled:
            arrays = [model.G, model.means, model.row_sums, model.diagonal, model.rows()[0]]
            held.append([(a, a.copy()) for a in arrays])
            model.observe(int(rng.choice(model.unlabeled)), int(rng.integers(num_classes)))
            for pairs in held:
                for a, kept in pairs:
                    assert np.array_equal(a, kept)
        assert len(held) == 12

    def test_reader_arrays_are_read_only(self):
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(44), 6), 2)
        model.observe(2, 1)
        # G built afresh, then the block that rows() makes the model carry
        for a in (model.means, model.mu, model.row_sums, model.diagonal, model.G,
                  model.rows()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5
        writable = model.class_means()
        writable[0, 0] = 0.5
        assert model.means[0, 0] != 0.5

    def test_rows_are_the_read_only_carried_G(self):
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(45), 14), 3)
        for node in (13, 0, 6):
            model.observe(node, 2)
        G = model.G
        assert G.shape == (11, 11) and model._G is None
        rows = model.rows()
        # the carried block is the built one, and G returns it itself
        assert rows is model._G and model.G is rows
        assert rows.tobytes() == G.tobytes()
        assert not np.shares_memory(rows, model._base)
        # the carried diagonal against the one of the built G
        np.testing.assert_allclose(model.diagonal, np.diagonal(G), rtol=1e-12, atol=0)
        model.observe(4, 1)
        assert model.G is model._G and not model.G.flags.writeable

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_G_exactly_symmetric_after_every_step(self, num_classes):
        # |U| from 17 down to 0 runs the rank-one kernel over every tail length
        rng = np.random.default_rng(17 + num_classes)
        model = GmrfModel.from_laplacian(random_lap(rng, 17), num_classes)
        while model.num_unlabeled:
            node = int(rng.choice(model.unlabeled))
            model.observe(node, int(rng.integers(num_classes)))
            assert np.array_equal(model.G, model.G.T)


class TestCarriedG:
    """A model's first ``rows()`` read builds ``G``, and from then on
    ``observe`` carries it by deleting the observed row and column and
    subtracting ``s_U s_U^T``; the other readers build ``G`` without keeping it."""

    @staticmethod
    def built_G(model):
        idx = model.unlabeled
        return gmrf._minus_gram(model._base[np.ix_(idx, idx)], model._V[:model._t][:, idx])

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_carried_G_follows_the_built_G_down_to_no_unlabeled(self, monkeypatch,
                                                                 num_classes):
        # V folds every 4 rows, so the carry runs across three folds
        monkeypatch.setattr(gmrf, "_FOLD_MIN_ROWS", 4)
        rng = np.random.default_rng(70 + num_classes)
        model = GmrfModel.from_laplacian(random_lap(rng, 15), num_classes)
        model.observe(int(rng.choice(model.unlabeled)), int(rng.integers(num_classes)))
        G = model.rows()
        held = [(G, G.copy())]
        while model.num_unlabeled:
            model.observe(int(rng.choice(model.unlabeled)), int(rng.integers(num_classes)))
            G = model.G
            assert G.shape == (model.num_unlabeled,) * 2
            assert np.array_equal(G, G.T)
            built = self.built_G(model)
            np.testing.assert_allclose(G, built, rtol=0,
                                       atol=1e-12 * np.abs(built).max(initial=0.0))
            for a, kept in held:
                assert np.array_equal(a, kept)
            held.append((G, G.copy()))
        assert model._G.shape == (0, 0)

    def test_G_and_square_sums_do_not_start_the_carry(self):
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(72), 12), 2)
        model.observe(3, 1)
        G, squares = model.G, model.square_sums()
        assert model._G is None
        np.testing.assert_allclose(squares, (G * G).sum(axis=0), rtol=1e-12, atol=0)
        model.observe(7, 0)
        assert model._G is None
        model.rows()
        assert model._G is not None
        model.observe(0, 1)
        assert model._G.shape == (model.num_unlabeled,) * 2

    def test_vm_observe_allocates_vectors_not_a_block(self):
        # vm and msd read G once, for the column sums of squares; their later
        # observe steps must not downdate a |U|^2 block
        model = GmrfModel.from_laplacian(
            regularized_laplacian(grid_graph(20, 20, seed=3).graph, 0.005), 2)
        model.observe(0, 1)
        select(Strategy("vm"), model, 2, np.random.default_rng(0))
        model.observe(399, 0)  # loads what it needs outside the measurement
        tracemalloc.start()
        try:
            model.observe(210, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a carried block would take 8 |U|^2 = 1.26 MB
        assert peak <= 16 * 8 * model._fields.shape[1]


def former_square_sums(model):
    """The former first read of the column sums of squares: ``G`` over the
    unlabeled nodes built by row and column gathers and ``_minus_gram``."""
    idx = model.unlabeled
    G = gmrf._minus_gram(model._base[idx][:, idx], model._V[:model._t][:, idx])
    return np.einsum("ij,ij->j", G, G)


class TestPanelSquareSums:
    """The first read of the column sums of squares streams row panels of
    ``G_0`` (35 rows a panel over the 900 nodes of a 30x30 grid, so 26
    panels, the last one partial) and equals the former build over ``G``."""

    @staticmethod
    def grid_model(num_classes, steps, rows=30):
        lap = regularized_laplacian(grid_graph(rows, rows, seed=5).graph, 0.005)
        model = GmrfModel.from_laplacian(lap, num_classes)
        rng = np.random.default_rng(90 + num_classes)
        for node in rng.permutation(model.num_unlabeled)[:steps]:
            model.observe(int(node), int(rng.integers(num_classes)))
        return model

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_first_read_equals_the_former_build_bit_for_bit(self, num_classes, t):
        model = self.grid_model(num_classes, t)
        assert model._t == t and model._G is None
        expected = former_square_sums(model)
        assert model.square_sums().tobytes() == expected.tobytes()
        assert model._G is None

    def test_read_after_a_fold_equals_the_former_build_bit_for_bit(self, monkeypatch):
        # V folds at 4 rows, so the read sums a private G_0 less two rows of V
        monkeypatch.setattr(gmrf, "_FOLD_SHARE", 0.0)
        monkeypatch.setattr(gmrf, "_FOLD_MIN_ROWS", 4)
        model = self.grid_model(3, 6)
        assert model._t == 2 and model._base.shape == (900, 900)
        expected = former_square_sums(model)
        assert model.square_sums().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("steps", [1, 5, 40, 129])
    def test_first_read_does_not_depend_on_a_carried_G(self, num_classes, steps):
        # one model reads rows, so it carries G from then on, and its twin
        # never does; after the same observes their first reads of the sums
        # are the same bits. At n=144 V folds at 128 rows, so 129 observes
        # cross a fold.
        model = self.grid_model(num_classes, 0, rows=12)
        twin = model.copy()
        model.rows()
        rng = np.random.default_rng(94 + num_classes)
        for node in rng.permutation(model.num_unlabeled)[:steps]:
            label = int(rng.integers(num_classes))
            model.observe(int(node), label)
            twin.observe(int(node), label)
        assert model._G is not None and twin._G is None
        assert model.square_sums().tobytes() == twin.square_sums().tobytes()

    def test_follows_the_built_G_up_to_forty_rows_of_V(self):
        model = self.grid_model(3, 0, rows=20)
        rng = np.random.default_rng(93)
        for node in rng.permutation(model.num_unlabeled)[:40]:
            model.observe(int(node), int(rng.integers(3)))
            twin = model.copy()  # not read yet, so its first read streams
            G = twin.G
            np.testing.assert_allclose(twin.square_sums(), (G * G).sum(axis=0),
                                       rtol=1e-12, atol=0)

    def test_peak_memory_is_two_panels(self):
        model = self.grid_model(2, 1)
        model.copy().square_sums()  # loads what it needs outside the measurement
        tracemalloc.start()
        try:
            model.square_sums()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one |U|^2 array would take 6.5 MB; a panel and its Gram rows take
        # _PANEL_BYTES each, and the sums and their gather O(n)
        assert peak <= 2 * gmrf._PANEL_BYTES + 64 * 900


class TestCarriedRowSums:
    """``row_sums`` follows ``G 1`` and ``G`` stays exactly symmetric."""

    def test_starts_as_column_l1_norms(self):
        G = spd_inverse(random_lap(np.random.default_rng(14), 9).matrix)
        model = GmrfModel.from_inverse(G, 3)
        assert np.array_equal(model.row_sums, np.abs(G).sum(axis=0))

    def test_step_is_the_means_step_with_target_zero(self):
        # one rule for every row: r' = r_{-k} - ((r_k - t) / sqrt(g_kk)) s
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(13), 9), 2)
        model.observe(3, 1)
        sums, m, G = model.row_sums.copy(), model.means.copy(), model.G.copy()
        pos = model.position(6)
        model.observe(6, 0)
        root = np.sqrt(G[pos, pos])
        s = np.delete(G[:, pos], pos) / root
        c = (sums[pos] - 0.0) / root
        expected = minus_outer_once_rounded(np.delete(sums, pos)[None], [c], s)[0]
        assert np.array_equal(model.row_sums, expected)
        c = (m[:, pos] - np.array([1.0, -1.0])) / root
        expected = minus_outer_once_rounded(np.delete(m, pos, axis=1), c, s)
        assert np.array_equal(model.means, expected)

    # the golden digests' graphs, and the benchmark's largest grid
    @pytest.mark.parametrize("graph, seed", [
        ("grid:8x8", 3),
        ("community:20,20,20:pin=0.5:pout=0.02", 5),
        ("grid:20x20", 3),
    ])
    def test_drift_and_symmetry_down_to_one_unlabeled(self, graph, seed):
        n = from_spec(graph, seed).graph.n
        drift = []

        def check(*, model, **_):
            fresh = np.abs(model.G).sum(axis=0)
            drift.append(float(np.max(np.abs(model.row_sums - fresh) / fresh)))
            assert np.array_equal(model.G, model.G.T)

        cfg = ExperimentConfig(graph=graph, strategies=[Strategy("tv"), Strategy("sigma-opt")],
                               budget=n - 1, runs=1, seed=seed, delta=0.005)
        run_experiment(cfg, step_hook=check)
        assert len(drift) == 2 * (n - 1)
        assert max(drift) <= 1e-10

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("fold_rows", [4, None], ids=["fold-4", "fold-default"])
    def test_carried_vectors_follow_the_built_G_past_the_fold(self, monkeypatch,
                                                               num_classes, fold_rows):
        # the diagonal, G 1 and the column sums of squares are carried, not
        # summed over G; V folds every n / 8 = 18 rows, or at 128
        if fold_rows:
            monkeypatch.setattr(gmrf, "_FOLD_MIN_ROWS", fold_rows)
        lap = regularized_laplacian(grid_graph(12, 12, seed=4).graph, 0.005)
        model = GmrfModel.from_laplacian(lap, num_classes)
        rng = np.random.default_rng(60 + num_classes)
        folds = 0
        worst = 0.0
        for step in range(140):
            if step == 1:
                model.square_sums()  # carried from here on
            before = model._t
            model.observe(int(rng.choice(model.unlabeled)), int(rng.integers(num_classes)))
            folds += model._t < before
            G = model.G
            assert np.array_equal(G, G.T)
            for carried, built in ((model.diagonal, np.diagonal(G)),
                                   (model.row_sums, G.sum(axis=0)),
                                   (model.square_sums(), (G * G).sum(axis=0))):
                worst = max(worst, float(np.max(np.abs(carried - built) / np.abs(built))))
        assert folds == 139 // model._V.shape[0]
        assert model._V.shape[0] == (18 if fold_rows else 128)
        assert worst <= 1e-10

    def test_shared_inverse_is_never_written_and_read_only(self, monkeypatch):
        # every model of the experiment aliases the one inverse, V folds
        # every 4 rows, and vm and msd carry their column sums of squares
        monkeypatch.setattr(gmrf, "_FOLD_MIN_ROWS", 4)
        inverses = []
        inverse = bench.spd_inverse

        def kept(matrix, **kwargs):
            inverses.append(inverse(matrix, **kwargs))
            return inverses[-1]

        monkeypatch.setattr(bench, "spd_inverse", kept)
        strategies = [Strategy(kind) for kind in ("tv", "vm", "msd", "fl", "random")]
        cfg = ExperimentConfig("grid:6x6", strategies, budget=30, runs=2, seed=3)
        run_experiment(cfg)
        [shared] = inverses
        fresh = spd_inverse(regularized_laplacian(grid_graph(6, 6, seed=3).graph,
                                                  cfg.delta).matrix)
        assert shared.tobytes() == fresh.tobytes()
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 0.0

    def test_writing_the_callers_G_leaves_the_model_unchanged(self):
        G = spd_inverse(random_lap(np.random.default_rng(61), 10).matrix)
        model = GmrfModel.from_inverse(G, 2)
        model.observe(4, 1)
        before = model.G, model.means.copy(), model.row_sums.copy(), model.diagonal.copy()
        G[...] = 7.0
        model.observe(7, 0)
        fresh = GmrfModel.from_inverse(spd_inverse(random_lap(np.random.default_rng(61),
                                                              10).matrix), 2)
        fresh.observe(4, 1)
        for a, b in zip(before, (fresh.G, fresh.means, fresh.row_sums, fresh.diagonal)):
            assert np.array_equal(a, b)
        fresh.observe(7, 0)
        assert np.array_equal(model.means, fresh.means)
        assert np.array_equal(model.G, fresh.G)
        # a read-only G is aliased, not copied
        G.flags.writeable = False
        assert GmrfModel.from_inverse(G, 2)._base is G


class TestCopy:
    """``copy()`` is an independent model in the same state over the same ``G_0``."""

    @staticmethod
    def source(carry, num_classes):
        """A model whose first steps carried what ``carry`` names; "fold" is
        a 12x12 grid past its fold at 128 rows of V, carrying G and the
        column sums of squares, and the others a 30-node graph."""
        rng = np.random.default_rng(80 + num_classes)
        if carry == "fold":
            lap = regularized_laplacian(grid_graph(12, 12, seed=4).graph, 0.005)
        else:
            lap = random_lap(rng, 30)
        model = GmrfModel.from_laplacian(lap, num_classes)
        steps = 130 if carry == "fold" else 3
        for step in range(steps):
            model.observe(int(rng.choice(model.unlabeled)), int(rng.integers(num_classes)))
            if step == 0 and carry in ("G", "fold"):
                model.rows()
            if step == 0 and carry in ("squares", "fold"):
                model.square_sums()
        assert (carry == "fold") == (model._t < steps)
        return model, rng

    @staticmethod
    def state(model) -> list:
        """Every array the model's later steps read or write, without reading
        anything that would start a carry."""
        return [model.unlabeled, model.means, model.row_sums, model.diagonal, model.G,
                model._fields, model._unlabeled_mask, model._V[:model._t],
                model._G, model._squares, model.labeled, model._t]

    @staticmethod
    def assert_same(xs, ys):
        for x, y in zip(xs, ys, strict=True):
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes() and x.shape == y.shape
            else:
                assert x == y

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("carry", ["none", "G", "squares", "fold"])
    def test_copy_follows_its_source_bit_for_bit(self, carry, num_classes):
        model, rng = self.source(carry, num_classes)
        twin = model.copy()
        assert list(vars(twin)) == list(vars(model))  # every attribute, in one order
        assert twin._base is model._base and not twin._base.flags.writeable
        # the carried G is a read-only value, shared as G_0 is
        assert twin._G is model._G
        for G in (model.G, twin.G):
            with pytest.raises(ValueError, match="read-only"):
                G[0, 0] = 0.0
        for name in ("_fields", "_unlabeled_mask", "_V", "_squares"):
            a, b = getattr(model, name), getattr(twin, name)
            assert (a is None) == (b is None)
            assert a is None or not np.shares_memory(a, b)
        assert twin._V.shape == model._V.shape
        self.assert_same(self.state(model), self.state(twin))
        while model.num_unlabeled > 1:
            node, class_id = int(rng.choice(model.unlabeled)), int(rng.integers(num_classes))
            model.observe(node, class_id)
            twin.observe(node, class_id)
            self.assert_same(self.state(model), self.state(twin))
        assert model.square_sums().tobytes() == twin.square_sums().tobytes()

    @pytest.mark.parametrize("carry", ["none", "G", "squares", "fold"])
    def test_observing_a_copy_leaves_the_source_untouched(self, carry):
        # and the reverse: observing the source leaves a second copy, which
        # shares its carried G, byte-identical
        def kept(m):
            return [a.copy() if isinstance(a, (np.ndarray, dict)) else a for a in self.state(m)]

        def walk(m):
            for node in rng.permutation(m.unlabeled)[:12]:
                m.observe(int(node), int(rng.integers(3)))
            m.square_sums()
            m.rows()

        model, rng = self.source(carry, 3)
        twin, other = model.copy(), model.copy()
        kept_model, kept_other = kept(model), kept(other)
        walk(twin)
        self.assert_same(self.state(model), kept_model)
        walk(model)
        self.assert_same(self.state(other), kept_other)

    def test_copy_checks_nothing_again(self, monkeypatch):
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(83), 12), 2)

        def no_check(*args):
            raise AssertionError("G checked again")

        monkeypatch.setattr(gmrf, "_require_symmetric", no_check)
        twin = model.copy()
        twin.observe(3, 1)


class TestPosteriorAndPredict:
    def test_posterior_values(self):
        lap = two_node_lap()
        model = GmrfModel.from_laplacian(lap, 2)
        assert soft_labels(model.mu)[0] == 0.5
        mu = np.array([1.0, 0.0])
        model = GmrfModel(model.G, np.stack([-mu, mu]))
        assert soft_labels(model.mu)[0] == 1.0

    def test_posterior_from_two_node_observation(self):
        model = GmrfModel.from_laplacian(two_node_lap(), 2)
        model.observe(0, 1)
        p_plus = soft_labels(model.mu)[model.position(1)]
        assert p_plus == pytest.approx((1 / 1.1 + 1) / 2, abs=1e-12)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_soft_labels_in_place_match_the_clip_expression(self, num_classes):
        # the kl scan writes the soft labels over its block of means
        rng = np.random.default_rng(41)
        edges = [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 1.0 + 2e-16,
                 -1.0 - 2e-16, 1.0 - 2**-53, -1.0 + 2**-53, 0.0, -0.0, np.nan]
        row = np.concatenate([edges, rng.uniform(-1.3, 1.3, 40)])
        means = (np.stack([-row, row]) if num_classes == 2
                 else np.stack([row, rng.permutation(row), -row]))
        expected = np.clip((means + 1.0) / 2.0, 0.0, 1.0).tobytes()
        before = means.tobytes()
        fresh = soft_labels(means)
        assert not np.shares_memory(fresh, means) and means.tobytes() == before
        assert fresh.tobytes() == expected
        assert soft_labels(means, out=means) is means
        assert means.tobytes() == expected

    def test_predict_signs_and_tie(self):
        lap = two_node_lap()
        G = spd_inverse(lap.matrix)
        for mu, expected in (([0.2, -0.3], {0: 1, 1: 0}), ([0.0, 0.0], {0: 0, 1: 0})):
            mu = np.array(mu)
            model = GmrfModel(G, np.stack([-mu, mu]))
            assert model.predict() == expected

    def test_flip_symmetry_of_predictions(self):
        rng = np.random.default_rng(11)
        lap = random_lap(rng, 12)
        pos_model = GmrfModel.from_laplacian(lap, 2)
        neg_model = GmrfModel.from_laplacian(lap, 2)
        for node in (0, 5, 8):
            class_id = 1 if node != 5 else 0
            pos_model.observe(node, class_id)
            neg_model.observe(node, 1 - class_id)
        preds_pos, preds_neg = pos_model.predict(), neg_model.predict()
        for node, m in zip(pos_model.unlabeled, pos_model.mu):
            if abs(m) > DECISION_ATOL:
                assert preds_pos[int(node)] != preds_neg[int(node)]


class TestPartitionIdentity:
    def test_blocked_inverse_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(6, 25))
            lap = random_lap(rng, n)
            C = np.linalg.inv(lap.matrix)
            size_l = int(rng.integers(1, n))
            perm = rng.permutation(n)
            lab = sorted(int(i) for i in perm[:size_l])
            unl = sorted(int(i) for i in perm[size_l:])
            lhs = C[np.ix_(unl, lab)] @ np.linalg.inv(C[np.ix_(lab, lab)])
            rhs = -np.linalg.solve(lap.matrix[np.ix_(unl, unl)], lap.matrix[np.ix_(unl, lab)])
            assert np.abs(lhs - rhs).max() < 1e-8


class TestMulticlass:
    def test_two_class_matches_binary(self):
        # C = 2 is the binary field: means[1] is the +/-1 field of class 1,
        # means[0] its exact negation, and mu a read-only view of means[1]
        rng = np.random.default_rng(13)
        n = 10
        lap = random_lap(rng, n)
        model = GmrfModel.from_laplacian(lap, 2)
        for node in rng.permutation(n)[: n - 1]:
            model.observe(int(node), int(rng.integers(2)))
            assert np.array_equal(model.means[0], -model.means[1])
            assert np.shares_memory(model.mu, model.means[1])
            assert np.array_equal(model.mu, model.means[1])
            with pytest.raises(ValueError, match="read-only"):
                model.mu[0] = 0.5
            direct = conditional_mean_direct(lap, signed(model.labeled))
            assert np.abs(model.means[1] - direct).max() < 1e-8
        assert model.num_unlabeled == 1

    def test_three_communities_classified_from_one_label_each(self):
        lg = community_graph((60, 60, 60), 0.5, 0.001, seed=3)
        lap = regularized_laplacian(lg.graph, 0.005)
        mm = GmrfModel.from_laplacian(lap, 3)
        for node in (0, 60, 120):
            mm.observe(node, lg.labels[node])
        preds = mm.predict()
        assert all(lg.labels[n] == c for n, c in preds.items())

    def test_invalid_class_rejected(self):
        rng = np.random.default_rng(15)
        mm = GmrfModel.from_laplacian(random_lap(rng, 6), 3)
        with pytest.raises(ValueError, match="class id"):
            mm.observe(0, 3)

    def test_shared_inverse_is_bit_identical_to_per_class_fields(self):
        rng = np.random.default_rng(16)
        lap = random_lap(rng, 12)
        G = spd_inverse(lap.matrix)
        mm = GmrfModel.from_inverse(G, 3)
        fields = [GmrfModel.from_inverse(G, 2) for _ in range(3)]
        for node, cls in ((2, 1), (6, 0), (11, 2), (0, 1), (7, 2)):
            mm.observe(node, cls)
            for c, field in enumerate(fields):
                field.observe(node, 1 if c == cls else 0)
            means = mm.class_means()
            for c, field in enumerate(fields):
                assert np.array_equal(mm.G, field.G)
                assert np.array_equal(means[c], field.mu)
                assert np.array_equal(mm.unlabeled, field.unlabeled)
        assert mm.labeled == {2: 1, 6: 0, 11: 2, 0: 1, 7: 2}

    def test_binary_field_methods_reject_more_classes(self):
        rng = np.random.default_rng(19)
        mm = GmrfModel.from_laplacian(random_lap(rng, 6), 3)
        assert mm.mu is None

    def test_class_means_is_a_copy(self):
        rng = np.random.default_rng(17)
        mm = GmrfModel.from_laplacian(random_lap(rng, 6), 3)
        snapshot = mm.class_means()
        mm.observe(1, 2)
        assert snapshot.shape == (3, 6)
        assert not snapshot.any()


class TestClassDecision:
    def test_minority_class_node_next_to_its_label(self):
        lg = community_graph((10, 10, 10), 0.6, 0.05, seed=0)
        lap = regularized_laplacian(lg.graph, 0.2)
        mm = GmrfModel.from_laplacian(lap, 3)
        for node in (0, 1, 2, 3, 10, 20):  # class 0 holds four of six labels
            mm.observe(node, lg.labels[node])
        assert lap.matrix[20, 21] != 0 and lg.labels[21] == lg.labels[20] == 2
        # the plain argmax over the means votes for the majority class here
        assert np.argmax(mm.means[:, mm.position(21)]) == 0
        preds = mm.predict()
        assert preds[21] == 2
        hits = sum(lg.labels[n] == c for n, c in preds.items())
        assert accuracy(mm, lg.labels) == hits / len(preds)

    def test_one_observed_class_no_warning_and_unlabeled_classes_tie_low(self):
        rng = np.random.default_rng(18)
        mm = GmrfModel.from_laplacian(random_lap(rng, 10), 4)
        mm.observe(3, 2)
        assert np.array_equal(mm.means[0], mm.means[1])
        assert np.array_equal(mm.means[0], mm.means[3])
        with np.errstate(all="raise"):
            preds = mm.predict()
        assert set(preds.values()) <= {0, 2}
        assert 0 in set(preds.values())

    def test_binary_tie_band_goes_to_class_0(self):
        # rounding puts a mean that is 0 in exact arithmetic at about +/-1e-15
        mu = np.array([1e-15, -1e-15, 0.0, DECISION_ATOL, 2e-12, -2e-12])
        assert class_decision(np.stack([-mu, mu])).tolist() == [0, 0, 0, 0, 1, 0]

    def test_class_without_mass_never_predicted(self):
        # class 0 has zero mass; in the last column every class scores at most 0
        means = np.array([[-1.0, -1.0, -1.0, -1.0],
                          [0.2, -0.5, -0.9, -1.0],
                          [-0.3, 0.1, -0.95, -1.0]])
        with np.errstate(all="raise"):
            winners = class_decision(means)
        # masses 1.8 and 1.85: column 2 scores 0.1/1.8 against 0.05/1.85
        assert winners.tolist() == [1, 2, 1, 1]


class TestMulticlassRulesMatchFormerFormulas:
    """``class_decision`` (C >= 3) and the tv / msd class spread divide in
    place and pick the winner by row comparisons; both equal the former
    masked formulas bit for bit."""

    @staticmethod
    def fuzzed_means(rng, cases):
        """Seeded ``(C, |U|)`` means, C >= 3, with the edge cases of the
        multi-class rules: a class with no mass, means exactly at -1,
        classes tied exactly, and nodes whose soft labels are all 0."""
        for case in range(cases):
            c, m = int(rng.integers(3, 6)), int(rng.integers(1, 30))
            means = rng.uniform(-1.4, 1.2, (c, m))
            if case % 2:  # means exactly at -1
                means[rng.random((c, m)) < 0.3] = -1.0
            if case % 3 == 0:  # a class with no mass
                means[rng.integers(c)] = -1.0 - rng.uniform(0.0, 0.2, m)
            if case % 4 == 0:  # two classes tied exactly, at every node or at some
                a, b = rng.choice(c, 2, replace=False)
                tied = np.ones(m, dtype=bool) if case % 8 == 0 else rng.random(m) < 0.5
                means[b, tied] = means[a, tied]
            if case % 5 == 0:  # nodes whose soft labels are all 0
                means[:, rng.random(m) < 0.3] = -1.0
            yield means

    def test_class_decision(self):
        def former(means):
            soft = np.maximum(means + 1.0, 0.0)
            mass = soft.sum(axis=1, keepdims=True)
            scores = np.divide(soft, mass, out=np.full_like(soft, -np.inf),
                               where=mass > 0.0)
            return np.argmax(scores, axis=0)

        for means in self.fuzzed_means(np.random.default_rng(19), 2000):
            with np.errstate(all="raise"):
                winners = class_decision(means)
            assert winners.dtype == np.intp
            assert np.array_equal(winners, former(means))

    def test_class_spread(self):
        def former(means):
            c = means.shape[0]
            shifted = soft_labels(means)
            total = shifted.sum(axis=0)
            safe = np.where(total > 0, total, 1.0)
            pbar = np.where(total > 0, shifted / safe, 1.0 / c)
            return c - (pbar * pbar).sum(axis=0)

        for means in self.fuzzed_means(np.random.default_rng(23), 2000):
            model = SimpleNamespace(means=means, num_classes=means.shape[0])
            with np.errstate(all="raise"):
                spread = strategies._class_spread(model)
            assert spread.tobytes() == former(means).tobytes()


class TestStepMatchesFormerMatmul:
    """observe fetches the row ``G_0[k] - V[:, k] @ V`` and moves the carried
    column sums of squares through ``np.dot``; the step column, the diagonal
    and the sums equal the former matmul expressions bit for bit at every
    ``t`` up to the fold size and across one fold."""

    @pytest.mark.parametrize("source, num_classes, steps", [
        (lambda: grid_graph(12, 12, seed=2), 2, 143),  # V folds at t = 128
        (lambda: community_graph([90, 100, 110], 0.15, 0.006, seed=6), 3, 140),
    ], ids=["grid-12x12", "community-300"])
    def test_step_column_and_carried_sums(self, source, num_classes, steps):
        rng = np.random.default_rng(num_classes)
        lg = source()
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.005), num_classes)
        model.square_sums()  # carried from here on
        folds = 0
        for node in rng.permutation(lg.graph.n)[:steps]:
            node = int(node)
            gkk = model.pivot(model.position(node))
            mask = model._unlabeled_mask.copy()
            diagonal, squares = model._fields[-1].copy(), model._squares.copy()
            full = model._t == model._V.shape[0]
            model.observe(node, int(rng.integers(num_classes)))
            folds += full
            base, t = model._base, model._t - 1
            V, s = model._V[:t], model._V[t]
            assert t == 0 or not full
            expected = (base[node] - V[:, node] @ V) * mask / np.sqrt(gkk)
            assert s.tobytes() == expected.tobytes(), t
            square = s * s
            assert model._fields[-1].tobytes() == (diagonal - square).tobytes(), t
            Gs = base @ s
            Gs -= (V @ s) @ V
            Gs *= s
            scipy.linalg.blas.daxpy(Gs, squares, a=-2.0)
            scipy.linalg.blas.daxpy(square, squares, a=square.sum())
            assert model._squares.tobytes() == squares.tobytes(), t
        assert folds == 1


def cho_solve_inverse(M):
    """The former spd_inverse: ``cho_solve`` against I, then ``(inv + inv.T) / 2``."""
    factor = scipy.linalg.cho_factor(M, lower=True)
    inv = scipy.linalg.cho_solve(factor, np.eye(M.shape[0]))
    return (inv + inv.T) / 2.0


def column_loop_inverse(M):
    """The former spd_inverse's mirror: a Fortran-order copy, ``dpotrf``,
    ``gmrf._invert_lower`` and ``dlauum`` in place, then one mirror copy per
    column."""
    work = np.array(M, order="F")
    work, info = scipy.linalg.lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1)
    assert info == 0
    assert gmrf._invert_lower(work) == 0
    work, info = scipy.linalg.lapack.dlauum(work, lower=1, overwrite_c=1)
    assert info == 0
    for j in range(1, work.shape[0]):
        work[:j, j] = work[j, :j]
    return work.T


def lapack_inverse(M):
    """The inverse by ``dpotrf`` and ``dpotri``, its lower triangle mirrored."""
    work, info = scipy.linalg.lapack.dpotrf(np.array(M, order="F"), lower=1, clean=0)
    assert info == 0
    work, info = scipy.linalg.lapack.dpotri(work, lower=1)
    assert info == 0
    return np.tril(work) + np.tril(work, -1).T


def _no_lapack(*args, **kwargs):
    raise AssertionError("LAPACK ran before the input was checked")


def _read_only(a):
    a.flags.writeable = False
    return a


class TestSpdHelpers:
    def test_spd_inverse_symmetry(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(12, 12))
        M = A @ A.T + 12 * np.eye(12)
        inv = spd_inverse(M)
        assert np.array_equal(inv, inv.T)
        assert np.abs(inv @ M - np.eye(12)).max() < 1e-8

    @pytest.mark.parametrize("spec, seed", [
        ("grid:10x10", 7), ("community:75,105,120:pin=0.15:pout=0.006", 11), ("grid:20x20", 3),
    ], ids=["n100", "n300", "n400"])
    def test_matches_former_cholesky_solve_and_is_exactly_symmetric(self, spec, seed):
        M = regularized_laplacian(from_spec(spec, seed=seed).graph, 0.005).matrix
        G = spd_inverse(M)
        ref = cho_solve_inverse(M)
        assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(G, G.T)
        assert G.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 300, 400])
    def test_blocked_mirror_matches_former_column_loop(self, n):
        # block edges at multiples of gmrf._MIRROR_BLOCK (64), and a dense
        # inverse, so every entry of the upper triangle is mirrored
        A = np.random.default_rng(n).normal(size=(n, n))
        S = A @ A.T
        M = (S + S.T) / 2.0 + n * np.eye(n)
        G = spd_inverse(M)
        expected = column_loop_inverse(M)
        assert np.array_equal(G, expected)
        assert np.array_equal(G, G.T)
        assert G.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 100, 128, 129, 257, 300, 400])
    def test_triangular_inverse_matches_lapack(self, n):
        # n <= gmrf._INV_LEAF (64) is one dtrtri, so dpotri's bits; above it
        # the halves are uneven (65 = 32 + 33, 257 = 128 + 129) and so are
        # the leaves (300 -> 150 -> 75 -> 37 + 38)
        A = np.random.default_rng(n).normal(size=(n, n))
        M = A @ A.T + n * np.eye(n)
        M = (M + M.T) / 2.0
        factor, info = scipy.linalg.lapack.dpotrf(np.array(M, order="F"), lower=1, clean=1)
        assert info == 0
        expected, info = scipy.linalg.lapack.dtrtri(factor, lower=1)
        assert info == 0
        work = factor.copy(order="F")
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        work[upper] = 7.25  # a wrong offset into the buffer would write here
        assert gmrf._invert_lower(work) == 0
        assert (work[upper] == 7.25).all()
        inverse = np.tril(work)
        ref = lapack_inverse(M)
        G = spd_inverse(M)
        if n <= gmrf._INV_LEAF:
            assert np.array_equal(inverse, expected)
            assert np.array_equal(G, ref)
        else:
            assert np.abs(inverse - expected).max() <= 1e-14 * np.abs(expected).max()
            assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("make", [
        lambda: np.eye(4),
        lambda: np.eye(4, 3, order="F"),
        lambda: np.eye(4, dtype=np.float32, order="F"),
        lambda: np.eye(8, order="F")[::2, ::2],
        lambda: _read_only(np.eye(4, order="F")),
    ], ids=["C-order", "not-square", "float32", "strided", "read-only"])
    def test_triangular_inverse_rejects_a_buffer_it_cannot_address(self, make):
        work = make()
        kept = work.copy()
        with pytest.raises(ValueError, match="writeable, Fortran-order float64"):
            gmrf._invert_lower(work)
        assert np.array_equal(work, kept)

    @pytest.mark.parametrize("layout, overwrite_a", [
        ("C", False), ("F", False), ("read-only", False),
        ("F", True), ("read-only", True), ("integer", True),
    ], ids=["C", "F", "read-only", "F-overwrite", "read-only-overwrite", "integer-overwrite"])
    def test_input_never_written(self, layout, overwrite_a):
        # overwrite_a takes over only a C-contiguous, writeable float64
        # input; any other input is copied
        M = random_lap(np.random.default_rng(21), 30).matrix
        if layout == "integer":  # strictly diagonally dominant, so positive definite
            M = 30 * np.eye(30, dtype=np.int64) - np.add.outer(np.arange(30), np.arange(30)) % 2
        expected = spd_inverse(M.astype(float))
        if layout == "F":
            M = np.asfortranarray(M)
        kept = M.copy()
        if layout == "read-only":
            M.flags.writeable = False
        G = spd_inverse(M, overwrite_a=overwrite_a)
        assert np.array_equal(M, kept)
        assert np.array_equal(G, expected)
        assert not np.shares_memory(G, M)

    def test_overwrite_a_inverts_a_c_contiguous_float_input_in_place(self):
        # n = 70 crosses a mirror block edge
        M = random_lap(np.random.default_rng(25), 70).matrix
        expected = spd_inverse(M)
        G = spd_inverse(M, overwrite_a=True)
        assert np.shares_memory(G, M)
        assert G.flags.c_contiguous
        assert G.tobytes() == expected.tobytes()
        messages = []
        for overwrite_a in (False, True):
            with pytest.raises(ValueError, match="not positive definite") as info:
                spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]), overwrite_a=overwrite_a)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_not_positive_definite_past_a_split_names_its_minor(self):
        # n = 130 splits into 65 + 65; the first 99 pivots are positive and
        # the 100th is about -1
        M = np.random.default_rng(130).normal(scale=1e-3, size=(130, 130))
        M = M + M.T + 130.0 * np.eye(130)
        M[99, 99] = -1.0
        messages = []
        for overwrite_a in (False, True):
            with pytest.raises(ValueError, match="not positive definite") as info:
                spd_inverse(M.copy(), overwrite_a=overwrite_a)
            messages.append(str(info.value))
        assert messages == ["matrix is not positive definite: 100-th leading minor "
                            "of the array is not positive definite"] * 2

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_non_square_rejected_before_lapack(self, monkeypatch, shape):
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", _no_lapack)
        for overwrite_a in (False, True):
            with pytest.raises(ValueError, match="must be square"):
                spd_inverse(np.ones(shape), overwrite_a=overwrite_a)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(3, 0), (0, 3)], ids=["lower", "upper"])
    def test_non_finite_rejected_before_lapack(self, monkeypatch, value, where):
        # dpotrf reads the lower triangle only; an upper entry must not slip by
        M = random_lap(np.random.default_rng(22), 5).matrix
        M[where] = value
        kept = M.copy()
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", _no_lapack)
        for overwrite_a in (False, True):
            with pytest.raises(ValueError, match="non-finite"):
                spd_inverse(M, overwrite_a=overwrite_a)
            assert np.array_equal(M, kept, equal_nan=True)

    def test_asymmetric_rejected_before_lapack(self, monkeypatch):
        # dpotrf would read the upper triangle only and invert [[2, .5], [.5, 2]]
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", _no_lapack)
        with pytest.raises(ValueError, match=r"^matrix is not exactly symmetric: "
                                             r"matrix\[0, 1\] = 0.5 but matrix\[1, 0\] = -0.7$"):
            spd_inverse([[2.0, 0.5], [-0.7, 2.0]])
        M = random_lap(np.random.default_rng(23), 6).matrix
        M[4, 1] = np.nextafter(M[4, 1], np.inf)
        with pytest.raises(ValueError, match=r"^matrix is not exactly symmetric: matrix\[1, 4\]"):
            spd_inverse(M)

    @pytest.mark.parametrize("where", [(5, 40), (70, 100), (128, 129), (3, 129), (128, 128)],
                             ids=["first-panel", "middle-panel", "last-partial-panel",
                                  "last-column", "diagonal"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_blocked_check_agrees_with_the_whole_transpose(self, where, side):
        # panels of 64 rows at n=130: [0, 64), [64, 128) and [128, 130)
        A = np.random.default_rng(130).normal(size=(130, 130))
        S = A + A.T
        i, j = where if side == "upper" else where[::-1]
        S[i, j] = np.nextafter(S[i, j], np.inf)
        if np.array_equal(S, S.T):
            gmrf._require_symmetric(S, "S")
        else:
            first = min((i, j), (j, i))  # the first unequal pair in row order
            with pytest.raises(ValueError, match=rf"^S is not exactly symmetric: "
                                                 rf"S\[{first[0]}, {first[1]}\]"):
                gmrf._require_symmetric(S, "S")

    def test_empty_matrix_has_empty_inverse(self):
        assert spd_inverse(np.zeros((0, 0))).shape == (0, 0)

    def test_peak_memory_is_one_working_buffer(self):
        M = regularized_laplacian(grid_graph(20, 20, seed=3).graph, 0.005).matrix
        n = M.shape[0]
        spd_inverse(M)  # first call loads what it needs outside the measurement
        tracemalloc.start()
        try:
            spd_inverse(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the former cho_solve(I) path peaked at 3.0 n^2 doubles above M
        assert peak <= 1.1 * 8 * n * n
