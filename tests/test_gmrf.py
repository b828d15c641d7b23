"""Field-model state: initialization, rank-one updates, predictions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrf_active import (
    ExperimentConfig,
    Graph,
    GmrfModel,
    community_graph,
    conditional_mean_direct,
    from_spec,
    regularized_laplacian,
    run_experiment,
    spd_inverse,
)
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

    @pytest.mark.parametrize("unlabeled, labeled, G, means, name", [
        ([0, 1], {}, np.eye(3), np.zeros((2, 2)), "G"),
        ([1, 0], {}, np.eye(2), np.zeros((2, 2)), "unlabeled"),
        ([0, 1], {1: 0}, np.eye(2), np.zeros((2, 2)), "labeled"),
        ([0, 1], {}, np.eye(2), np.zeros((2, 3)), "means"),
    ], ids=["G", "unlabeled", "labeled", "means"])
    def test_inconsistent_state_rejected(self, unlabeled, labeled, G, means, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            GmrfModel(unlabeled, labeled, G, means)

    def test_non_pd_rejected(self):
        lap = two_node_lap()
        lap.matrix = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError, match="positive definite"):
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

    def test_empty_label_set_rejected(self):
        with pytest.raises(ValueError, match="at least one labeled"):
            conditional_mean_direct(two_node_lap(), {})

    def test_all_labeled_rejected(self):
        with pytest.raises(ValueError, match="unlabeled set is empty"):
            conditional_mean_direct(two_node_lap(), {0: 1.0, 1: -1.0})


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
        GmrfModel(model.unlabeled, model.labeled, model.G, model.means)
        assert np.diagonal(model.G).min() > 0
        assert np.abs(model.G - model.G.T).max() < 1e-10

    def test_zero_innovation_leaves_mean_unchanged(self):
        # apply the update formula with the current mean in place of a label
        rng = np.random.default_rng(6)
        lap = random_lap(rng, 8)
        model = GmrfModel.from_laplacian(lap, 2)
        model.observe(0, 1)
        pos = model.position(3)
        updated = model.mu + ((model.mu[pos] - model.mu[pos]) / model.G[pos, pos]) * model.G[:, pos]
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
        with pytest.raises(ValueError, match="-1 or \\+1"):
            model.hypothetical_mean(0, 0.5)

    def test_degenerate_pivot_rejected(self):
        model = GmrfModel.from_laplacian(two_node_lap(), 2)
        model.G[0, 0] = 1e-15
        with pytest.raises(ValueError, match="degenerate pivot"):
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
    """``observe`` against the delete-after-update formula, bit for bit.

    The reference moves every row ``r`` of ``G`` and of the means to
    ``r - (r_k - t) g_k / g_kk`` on the full state and deletes entry ``k``
    afterwards.
    """

    @staticmethod
    def reference_step(G, pos, gkk):
        gk = G[:, pos].copy()
        shrunk = np.delete(np.delete(G - np.outer(gk, gk) / gkk, pos, 0), pos, 1)
        return gk, shrunk

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
            gk, G_ref = self.reference_step(G_ref, pos, gkk)
            label = draw_label(rng)
            ref = update_ref(ref, pos, gk, gkk, label)
            model.observe(int(ids[pos]), label)
            ids = np.delete(ids, pos)
            assert np.array_equal(held, held_copy)
            assert np.array_equal(model.G, G_ref)
            assert np.array_equal(state(model), ref)
            assert np.array_equal(model.unlabeled, ids)
        assert model.G.shape == (0, 0)
        with pytest.raises(ValueError, match="no unlabeled nodes"):
            select(Strategy("tv"), model, 2, rng)

    def test_binary_matches_delete_formula(self):
        lap = random_lap(np.random.default_rng(10), 11)
        passed = spd_inverse(lap.matrix)
        kept = passed.copy()

        def update_ref(mu, pos, gk, gkk, class_id):
            value = 2.0 * class_id - 1.0
            return np.delete(mu - ((mu[pos] - value) * gk) / gkk, pos)

        for model in (GmrfModel.from_inverse(passed, 2),
                      GmrfModel(np.arange(11), {}, passed, np.zeros((2, 11)))):
            self.check_observe_sequence(
                model, lambda m: m.mu,
                lambda rng: 1 if rng.random() < 0.5 else 0, update_ref)
            assert np.array_equal(passed, kept)

    def test_multiclass_matches_delete_formula(self):
        lap = random_lap(np.random.default_rng(11), 10)
        passed = spd_inverse(lap.matrix)
        kept = passed.copy()

        def update_ref(means, pos, gk, gkk, class_id):
            values = np.full(3, -1.0)
            values[class_id] = 1.0
            moved = means - np.multiply.outer(means[:, pos] - values, gk) / gkk
            return np.delete(moved, pos, axis=1)

        for model in (GmrfModel.from_inverse(passed, 3),
                      GmrfModel(np.arange(10), {}, passed, np.zeros((3, 10)))):
            self.check_observe_sequence(
                model, lambda m: m.means, lambda rng: int(rng.integers(3)), update_ref)
            assert np.array_equal(passed, kept)


class TestCarriedRowSums:
    """``row_sums`` follows ``G 1`` and ``G`` stays exactly symmetric."""

    def test_starts_as_column_l1_norms(self):
        G = spd_inverse(random_lap(np.random.default_rng(14), 9).matrix)
        model = GmrfModel.from_inverse(G, 3)
        assert np.array_equal(model.row_sums, np.abs(G).sum(axis=0))

    def test_step_is_the_means_step_with_target_zero(self):
        # one rule for every row: r' = r_{-k} - (r_k - t) g_k / g_kk
        model = GmrfModel.from_laplacian(random_lap(np.random.default_rng(13), 9), 2)
        model.observe(3, 1)
        s, m, G = model.row_sums.copy(), model.means.copy(), model.G.copy()
        pos = model.position(6)
        model.observe(6, 0)
        g, gkk = G[:, pos], G[pos, pos]
        assert np.array_equal(model.row_sums, np.delete(s - ((s[pos] - 0.0) * g) / gkk, pos))
        moved = m - np.multiply.outer(m[:, pos] - np.array([1.0, -1.0]), g) / gkk
        assert np.array_equal(model.means, np.delete(moved, pos, axis=1))

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


class TestHypotheticalMean:
    def test_difference_parallel_to_column(self):
        rng = np.random.default_rng(8)
        lap = random_lap(rng, 9)
        model = GmrfModel.from_laplacian(lap, 2)
        model.observe(1, 1)
        pos = model.position(4)
        diff = model.hypothetical_mean(4, -1.0) - model.mu
        col = model.G[:, pos]
        # diff = c * col for the scalar taken at the pivot entry
        c = diff[pos] / col[pos]
        assert np.abs(diff - c * col).max() < 1e-12

    def test_l1_norm_identity(self):
        rng = np.random.default_rng(9)
        lap = random_lap(rng, 11)
        model = GmrfModel.from_laplacian(lap, 2)
        model.observe(0, 0)
        for node in (3, 7):
            pos = model.position(node)
            for value in (1.0, -1.0):
                diff = model.hypothetical_mean(node, value) - model.mu
                expected = (
                    abs(value - model.mu[pos])
                    * np.abs(model.G[:, pos]).sum()
                    / model.G[pos, pos]
                )
                assert np.abs(diff).sum() == pytest.approx(expected, abs=1e-8)

    def test_does_not_mutate_and_counts(self):
        model = GmrfModel.from_laplacian(two_node_lap(), 2)
        before = model.mu.copy()
        assert model.retrain_calls == 0
        model.hypothetical_mean(0, 1.0)
        assert model.retrain_calls == 1
        assert np.array_equal(model.mu, before)

    def test_pivot_entry_equals_value(self):
        rng = np.random.default_rng(10)
        lap = random_lap(rng, 7)
        model = GmrfModel.from_laplacian(lap, 2)
        model.observe(2, 1)
        pos = model.position(5)
        mu_plus = model.hypothetical_mean(5, -1.0)
        assert mu_plus[pos] == pytest.approx(-1.0, abs=1e-12)


class TestPosteriorAndPredict:
    def test_posterior_values(self):
        lap = two_node_lap()
        model = GmrfModel.from_laplacian(lap, 2)
        assert soft_labels(model.mu)[0] == 0.5
        mu = np.array([1.0, 0.0])
        model = GmrfModel(model.unlabeled, {}, model.G, np.stack([-mu, mu]))
        assert soft_labels(model.mu)[0] == 1.0

    def test_posterior_from_two_node_observation(self):
        model = GmrfModel.from_laplacian(two_node_lap(), 2)
        model.observe(0, 1)
        p_plus = soft_labels(model.mu)[model.position(1)]
        assert p_plus == pytest.approx((1 / 1.1 + 1) / 2, abs=1e-12)

    def test_predict_signs_and_tie(self):
        lap = two_node_lap()
        G = spd_inverse(lap.matrix)
        for mu, expected in (([0.2, -0.3], {0: 1, 1: 0}), ([0.0, 0.0], {0: 0, 1: 0})):
            mu = np.array(mu)
            model = GmrfModel([0, 1], {}, G, np.stack([-mu, mu]))
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
        with pytest.raises(ValueError, match="binary models only"):
            mm.hypothetical_mean(0, 1.0)

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
        assert accuracy(mm, lg.label_vector()) == hits / len(preds)

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


class TestSpdHelpers:
    def test_spd_inverse_symmetry(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(12, 12))
        M = A @ A.T + 12 * np.eye(12)
        inv = spd_inverse(M)
        assert np.array_equal(inv, inv.T)
        assert np.abs(inv @ M - np.eye(12)).max() < 1e-8
