"""Utility scores, confidence schedules, and query selection."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmrf_active
from gmrf_active import (
    KINDS,
    Graph,
    GmrfModel,
    Strategy,
    conditional_mean_direct,
    regularized_laplacian,
    score_fl,
    score_kl,
    score_klg,
    score_msd,
    score_sigma_opt,
    score_tv,
    score_unc,
    score_vm,
    select,
    utility_scores,
)
from gmrf_active import strategies
from gmrf_active.checks import random_connected_graph
from gmrf_active.gmrf import DECISION_ATOL, PIVOT_FLOOR, soft_labels
from gmrf_active.graph import community_graph, grid_graph
from gmrf_active.strategies import TIE_ATOL, TIE_RTOL, _bernoulli_kl


def make_lap_model(rng, n, delta=0.005, observed=0):
    lap = regularized_laplacian(random_connected_graph(n, rng), delta)
    model = GmrfModel.from_laplacian(lap, 2)
    for node in rng.permutation(n)[:observed]:
        model.observe(int(node), 1 if rng.random() < 0.5 else 0)
    return lap, model


def make_model(rng, n, delta=0.005, observed=0):
    return make_lap_model(rng, n, delta, observed)[1]


def rank_one_mean(model, pos, value):
    """``mu`` after field value ``value`` at ``pos``: the rank-one step on
    column ``G[:, pos]``."""
    return model.mu + ((value - model.mu[pos]) / model.diagonal[pos]) * model.G[pos]


def retrained_move(lap, model, node, value):
    """Move of ``mu`` over ``model.unlabeled`` when ``node`` takes field value
    ``value``, by a fresh solve; the node's own move is ``value - mu_node``."""
    signed = {k: 2.0 * c - 1.0 for k, c in model.labeled.items()}
    fresh = conditional_mean_direct(lap, {**signed, node: value})
    return np.insert(fresh, model.position(node), value) - model.mu


def single_unlabeled_model(mu_value=0.3):
    # 3-node path, two ends observed -> exactly one unlabeled node, which
    # the rebuilt model names node 0
    lap = regularized_laplacian(Graph(3, {(0, 1): 1.0, (1, 2): 1.0}), 0.1)
    model = GmrfModel.from_laplacian(lap, 2)
    model.observe(0, 1)
    model.observe(2, 0)
    mu = np.array([mu_value])
    return GmrfModel(model.G, np.stack([-mu, mu]))


def model_with_state(mu, G):
    mu = np.asarray(mu, dtype=float)
    return GmrfModel(np.asarray(G, dtype=float), np.stack([-mu, mu]))


class TestStrategyConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            Strategy("entropy")

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            Strategy("tv", confidence="sqrt")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Strategy("tv", confidence="const:1.5")
        for bad in (None, 0.5, b"none"):
            with pytest.raises(ValueError, match="^confidence must be a string spec"):
                Strategy("tv", confidence=bad)

    def test_maxmin_only_for_retraining_kinds(self):
        Strategy("fl", maxmin=True)
        Strategy("kl", maxmin=True)
        with pytest.raises(ValueError, match="maxmin"):
            Strategy("tv", maxmin=True)

    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.bool_(True)])
    def test_maxmin_must_be_a_bool(self, value):
        # "no" is truthy and used to score as maxmin=True
        with pytest.raises(ValueError) as info:
            Strategy("fl", maxmin=value)
        assert str(info.value) == f"maxmin must be a bool, got {value!r}"

    @pytest.mark.parametrize("value", [5, b"x"])
    def test_name_must_be_a_string_or_none(self, value):
        # an int used to fail in ExperimentConfig with
        # "TypeError: argument of type 'int' is not iterable"
        with pytest.raises(ValueError) as info:
            Strategy("tv", name=value)
        assert str(info.value) == f"name must be a string or None, got {value!r}"

    def test_unparsable_confidence_constant_named(self):
        with pytest.raises(ValueError, match="^bad confidence spec 'const:abc'$"):
            Strategy("tv", confidence="const:abc")

    def test_hybrid_scale_kept_as_float(self):
        s = Strategy("tv", hybrid_scale=np.int64(2))
        assert s.hybrid_scale == 2.0 and type(s.hybrid_scale) is float
        assert s == Strategy("tv", hybrid_scale=2.0)

    def test_alpha_schedule(self):
        assert Strategy("tv").alpha(5) == 0.0
        assert Strategy("tv", confidence="inv_sqrt").alpha(4) == 0.5
        assert Strategy("tv", confidence="const:0.25").alpha(99) == 0.25

    def test_confidence_parsed_once_at_construction(self, monkeypatch):
        a = Strategy("tv", confidence="const:0.3")
        b = Strategy("tv", confidence="const:0.3")

        def no_parse(text):
            raise AssertionError("confidence parsed after construction")

        monkeypatch.setattr(strategies, "_parse_confidence", no_parse)
        assert a.alpha(7) == 0.3
        assert a == b and hash(a) == hash(b)
        assert repr(a) == ("Strategy(kind='tv', confidence='const:0.3', hybrid_scale=0.0, "
                           "maxmin=False, name=None)")

    def test_non_finite_or_negative_hybrid_scale_rejected(self):
        for bad in (float("nan"), float("inf"), -0.5, "1", None, True, False):
            with pytest.raises(ValueError, match="hybrid_scale"):
                Strategy("tv", hybrid_scale=bad)

    @pytest.mark.parametrize("schedule", ["alpha", "mixing_probability"])
    @pytest.mark.parametrize("t, message", [
        (0, "t must be >= 1, got 0"),
        (-3, "t must be >= 1, got -3"),
        (True, "t True is not an integer"),
        (1.5, "t 1.5 is not an integer"),
    ])
    def test_schedules_reject_a_bad_iteration(self, schedule, t, message):
        # each returned 1.0 for True, 0 and -3, and a_t for 1.5 was 0.816
        strategy = Strategy("tv", confidence="inv_sqrt", hybrid_scale=2.0)
        with pytest.raises(ValueError) as raised:
            getattr(strategy, schedule)(t)
        assert str(raised.value) == message
        # a constant schedule, which does not read t, checks it too
        with pytest.raises(ValueError, match="^t "):
            getattr(Strategy("tv", confidence="const:0.2"), schedule)(t)

    def test_mixing_schedule_nonincreasing(self):
        s = Strategy("unc", hybrid_scale=1.0)
        values = [s.mixing_probability(t) for t in range(1, 30)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0 <= v <= 1 for v in values)


class TestKlg:
    def test_certain_node_scores_zero(self):
        model = single_unlabeled_model(mu_value=1.0)
        assert score_klg(model, 0) == 0.0

    def test_direct_formula(self):
        model = model_with_state([0.0], [[0.5]])
        assert score_klg(model, 0) == pytest.approx(1.0)

    def test_equals_posterior_weighted_gaussian_divergence(self):
        rng = np.random.default_rng(0)
        model = make_model(rng, 12, observed=3)
        for node in model.unlabeled:
            node = int(node)
            pos = model.position(node)
            gii, mui = model.G[pos, pos], model.mu[pos]
            p_plus = min(max((mui + 1) / 2, 0.0), 1.0)
            expected = p_plus * (1 - mui) ** 2 / (2 * gii) + (1 - p_plus) * (
                -1 - mui
            ) ** 2 / (2 * gii)
            assert score_klg(model, node) == pytest.approx(expected, abs=1e-12)


class TestTv:
    def test_certain_node_scores_zero(self):
        model = single_unlabeled_model(mu_value=-1.0)
        assert score_tv(model, 0) == 0.0

    def test_single_unlabeled_reduces_to_uncertainty(self):
        model = single_unlabeled_model(mu_value=0.3)
        assert score_tv(model, 0) == pytest.approx(2 * (1 - 0.3**2), abs=1e-12)

    def test_retraining_l1_identity_per_label(self):
        rng = np.random.default_rng(1)
        lap, model = make_lap_model(rng, 10, observed=2)
        for node in (int(model.unlabeled[0]), int(model.unlabeled[-1])):
            pos = model.position(node)
            gi, gii, mui = model.G[:, pos], model.G[pos, pos], model.mu[pos]
            for value in (1.0, -1.0):
                diff = retrained_move(lap, model, node, value)
                closed = abs(value - mui) * np.abs(gi).sum() / gii
                assert np.abs(diff).sum() == pytest.approx(closed, abs=1e-8)

    def test_ratio_to_sigma_opt(self):
        rng = np.random.default_rng(2)
        model = make_model(rng, 9, observed=2)
        for node in model.unlabeled:
            node = int(node)
            pos = model.position(node)
            l1 = np.abs(model.G[:, pos]).sum()
            expected = 2 * (1 - model.mu[pos] ** 2) / l1
            ratio = score_tv(model, node) / score_sigma_opt(model, node)
            assert ratio == pytest.approx(expected, abs=1e-12)


class TestMsd:
    def test_certain_node_scores_zero(self):
        model = single_unlabeled_model(mu_value=1.0)
        assert score_msd(model, 0) == 0.0

    def test_single_unlabeled_reduces_to_uncertainty(self):
        model = single_unlabeled_model(mu_value=0.3)
        assert score_msd(model, 0) == pytest.approx(1 - 0.3**2, abs=1e-12)

    def test_proportionality_to_klg(self):
        rng = np.random.default_rng(3)
        model = make_model(rng, 11, observed=3)
        for node in model.unlabeled:
            node = int(node)
            pos = model.position(node)
            gi, gii = model.G[:, pos], model.G[pos, pos]
            factor = 2 * float(gi @ gi) / gii
            assert score_msd(model, node) == pytest.approx(
                score_klg(model, node) * factor, rel=1e-10
            )

    def test_retraining_l2_identity_per_label(self):
        rng = np.random.default_rng(4)
        lap, model = make_lap_model(rng, 10, observed=2)
        node = int(model.unlabeled[1])
        pos = model.position(node)
        gi, gii, mui = model.G[:, pos], model.G[pos, pos], model.mu[pos]
        for value in (1.0, -1.0):
            diff = retrained_move(lap, model, node, value)
            closed = (value - mui) ** 2 * float(gi @ gi) / (gii * gii)
            assert float(diff @ diff) == pytest.approx(closed, abs=1e-8)


class TestVmSigmaOpt:
    def test_one_by_one_inverse(self):
        model = model_with_state([0.0], [[2.0]])
        assert score_vm(model, 0) == pytest.approx(2.0)
        assert score_sigma_opt(model, 0) == pytest.approx(2.0)

    def test_independent_of_observed_values(self):
        rng = np.random.default_rng(5)
        lap = regularized_laplacian(random_connected_graph(10, rng), 0.01)
        a = GmrfModel.from_laplacian(lap, 2)
        b = GmrfModel.from_laplacian(lap, 2)
        for node in (0, 4, 7):
            a.observe(node, 1)
            b.observe(node, 0)
        for node in a.unlabeled:
            node = int(node)
            assert score_vm(a, node) == score_vm(b, node)
            assert score_sigma_opt(a, node) == score_sigma_opt(b, node)


class TestFl:
    def test_two_node_expected_flip(self):
        lap = regularized_laplacian(Graph(2, {(0, 1): 1.0}), 0.1)
        model = GmrfModel.from_laplacian(lap, 2)
        # nothing labeled: mu = 0, prior prediction of node 1 is -1; labeling
        # node 0 with +1 flips it, with -1 it stays
        assert score_fl(model, 0) == pytest.approx(0.5)

    def test_no_sign_changes_scores_zero(self):
        model = model_with_state([0.9, 0.9], [[1.0, 0.001], [0.001, 1.0]])
        assert score_fl(model, 0) == pytest.approx(0.0)

    def test_invariant_under_label_negation(self):
        rng = np.random.default_rng(6)
        lap = regularized_laplacian(random_connected_graph(12, rng), 0.01)
        a = GmrfModel.from_laplacian(lap, 2)
        b = GmrfModel.from_laplacian(lap, 2)
        for node, class_id in ((0, 1), (5, 0), (9, 1)):
            a.observe(node, class_id)
            b.observe(node, 1 - class_id)
        for node in a.unlabeled:
            assert score_fl(a, int(node)) == pytest.approx(score_fl(b, int(node)), abs=1e-12)

    def test_maxmin_takes_worst_label(self):
        lap = regularized_laplacian(Graph(2, {(0, 1): 1.0}), 0.1)
        model = GmrfModel.from_laplacian(lap, 2)
        assert utility_scores(Strategy("fl", maxmin=True), model, t=2)[0] == 0.0

    def test_move_inside_the_tie_band_is_no_flip(self):
        # querying node 0 moves node 1 from 1e-15 to 3e-15 or -1e-15, inside
        # the tie band either way, and node 2 from 0 to +0.5 or -0.5; only
        # node 2 under the +1 label leaves class 0
        G = [[1.0, 2e-15, 0.5], [2e-15, 1.0, 0.0], [0.5, 0.0, 1.0]]
        model = model_with_state([0.0, 1e-15, 0.0], G)
        assert score_fl(model, 0) == 0.5
        assert utility_scores(Strategy("fl", maxmin=True), model, t=2)[0] == 0.0


class TestKl:
    def test_identical_distributions_diverge_zero(self):
        assert _bernoulli_kl(0.3, 0.3) == 0.0
        assert _bernoulli_kl(np.array([0.1, 0.9]), np.array([0.1, 0.9])).max() == 0.0

    def test_inner_terms_nonnegative(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 1, size=200)
        q = rng.uniform(0, 1, size=200)
        assert _bernoulli_kl(p, q).min() >= 0.0

    def test_matches_two_point_divergence_oracle(self):
        rng = np.random.default_rng(8)
        model = make_model(rng, 9, observed=2)
        node = int(model.unlabeled[0])
        pos = model.position(node)
        p_plus = min(max((model.mu[pos] + 1) / 2, 0.0), 1.0)
        total = 0.0
        floor = 1e-12
        for value, weight in ((1.0, p_plus), (-1.0, 1.0 - p_plus)):
            mu_plus = rank_one_mean(model, pos, value)
            branch = 0.0
            for j in range(model.num_unlabeled):
                if j == pos:
                    continue
                p = min(max((mu_plus[j] + 1) / 2, 0.0), 1.0)
                q = min(max((model.mu[j] + 1) / 2, 0.0), 1.0)
                kl = 0.0
                for px, qx in ((p, q), (1 - p, 1 - q)):
                    kl += px * (np.log(max(px, floor)) - np.log(max(qx, floor)))
                branch += max(kl, 0.0)
            total += weight * branch
        assert score_kl(model, node) == pytest.approx(total, abs=1e-10)

    def test_score_nonnegative(self):
        rng = np.random.default_rng(9)
        model = make_model(rng, 10, observed=3)
        for node in model.unlabeled:
            assert score_kl(model, int(node)) >= 0.0


class TestUnc:
    def test_binary_values(self):
        assert score_unc(model_with_state([0.0], [[1.0]]), 0) == 0.0
        assert score_unc(model_with_state([1.0], [[1.0]]), 0) == -2.0
        assert score_unc(model_with_state([-1.0], [[1.0]]), 0) == -2.0

    def test_multiclass_top_two_gap(self):
        mm = GmrfModel([[1.0]], [[0.9], [0.1], [-0.5]])
        assert score_unc(mm, 0) == pytest.approx(-0.8)


class TestNonnegativity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scores_nonnegative_on_reachable_states(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 15))
        model = make_model(rng, n, observed=int(rng.integers(0, n - 2)))
        for node in model.unlabeled:
            node = int(node)
            assert score_klg(model, node) >= 0
            assert score_tv(model, node) >= 0
            assert score_msd(model, node) >= 0
            assert score_fl(model, node) >= 0
            assert score_kl(model, node) >= 0


class TestConfidence:
    def test_zero_alpha_is_identity(self):
        rng = np.random.default_rng(10)
        model = make_model(rng, 10, observed=2)
        for kind, base in (("tv", score_tv), ("msd", score_msd), ("klg", score_klg)):
            scores = utility_scores(Strategy(kind, confidence="const:0"), model, t=5)
            for idx, node in enumerate(model.unlabeled):
                assert scores[idx] == pytest.approx(base(model, int(node)), abs=1e-12)

    def test_full_confidence_msd_matches_vm_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = make_model(rng, int(rng.integers(6, 16)), observed=2)
            adjusted = utility_scores(Strategy("msd", confidence="const:1"), model, t=3)
            vm = utility_scores(Strategy("vm"), model, t=3)
            assert int(np.argmax(adjusted)) == int(np.argmax(vm))

    def test_full_confidence_tv_matches_sigma_opt_argmax(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = make_model(rng, int(rng.integers(6, 16)), observed=2)
            adjusted = utility_scores(Strategy("tv", confidence="const:1"), model, t=3)
            sig = utility_scores(Strategy("sigma-opt"), model, t=3)
            assert int(np.argmax(adjusted)) == int(np.argmax(sig))

    @pytest.mark.parametrize("alpha", [0.4, 1.0])
    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("kind, adaptive, ensemble", [
        ("tv", score_tv, score_sigma_opt), ("msd", score_msd, score_vm),
    ], ids=["tv", "msd"])
    def test_blend_formula(self, kind, adaptive, ensemble, num_classes, alpha):
        rng = np.random.default_rng(13)
        if num_classes == 2:
            model = make_model(rng, 8, observed=2)
        else:
            lap = regularized_laplacian(random_connected_graph(8, rng), 0.005)
            model = GmrfModel.from_laplacian(lap, 3)
            model.observe(0, 1)
            model.observe(5, 2)
        adjusted = utility_scores(Strategy(kind, confidence=f"const:{alpha}"), model, t=9)
        for idx, node in enumerate(model.unlabeled):
            node = int(node)
            expected = (0.5 * alpha * ensemble(model, node)
                        + (1 - alpha) * adaptive(model, node))
            assert adjusted[idx] == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_alpha_rejected(self):
        # the schedule lives in Strategy, the one place that checks it
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Strategy("fl", confidence="const:1.5")


class TestLabelFlipInvariance:
    def test_closed_form_scores_unchanged(self):
        rng = np.random.default_rng(15)
        lap = regularized_laplacian(random_connected_graph(11, rng), 0.01)
        a = GmrfModel.from_laplacian(lap, 2)
        b = GmrfModel.from_laplacian(lap, 2)
        for node, class_id in ((1, 1), (4, 1), (8, 0)):
            a.observe(node, class_id)
            b.observe(node, 1 - class_id)
        for kind in ("tv", "msd", "klg", "vm", "sigma-opt"):
            sa = utility_scores(Strategy(kind), a, t=4)
            sb = utility_scores(Strategy(kind), b, t=4)
            assert np.abs(sa - sb).max() <= 1e-12

    def test_adjusted_scores_unchanged(self):
        rng = np.random.default_rng(16)
        lap = regularized_laplacian(random_connected_graph(9, rng), 0.01)
        a = GmrfModel.from_laplacian(lap, 2)
        b = GmrfModel.from_laplacian(lap, 2)
        for node, class_id in ((0, 0), (3, 1)):
            a.observe(node, class_id)
            b.observe(node, 1 - class_id)
        for kind in ("tv", "msd", "klg"):
            strat = Strategy(kind, confidence="const:0.6")
            assert np.abs(utility_scores(strat, a, t=2) - utility_scores(strat, b, t=2)).max() <= 1e-12


class TestUniformScaling:
    def test_argmax_invariant_under_weight_and_delta_scaling(self):
        rng = np.random.default_rng(28)
        g = random_connected_graph(14, rng)
        scale = 2.5
        scaled = Graph(14, {k: scale * w for k, w in g.edges.items()})
        a = GmrfModel.from_laplacian(regularized_laplacian(g, 0.02), 2)
        b = GmrfModel.from_laplacian(regularized_laplacian(scaled, 0.02 * scale), 2)
        for node, class_id in ((0, 1), (6, 0), (11, 1)):
            a.observe(node, class_id)
            b.observe(node, class_id)
        for kind in ("klg", "tv", "msd", "vm", "sigma-opt"):
            sa = utility_scores(Strategy(kind), a, t=3)
            sb = utility_scores(Strategy(kind), b, t=3)
            assert int(np.argmax(sa)) == int(np.argmax(sb))


PER_NODE_SCORERS = sorted(name for name in gmrf_active.__all__ if name.startswith("score_"))


class TestScanConsistency:
    def test_vectorized_matches_per_node(self):
        rng = np.random.default_rng(17)
        model = make_model(rng, 12, observed=3)
        per_node = {
            "klg": score_klg,
            "tv": score_tv,
            "msd": score_msd,
            "vm": score_vm,
            "sigma-opt": score_sigma_opt,
            "unc": score_unc,
        }
        for kind, fn in per_node.items():
            scan = utility_scores(Strategy(kind), model, t=4)
            for idx, node in enumerate(model.unlabeled):
                assert scan[idx] == pytest.approx(fn(model, int(node)), abs=1e-12)

    def test_multiclass_scan_matches_per_node(self):
        rng = np.random.default_rng(18)
        lap = regularized_laplacian(random_connected_graph(10, rng), 0.05)
        mm = GmrfModel.from_laplacian(lap, 3)
        mm.observe(0, 1)
        mm.observe(6, 2)
        for kind, fn in (("tv", score_tv), ("msd", score_msd), ("unc", score_unc)):
            scan = utility_scores(Strategy(kind), mm, t=4)
            for idx, node in enumerate(mm.unlabeled):
                assert scan[idx] == pytest.approx(fn(mm, int(node)), abs=1e-12)

    def test_random_kind_has_no_scores(self):
        model = GmrfModel.from_laplacian(
            regularized_laplacian(random_connected_graph(6, np.random.default_rng(0)), 0.1), 2)
        with pytest.raises(ValueError, match="^the random strategy is not score-driven$"):
            utility_scores(Strategy("random"), model, t=2)

    def test_binary_only_kinds_rejected_on_multiclass(self):
        rng = np.random.default_rng(19)
        lap = regularized_laplacian(random_connected_graph(8, rng), 0.05)
        mm = GmrfModel.from_laplacian(lap, 3)
        for kind in ("fl", "kl", "klg"):
            with pytest.raises(ValueError, match="binary"):
                utility_scores(Strategy(kind), mm, t=2)

    @pytest.mark.parametrize("confidence", ["none", "const:0.3", "const:1"])
    @pytest.mark.parametrize("maxmin", [False, True])
    def test_retraining_scan_matches_hand_loop(self, confidence, maxmin):
        # a state where even the worst-case label flips some predictions
        rng = np.random.default_rng(30)
        model = make_model(rng, 12, observed=3)
        t = 4
        alpha = Strategy("fl", confidence=confidence).alpha(t)

        def soft(m):
            return min(max((m + 1) / 2, 0.0), 1.0)

        def bernoulli_kl(p, q, floor=1e-12):
            kl = 0.0
            for px, qx in ((p, q), (1 - p, 1 - q)):
                kl += px * (np.log(max(px, floor)) - np.log(max(qx, floor)))
            return max(kl, 0.0)

        for kind in ("fl", "kl"):
            scan = utility_scores(Strategy(kind, confidence=confidence, maxmin=maxmin), model, t)
            assert scan.shape == model.unlabeled.shape
            assert scan.max() > 0
            for idx, node in enumerate(model.unlabeled):
                totals = []
                for value in (1.0, -1.0):
                    mu_plus = rank_one_mean(model, idx, value)
                    total = 0.0
                    for j in range(model.num_unlabeled):
                        if j == idx:
                            continue
                        if kind == "fl":
                            total += float((mu_plus[j] > 0) != (model.mu[j] > 0))
                        else:
                            total += bernoulli_kl(soft(mu_plus[j]), soft(model.mu[j]))
                    totals.append(total)
                plus, minus = totals
                w = 0.5 * alpha + (1 - alpha) * soft(model.mu[idx])
                expected = min(plus, minus) if maxmin else w * plus + (1 - w) * minus
                assert scan[idx] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("confidence", ["none", "inv_sqrt", "const:0.3"])
    @pytest.mark.parametrize("maxmin", [False, True])
    def test_retraining_scan_bit_identical_to_column_loop(self, confidence, maxmin):
        # the scan reads rows of G, counts flips and hoists the reference
        # logs; none of that may move a single bit of any score
        grid = GmrfModel.from_laplacian(
            regularized_laplacian(grid_graph(10, 10, seed=5).graph, 0.005), 2)
        for node, class_id in ((0, 1), (99, 0), (45, 1), (12, 0)):
            grid.observe(node, class_id)
        for model in (grid, make_model(np.random.default_rng(31), 15, observed=3)):
            for kind in ("fl", "kl"):
                strategy = Strategy(kind, confidence=confidence, maxmin=maxmin)
                scan = utility_scores(strategy, model, 3)
                assert scan.max() > 0
                expected = _column_loop(model, kind, strategy.alpha(3), maxmin)
                assert np.array_equal(scan, expected)

    @pytest.mark.parametrize("scorer", [score_fl, score_kl, score_klg])
    def test_binary_per_node_scorers_reject_multiclass(self, scorer):
        mm = GmrfModel(np.eye(2), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="binary models only.*3 classes"):
            scorer(mm, 0)

    @pytest.mark.parametrize("scorer", [score_fl, score_kl])
    def test_retraining_scorers_reject_degenerate_pivot(self, scorer):
        model = model_with_state([0.0, 0.0], np.diag([1.0, 0.5 * PIVOT_FLOOR]))
        assert scorer(model, 0) == 0.0
        with pytest.raises(ValueError, match="degenerate pivot .* at node 1"):
            scorer(model, 1)

    def test_one_exported_per_node_scorer_per_kind(self):
        exported = sorted(name for name in gmrf_active.__all__ if name.startswith("score_"))
        scored = sorted("score_" + kind.replace("-", "_") for kind in KINDS if kind != "random")
        assert exported == scored
        # the schedule is a Strategy's: no scorer takes one of its own
        for name in exported:
            params = list(inspect.signature(getattr(gmrf_active, name)).parameters)
            assert params == ["model", "node"], name

    @pytest.mark.parametrize("name", PER_NODE_SCORERS)
    @pytest.mark.parametrize("node, message", [
        (True, "node id True is not an integer"),
        (np.float64(2.0), "node id np.float64(2.0) is not an integer"),
    ])
    def test_per_node_scorer_rejects_non_integer_node_ids(self, name, node, message):
        # True and 2.0 were scored as nodes 1 and 2, while observe rejected them
        model = make_model(np.random.default_rng(32), 6)
        with pytest.raises(ValueError) as raised:
            getattr(gmrf_active, name)(model, node)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as observed:
            model.observe(node, 1)
        assert str(observed.value) == message


def _column_loop(model, kind, alpha, maxmin):
    """The fl / kl scan as it was written before the row read: column
    ``G[:, pos]``, one ``_bernoulli_kl`` per hypothetical mean and a summed
    boolean flip mask."""
    mu = model.mu
    p = soft_labels(mu)
    above = mu > 0
    w_plus = 0.5 * alpha + (1.0 - alpha) * p
    scores = np.empty(model.num_unlabeled)
    for pos in range(model.num_unlabeled):
        totals = []
        for value in (1.0, -1.0):
            mu_plus = rank_one_mean(model, pos, value)
            if kind == "fl":
                per_node = (mu_plus > 0) != above
            else:
                per_node = _bernoulli_kl(soft_labels(mu_plus), p)
            per_node[pos] = 0
            totals.append(float(per_node.sum()))
        plus, minus = totals
        w = w_plus[pos]
        scores[pos] = min(plus, minus) if maxmin else w * plus + (1.0 - w) * minus
    return scores


def _former_soft_labels(means):
    return np.clip((means + 1.0) / 2.0, 0.0, 1.0)


def _per_candidate_loop(model, kind, alpha, maxmin, positions, soft=soft_labels):
    """The fl / kl scan as it was written before the block scan: one pivot
    and two hypothetical means per candidate, one Python iteration each.
    ``_bernoulli_kl`` rounds each divergence as the scan's hoisted-log form."""
    mu = model.mu
    p = soft(mu)
    above = mu > DECISION_ATOL
    w_plus = 0.5 * alpha + (1.0 - alpha) * p
    G = model.G
    scores = np.empty(len(positions))
    for k, pos in enumerate(positions):
        gkk = model.pivot(pos)
        totals = []
        for value in (1.0, -1.0):
            mu_plus = mu + ((value - mu[pos]) / gkk) * G[pos]
            if kind == "fl":
                flips = (mu_plus > DECISION_ATOL) != above
                flips[pos] = False
                totals.append(float(np.count_nonzero(flips)))
            else:
                per_node = _bernoulli_kl(soft(mu_plus), p)
                per_node[pos] = 0
                totals.append(float(per_node.sum()))
        plus, minus = totals
        w = w_plus[pos]
        scores[k] = min(plus, minus) if maxmin else w * plus + (1.0 - w) * minus
    model.retrain_calls += 2 * len(positions)
    return scores


def _observed_grid(side, observations):
    model = GmrfModel.from_laplacian(
        regularized_laplacian(grid_graph(side, side, seed=5).graph, 0.005), 2)
    for node, class_id in observations:
        model.observe(node, class_id)
    return model


class TestBlockScan:
    """The fl / kl scan scores candidates in row blocks of G; every score
    must equal the per-candidate loop's bit for bit, across block edges."""

    @pytest.fixture(scope="class")
    def multi_block(self):
        # |U| = 395: a default block holds both label values of 41 rows, so
        # 10 blocks, the last ragged
        model = _observed_grid(20, ((0, 1), (399, 0), (210, 1), (57, 0), (342, 1)))
        height = strategies._BLOCK_BYTES // (2 * 8 * model.num_unlabeled)
        assert model.num_unlabeled > 3 * height and model.num_unlabeled % height
        return model

    @pytest.mark.parametrize("kind", ["fl", "kl"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("maxmin", [False, True])
    def test_bit_identical_to_per_candidate_loop(self, multi_block, kind, alpha, maxmin):
        positions = np.arange(multi_block.num_unlabeled)
        scan = strategies._expected_change(multi_block, kind, alpha, maxmin, positions,
                                           multi_block.G)
        expected = _per_candidate_loop(multi_block, kind, alpha, maxmin, positions)
        assert scan.max() > 0
        assert np.array_equal(scan, expected)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("kind", ["fl", "kl"])
    @pytest.mark.parametrize("maxmin", [False, True])
    def test_bit_identical_for_any_block_height(self, monkeypatch, rows, kind, maxmin):
        model = _observed_grid(10, ((0, 1), (99, 0), (45, 1)))
        monkeypatch.setattr(strategies, "_BLOCK_BYTES", rows * 8 * model.num_unlabeled)
        strategy = Strategy(kind, confidence="inv_sqrt", maxmin=maxmin)
        scan = utility_scores(strategy, model, t=4)
        positions = range(model.num_unlabeled)
        expected = _per_candidate_loop(model, kind, strategy.alpha(4), maxmin, positions)
        assert np.array_equal(scan, expected)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("kind", ["fl", "kl"])
    @pytest.mark.parametrize("maxmin", [False, True])
    def test_bit_identical_for_two_label_blocks_of_any_height(self, monkeypatch, rows, kind,
                                                              maxmin):
        # a block holds both label values of its rows; the model has carried
        # G through one observe since its first rows() read. The scan reads
        # rows() once and takes every block as a basic slice of the carried
        # G, never a gathered copy
        model = _observed_grid(10, ((0, 1), (99, 0)))
        model.rows()
        model.observe(45, 1)
        monkeypatch.setattr(strategies, "_BLOCK_BYTES", rows * 2 * 8 * model.num_unlabeled)
        reads, blocks = [], []
        read_rows = model.rows

        class RecordingRows(np.ndarray):
            def __getitem__(self, key):
                if self.ndim == 2:  # a read of the block, not of an array made from one
                    blocks.append(key)
                return super().__getitem__(key)

        def recording_rows():
            reads.append(read_rows())
            return reads[-1].view(RecordingRows)

        monkeypatch.setattr(model, "rows", recording_rows)
        strategy = Strategy(kind, confidence="inv_sqrt", maxmin=maxmin)
        scan = utility_scores(strategy, model, t=4)
        positions = range(model.num_unlabeled)
        expected = _per_candidate_loop(model, kind, strategy.alpha(4), maxmin, positions)
        assert np.array_equal(scan, expected)
        assert len(reads) == 1 and reads[0] is model._G
        assert all(isinstance(key, slice) for key in blocks)
        heights = [len(positions[key]) for key in blocks]
        assert heights[0] == rows and sum(heights) == model.num_unlabeled

    @pytest.mark.parametrize("scorer, kind", [(score_fl, "fl"), (score_kl, "kl")])
    def test_per_node_scorer_is_a_one_row_block(self, multi_block, scorer, kind):
        # the scorer weighs the labels by the none confidence; a schedule is
        # read through utility_scores, with the same bits per node
        scan = utility_scores(Strategy(kind, confidence="const:0.3"), multi_block, t=2)
        for node in multi_block.unlabeled[::37]:
            pos = multi_block.position(int(node))
            expected = _per_candidate_loop(multi_block, kind, 0.0, False, [pos])[0]
            assert scorer(multi_block, int(node)) == expected
            expected = _per_candidate_loop(multi_block, kind, 0.3, False, [pos])[0]
            assert scan[pos] == expected

    @pytest.mark.parametrize("maxmin", [False, True])
    def test_kl_soft_labels_match_the_former_expression(self, monkeypatch, multi_block, maxmin):
        # the block takes its soft labels in place; pin them to the former
        # clamp((m + 1) / 2) expression, also where the clip is active
        positions = np.arange(multi_block.num_unlabeled)
        expected = _per_candidate_loop(multi_block, "kl", 0.3, maxmin, positions,
                                       soft=_former_soft_labels)
        assert np.array_equal(
            strategies._expected_change(multi_block, "kl", 0.3, maxmin, positions,
                                        multi_block.G), expected)
        n = 60
        G = np.full((n, n), 0.1)
        G[np.diag_indices(n)] += 1.0
        mu = np.random.default_rng(8).uniform(-0.95, 0.95, n)
        model = model_with_state(mu, G)
        means = mu + ((1.0 - mu[:, None]) / np.diag(G)[:, None]) * G
        assert (means > 1.0).any()  # the hypothetical means overshoot the clip
        monkeypatch.setattr(strategies, "_BLOCK_BYTES", 7 * 8 * n)
        positions = np.arange(n)
        expected = _per_candidate_loop(model, "kl", 0.3, maxmin, positions,
                                       soft=_former_soft_labels)
        assert np.array_equal(
            strategies._expected_change(model, "kl", 0.3, maxmin, positions, model.G), expected)

    @pytest.mark.parametrize("kind", ["fl", "kl"])
    def test_first_degenerate_pivot_in_order_raises(self, monkeypatch, kind):
        # degenerate pivots at nodes 5 (first block of three) and 2 (second
        # block); the loop meets node 5 first and names it
        monkeypatch.setattr(strategies, "_BLOCK_BYTES", 3 * 8 * 8)
        diagonal = np.ones(8)
        diagonal[[2, 5]] = 0.5 * PIVOT_FLOOR
        model = model_with_state(np.linspace(-0.5, 0.5, 8), np.diag(diagonal))
        positions = [4, 0, 5, 1, 2, 3]
        with pytest.raises(ValueError) as expected:
            _per_candidate_loop(model, kind, 0.0, False, positions)
        before = model.retrain_calls
        with pytest.raises(ValueError) as raised:
            strategies._expected_change(model, kind, 0.0, False, positions,
                                        model.G[positions])
        assert str(raised.value) == str(expected.value)
        assert "at node 5" in str(raised.value)
        assert model.retrain_calls == before

    @pytest.mark.parametrize("kind", ["fl", "kl"])
    def test_peak_memory_is_a_few_blocks(self, kind):
        # |U| = 2000: one |U|^2 temporary would be 32 MB
        n = 2000
        G = np.full((n, n), 0.1)
        G[np.diag_indices(n)] += 1.0
        mu = np.random.default_rng(3).uniform(-0.9, 0.9, n)
        model = model_with_state(mu, G)
        del G
        positions, rows = np.arange(n), model.G
        strategies._expected_change(model, kind, 0.3, False, positions, rows)
        tracemalloc.start()
        try:
            strategies._expected_change(model, kind, 0.3, False, positions, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: about 2.4 blocks (fl) and 5.6 blocks (kl), O(|U|) included
        assert peak <= 8 * strategies._BLOCK_BYTES + 32 * 8 * n


class TestColumnSumsOfSquares:
    """vm and msd read column sums of squares of ``G`` that the model sums
    once and then carries through every observe; the scores follow the
    former ``(G * G).sum(axis=0)`` expression to within rounding."""

    @staticmethod
    def _states():
        grid = _observed_grid(12, ())
        yield grid
        for node, class_id in ((0, 1), (143, 0), (70, 1), (30, 0)):
            grid.observe(node, class_id)
            yield grid
        lap = regularized_laplacian(community_graph([20, 20, 20], 0.5, 0.02, seed=4).graph,
                                    0.005)
        community = GmrfModel.from_laplacian(lap, 3)
        for node, class_id in ((0, 0), (25, 1), (47, 2)):
            community.observe(node, class_id)
            yield community

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_vm_and_msd_match_former_expression(self, alpha):
        confidence = f"const:{alpha}"
        for model in self._states():
            G = model.G
            dg = np.diagonal(G)
            norm = (G * G).sum(axis=0)
            if model.mu is None:
                weight = strategies._class_spread(model)
            else:
                weight = 1.0 - model.mu * model.mu
            vm = norm / dg
            msd = weight * norm / (dg * dg)
            if alpha:
                msd = 0.5 * alpha * vm + (1.0 - alpha) * msd
            np.testing.assert_allclose(utility_scores(Strategy("vm"), model, t=3), vm,
                                       rtol=1e-10, atol=0)
            np.testing.assert_allclose(
                utility_scores(Strategy("msd", confidence=confidence), model, t=3), msd,
                rtol=1e-10, atol=0)


def _former_closed_form(kind, model, alpha):
    """The closed-form scans as they were written before they ran in place:
    one fresh array per operation, ``np.clip`` and ``.sum()``."""
    dg = model.diagonal
    if kind == "klg":
        mu = model.mu
        if alpha == 0.0:
            return (1.0 - mu * mu) / (2.0 * dg)
        w_plus = 0.5 * alpha + (1.0 - alpha) * np.clip((mu + 1.0) / 2.0, 0.0, 1.0)
        return (w_plus * (1.0 - mu) ** 2 + (1.0 - w_plus) * (1.0 + mu) ** 2) / (2.0 * dg)
    l1 = kind in ("tv", "sigma-opt")
    norm = model.row_sums if l1 else model.square_sums()
    adaptive = kind in ("tv", "msd")
    if adaptive:
        mu = model.mu
        if mu is None:
            c = model.num_classes
            pbar = np.clip((model.means + 1.0) / 2.0, 0.0, 1.0)
            total = pbar.sum(axis=0)
            if (total > 0).all():
                pbar = pbar / total
            else:
                pbar = np.where(total > 0, pbar / np.where(total > 0, total, 1.0), 1.0 / c)
            weight = c - (pbar * pbar).sum(axis=0)
        else:
            weight = 1.0 - mu * mu
            if l1:
                weight = 2.0 * weight
        base = weight * norm / dg if l1 else weight * norm / (dg * dg)
        if alpha == 0.0:
            return base
    ensemble = norm * norm / dg if l1 else norm / dg
    if not adaptive:
        return ensemble
    return 0.5 * alpha * ensemble + (1.0 - alpha) * base


def _seeded_states(source, num_classes, seed):
    """A model over ``source``'s graph after 0, 1, 3 and 7 seeded queries."""
    rng = np.random.default_rng(seed)
    model = GmrfModel.from_laplacian(regularized_laplacian(source.graph, 0.005), num_classes)
    yield model
    for step, node in enumerate(rng.permutation(source.graph.n)[:7], start=1):
        model.observe(int(node), int(rng.integers(num_classes)))
        if step in (1, 3, 7):
            yield model


def _readers(model):
    return [model.unlabeled, model.means, model.row_sums, model.diagonal,
            model.square_sums(), model.G]


class TestInPlaceScansMatchFormerExpressions:
    """The closed-form scans run in place on fresh arrays, in the former
    operation order: every score equals the former expression bit for bit,
    the result shares memory with no array of the model, and no reader of
    the model changes."""

    SOURCES = [("grid", lambda: grid_graph(10, 10, seed=3)),
               ("community", lambda: community_graph([15, 20, 25], 0.4, 0.03, seed=8))]

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("source", [s[1] for s in SOURCES], ids=[s[0] for s in SOURCES])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_scores_equal_the_former_expressions(self, source, num_classes, alpha):
        kinds = ["tv", "msd", "vm", "sigma-opt"] + (["klg"] if num_classes == 2 else [])
        for model in _seeded_states(source(), num_classes, seed=int(10 * alpha) + num_classes):
            for kind in kinds:
                before = [a.tobytes() for a in _readers(model)]
                scores = utility_scores(Strategy(kind, confidence=f"const:{alpha}"), model, t=4)
                for name, value in vars(model).items():
                    if isinstance(value, np.ndarray):
                        assert not np.shares_memory(scores, value), (kind, name)
                assert [a.tobytes() for a in _readers(model)] == before, kind
                former = _former_closed_form(kind, model, alpha)
                assert scores.tobytes() == former.tobytes(), (kind, model.num_unlabeled)


SCORED_KINDS = [(2, kind) for kind in ("tv", "msd", "klg", "vm", "sigma-opt", "unc", "fl", "kl")]
SCORED_KINDS += [(3, kind) for kind in ("tv", "msd", "vm", "sigma-opt", "unc")]


class TestScanGuards:
    @pytest.mark.parametrize("num_classes, kind", SCORED_KINDS)
    def test_empty_model_rejected(self, num_classes, kind):
        model = GmrfModel(np.zeros((0, 0)), np.zeros((num_classes, 0)))
        with pytest.raises(ValueError, match="no unlabeled nodes to score"):
            utility_scores(Strategy(kind), model, t=2)

    @pytest.mark.parametrize("num_classes, kind", SCORED_KINDS)
    def test_degenerate_diagonal_rejected(self, num_classes, kind):
        G = np.diag([1.0, 0.5 * PIVOT_FLOOR])
        model = GmrfModel(G, np.zeros((num_classes, 2)))
        with pytest.raises(ValueError, match="degenerate pivot .* at node 1"):
            utility_scores(Strategy(kind), model, t=2)


class TestRenaming:
    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_fresh_model_over_the_unlabeled_nodes_scores_the_same(self, num_classes):
        # the rebuilt model names the remaining nodes 0..|U|-1; only the
        # carried G 1 and diagonal and what reads them may differ, by rounding
        rng = np.random.default_rng(50 + num_classes)
        lap = regularized_laplacian(random_connected_graph(16, rng), 0.005)
        model = GmrfModel.from_laplacian(lap, num_classes)
        for node in rng.permutation(16)[:6]:
            model.observe(int(node), int(rng.integers(num_classes)))
        fresh = GmrfModel(model.G, model.means)
        assert np.array_equal(fresh.unlabeled, np.arange(10))
        for name in ("means", "G"):
            assert np.array_equal(getattr(fresh, name), getattr(model, name))
        np.testing.assert_allclose(model.row_sums, fresh.row_sums, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.diagonal, fresh.diagonal, rtol=1e-12, atol=0)
        for kind in (k for c, k in SCORED_KINDS if c == num_classes):
            for strategy in (Strategy(kind), Strategy(kind, confidence="inv_sqrt")):
                np.testing.assert_allclose(utility_scores(strategy, model, t=3),
                                           utility_scores(strategy, fresh, t=3),
                                           rtol=1e-10, atol=0)


class TestRetrainCounters:
    def test_closed_form_scans_perform_no_retraining(self):
        rng = np.random.default_rng(20)
        model = make_model(rng, 15, observed=2)
        before = model.retrain_calls
        for kind in ("tv", "msd", "klg", "vm", "sigma-opt", "unc"):
            utility_scores(Strategy(kind), model, t=3)
        assert model.retrain_calls == before

    def test_retraining_scans_bounded_by_two_per_candidate(self):
        rng = np.random.default_rng(21)
        model = make_model(rng, 12, observed=2)
        for kind in ("fl", "kl"):
            before = model.retrain_calls
            utility_scores(Strategy(kind), model, t=3)
            assert model.retrain_calls - before == 2 * model.num_unlabeled

    @pytest.mark.parametrize("kind", ["fl", "kl"])
    @pytest.mark.parametrize("maxmin", [False, True])
    def test_retraining_scan_leaves_state_bit_identical(self, kind, maxmin):
        model = make_model(np.random.default_rng(29), 13, observed=3)
        G, means, row_sums = model.G.copy(), model.means.copy(), model.row_sums.copy()
        before = model.retrain_calls
        utility_scores(Strategy(kind, confidence="inv_sqrt", maxmin=maxmin), model, t=3)
        assert model.retrain_calls - before == 2 * model.num_unlabeled
        assert np.array_equal(model.G, G)
        assert np.array_equal(model.means, means)
        assert np.array_equal(model.row_sums, row_sums)


def _former_gcol(model, node):
    """The row read as it was: through ``rows()``, which keeps ``G``."""
    pos = model.position(node)
    return pos, model.rows()[pos], model.pivot(pos)


class TestPerNodeScorersCarryNoG:
    @pytest.mark.parametrize("num_classes, scorer", [
        (2, score_tv), (2, score_msd), (2, score_vm), (2, score_sigma_opt), (2, score_klg),
        (3, score_tv), (3, score_msd), (3, score_vm), (3, score_sigma_opt),
        (2, score_fl), (2, score_kl),
    ])
    def test_scoring_leaves_the_steps_factored_and_scores_as_before(self, monkeypatch,
                                                                   num_classes, scorer):
        # a row read through rows() made the model carry G, so every later
        # observe downdated a fresh |U|^2 array; one-node fl and kl read
        # through rows() too until they read model.G
        source = community_graph([15, 20, 25], 0.4, 0.03, seed=8)
        *_, model = _seeded_states(source, num_classes, seed=40 + num_classes)
        twin = model.copy()
        nodes = [int(node) for node in model.unlabeled[::5]]
        scores = [scorer(model, node) for node in nodes]
        assert model._G is None
        model.observe(int(model.unlabeled[1]), 1)
        assert model._G is None
        # the same bits as the former read, on a model that carried no G
        monkeypatch.setattr(strategies, "_gcol", _former_gcol)
        assert [scorer(twin, node) for node in nodes] == scores

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("scorer", [score_tv, score_msd, score_vm, score_sigma_opt])
    def test_scoring_a_carrying_model_copies_one_row(self, monkeypatch, num_classes, scorer):
        # once an fl or kl scan has made the model carry G, a score reads
        # the carried row in place; a read through model.G copied all of G
        # until G returned the read-only carried block itself
        *_, model = _seeded_states(grid_graph(20, 20, seed=3), num_classes, seed=7)
        model.rows()
        block_bytes = model.num_unlabeled ** 2 * 8
        nodes = [int(node) for node in model.unlabeled[::40]]
        scorer(model, nodes[0])  # loads what it needs outside the measurement
        tracemalloc.start()
        try:
            scores = [scorer(model, node) for node in nodes]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * block_bytes
        monkeypatch.setattr(strategies, "_gcol", _former_gcol)
        assert [scorer(model, node) for node in nodes] == scores


class TestSelect:
    def test_first_iteration_is_seeded_uniform(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        model = make_model(np.random.default_rng(22), 10)
        s = Strategy("vm")
        assert select(s, model, 1, rng_a) == select(s, model, 1, rng_b)

    def test_random_strategy_reproducible(self):
        model = make_model(np.random.default_rng(23), 10)
        picks_a = [select(Strategy("random"), model, t, np.random.default_rng(5)) for t in (1, 2)]
        picks_b = [select(Strategy("random"), model, t, np.random.default_rng(5)) for t in (1, 2)]
        assert picks_a == picks_b

    def test_tied_scores_pick_lowest_id(self):
        model = model_with_state([0.0, 0.0, 0.0], np.eye(3))
        assert select(Strategy("tv"), model, 2, np.random.default_rng(0)) == 0
        # node 0 scores 2 (1 - 1e-14) and nodes 1, 2 score exactly 2: the
        # argmax is node 1, but a gap of 1e-14 relative is a tie
        model = model_with_state([1e-7, 0.0, 0.0], np.eye(3))
        assert int(np.argmax(utility_scores(Strategy("tv"), model, 2))) == 1
        assert select(Strategy("tv"), model, 2, np.random.default_rng(0)) == 0

    @pytest.mark.parametrize("kind", ["tv", "msd", "klg", "vm", "sigma-opt"])
    def test_mirror_tie_survives_one_ulp(self, kind, monkeypatch):
        # on the path 0-1-2-3 the inner nodes 1 and 2 are mirror images and
        # tie for the best score in exact arithmetic
        path = Graph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
        model = GmrfModel.from_laplacian(regularized_laplacian(path, 0.05), 2)
        strategy = Strategy(kind)
        scores = utility_scores(strategy, model, 2)
        assert scores[1] == pytest.approx(scores[2], rel=1e-14)
        assert min(scores[1], scores[2]) > max(scores[0], scores[3])
        assert select(strategy, model, 2, np.random.default_rng(0)) == 1
        top = max(scores[1], scores[2])
        scores[1], scores[2] = top, np.nextafter(top, np.inf)
        assert int(np.argmax(scores)) == 2
        monkeypatch.setattr(strategies, "utility_scores", lambda *args: scores)
        assert select(strategy, model, 2, np.random.default_rng(0)) == 1

    @pytest.mark.parametrize("best", [1.0, -1.0, 250.0, -3e-4])
    @pytest.mark.parametrize("gap, winner", [(0.99, 0), (1.01, 1)])
    def test_gap_around_tie_rtol(self, best, gap, winner, monkeypatch):
        # node 1 leads node 0 by gap * TIE_RTOL relative: just below the
        # tolerance the lower id wins, just above it the true argmax does
        scores = np.array([best, best + gap * TIE_RTOL * abs(best), best - 1.0])
        monkeypatch.setattr(strategies, "utility_scores", lambda *args: scores)
        model = model_with_state([0.0, 0.0, 0.0], np.eye(3))
        assert select(Strategy("tv"), model, 2, np.random.default_rng(0)) == winner

    def test_scores_at_rounding_level_tie_to_the_lowest_id(self):
        # kl on grid:10x10 as run_experiment plays it with seed 0: its best
        # score falls from 1.0e-3 at t=64 to rounding noise at t=65, where
        # the last bits differ between a carried G and one built afresh
        lg = grid_graph(10, 10, seed=0)
        G = gmrf_active.spd_inverse(regularized_laplacian(lg.graph, 0.005).matrix)
        G.flags.writeable = False
        strategy = Strategy("kl")
        carried = GmrfModel.from_inverse(G, 2)
        rng = np.random.default_rng(0)
        for t in range(1, 65):
            node = select(strategy, carried, t, rng)
            carried.observe(node, lg.labels[node])
        rebuilt = GmrfModel.from_inverse(G, 2)
        for node in carried.labeled:
            rebuilt.observe(node, lg.labels[node])
        assert carried._G is not None and rebuilt._G is None
        for model in (carried, rebuilt):
            scores = utility_scores(strategy, model, 65)
            assert 0.0 < scores.max() < TIE_ATOL * scores.size
            assert int(np.argmax(scores)) != 0
            assert select(strategy, model, 65, rng) == int(model.unlabeled[0])

    def test_never_reselects_within_run(self):
        rng = np.random.default_rng(24)
        lap = regularized_laplacian(random_connected_graph(12, rng), 0.01)
        model = GmrfModel.from_laplacian(lap, 2)
        gen = np.random.default_rng(1)
        seen = set()
        for t in range(1, 12):
            node = select(Strategy("tv"), model, t, gen)
            assert node not in seen
            assert node in set(int(i) for i in model.unlabeled)
            seen.add(node)
            model.observe(node, 1)

    def test_hybrid_scale_one_always_uniform_at_t1_scale(self):
        # pi_t = min(1, 9/sqrt(t)) stays 1 for t <= 81: every pick is a
        # seeded uniform draw, so two equal generators agree
        model = make_model(np.random.default_rng(25), 10)
        s = Strategy("vm", hybrid_scale=9.0)
        a = [select(s, model, t, np.random.default_rng(2)) for t in (2, 3)]
        b = [select(s, model, t, np.random.default_rng(2)) for t in (2, 3)]
        assert a == b

    @pytest.mark.parametrize("entry", ["select", "utility_scores"])
    @pytest.mark.parametrize("t, message", [
        (0, "t must be >= 1, got 0"),
        (-3, "t must be >= 1, got -3"),
        (True, "t True is not an integer"),
        (1.5, "t 1.5 is not an integer"),
        (np.float64(2.0), "t np.float64(2.0) is not an integer"),
    ])
    def test_bad_iteration_rejected_before_any_draw_or_scan(self, entry, t, message):
        # 0, -3 and True took the random first-query branch, and 1.5 gave a
        # schedule another a_t than 2
        model = make_model(np.random.default_rng(33), 8, observed=1)
        strategy = Strategy("fl", confidence="inv_sqrt", hybrid_scale=0.5)
        rng = np.random.default_rng(0)
        state, before = rng.bit_generator.state, model.retrain_calls
        with pytest.raises(ValueError) as raised:
            if entry == "select":
                select(strategy, model, t, rng)
            else:
                utility_scores(strategy, model, t)
        assert str(raised.value) == message
        assert rng.bit_generator.state == state
        assert model.retrain_calls == before

    def test_empty_pool_rejected(self):
        model = model_with_state(np.zeros(0), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="no unlabeled"):
            select(Strategy("tv"), model, 1, np.random.default_rng(0))

    def test_scored_pick_is_argmax_of_utility_scores(self):
        rng = np.random.default_rng(26)
        model = make_model(rng, 8, observed=1)
        lap = regularized_laplacian(random_connected_graph(9, rng), 0.05)
        mm = GmrfModel.from_laplacian(lap, 3)
        mm.observe(4, 2)
        for m, kinds in ((model, ("msd", "tv", "klg", "vm", "unc", "fl")),
                         (mm, ("msd", "tv", "sigma-opt", "unc"))):
            for kind in kinds:
                s = Strategy(kind, confidence="inv_sqrt")
                for t in (2, 3, 7):
                    scores = utility_scores(s, m, t)
                    assert scores.shape == m.unlabeled.shape
                    expected = int(m.unlabeled[int(np.argmax(scores))])
                    assert select(s, m, t, np.random.default_rng(0)) == expected

    def test_first_iteration_draws_without_scoring(self, monkeypatch):
        def no_scores(*args, **kwargs):
            raise AssertionError("utility_scores was called")

        monkeypatch.setattr(strategies, "utility_scores", no_scores)
        model = make_model(np.random.default_rng(27), 8)
        draw = int(model.unlabeled[np.random.default_rng(0).integers(8)])
        assert select(Strategy("msd"), model, 1, np.random.default_rng(0)) == draw
        assert select(Strategy("random"), model, 5, np.random.default_rng(0)) == draw
