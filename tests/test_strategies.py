"""Utility scores, confidence schedules, and query selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrf_active import (
    Graph,
    GmrfModel,
    Strategy,
    regularized_laplacian,
    score_fl,
    score_kl,
    score_klg,
    score_msd,
    score_msd_mc,
    score_sigma_opt,
    score_tv,
    score_tv_mc,
    score_unc,
    score_vm,
    select,
    utility_scores,
)
from gmrf_active import strategies
from gmrf_active.checks import random_connected_graph
from gmrf_active.gmrf import PIVOT_FLOOR, soft_labels
from gmrf_active.graph import grid_graph
from gmrf_active.strategies import TIE_RTOL, _bernoulli_kl


def make_model(rng, n, delta=0.005, observed=0):
    lap = regularized_laplacian(random_connected_graph(n, rng), delta)
    model = GmrfModel.from_laplacian(lap, 2)
    for node in rng.permutation(n)[:observed]:
        model.observe(int(node), 1 if rng.random() < 0.5 else 0)
    return model


def single_unlabeled_model(mu_value=0.3):
    # 3-node path, two ends observed -> exactly one unlabeled node
    lap = regularized_laplacian(Graph(3, {(0, 1): 1.0, (1, 2): 1.0}), 0.1)
    model = GmrfModel.from_laplacian(lap, 2)
    model.observe(0, 1)
    model.observe(2, 0)
    mu = np.array([mu_value])
    return GmrfModel(model.unlabeled, model.labeled, model.G, np.stack([-mu, mu]))


def model_with_state(mu, G):
    mu = np.asarray(mu, dtype=float)
    return GmrfModel(np.arange(mu.size), {}, np.asarray(G, dtype=float), np.stack([-mu, mu]))


class TestStrategyConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            Strategy("entropy")

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            Strategy("tv", confidence="sqrt")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Strategy("tv", confidence="const:1.5")

    def test_maxmin_only_for_retraining_kinds(self):
        Strategy("fl", maxmin=True)
        Strategy("kl", maxmin=True)
        with pytest.raises(ValueError, match="maxmin"):
            Strategy("tv", maxmin=True)

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
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValueError, match="hybrid_scale"):
                Strategy("tv", hybrid_scale=bad)

    def test_mixing_schedule_nonincreasing(self):
        s = Strategy("unc", hybrid_scale=1.0)
        values = [s.mixing_probability(t) for t in range(1, 30)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0 <= v <= 1 for v in values)


class TestKlg:
    def test_certain_node_scores_zero(self):
        model = single_unlabeled_model(mu_value=1.0)
        assert score_klg(model, 1) == 0.0

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
        assert score_tv(model, 1) == 0.0

    def test_single_unlabeled_reduces_to_uncertainty(self):
        model = single_unlabeled_model(mu_value=0.3)
        assert score_tv(model, 1) == pytest.approx(2 * (1 - 0.3**2), abs=1e-12)

    def test_retraining_l1_identity_per_label(self):
        rng = np.random.default_rng(1)
        model = make_model(rng, 10, observed=2)
        for node in (int(model.unlabeled[0]), int(model.unlabeled[-1])):
            pos = model.position(node)
            gi, gii, mui = model.G[:, pos], model.G[pos, pos], model.mu[pos]
            for value in (1.0, -1.0):
                diff = model.hypothetical_mean(node, value) - model.mu
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
        assert score_msd(model, 1) == 0.0

    def test_single_unlabeled_reduces_to_uncertainty(self):
        model = single_unlabeled_model(mu_value=0.3)
        assert score_msd(model, 1) == pytest.approx(1 - 0.3**2, abs=1e-12)

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
        model = make_model(rng, 10, observed=2)
        node = int(model.unlabeled[1])
        pos = model.position(node)
        gi, gii, mui = model.G[:, pos], model.G[pos, pos], model.mu[pos]
        for value in (1.0, -1.0):
            diff = model.hypothetical_mean(node, value) - model.mu
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
        assert score_fl(model, 0, maxmin=True) == 0.0

    def test_move_inside_the_tie_band_is_no_flip(self):
        # querying node 0 moves node 1 from 1e-15 to 3e-15 or -1e-15, inside
        # the tie band either way, and node 2 from 0 to +0.5 or -0.5; only
        # node 2 under the +1 label leaves class 0
        G = [[1.0, 2e-15, 0.5], [2e-15, 1.0, 0.0], [0.5, 0.0, 1.0]]
        model = model_with_state([0.0, 1e-15, 0.0], G)
        assert score_fl(model, 0) == 0.5
        assert score_fl(model, 0, maxmin=True) == 0.0


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
            mu_plus = model.hypothetical_mean(node, value)
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
        mm = GmrfModel([0], {}, [[1.0]], [[0.9], [0.1], [-0.5]])
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

    def test_blend_formula(self):
        rng = np.random.default_rng(13)
        model = make_model(rng, 8, observed=2)
        alpha = 0.4
        adjusted = utility_scores(Strategy("tv", confidence="const:0.4"), model, t=9)
        for idx, node in enumerate(model.unlabeled):
            node = int(node)
            expected = 0.5 * alpha * score_sigma_opt(model, node) + (1 - alpha) * score_tv(
                model, node
            )
            assert adjusted[idx] == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_alpha_rejected(self):
        rng = np.random.default_rng(14)
        model = make_model(rng, 6)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            score_fl(model, 0, alpha=1.5)


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
        for kind, fn in (("tv", score_tv_mc), ("msd", score_msd_mc), ("unc", score_unc)):
            scan = utility_scores(Strategy(kind), mm, t=4)
            for idx, node in enumerate(mm.unlabeled):
                assert scan[idx] == pytest.approx(fn(mm, int(node)), abs=1e-12)

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
                    mu_plus = model.hypothetical_mean(int(node), value)
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

    @pytest.mark.parametrize("scorer", [score_fl, score_kl, score_klg, score_tv, score_msd])
    def test_binary_per_node_scorers_reject_multiclass(self, scorer):
        mm = GmrfModel([0, 1], {}, np.eye(2), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="binary models only.*3 classes"):
            scorer(mm, 0)


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
        gkk = float(model.G[pos, pos])
        totals = []
        for value in (1.0, -1.0):
            mu_plus = mu + ((value - mu[pos]) / gkk) * model.G[:, pos]
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


SCORED_KINDS = [(2, kind) for kind in ("tv", "msd", "klg", "vm", "sigma-opt", "unc", "fl", "kl")]
SCORED_KINDS += [(3, kind) for kind in ("tv", "msd", "vm", "sigma-opt", "unc")]


class TestScanGuards:
    @pytest.mark.parametrize("num_classes, kind", SCORED_KINDS)
    def test_empty_model_rejected(self, num_classes, kind):
        model = GmrfModel(np.zeros(0, dtype=np.int64), {}, np.zeros((0, 0)),
                          np.zeros((num_classes, 0)))
        with pytest.raises(ValueError, match="no unlabeled nodes to score"):
            utility_scores(Strategy(kind), model, t=2)

    @pytest.mark.parametrize("num_classes, kind", SCORED_KINDS)
    def test_degenerate_diagonal_rejected(self, num_classes, kind):
        G = np.diag([1.0, 0.5 * PIVOT_FLOOR])
        model = GmrfModel([0, 1], {}, G, np.zeros((num_classes, 2)))
        with pytest.raises(ValueError, match="degenerate diagonal in G"):
            utility_scores(Strategy(kind), model, t=2)


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
