"""Monte-Carlo harness: determinism, accuracy metrics, CSV output."""

import csv

import numpy as np
import pytest

from gmrf_active import (
    AccuracyCurve,
    ExperimentConfig,
    GmrfModel,
    LabeledGraph,
    Strategy,
    accuracy,
    baseline_accuracy,
    community_graph,
    conditional_mean_direct,
    emit_csv,
    emit_summary,
    grid_graph,
    regularized_laplacian,
    run_experiment,
)
from gmrf_active import bench
from gmrf_active.checks import random_connected_graph


def small_labeled_graph(seed=0, n=12):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    labels = {i: int(rng.random() < 0.5) for i in range(n)}
    labels[0], labels[1] = 0, 1  # both classes always present
    return LabeledGraph(g, labels, 2)


class TestConfigValidation:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            ExperimentConfig("grid:4x4", [Strategy("tv"), Strategy("tv")], budget=3)

    def test_rejects_bad_budget_runs_delta(self):
        with pytest.raises(ValueError, match="budget"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=0)
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3, runs=0)
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3, delta=-1)

    def test_rejects_bad_eval_mode(self):
        with pytest.raises(ValueError, match="eval_on"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3, eval_on="test-split")

    @pytest.mark.parametrize("name, value", [
        ("delta", float("nan")), ("delta", float("inf")), ("seed", -1),
    ])
    def test_rejects_bad_delta_or_seed_before_any_compute(self, monkeypatch, name, value):
        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran before the config was checked")

        monkeypatch.setattr(bench.graph_mod, "from_spec", no_compute)
        monkeypatch.setattr(bench, "regularized_laplacian", no_compute)
        monkeypatch.setattr(bench, "spd_inverse", no_compute)
        with pytest.raises(ValueError, match=name):
            run_experiment(ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3,
                                            **{name: value}))

    def test_budget_must_stay_below_node_count(self):
        cfg = ExperimentConfig(small_labeled_graph(), [Strategy("random")], budget=12, runs=1)
        with pytest.raises(ValueError, match="smaller than the node count"):
            run_experiment(cfg)

    def test_binary_only_kind_on_multiclass_graph_fails_before_any_inverse(self, monkeypatch):
        def no_inverse(matrix):
            raise AssertionError("an inverse was computed")

        monkeypatch.setattr(bench, "spd_inverse", no_inverse)
        cfg = ExperimentConfig(
            "community:5,5,5:pin=0.8:pout=0.1",
            [Strategy("tv"), Strategy("klg")],
            budget=3,
            runs=2,
        )
        with pytest.raises(ValueError, match=r"'klg' \(klg\).*3 classes"):
            run_experiment(cfg)


class TestRunExperiment:
    def test_curve_shape_with_budget_n_minus_one(self):
        lg = small_labeled_graph(n=8)
        cfg = ExperimentConfig(lg, [Strategy("random")], budget=7, runs=2, seed=3)
        curves = run_experiment(cfg)
        assert curves["random"].values.shape == (2, 7)
        assert curves["random"].budget == 7

    def test_identical_configs_give_identical_curves(self):
        cfg_a = ExperimentConfig("grid:5x5", [Strategy("random")], budget=6, runs=3, seed=9)
        cfg_b = ExperimentConfig("grid:5x5", [Strategy("random")], budget=6, runs=3, seed=9)
        a = run_experiment(cfg_a)["random"].values
        b = run_experiment(cfg_b)["random"].values
        assert np.array_equal(a, b)

    def test_strategies_share_first_query(self):
        lg = small_labeled_graph(seed=4)
        first = {}

        def hook(strategy, model, run, t):
            if t == 1:
                first.setdefault(run, {})[strategy.label] = next(iter(model.labeled))

        cfg = ExperimentConfig(lg, [Strategy("tv"), Strategy("vm"), Strategy("random")],
                               budget=4, runs=3, seed=2)
        run_experiment(cfg, step_hook=hook)
        for per_run in first.values():
            assert len(set(per_run.values())) == 1

    def test_no_node_queried_twice_and_label_count_tracks_t(self):
        lg = small_labeled_graph(seed=5)

        def hook(strategy, model, run, t):
            assert len(model.labeled) == t

        cfg = ExperimentConfig(lg, [Strategy("msd")], budget=8, runs=2, seed=0)
        run_experiment(cfg, step_hook=hook)

    def test_retraining_counters_respect_cost_contract(self):
        lg = small_labeled_graph(seed=6)
        calls = {}

        def hook(strategy, model, run, t):
            calls[strategy.label] = model.retrain_calls

        strategies = [Strategy(k) for k in ("tv", "msd", "klg", "vm", "sigma-opt", "unc")]
        cfg = ExperimentConfig(lg, strategies, budget=5, runs=1, seed=1)
        run_experiment(cfg, step_hook=hook)
        assert all(v == 0 for v in calls.values())

        cfg_fl = ExperimentConfig(lg, [Strategy("fl")], budget=5, runs=1, seed=1)
        run_experiment(cfg_fl, step_hook=hook)
        # scans happen at t = 2..5 over shrinking pools of <= n-1 nodes
        assert 0 < calls["fl"] <= 2 * lg.graph.n * 4

    def test_components_counted_once_per_run(self, monkeypatch):
        # community_graph checks connectivity and regularized_laplacian checks
        # the same graph again; the second check reuses the first count
        original = bench.graph_mod._count_components
        calls = []

        def counting(n, edges):
            calls.append(n)
            return original(n, edges)

        monkeypatch.setattr(bench.graph_mod, "_count_components", counting)
        cfg = ExperimentConfig("community:10,12:pin=0.8:pout=0.05", [Strategy("tv")],
                               budget=3, runs=2, seed=1, delta=0.2)
        run_experiment(cfg)
        assert calls == [22, 22]

    def test_generator_source_resampled_per_run(self):
        seen = set()

        def hook(strategy, model, run, t):
            seen.add((run, model.G.shape[0]))

        cfg = ExperimentConfig("community:6,6:pin=0.9:pout=0.1", [Strategy("random")],
                               budget=2, runs=2, seed=0)
        run_experiment(cfg, step_hook=hook)
        assert len(seen) == 4

    def test_eval_on_initial_counts_queried_nodes(self):
        lg = small_labeled_graph(seed=7)
        cfg_r = ExperimentConfig(lg, [Strategy("random")], budget=5, runs=1, seed=0)
        cfg_i = ExperimentConfig(lg, [Strategy("random")], budget=5, runs=1, seed=0,
                                 eval_on="initial")
        remaining = run_experiment(cfg_r)["random"].values[0]
        initial = run_experiment(cfg_i)["random"].values[0]
        n = lg.graph.n
        for t in range(5):
            hits = remaining[t] * (n - t - 1)
            assert initial[t] == pytest.approx((hits + t + 1) / n, abs=1e-12)


class TestAccuracy:
    def test_all_correct(self):
        lg = small_labeled_graph(seed=8)
        lap = regularized_laplacian(lg.graph, 0.1)
        G = GmrfModel.from_laplacian(lap, 2).G
        mu = np.array([1.0 if lg.labels[i] == 1 else -1.0 for i in range(lg.graph.n)])
        model = GmrfModel(np.arange(lg.graph.n), {}, G, np.stack([-mu, mu]), lap.delta)
        assert accuracy(model, lg.label_vector()) == 1.0

    def test_zero_mean_predicts_minus_class_everywhere(self):
        lg = small_labeled_graph(seed=9)
        lap = regularized_laplacian(lg.graph, 0.1)
        model = GmrfModel.from_laplacian(lap, 2)  # mu = 0 everywhere
        expected = sum(1 for c in lg.labels.values() if c == 0) / lg.graph.n
        assert accuracy(model, lg.label_vector()) == pytest.approx(expected)

    def test_matches_hand_count(self):
        rng = np.random.default_rng(10)
        g = random_connected_graph(20, rng)
        labels = np.array([int(rng.random() < 0.5) for i in range(20)])
        lap = regularized_laplacian(g, 0.05)
        G = GmrfModel.from_laplacian(lap, 2).G
        mu = rng.uniform(-1, 1, size=20)
        model = GmrfModel(np.arange(20), {}, G, np.stack([-mu, mu]), lap.delta)
        hand = sum(
            1 for i in range(20) if (1 if model.mu[i] > 0 else 0) == labels[i]
        ) / 20
        assert accuracy(model, labels) == pytest.approx(hand)

    def test_label_forms_agree_and_initial_counts_queried_as_correct(self):
        lg = small_labeled_graph(seed=11)
        lap = regularized_laplacian(lg.graph, 0.1)
        model = GmrfModel.from_laplacian(lap, 2)
        for node in (0, 1, 5):
            model.observe(node, lg.labels[node])
        labels = lg.label_vector()
        remaining = accuracy(model, labels)
        hand = sum(pred == lg.labels[node] for node, pred in model.predict().items())
        assert remaining == hand / model.num_unlabeled
        n = lg.graph.n
        hits = round(remaining * (n - 3))
        assert accuracy(model, labels, eval_on="initial") == (hits + 3) / n

    def test_multiclass_matches_fresh_solve_class_mass_oracle(self):
        lg = community_graph((10, 10, 10), 0.6, 0.05, seed=2)
        lap = regularized_laplacian(lg.graph, 0.2)
        mm = GmrfModel.from_laplacian(lap, 3)
        queried = (0, 1, 2, 3, 10, 20)  # four labels of class 0, one each of 1 and 2
        for node in queried:
            mm.observe(node, lg.labels[node])
        fields = np.array([
            conditional_mean_direct(
                lap, {n: 1.0 if lg.labels[n] == c else -1.0 for n in queried})
            for c in range(3)
        ])
        unl = [i for i in range(lg.graph.n) if i not in queried]
        truth = lg.label_vector()[unl]
        soft = fields + 1.0
        cmn_hits = np.count_nonzero(np.argmax(soft / soft.sum(axis=1, keepdims=True), axis=0) == truth)
        argmax_hits = np.count_nonzero(np.argmax(fields, axis=0) == truth)
        assert cmn_hits != argmax_hits  # the state tells the two rules apart
        assert accuracy(mm, lg.label_vector()) == pytest.approx(cmn_hits / len(unl))
        n = lg.graph.n
        assert accuracy(mm, lg.label_vector(), eval_on="initial") == pytest.approx(
            (cmn_hits + len(queried)) / n)

    def test_rejects_bad_eval_mode(self):
        lg = small_labeled_graph(seed=12)
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.1), 2)
        with pytest.raises(ValueError, match="eval_on"):
            accuracy(model, lg.label_vector(), eval_on="test-split")

    def test_rejects_label_mapping(self):
        lg = small_labeled_graph(seed=12)
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.1), 2)
        with pytest.raises(ValueError, match="labels"):
            accuracy(model, dict(lg.labels))


class TestBaselineAccuracy:
    def test_majority_fraction(self):
        assert baseline_accuracy([1, 1, 0]) == pytest.approx(2 / 3)

    def test_balanced_binary(self):
        assert baseline_accuracy([0, 1, 0, 1]) == pytest.approx(0.5)

    def test_accepts_mapping(self):
        assert baseline_accuracy({0: 2, 1: 2, 2: 1}) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            baseline_accuracy([])


class TestEmit:
    def test_csv_schema_and_round_trip(self, tmp_path):
        lg = small_labeled_graph(seed=11)
        cfg = ExperimentConfig(lg, [Strategy("tv"), Strategy("random")],
                               budget=3, runs=2, seed=1)
        results = run_experiment(cfg)
        path = tmp_path / "out.csv"
        emit_csv(results, path)
        raw = path.read_bytes().decode("utf-8")
        assert "\r" not in raw
        rows = list(csv.DictReader(raw.splitlines()))
        assert len(rows) == 6  # 3 data rows per strategy
        for row in rows:
            curve = results[row["strategy"]]
            t = int(row["t"])
            assert float(row["mean_accuracy"]) == pytest.approx(curve.mean[t - 1], abs=5e-7)
            assert float(row["std_accuracy"]) == pytest.approx(curve.std[t - 1], abs=5e-7)
            assert int(row["runs"]) == 2
        assert raw.splitlines()[0] == "strategy,t,mean_accuracy,std_accuracy,runs"

    def test_empty_results_error_and_no_file(self, tmp_path):
        path = tmp_path / "none.csv"
        with pytest.raises(ValueError, match="no results"):
            emit_csv({}, path)
        assert not path.exists()

    def test_summary_contains_checkpoints(self):
        curve = AccuracyCurve("tv", np.linspace(0.5, 1.0, 40).reshape(2, 20))
        text = emit_summary({"tv": curve})
        assert "t=5" in text and "t=20" in text
        assert "tv" in text

    def test_curve_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AccuracyCurve("x", np.array([[1.5]]))


class TestOracle:
    def test_grid_experiment_end_to_end(self):
        cfg = ExperimentConfig("grid:5x5", [Strategy("tv", confidence="inv_sqrt")],
                               budget=10, runs=2, seed=4)
        curves = run_experiment(cfg)
        assert curves["tv"].values.shape == (2, 10)
        assert np.all(curves["tv"].values >= 0) and np.all(curves["tv"].values <= 1)

    def test_multiclass_community_end_to_end(self):
        cfg = ExperimentConfig("community:8,8,8:pin=0.9:pout=0.05",
                               [Strategy("vm"), Strategy("random")],
                               budget=6, runs=2, seed=5)
        curves = run_experiment(cfg)
        assert set(curves) == {"vm", "random"}
        grid = grid_graph(5, 5, seed=1)
        assert grid.num_classes == 2
