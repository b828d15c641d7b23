"""Monte-Carlo harness: determinism, accuracy metrics, CSV output."""

import csv
import dataclasses
import hashlib
import re
import tracemalloc

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
    save_edge_list,
    save_labels,
    spd_inverse,
)
from gmrf_active import bench, gmrf
from gmrf_active.bench import EVAL_MODES
from gmrf_active.checks import random_connected_graph


def small_labeled_graph(seed=0, n=12):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    labels = {i: int(rng.random() < 0.5) for i in range(n)}
    labels[0], labels[1] = 0, 1  # both classes always present
    return LabeledGraph(g, labels, 2)


def _forbid_compute(monkeypatch):
    """Make the harness's graph draw, Laplacian and inverse fail if called."""
    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the config was checked")

    monkeypatch.setattr(bench.graph_mod, "from_spec", no_compute)
    monkeypatch.setattr(bench, "regularized_laplacian", no_compute)
    monkeypatch.setattr(bench, "spd_inverse", no_compute)


class TestConfigValidation:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            ExperimentConfig("grid:4x4", [Strategy("tv"), Strategy("tv")], budget=3)

    @pytest.mark.parametrize("label", ["tv,a", 'tv"a', "tv\na", "tv\ra"])
    def test_rejects_labels_that_break_csv_rows(self, label):
        with pytest.raises(ValueError, match=re.escape(f"strategy label {label!r}")):
            ExperimentConfig("grid:4x4", [Strategy("tv", name=label)], budget=3)

    def test_rejects_bad_budget_runs_delta(self):
        with pytest.raises(ValueError, match="budget"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=0)
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3, runs=0)
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3, delta=-1)

    @pytest.mark.parametrize("name, value, message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("budget", 0, "budget must be >= 1, got 0"),
        ("runs", 0, "runs must be >= 1, got 0"),
    ])
    def test_bound_messages_name_field_bound_and_value(self, name, value, message):
        with pytest.raises(ValueError) as info:
            ExperimentConfig("grid:4x4", [Strategy("tv")], **{"budget": 3, name: value})
        assert str(info.value) == message

    def test_rejects_bad_eval_mode(self):
        with pytest.raises(ValueError, match="eval_on"):
            ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3, eval_on="test-split")

    @pytest.mark.parametrize("name, value", [
        ("delta", float("nan")), ("delta", float("inf")), ("seed", -1),
        ("seed", 1.5), ("budget", 2.5), ("runs", 2.5), ("delta", "x"), ("delta", None),
        ("budget", True), ("runs", True), ("seed", False), ("delta", True),
        ("seed", np.float64(2.0)), ("delta", "0.1"), ("delta", 10**400),
    ])
    def test_rejects_bad_delta_or_seed_before_any_compute(self, monkeypatch, name, value):
        _forbid_compute(monkeypatch)
        with pytest.raises(ValueError, match=name):
            run_experiment(ExperimentConfig("grid:4x4", [Strategy("tv")],
                                            **{"budget": 3, name: value}))

    @pytest.mark.parametrize("graph", [123, None, b"grid:4x4"], ids=["int", "None", "bytes"])
    def test_rejects_graph_that_is_neither_spec_nor_labeled_graph(self, monkeypatch, graph):
        # an int used to reach run_experiment and fail there with
        # "AttributeError: 'int' object has no attribute 'partition'"
        _forbid_compute(monkeypatch)
        with pytest.raises(ValueError) as info:
            run_experiment(ExperimentConfig(graph, [Strategy("tv")], budget=3))
        assert str(info.value) == ("graph must be a source spec string or a LabeledGraph, "
                                   f"got {graph!r}")

    def test_rejects_empty_strategy_list(self):
        with pytest.raises(ValueError, match="^need at least one strategy$"):
            ExperimentConfig("grid:4x4", [], budget=3)

    @pytest.mark.parametrize("entries, message", [
        ([Strategy("tv"), "vm"], "strategies[1] must be a Strategy, got 'vm'"),
        (["tv"], "strategies[0] must be a Strategy, got 'tv'"),
        ("tv", "strategies[0] must be a Strategy, got 't'"),
    ])
    def test_rejects_entry_that_is_not_a_strategy_naming_its_position(self, entries, message):
        with pytest.raises(ValueError) as info:
            ExperimentConfig("grid:4x4", entries, budget=2)
        assert str(info.value) == message

    @pytest.mark.parametrize("name, value", [("budget", True), ("runs", 0), ("delta", -1.0),
                                             ("strategies", []), ("eval_on", "x"),
                                             ("graph", "grid:2x2")])
    def test_fields_cannot_be_reassigned(self, name, value):
        cfg = ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert cfg == ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3)

    def test_strategies_stored_as_a_tuple_and_a_generator_runs_every_strategy(self):
        cfg = ExperimentConfig("grid:4x4", (Strategy(k) for k in ("tv", "vm", "random")),
                               budget=2, runs=2)
        assert cfg.strategies == (Strategy("tv"), Strategy("vm"), Strategy("random"))
        from_list = run_experiment(ExperimentConfig(
            "grid:4x4", [Strategy("tv"), Strategy("vm"), Strategy("random")], budget=2, runs=2))
        results = run_experiment(cfg)
        assert list(results) == ["tv", "vm", "random"]
        for label, curve in results.items():
            assert np.array_equal(curve.values, from_list[label].values)

    def test_delta_kept_as_float(self):
        cfg = ExperimentConfig("grid:4x4", [Strategy("tv")], budget=3, delta=np.float32(0.5))
        assert cfg.delta == 0.5 and type(cfg.delta) is float

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig("grid:4x4", [Strategy("tv")], budget=np.int64(3),
                               runs=np.int32(2), seed=np.uint8(5))
        assert (cfg.budget, cfg.runs, cfg.seed) == (3, 2, 5)
        assert all(type(v) is int for v in (cfg.budget, cfg.runs, cfg.seed))

    def test_budget_must_stay_below_node_count(self):
        cfg = ExperimentConfig(small_labeled_graph(), [Strategy("random")], budget=12, runs=1)
        with pytest.raises(ValueError, match="smaller than the node count"):
            run_experiment(cfg)

    def test_binary_only_kind_on_multiclass_graph_fails_before_any_inverse(self, monkeypatch):
        def no_inverse(matrix, **kwargs):
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

    def test_graph_reuse_never_builds_an_edge_map(self, monkeypatch):
        # run_experiment's equal-graph test compares the edge arrays
        def no_map(graph):
            raise AssertionError("edge map built")

        monkeypatch.setattr(bench.graph_mod.Graph, "edges", property(no_map))
        for spec in ("grid:5x5", "community:10,12:pin=0.8:pout=0.05"):
            run_experiment(ExperimentConfig(spec, [Strategy("tv")], budget=3, runs=2,
                                            seed=1, delta=0.2))

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
        # a grid redraws only its labels over one lattice per shape, so its
        # components are counted once per process, not once per experiment
        calls.clear()
        bench.graph_mod._lattice.cache_clear()
        run_experiment(ExperimentConfig("grid:5x5", [Strategy("tv")], budget=3, runs=3))
        assert calls == [25]
        run_experiment(ExperimentConfig("grid:5x5", [Strategy("tv")], budget=3, runs=3))
        assert calls == [25]

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


def _count_setup_calls(monkeypatch):
    """Count calls of the harness's Laplacian and inverse; keep each inverse."""
    calls = {"regularized_laplacian": 0, "spd_inverse": 0}
    inverses = []

    def wrap(name, fn, keep):
        def counted(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            keep.append(out)
            return out
        monkeypatch.setattr(bench, name, counted)

    wrap("regularized_laplacian", bench.regularized_laplacian, [])
    wrap("spd_inverse", bench.spd_inverse, inverses)
    return calls, inverses


class TestInverseReuse:
    @pytest.mark.parametrize("source, runs, builds", [
        ("grid:5x5", 3, 1),
        ("ready", 3, 1),
        ("community:6,6:pin=0.9:pout=0.1", 2, 2),
    ])
    def test_laplacian_and_inverse_built_once_per_distinct_graph(self, monkeypatch,
                                                                 source, runs, builds):
        graph = small_labeled_graph(seed=2) if source == "ready" else source
        calls, _ = _count_setup_calls(monkeypatch)
        cfg = ExperimentConfig(graph, [Strategy("tv"), Strategy("random")], budget=3,
                               runs=runs, seed=1)
        run_experiment(cfg)
        assert calls == {"regularized_laplacian": builds, "spd_inverse": builds}

    @pytest.mark.parametrize("source, runs, models", [
        ("grid:5x5", 3, 1),
        ("community:6,6:pin=0.9:pout=0.1", 2, 2),
    ])
    def test_one_validated_model_per_distinct_inverse(self, monkeypatch, source, runs, models):
        # each inverse is checked and summed once, by one constructor call;
        # every strategy of every run on it starts from a copy
        checks = []
        require = gmrf._require_symmetric
        monkeypatch.setattr(gmrf, "_require_symmetric",
                            lambda a, name: checks.append(name) or require(a, name))
        built = []
        init = GmrfModel.__init__
        monkeypatch.setattr(GmrfModel, "__init__",
                            lambda self, *args: built.append(self) or init(self, *args))
        copies = []
        copy = GmrfModel.copy
        monkeypatch.setattr(GmrfModel, "copy", lambda self: copies.append(self) or copy(self))
        cfg = ExperimentConfig(source, [Strategy("tv"), Strategy("msd"), Strategy("random")],
                               budget=3, runs=runs, seed=1)
        run_experiment(cfg)
        assert len(built) == models
        assert checks == ["matrix", "G"] * models  # each Laplacian, then its inverse
        assert len(copies) == 3 * runs and set(map(id, copies)) == set(map(id, built))

    @pytest.mark.parametrize("source", ["grid:5x5", "community:6,6:pin=0.9:pout=0.1"])
    @pytest.mark.parametrize("eval_on", EVAL_MODES)
    def test_each_run_matches_a_one_run_experiment(self, source, eval_on):
        strategies = [Strategy("tv", confidence="inv_sqrt"), Strategy("msd"),
                      Strategy("klg"), Strategy("random")]

        def curves(seed, runs):
            cfg = ExperimentConfig(source, strategies, budget=5, runs=runs, seed=seed,
                                   delta=0.05, eval_on=eval_on)
            return run_experiment(cfg)

        together = curves(seed=11, runs=3)
        for r in range(3):
            alone = curves(seed=11 + r, runs=1)
            for s in strategies:
                assert np.array_equal(together[s.label].values[r], alone[s.label].values[0])

    def test_file_source_read_once_per_experiment(self, monkeypatch, tmp_path):
        lg = community_graph([12, 14], 0.5, 0.05, seed=2)
        save_edge_list(lg.graph, tmp_path / "g.edges")
        save_labels(lg.labels, tmp_path / "g.labels")
        reads = []
        load = bench.graph_mod.load_edge_list

        def counted(path):
            reads.append(path)
            return load(path)

        monkeypatch.setattr(bench.graph_mod, "load_edge_list", counted)
        strategies = [Strategy("tv", confidence="inv_sqrt"), Strategy("msd"), Strategy("fl")]
        csvs = []
        for source in (f"file:{tmp_path}/g.edges:{tmp_path}/g.labels", lg):
            out = tmp_path / f"{len(csvs)}.csv"
            emit_csv(run_experiment(ExperimentConfig(source, strategies, budget=6, runs=3,
                                                     seed=5)), out)
            csvs.append(out.read_bytes())
        assert len(reads) == 1
        assert csvs[0] == csvs[1]
        # recorded when every run read the file again
        assert hashlib.sha256(csvs[0]).hexdigest() == (
            "d360997ef3baacc1a4f3060cb15751b9f1e4661ee45f3d65f569d2862df93f25")

    def test_shared_inverse_is_left_unchanged(self, monkeypatch):
        _, inverses = _count_setup_calls(monkeypatch)
        cfg = ExperimentConfig("grid:5x5", [Strategy("tv"), Strategy("klg")], budget=8,
                               runs=3, seed=3)
        run_experiment(cfg)
        [shared] = inverses
        fresh = spd_inverse(regularized_laplacian(grid_graph(5, 5, seed=3).graph,
                                                  cfg.delta).matrix)
        assert np.array_equal(shared, fresh)

    def test_set_up_peaks_at_one_square_array(self):
        # the inverse is computed over the Laplacian's own array; a copy of
        # it for LAPACK made the peak two n^2 arrays (2.01 x 8 n^2 here)
        cfg = ExperimentConfig("grid:30x30", [Strategy("tv")], budget=1, runs=1)
        run_experiment(cfg)  # first call loads what it needs outside the measurement
        v_bytes = []
        tracemalloc.start()
        try:
            run_experiment(cfg, step_hook=lambda model, **_: v_bytes.append(model._V.nbytes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        square = 8 * 900 * 900
        # the inverse, then the step-column buffers V of the start model and
        # of its copy; the slack holds the models' (C + 2, n) fields and the
        # checks' panels
        assert peak <= square + 2 * v_bytes[0] + 0.1 * square

    def test_new_graph_set_up_frees_the_previous_inverse(self):
        # every run draws a new 1000-node graph; the previous inverse, held
        # by the start model and the last strategy's model, stayed alive
        # through the next set-up, and the peak read 2.53 x 8 n^2
        spec = "community:250,250,250,250:pin=0.05:pout=0.002"
        run_experiment(ExperimentConfig(spec, [Strategy("tv")], budget=1, runs=1, seed=11,
                                        delta=0.2))  # loads what it needs outside the measurement
        cfg = ExperimentConfig(spec, [Strategy("tv")], budget=20, runs=3, seed=11, delta=0.2)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.70 x 8 n^2: the previous inverse while the next graph
        # is drawn (0.39), and the step-column buffers V of the start model
        # and of its copy; the margin of 0.1 is the set-up test's slack
        assert peak <= 1.8 * 8 * 1000 * 1000

    @pytest.mark.parametrize("kind", ["vm", "msd"])
    def test_column_norm_kinds_peak_without_a_square_temporary(self, kind):
        # the first read of the column sums of squares streams row panels of
        # the inverse; the former build over G took 3.31 x 8 n^2 here
        cfg = ExperimentConfig("grid:30x30", [Strategy(kind)], budget=30, runs=1)
        run_experiment(cfg)  # first call loads what it needs outside the measurement
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.39 x 8 n^2: the inverse, the step-column buffers V of the
        # start model and of its copy (0.14 each) and two 256 KB panels
        # (0.08); the margin of 0.11 is about one more V buffer
        assert peak <= 1.5 * 8 * 900 * 900

    @pytest.mark.parametrize("kind", ["fl", "kl"])
    def test_retraining_kinds_peak_at_one_carried_block(self, kind):
        # fl and kl carry one |U|^2 block of G from their first scan on
        run_experiment(ExperimentConfig("grid:4x4", [Strategy(kind)], budget=5, runs=1))
        cfg = ExperimentConfig("grid:30x30", [Strategy(kind)], budget=30, runs=1)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 3.31 x 8 n^2 for both: the inverse, two square arrays at
        # once (about 2; the first build of the carried block holds its row
        # and column gathers, and each early downdate the old and the new
        # block), and the step-column buffers V of the start model and of
        # its copy (0.14 each). The margin is 0.09: a
        # scan that copied the carried block read 3.41 (fl) and 3.52 (kl),
        # and a second block kept beside the carried one 4.3
        assert peak <= 3.4 * 8 * 900 * 900


class TestAccuracy:
    def test_all_correct(self):
        lg = small_labeled_graph(seed=8)
        lap = regularized_laplacian(lg.graph, 0.1)
        G = GmrfModel.from_laplacian(lap, 2).G
        mu = np.array([1.0 if lg.labels[i] == 1 else -1.0 for i in range(lg.graph.n)])
        model = GmrfModel(G, np.stack([-mu, mu]))
        assert accuracy(model, lg.labels) == 1.0

    def test_zero_mean_predicts_minus_class_everywhere(self):
        lg = small_labeled_graph(seed=9)
        lap = regularized_laplacian(lg.graph, 0.1)
        model = GmrfModel.from_laplacian(lap, 2)  # mu = 0 everywhere
        expected = sum(1 for c in lg.labels if c == 0) / lg.graph.n
        assert accuracy(model, lg.labels) == pytest.approx(expected)

    def test_matches_hand_count(self):
        rng = np.random.default_rng(10)
        g = random_connected_graph(20, rng)
        labels = np.array([int(rng.random() < 0.5) for i in range(20)])
        lap = regularized_laplacian(g, 0.05)
        G = GmrfModel.from_laplacian(lap, 2).G
        mu = rng.uniform(-1, 1, size=20)
        model = GmrfModel(G, np.stack([-mu, mu]))
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
        labels = lg.labels
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
        truth = lg.labels[unl]
        soft = fields + 1.0
        cmn_hits = np.count_nonzero(np.argmax(soft / soft.sum(axis=1, keepdims=True), axis=0) == truth)
        argmax_hits = np.count_nonzero(np.argmax(fields, axis=0) == truth)
        assert cmn_hits != argmax_hits  # the state tells the two rules apart
        assert accuracy(mm, lg.labels) == pytest.approx(cmn_hits / len(unl))
        n = lg.graph.n
        assert accuracy(mm, lg.labels, eval_on="initial") == pytest.approx(
            (cmn_hits + len(queried)) / n)

    def test_rejects_bad_eval_mode(self):
        lg = small_labeled_graph(seed=12)
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.1), 2)
        with pytest.raises(ValueError, match="eval_on"):
            accuracy(model, lg.labels, eval_on="test-split")

    def test_rejects_label_mapping(self):
        lg = small_labeled_graph(seed=12)
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.1), 2)
        with pytest.raises(ValueError, match="labels"):
            accuracy(model, dict(enumerate(lg.labels.tolist())))

    @pytest.mark.parametrize("extra", [-1, 1, 16], ids=["n-1", "n+1", "2n"])
    @pytest.mark.parametrize("eval_on", EVAL_MODES)
    def test_rejects_labels_not_one_per_model_node_before_counting(self, monkeypatch,
                                                                   extra, eval_on):
        lg = grid_graph(4, 4, seed=3)
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.1), 2)
        model.observe(5, lg.labels[5])
        labels = np.resize(lg.labels, 16 + extra)
        monkeypatch.setattr(bench, "class_decision", None)  # counting would call it
        with pytest.raises(ValueError, match=r"^labels must be a 1-D array of class ids"
                                             r".*\bn=16\b"):
            accuracy(model, labels, eval_on=eval_on)

    def test_initial_divides_by_the_model_node_count(self):
        lg = grid_graph(4, 4, seed=3)
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.1), 2)
        model.observe(5, lg.labels[5])
        hits = sum(pred == lg.labels[node] for node, pred in model.predict().items())
        assert accuracy(model, lg.labels, eval_on="initial") == (hits + 1) / 16
        # a label array twice as long names no more nodes of the model
        with pytest.raises(ValueError, match="n=16"):
            accuracy(model, np.concatenate([lg.labels, lg.labels]), eval_on="initial")

    def test_rejects_a_model_with_no_unlabeled_node(self):
        lg = small_labeled_graph(seed=12, n=4)
        model = GmrfModel.from_laplacian(regularized_laplacian(lg.graph, 0.1), 2)
        for node in range(4):
            model.observe(node, lg.labels[node])
        with pytest.raises(ValueError, match="^no unlabeled nodes left to evaluate$"):
            accuracy(model, lg.labels)


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
        # NaN fails both the < 0 and the > 1 test
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"^accuracy values must lie in \[0, 1\]$"):
                AccuracyCurve("x", [[0.5, bad]])

    def test_curve_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=r"^values must be a \(runs, budget\) array$"):
            AccuracyCurve("x", [0.5, 0.5])

    def test_empty_results_have_no_summary(self):
        with pytest.raises(ValueError, match="^no results to summarize$"):
            emit_summary({})


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
