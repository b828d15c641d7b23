"""Command-line interface: parsing, exit codes, end-to-end flows."""

import argparse
import dataclasses
import inspect
import os

import numpy as np
import pytest

from gmrf_active import (
    ExperimentConfig,
    Strategy,
    build_from_features,
    load_edge_list,
    load_labels,
    normalize_features,
)
from gmrf_active import checks, cli
from gmrf_active import graph as graph_mod
from gmrf_active.bench import EVAL_MODES
from gmrf_active.cli import main


def test_compare_parses_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = main([
        "compare", "--graph", "grid:5x5", "--strategies", "tv,msd,random",
        "--T", "6", "--runs", "2", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,t,mean_accuracy,std_accuracy,runs"
    assert len(lines) == 1 + 3 * 6
    captured = capsys.readouterr()
    assert "t=6" in captured.out  # summary table on stdout
    assert "wrote" in captured.err


def test_negative_delta_is_usage_error(tmp_path):
    code = main([
        "run", "--strategy", "tv", "--graph", "grid:5x5", "--T", "3",
        "--delta", "-1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--delta", "nan"), ("--delta", "inf"), ("--hybrid", "nan"), ("--seed", "-1"),
    ("--threshold", "nan"), ("--threshold", "inf"),
])
def test_bad_numeric_option_is_usage_error(tmp_path, capsys, flag, value):
    out = str(tmp_path / "x.csv")
    if flag == "--threshold":
        command = ["build-graph", "--features", str(tmp_path / "f.csv"), "--out-edges", out]
    else:
        command = ["run", "--strategy", "tv", "--graph", "grid:5x5", "--T", "3", "--runs", "1",
                   "--out", out]
    code = main(command + [flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unknown_flag_is_usage_error():
    assert main(["run", "--strategy", "tv", "--graph", "grid:5x5", "--T", "3",
                 "--frobnicate"]) == 2


def test_unknown_strategy_is_usage_error():
    assert main(["compare", "--graph", "grid:5x5", "--strategies", "tv,bogus",
                 "--T", "3"]) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--delta", "0", "argument --delta: value must be finite and > 0, got 0.0"),
    ("--delta", "abc", "argument --delta: could not convert string to float: 'abc'"),
    ("--hybrid", "-0.5", "argument --hybrid: value must be finite and >= 0, got -0.5"),
    ("--hybrid", "x", "argument --hybrid: could not convert string to float: 'x'"),
    ("--T", "2.5", "argument --T: '2.5' is not an integer"),
    ("--T", "0", "argument --T: must be positive, got 0"),
    ("--seed", "x", "argument --seed: 'x' is not an integer"),
    ("--confidence", "const:x", "argument --confidence: bad confidence spec 'const:x'"),
    ("--strategies", ",", "argument --strategies: empty strategy list"),
])
def test_usage_error_names_flag_and_value(capsys, flag, value, message):
    code = main(["compare", "--graph", "grid:5x5", "--strategies", "tv", "--T", "3",
                 flag, value])
    assert code == 2
    assert message in capsys.readouterr().err


def test_duplicate_strategies_is_usage_error():
    assert main(["compare", "--graph", "grid:5x5", "--strategies", "tv,tv",
                 "--T", "3"]) == 2


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    code = main([
        "run", "--strategy", "tv", "--graph", "file:/no/such/file.edges:/no/such/file.labels",
        "--T", "3", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "/no/such/file.edges" in capsys.readouterr().err


def test_budget_too_large_is_runtime_error(tmp_path, capsys):
    code = main([
        "run", "--strategy", "random", "--graph", "grid:4x4", "--T", "16",
        "--runs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "smaller than the node count" in capsys.readouterr().err


def test_gen_then_run_from_files(tmp_path):
    edges = tmp_path / "g.edges"
    labels = tmp_path / "g.labels"
    assert main(["gen", "--graph", "grid:5x5", "--seed", "3",
                 "--out-edges", str(edges), "--out-labels", str(labels)]) == 0
    g = load_edge_list(edges)
    assert g.n == 25 and g.num_edges == 40
    assert set(load_labels(labels)) == set(range(25))

    out = tmp_path / "curves.csv"
    code = main([
        "run", "--strategy", "vm", "--graph", f"file:{edges}:{labels}",
        "--T", "5", "--runs", "2", "--out", str(out),
    ])
    assert code == 0 and out.exists()


def test_build_graph_matches_library_oracle(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 10, size=(8, 3))
    y = (X[:, 0] > 5).astype(int)
    csv_path = tmp_path / "data.csv"
    with open(csv_path, "w") as fh:
        for row, label in zip(X, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")

    edges = tmp_path / "data.edges"
    labels = tmp_path / "data.labels"
    code = main([
        "build-graph", "--features", str(csv_path), "--method", "rbf",
        "--sigma", "2.0", "--threshold", "0.05",
        "--out-edges", str(edges), "--out-labels", str(labels),
    ])
    assert code == 0
    expected = build_from_features(normalize_features(X), "rbf", sigma=2.0, threshold=0.05)
    loaded = load_edge_list(edges)
    assert loaded.edges.keys() == expected.edges.keys()
    for key, w in expected.edges.items():
        assert loaded.edges[key] == pytest.approx(w, abs=1e-15)
    assert load_labels(labels) == {i: int(c) for i, c in enumerate(y)}


def test_byte_identical_output_for_identical_argv(tmp_path):
    argv = ["compare", "--graph", "grid:5x5", "--strategies", "tv,random",
            "--T", "4", "--runs", "2", "--seed", "11"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_outdir_env_used_for_default_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GMRF_ACTIVE_OUTDIR", str(tmp_path))
    code = main(["run", "--strategy", "random", "--graph", "grid:4x4",
                 "--T", "3", "--runs", "1"])
    assert code == 0
    assert (tmp_path / "results.csv").exists()


def test_check_command_passes(capsys):
    assert main(["check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6
    assert "[FAIL]" not in out


def test_maxmin_flag_applies_to_retraining_strategy(tmp_path):
    code = main([
        "run", "--strategy", "fl", "--maxmin", "--graph", "grid:4x4",
        "--T", "3", "--runs", "1", "--out", str(tmp_path / "fl.csv"),
    ])
    assert code == 0


def test_maxmin_with_closed_form_strategy_is_usage_error(tmp_path, capsys):
    out = tmp_path / "tv.csv"
    code = main([
        "run", "--strategy", "tv", "--maxmin", "--graph", "grid:4x4",
        "--T", "3", "--runs", "1", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gmrf-active run")
    assert "gmrf-active run: error: argument --maxmin:" in err
    assert not out.exists()


def _no_compute(*args, **kwargs):
    # pytest.fail raises past main's `except Exception`, so the test fails
    pytest.fail("compute ran before the output path was checked")


# command -> (argv without the output flag, output flag, default file name)
OUTPUT_COMMANDS = {
    "run": (["run", "--strategy", "tv", "--graph", "grid:40x40", "--T", "30", "--runs", "100"],
            "--out", "results.csv"),
    "compare": (["compare", "--graph", "grid:5x5", "--strategies", "tv,random", "--T", "3"],
                "--out", "results.csv"),
    "build-graph": (["build-graph", "--features", "data.csv"], "--out-edges", "data.edges"),
}


@pytest.mark.parametrize("target", ["missing-parent", "directory", "outdir-env"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_bad_output_path_fails_before_any_compute(tmp_path, monkeypatch, capsys,
                                                  command, target):
    monkeypatch.setattr(cli, "run_experiment", _no_compute)
    monkeypatch.setattr(graph_mod, "load_features", _no_compute)
    monkeypatch.setattr(graph_mod, "build_from_features", _no_compute)
    argv, flag, default_name = OUTPUT_COMMANDS[command]
    missing = tmp_path / "no_such_dir"
    if target == "missing-parent":
        path = str(missing / "x.csv")
        argv = argv + [flag, path]
    elif target == "directory":
        path = str(tmp_path)
        argv = argv + [flag, path]
    else:
        monkeypatch.setenv("GMRF_ACTIVE_OUTDIR", str(missing))
        path = str(missing / default_name)
    assert main(argv) == 1
    assert path in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("command, flag", [
    ("build-graph", "--out-labels"), ("gen", "--out-edges"), ("gen", "--out-labels"),
])
def test_every_output_path_of_a_command_is_checked_first(tmp_path, monkeypatch, capsys,
                                                         command, flag):
    monkeypatch.setattr(graph_mod, "load_features", _no_compute)
    monkeypatch.setattr(graph_mod, "from_spec", _no_compute)
    paths = {"--out-edges": str(tmp_path / "g.edges"), "--out-labels": str(tmp_path / "g.labels")}
    paths[flag] = str(tmp_path / "no_such_dir" / "x")
    if command == "gen":
        argv = ["gen", "--graph", "grid:5x5"]
    else:
        argv = ["build-graph", "--features", str(tmp_path / "f.csv")]
    for name, path in paths.items():
        argv += [name, path]
    assert main(argv) == 1
    assert paths[flag] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gen", "build-graph"])
@pytest.mark.parametrize("spelling", ["same", "relative", "symlink"])
def test_one_file_for_edges_and_labels_fails_before_any_compute(tmp_path, monkeypatch, capsys,
                                                                command, spelling):
    # gen used to report 24 edges and leave only the 16 label lines in the file
    monkeypatch.setattr(graph_mod, "load_features", _no_compute)
    monkeypatch.setattr(graph_mod, "from_spec", _no_compute)
    monkeypatch.chdir(tmp_path)
    edges = str(tmp_path / "x")
    labels = {"same": edges, "relative": "x", "symlink": str(tmp_path / "link")}[spelling]
    if spelling == "symlink":
        (tmp_path / "x").write_text("")
        os.symlink(tmp_path / "x", tmp_path / "link")
    if command == "gen":
        argv = ["gen", "--graph", "grid:4x4"]
    else:
        argv = ["build-graph", "--features", str(tmp_path / "f.csv")]
    assert main(argv + ["--out-edges", edges, "--out-labels", labels]) == 1
    err = capsys.readouterr().err
    assert "--out-edges and --out-labels are the same file" in err
    assert labels in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["link", "x"] if spelling == "symlink" else [])


def _subparser(command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("argv", [
    ["run", "--strategy", "tv", "--graph", "grid:5x5", "--T", "3"],
    ["compare", "--graph", "grid:5x5", "--strategies", "tv", "--T", "3"],
])
def test_experiment_defaults_are_the_library_defaults(argv):
    # a literal copied into the CLI would drift once the library default changes
    config = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    strategy = {f.name: f.default for f in dataclasses.fields(Strategy)}
    args = _subparser(argv[0]).parse_args(argv[1:])
    for field in ("runs", "seed", "delta", "eval_on"):
        assert getattr(args, field) == config[field], field
    assert args.hybrid == strategy["hybrid_scale"]
    assert getattr(args, "maxmin", strategy["maxmin"]) == strategy["maxmin"]
    eval_on = next(a for a in _subparser(argv[0])._actions if a.dest == "eval_on")
    assert tuple(eval_on.choices) == EVAL_MODES


@pytest.mark.parametrize("argv, function, flags", [
    (["gen", "--graph", "grid:5x5", "--out-edges", "e", "--out-labels", "l"],
     graph_mod.from_spec, ["seed"]),
    (["build-graph", "--features", "f.csv"], graph_mod.build_from_features,
     ["method", "sigma", "threshold"]),
    (["check"], checks.run_all, ["seed"]),
])
def test_other_defaults_are_the_library_defaults(argv, function, flags):
    # each of these flags fills the parameter of the same name
    params = inspect.signature(function).parameters
    args = _subparser(argv[0]).parse_args(argv[1:])
    for flag in flags:
        assert getattr(args, flag) == params[flag].default, flag
