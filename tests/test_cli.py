"""Command-line interface: parsing, exit codes, end-to-end flows."""

import numpy as np
import pytest

from gmrf_active import (
    build_from_features,
    load_edge_list,
    load_labels,
    normalize_features,
)
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
    assert "--maxmin" in capsys.readouterr().err
    assert not out.exists()
