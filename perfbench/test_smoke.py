"""Tests of the benchmark itself, on a config that runs in seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's entry module)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit_and_checks_pass(trace, kind):
    proc = _bench(ROOT, "--trace", trace, "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and np.isfinite(m["value"]), name


def test_same_seed_same_outputs():
    first, second = (_bench(ROOT, "--trace", "0", "--seed", "5") for _ in range(2))
    a, b = (json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in (first, second))
    for name in ("final_accuracy", "mean_accuracy"):
        assert a[name] == b[name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Done:
    def __init__(self, csv: bytes, error=None):
        self.csv, self.error = csv, error


def test_csv_mismatch_is_a_failure():
    checks = run.Checks()
    checks.experiments([_Done(b"a\n"), _Done(b"a\n"), _Done(b"b\n")])
    assert checks.attempted == 6
    assert checks.problems == ["experiment 2: CSV differs from experiment 0"]


def test_oracle_catches_a_wrong_mean():
    pkg = run.import_package()
    wl = run.WORKLOADS["smoke"]
    cfg = run.make_config(pkg, wl, seed=0)
    exp = run.Experiment(cfg, run.OUT_DIR / "oracle-test.csv")
    run.OUT_DIR.mkdir(exist_ok=True)
    exp.run(pkg)
    good = run.Checks()
    good.oracle(pkg, wl, 0, exp.finals)
    assert good.problems == [] and good.attempted == 3  # one per class
    label, snap = exp.finals[0]
    snap["means"] = snap["means"].copy()
    snap["means"][1, 0] += 1e-6
    bad = run.Checks()
    bad.oracle(pkg, wl, 0, [(label, snap)])
    assert len(bad.problems) == 1 and "class 1" in bad.problems[0]
