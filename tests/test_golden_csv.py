"""Golden CSV digests: identical invocations keep producing identical bytes.

Each config runs the full harness and hashes the ``emit_csv`` output. The
digests were recorded from the per-class-copy multi-class model; any change
to the model, the scorers or the accuracy count that moves a single printed
digit fails here.
"""

import hashlib

import pytest

from gmrf_active import ExperimentConfig, Strategy, emit_csv, run_experiment

GOLDEN = {
    "binary": (
        ExperimentConfig(
            graph="grid:8x8",
            strategies=[
                Strategy("tv", confidence="inv_sqrt"),
                Strategy("msd"),
                Strategy("klg"),
                Strategy("fl"),
            ],
            budget=15,
            runs=4,
            seed=3,
            delta=0.005,
        ),
        "9b6e873b1defe3698e815faa32ac81ad13a2802a49e976d46a8329df4d2504ea",
    ),
    "binary-initial": (
        ExperimentConfig(
            graph="grid:8x8",
            strategies=[Strategy("tv"), Strategy("msd", confidence="const:0.3")],
            budget=15,
            runs=4,
            seed=3,
            delta=0.005,
            eval_on="initial",
        ),
        "5d9c75ae42871f4beff06ecc608ff4caff2807d97af64ce419ad9d7d5e06f777",
    ),
    "multiclass": (
        ExperimentConfig(
            graph="community:20,20,20:pin=0.5:pout=0.02",
            strategies=[
                Strategy("tv", confidence="inv_sqrt"),
                Strategy("msd"),
                Strategy("vm"),
                Strategy("sigma-opt"),
                Strategy("unc"),
            ],
            budget=15,
            runs=4,
            seed=5,
            delta=0.005,
        ),
        "58d0457946b5810c4e25b677f4794422dcbc0aa7d48c77cb12d765d2fcc315ce",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest(name, tmp_path):
    cfg, digest = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    emit_csv(run_experiment(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
