"""Golden CSV digests: identical invocations keep producing identical bytes.

Each config runs the full harness and hashes the ``emit_csv`` output. The
binary digests were recorded from the per-class-copy multi-class model; any
change to the model, the scorers or the accuracy count that moves a single
printed digit fails here.

The ``multiclass`` digest was re-recorded when the C >= 3 decision rule
changed from the plain argmax over the one-vs-rest means to class-mass
normalization (``gmrf.class_decision``). The old argmax voted for the class
with the most labels: at t=1 every strategy scored 0.322034 = 19/59, the
share of the single queried class. The re-record moved only accuracy
columns: the labeled sets per (strategy, run) stayed identical, both binary
digests stayed as they were, and 19 of the 75 rows rose while none fell
(tv at t=1: 0.322034 -> 0.648305).

The ``binary-paths`` digest covers the binary scorers and schedules the
``binary`` digest leaves out: vm, sigma-opt, unc, kl with ``inv_sqrt`` and
the hybrid tv rule. It was recorded while binary labels still went through
a separate binary model class, before that class became the C = 2 case of
the one ``GmrfModel``.

The ``binary-schedules`` digest covers the confidence and worst-case paths
of the label-expectation scorers: klg with ``inv_sqrt``, fl with
``const:0.4``, plain kl, and fl and kl with ``maxmin``. It was recorded
before the soft-label rule, the confidence mix and the fl/kl expected-change
loop were each given one home.
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
    "binary-paths": (
        ExperimentConfig(
            graph="grid:8x8",
            strategies=[
                Strategy("vm"),
                Strategy("sigma-opt"),
                Strategy("unc"),
                Strategy("kl", confidence="inv_sqrt"),
                Strategy("tv", hybrid_scale=1.0),
            ],
            budget=15,
            runs=4,
            seed=3,
            delta=0.005,
        ),
        "ff7f9da7cc3addad894b0bc530ae4d92041ec91b24696a02062befdc7a36b487",
    ),
    "binary-schedules": (
        ExperimentConfig(
            graph="grid:8x8",
            strategies=[
                Strategy("klg", confidence="inv_sqrt"),
                Strategy("fl", confidence="const:0.4"),
                Strategy("kl"),
                Strategy("fl", maxmin=True, name="fl-maxmin"),
                Strategy("kl", maxmin=True, name="kl-maxmin"),
            ],
            budget=15,
            runs=4,
            seed=3,
            delta=0.005,
        ),
        "d4f607512491decad363f30aa436e6afc6c540e44c3ee1838e38e5ad287f765a",
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
        "32b13c0a55bc8a03452b1929bf6dd494eeb471d802972e385ece5fdedbf94b85",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest(name, tmp_path):
    cfg, digest = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    emit_csv(run_experiment(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
