"""Golden CSV digests: identical invocations keep producing identical bytes.

Each config runs the full harness and hashes the ``emit_csv`` output. Any
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
the hybrid tv rule.

The ``binary-schedules`` digest covers the confidence and worst-case paths
of the label-expectation scorers: klg with ``inv_sqrt``, fl with
``const:0.4``, plain kl, and fl and kl with ``maxmin``.

The four binary digests were re-recorded when ``select`` stopped letting
rounding break ties: scores within ``TIE_RTOL`` (1e-11) relative of the best
now go to the lowest node id, where ``np.argmax`` took whichever of them
rounded highest. Replayed through the former scans, every pick that changed
had a relative gap to the former winner of at most 1.5e-14 and went to a
lower id. Rows that moved (strategy, t): ``binary`` 26 of 60 (tv 11-12; msd
3-4, 7-15; klg 2-7, 9-15), ``binary-initial`` 18 of 30 (tv 3-8, 11-15; msd
4-10), ``binary-paths`` 30 of 75 (vm 3-12, 14-15; unc 4-10, 12-15; kl 3,
6-8, 11, 13, 15) and ``binary-schedules`` 41 of 75 (klg 2-3, 5-7, 9-15; fl
3-5, 7-15; kl 3-6, 10; kl-maxmin 4-15). The ``multiclass`` digest did not
move.
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
        "3cc793f046f2d13590fdbba49483689332eba5ed1bb71f033d65c306a728f825",
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
        "9701e453e64de64ddec6f944ec1a7583552b582c7e6f9e4352dc649c7cadaa21",
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
        "29b9241956882f946be892704f4be6cc167c9f23f7ee3c5291837782797103c2",
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
        "6143e5d8cc186a7ddde60dfcc954cce7b48c9e46c93d055c430518c60609a92c",
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
