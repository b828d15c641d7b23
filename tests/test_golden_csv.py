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

The four binary digests were re-recorded once more when a binary mean
within ``gmrf.DECISION_ATOL`` (1e-12) of 0 became a tie that goes to class
0, in ``class_decision`` and in the fl flip count alike, where the sign of a
rounding residue of about 1e-15 used to decide. Replayed in lockstep against
the former rule, each moved digest traces back to one (strategy, run)
sequence, whose first change was a decision on a mean with |m| of at most
3.5e-15. Rows that moved (strategy, t): ``binary`` 13 of 60 (fl 2-8,
10-15), ``binary-initial`` 7 of 30 (tv 9-15), ``binary-paths`` 1 of 75
(vm 2) and ``binary-schedules`` 13 of 75 (fl 2-9, 11-15). The
``multiclass`` digest did not move.

The ``multi-block`` digest runs fl and kl on a 20x20 grid, where one scan
spans five row blocks of ``G`` with a ragged last one (``|U|`` = 399 at
t = 2 and about 82 rows per block), while the 8x8 digests fit in one block.
It was recorded with the per-candidate fl/kl loop, before the block scan
replaced it. Since a block holds both label values of its rows, a block is
41 rows high there, so a scan spans ten blocks; the digest did not move.

``test_csv_digest_with_G_readers`` reruns the fl/kl digests with a hook that
reads ``rows()`` and ``G`` after every observe, so every model carries ``G``
from its first state on; the digests must not move.
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
        "945392520f5baa4ab7324d6265d7066d029d1b22c73fce6d5288d56ffecd6497",
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
        "61c944cda6f3a5051f0e20c99cdb794cc6749284536353b241f722d1a53ed2a0",
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
        "62ada643cab26b95cc560fc92f75c62b609af34270b31eb2075edf895bd37d0d",
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
        "501ba9f9ffe1f5d3a165b547042e4f5c92215b85c48556a271b54f9caf036db9",
    ),
    "multi-block": (
        ExperimentConfig(
            graph="grid:20x20",
            strategies=[
                Strategy("fl"),
                Strategy("kl", confidence="inv_sqrt"),
                Strategy("fl", confidence="const:0.4", name="fl-const"),
                Strategy("fl", maxmin=True, name="fl-maxmin"),
                Strategy("kl", maxmin=True, name="kl-maxmin"),
            ],
            budget=8,
            runs=1,
            seed=3,
            delta=0.005,
        ),
        "89ac819a90ffd7ee112210dfa5f7e44db9567ee1d036af218f6c17117f384ae4",
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


@pytest.mark.parametrize("name", ["binary", "binary-schedules", "multi-block"])
def test_csv_digest_with_G_readers(name, tmp_path):
    # reading rows after every observe starts the carried G of every model in
    # the state the t = 2 scan would build it in, so no digest moves
    def read_G(*, model, **_):
        model.rows()
        assert model.G.shape == (model.num_unlabeled,) * 2

    cfg, digest = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    emit_csv(run_experiment(cfg, step_hook=read_G), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
