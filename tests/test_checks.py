"""Each validation suite of ``checks`` fails when the program it checks is wrong.

Every test plants one fault in the code a suite exercises, never in the
suite itself, and asserts that the suite reports ``passed=False`` with a
detail that shows the fault. A suite that always passed would fail here.
"""

import re

import numpy as np
import pytest
import scipy.linalg

from gmrf_active import checks
from gmrf_active.gmrf import GmrfModel


def reported(detail: str, name: str) -> float:
    """The number a suite's detail gives after ``name``."""
    return float(re.search(re.escape(name) + r" ([-+.\deE]+)", detail).group(1))


def test_incremental_suite_catches_an_observe_that_skips_the_means_step(monkeypatch):
    # observe moves the means and G 1 by one dger; G is kept apart in V
    monkeypatch.setattr(scipy.linalg.blas, "dger", lambda *args, **kwargs: None)
    result = checks.check_incremental_vs_direct()
    assert not result.passed
    assert reported(result.detail, "max mean error") > 1e-8
    assert reported(result.detail, "max inverse error") < 1e-8


def test_partition_suite_catches_a_wrong_inverse(monkeypatch):
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) + 1e-6)
    result = checks.check_partition_identity()
    assert not result.passed
    assert reported(result.detail, "max entry error") > 1e-8


def test_squared_distance_suite_catches_a_sampler_with_the_wrong_covariance(monkeypatch):
    # draws with covariance 1.21 C in place of C
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: 1.1 * cholesky(a))
    result = checks.check_squared_distance_identity()
    assert not result.passed
    assert reported(result.detail, "max relative error") > 0.02


def test_retraining_suite_catches_rows_of_G_read_wrong(monkeypatch):
    G = GmrfModel.G
    monkeypatch.setattr(GmrfModel, "G", property(lambda self: 1.01 * G.fget(self)))
    result = checks.check_retraining_equivalence()
    assert not result.passed
    assert reported(result.detail, "max l1 error") > 1e-8


def test_reduction_suite_catches_a_tv_scan_that_negates_its_scores(monkeypatch):
    scores = checks.utility_scores

    def negated_tv(strategy, model, t):
        out = scores(strategy, model, t)
        return -out if strategy.kind == "tv" else out

    monkeypatch.setattr(checks, "utility_scores", negated_tv)
    result = checks.check_nonadaptive_reduction()
    assert not result.passed
    mismatches = int(re.search(r"(\d+) argmax mismatches", result.detail).group(1))
    assert mismatches > 0


@pytest.mark.parametrize("fault", ["predict", "observe"])
def test_symmetry_suite_catches_a_broken_sign_rule(monkeypatch, fault):
    if fault == "predict":
        # every node predicted as class 0, whatever its mean
        monkeypatch.setattr(GmrfModel, "predict",
                            lambda self: {int(i): 0 for i in self.unlabeled})
    else:
        # the negative class pulls its field by 0.9, not 1
        observe = GmrfModel.observe

        def lopsided(self, node, class_id):
            observe(self, node, class_id)
            if class_id == 0:
                self._fields[:2] *= 0.9
                self._gather()
            return self

        monkeypatch.setattr(GmrfModel, "observe", lopsided)
    result = checks.check_bounds_and_symmetry()
    assert not result.passed
    assert "sign symmetry violated" in result.detail
