"""A NaN residual in any one trial must fail its check and the whole run."""
import math

import numpy as np

from ptdirac import kinematics, spinors, verify

SEED, TRIALS, TOL = 5, 48, 1e-12


def by_name(checks):
    return {c.name: c for c in checks}


def test_clean_run_passes():
    assert verify.run_all(SEED, TRIALS, TOL).passed


def test_nan_residual_of_one_batched_trial_fails(monkeypatch):
    real = spinors.solution_residual

    def nan_in_trial_5(spec, w=None):
        residuals = real(spec, w)
        return np.where(spec.rows == 5, np.nan, residuals)

    monkeypatch.setattr(spinors, "solution_residual", nan_in_trial_5)
    check = by_name(verify.spinor_checks(SEED, TRIALS, TOL))["spinors.dirac_solution"]
    assert math.isnan(check.max_residual)
    assert not check.passed
    report = verify.run_all(SEED, TRIALS, TOL)
    assert not report.passed
    assert verify.format_report(report).endswith("RESULT: FAIL (31/32 checks)")


def test_nan_residual_of_one_scalar_trial_fails(monkeypatch):
    real = kinematics.speeds
    calls = []

    def nan_speed_in_trial_5(epsilon, m):
        calls.append(None)
        s = real(epsilon, m)
        return s._replace(v=math.nan) if len(calls) == 11 else s

    monkeypatch.setattr(kinematics, "speeds", nan_speed_in_trial_5)
    check = by_name(verify.kinematics_checks(SEED, TRIALS, TOL))["kinematics.speeds"]
    assert math.isnan(check.max_residual)
    assert not check.passed
    calls.clear()
    assert not verify.run_all(SEED, TRIALS, TOL).passed
