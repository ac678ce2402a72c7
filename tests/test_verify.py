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


def test_nan_in_one_row_of_the_speed_law_fails(monkeypatch):
    real = kinematics._speed_columns

    def nan_in_row_5(eps, m):
        table = real(eps, m)
        table.v[5:6] = math.nan
        return table

    monkeypatch.setattr(kinematics, "_speed_columns", nan_in_row_5)
    check = by_name(verify.kinematics_checks(SEED, TRIALS, TOL))["kinematics.speeds"]
    assert math.isnan(check.max_residual)
    assert not check.passed
    assert not verify.run_all(SEED, TRIALS, TOL).passed


def test_nan_residual_of_one_scalar_trial_fails(monkeypatch):
    real = kinematics.dual_momentum
    calls = []

    def nan_dual_on_call_5(p):
        calls.append(None)
        d = real(p)
        if len(calls) == 5:
            object.__setattr__(d, "e", math.nan)  # FourVector rejects NaN on construction
        return d

    monkeypatch.setattr(kinematics, "dual_momentum", nan_dual_on_call_5)
    check = by_name(verify.kinematics_checks(SEED, TRIALS, TOL))["kinematics.dual_momentum"]
    assert math.isnan(check.max_residual)
    assert not check.passed
    calls.clear()
    assert not verify.run_all(SEED, TRIALS, TOL).passed
