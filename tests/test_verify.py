"""A NaN residual in any one trial must fail its check and the whole run."""
import importlib.util
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from ptdirac import kinematics, observables, spinors, verify
from ptdirac.kinematics import Species

SEED, TRIALS, TOL = 5, 48, 1e-12


def by_name(checks):
    return {c.name: c for c in checks}


def test_clean_run_passes():
    assert verify.run_all(SEED, TRIALS, TOL).passed


def test_reports_reject_attribute_assignment():
    report = verify.run_all(SEED, 2, TOL)
    with pytest.raises(AttributeError):
        report.checks = ()
    with pytest.raises(AttributeError):
        report.checks[0].passed = False


def test_run_all_builds_one_hamiltonian_per_group(monkeypatch):
    """The hermiticity and eigenvalue checks share H(sign p): one build for
    each of the four massive species-and-basis groups."""
    real, calls = observables.hamiltonian, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(observables, "hamiltonian", counted)
    assert verify.run_all(SEED, TRIALS, TOL).passed
    assert len(calls) == 4


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


def test_nan_in_one_row_of_the_dual_momentum_pass_fails(monkeypatch):
    real = kinematics.dual_momentum

    def nan_in_row_5(p):
        d = real(p)
        d[5, 0] = math.nan
        return d

    monkeypatch.setattr(kinematics, "dual_momentum", nan_in_row_5)
    check = by_name(verify.kinematics_checks(SEED, TRIALS, TOL))["kinematics.dual_momentum"]
    assert math.isnan(check.max_residual)
    assert not check.passed
    assert not verify.run_all(SEED, TRIALS, TOL).passed


@pytest.fixture
def fresh_clifford_tables():
    """Empties the cache of the clifford residuals before and after a test
    that patches a table they read."""
    verify._clifford_identities.cache_clear()
    yield
    verify._clifford_identities.cache_clear()


def metric_with_nan(mu, nu):
    metric = verify.METRIC.copy()
    metric[mu, nu] = math.nan
    return metric


def test_nan_in_one_entry_of_the_anticommutation_table_fails(monkeypatch,
                                                             fresh_clifford_tables):
    monkeypatch.setattr(verify, "METRIC", metric_with_nan(2, 1))
    check = by_name(verify.clifford_checks(SEED, TRIALS, TOL))["clifford.anticommutation"]
    assert math.isnan(check.max_residual)
    assert not check.passed
    assert not verify.run_all(SEED, TRIALS, TOL).passed


@pytest.mark.parametrize("mu,nu", [(mu, nu) for mu in range(4) for nu in range(4)])
def test_one_trial_checks_every_anticommutator(monkeypatch, fresh_clifford_tables, mu, nu):
    """The anticommutation check covers all (basis, mu, nu) at any number of
    trials, so a NaN at any metric entry fails it even at one trial."""
    monkeypatch.setattr(verify, "METRIC", metric_with_nan(mu, nu))
    check = by_name(verify.clifford_checks(SEED, 1, TOL))["clifford.anticommutation"]
    assert math.isnan(check.max_residual)
    assert not check.passed


# ------------------------------------------------ residuals that use no draw

CACHED = ("_clifford_identities", "_symmetry_identities")


def test_two_runs_in_one_process_give_equal_reports():
    first = verify.run_all(SEED, TRIALS, TOL)
    assert verify.run_all(SEED, TRIALS, TOL) == first
    assert verify.format_report(verify.run_all(SEED, TRIALS, TOL)) == verify.format_report(first)


@pytest.mark.parametrize("name", CACHED)
def test_draw_independent_residuals_are_computed_once(name):
    cached = getattr(verify, name)
    verify.run_all(SEED, TRIALS, TOL)
    verify.run_all(SEED + 1, 3, TOL)
    result = cached()
    assert isinstance(result, tuple)
    assert result == cached.__wrapped__()
    assert cached.cache_info().misses == 1


def test_the_pct_phase_note_is_read_from_the_symmetry_table():
    assert verify.run_all(SEED, 1, TOL).notes is verify._symmetry_identities()[2]


# ------------------------------------------------------------- drawn inputs

SPEC_GROUPS = [("spinors", {}), ("symmetries", {}),
               ("observables", dict(massive=True))]
COLUMNS = ("energy_sign", "helicity", "momentum", "k", "mass", "epsilon")


def combos(options):
    return [c for c in verify._COMBOS
            if not (options.get("massive") and c[0] is Species.LUXON)]


def assert_row_labels(g, options):
    """Row i of the trials carries combo i mod the cycle length."""
    cycle = combos(options)
    for row, sign, lam in zip(g.rows, g.energy_sign, g.helicity):
        assert cycle[row % len(cycle)] == (g.species, sign, lam, g.rep)


@pytest.mark.parametrize("group,options", SPEC_GROUPS, ids=[g for g, _ in SPEC_GROUPS])
def test_spec_groups_are_prefix_stable(group, options):
    few = verify.random_spec(SEED, group, 10, **options)
    many = verify.random_spec(SEED, group, 1000, **options)
    keyed = {(g.species, g.rep): g for g in many}
    assert len(keyed) == len(many) == (4 if options else 6)
    assert sum(len(g.rows) for g in few) == 10
    assert sorted(np.concatenate([g.rows for g in many])) == list(range(1000))
    for g in few:
        big = keyed[g.species, g.rep]
        assert_row_labels(g, options)
        assert_row_labels(big, options)
        head = big.rows < 10
        assert np.array_equal(g.rows, big.rows[head])
        for field in COLUMNS:
            assert np.array_equal(getattr(g, field), getattr(big, field)[head]), field
        assert np.array_equal(spinors.group_amplitudes(g),
                              spinors.group_amplitudes(big)[head])


def test_other_drawn_inputs_are_prefix_stable(monkeypatch):
    real, blocks = verify._uniforms, {}

    def recording(seed, group, stream, trials, width):
        block = real(seed, group, stream, trials, width)
        blocks.setdefault(trials, []).append(((group, stream, width), block))
        return block

    monkeypatch.setattr(verify, "_uniforms", recording)
    verify.run_all(SEED, 10, TOL)
    verify.run_all(SEED, 1000, TOL)
    assert len(blocks[10]) == len(blocks[1000]) == 6
    for (key, few), (key_many, many) in zip(blocks[10], blocks[1000]):
        assert key == key_many
        assert np.array_equal(few, many[:, :10])


def test_a_trial_replays_alone():
    """Row i of a block is the stream advanced by i * width steps."""
    width, trials, i = 20, 1000, 737
    block = verify._uniforms(SEED, "symmetries", 1, trials, width)
    bits = np.random.PCG64((SEED, zlib.crc32(b"symmetries"), 1))
    bits.advance(i * width)
    assert np.array_equal(np.random.Generator(bits).random(width), block[:, i])


@pytest.mark.parametrize("group,options", SPEC_GROUPS, ids=[g for g, _ in SPEC_GROUPS])
def test_drawn_groups_agree_with_specs_built_one_by_one(group, options):
    drawn = verify.random_spec(SEED, group, 500, **options)
    specs = [None] * 500
    for g in drawn:
        assert_row_labels(g, options)
        for row, sign, lam, p, m in zip(g.rows, g.energy_sign, g.helicity, g.momentum,
                                        g.mass):
            specs[row] = spinors.PlaneWaveSpec(g.species, int(sign), tuple(p), float(m),
                                               int(lam), g.rep)
    assert None not in specs
    for g in drawn:
        # |p| and the shell energy come from the same laws, entry by entry
        for field in COLUMNS:
            column = [getattr(specs[row], field) for row in g.rows]
            assert np.array_equal(getattr(g, field), column), field
        w = spinors.group_amplitudes(g)
        for row, w_row in zip(g.rows, w):
            assert w_row.tobytes() == spinors.amplitude(specs[row]).tobytes()


def test_a_single_trial_runs():
    report = verify.run_all(SEED, 1, TOL)
    assert report.passed
    assert len(report.checks) == 32


FAMILIES = (verify.run_all, verify.clifford_checks, verify.kinematics_checks,
            verify.spinor_checks, verify.observable_checks, verify.symmetry_checks)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("run", FAMILIES, ids=[f.__name__ for f in FAMILIES])
def test_a_tolerance_that_is_not_finite_and_positive_is_refused(monkeypatch, run, tol):
    def no_draw(*args):
        raise AssertionError("an input was drawn")

    monkeypatch.setattr(verify, "_uniforms", no_draw)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        run(SEED, 5, tol)


def test_the_reduction_keeps_report_order_and_propagates_nan():
    results = verify._results("g", 0.5, b=[0.25, np.array([[0.5], [0.125]])],
                              a=[np.array([0.75, math.nan])], none=[], empty=[np.zeros((0, 4))])
    assert [r.name for r in results] == ["g.b", "g.a", "g.none", "g.empty"]
    assert [r.passed for r in results] == [True, False, True, True]
    assert results[0].max_residual == 0.5 and math.isnan(results[1].max_residual)
    assert results[2].max_residual == results[3].max_residual == 0.0


# ------------------------------------------------------------- golden grid

GOLDEN = Path(__file__).parent / "golden"
# the grid's residuals come from numpy's PCG64 Generator streams, which numpy
# does not promise to keep across versions (NEP 19)
GOLDEN_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"the golden verify grid was computed under numpy "
                           f"{GOLDEN_NUMPY}, whose random streams other versions "
                           f"need not reproduce (NEP 19); this is numpy {np.__version__}")
def test_verify_grid_matches_the_golden_bytes():
    """Every check's worst residual, bit for bit, over seeds x trial counts;
    the grid and its generator are described in tests/golden/make_verify_grid.py."""
    spec = importlib.util.spec_from_file_location("make_verify_grid",
                                                  GOLDEN / "make_verify_grid.py")
    make = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make)
    got, want = make.render(), make.PATH.read_text(encoding="utf-8")
    if got != want:
        first = next(a for a, b in zip(got.splitlines(), want.splitlines()) if a != b)
        raise AssertionError(f"first differing line: {first!r}")
