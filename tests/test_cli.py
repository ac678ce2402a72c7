import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptdirac import cli, kinematics

GOLDEN = Path(__file__).parent / "golden" / "dispersion_m3.csv"
# rows enough that the speed law's hypot runs as array passes over two blocks
HYPOT_ROWS = kinematics._HYPOT_BLOCK + 3


def run_proc(*args, env_extra=None):
    return subprocess.run([sys.executable, "-m", "ptdirac", *args],
                          capture_output=True, env=dict(os.environ, **(env_extra or {})))


def run_main(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ dispersion

def test_dispersion_golden_bytes():
    proc = run_proc("dispersion", "--mass", "3", "--eps-min", "0",
                    "--eps-max", "10", "--steps", "11")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_bytes()


def test_dispersion_spot_row(capsys):
    code, out, _ = run_main(capsys, "dispersion", "--mass", "3", "--eps-min", "0",
                            "--eps-max", "10", "--steps", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon,u_bradyon,v_pt,w_tachyon"
    assert lines[1] == "0,,0,"
    assert lines[5] == "4,0.661437828,0.8,1.25"


def test_dispersion_massless_rows(capsys):
    code, out, _ = run_main(capsys, "dispersion", "--mass", "0", "--eps-min", "1",
                            "--eps-max", "3", "--steps", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["1,1,1,1", "2,1,1,1", "3,1,1,1"]


def test_dispersion_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_main(capsys, "dispersion", "--mass", "3", "--eps-min", "0",
                            "--eps-max", "10", "--steps", "11", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_bytes() == GOLDEN.read_bytes()


def test_dispersion_io_failure(tmp_path, capsys):
    code, _, err = run_main(capsys, "dispersion", "--mass", "3", "--eps-max", "10",
                            "--steps", "11", "--out",
                            str(tmp_path / "missing" / "table.csv"))
    assert code == 3
    assert "error" in err


def test_dispersion_bad_range(capsys):
    code, _, err = run_main(capsys, "dispersion", "--mass", "3", "--eps-min", "5",
                            "--eps-max", "2", "--steps", "4")
    assert code == 2
    code, _, err = run_main(capsys, "dispersion", "--mass", "3", "--eps-max", "10",
                            "--steps", "1")
    assert code == 2


def reference_csv(m, eps_min, eps_max, steps, precision):
    """The table row by row with the scalar speed law, or None when a present
    field is not finite."""
    lines = ["epsilon,u_bradyon,v_pt,w_tachyon"]
    for eps in np.linspace(eps_min, eps_max, steps).tolist():
        u = w = None
        if eps == 0.0:
            v = 1.0 if m == 0.0 else 0.0
        elif m == 0.0:
            u = v = w = 1.0
        else:
            h = math.hypot(eps, m)
            v, w = eps / h, h / eps
            if eps >= m:
                u = math.sqrt(max(eps - m, 0.0)) * math.sqrt(eps + m) / eps
                if 1.0 < u < math.inf:  # rounded above 1 where m << eps
                    u = 1.0
        fields = (eps, u, v, w)
        if not all(math.isfinite(x) for x in fields if x is not None):
            return None
        lines.append(",".join("" if x is None else f"{x + 0.0:.{precision}g}"
                              for x in fields))
    return "\n".join(lines) + "\n"


def dispersion_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(m=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
       # the range in units of m (of 1 at m = 0): below, across or above m
       x=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=3.0)),
                  min_size=2, max_size=2, unique=True).map(sorted),
       steps=st.integers(min_value=2, max_value=300),
       precision=st.integers(min_value=3, max_value=17))
@settings(max_examples=200, deadline=None)
def test_dispersion_bytes_match_the_row_reference(m, x, steps, precision):
    scale = m if m > 0 else 1.0
    eps_min, eps_max = scale * x[0], scale * x[1]
    assume(eps_min < eps_max)
    code, out, err = dispersion_output(
        ["dispersion", "--mass", repr(m), "--eps-min", repr(eps_min), "--eps-max",
         repr(eps_max), "--steps", str(steps), "--precision", str(precision)])
    expected = reference_csv(m, eps_min, eps_max, steps, precision)
    if expected is None:
        assert (code, out) == (2, "") and "out of floating-point range" in err
    else:
        assert (code, out) == (0, expected)


@pytest.mark.parametrize("m, eps_min, eps_max, steps, precision", [
    (2.0, -0.0, 3.0, 9, 9),                          # -0.0 prints as 0
    (0.0, 0.0, 5e-324, 4, 9),                        # repeated zero rows
    (3.0, 3.0, 10.0, 50, 17),                        # eps_min = m exactly
    (7.0, 0.0, 21.0, 2 * cli.CHUNK_ROWS + 17, 12),   # longer than one chunk
    (1e-7, 0.0, 1e-3, 301, 9),                       # fixed/scientific switch at 1e-4
    (1e290, 0.0, 3e290, 40, 12),                     # exponents beyond the scaled range
    (1e17, 0.0, 3e17, 61, 17),                       # p = 17 with eps crossing 10^17
    (1e-9, 1.0, 1e3, 1000, 17),                      # u rounds above 1 where m << eps
    # the same through the array hypot, past its size switch and a block
    (0.0, 0.0, 5e-324, HYPOT_ROWS, 9),
    (1e290, 0.0, 3e290, HYPOT_ROWS, 12),
    (1e17, 0.0, 3e17, HYPOT_ROWS, 17),
], ids=["minus-zero", "zero-rows", "eps-min-at-m", "chunks", "sci-switch", "scale-1e290",
        "p17-crossing-1e17", "u-at-light-speed", "zero-rows-array-hypot",
        "scale-1e290-array-hypot", "p17-crossing-1e17-array-hypot"])
def test_dispersion_edge_bytes_to_stdout_and_file(tmp_path, m, eps_min, eps_max, steps,
                                                  precision):
    argv = ["dispersion", "--mass", repr(m), "--eps-min", repr(eps_min), "--eps-max",
            repr(eps_max), "--steps", str(steps), "--precision", str(precision)]
    expected = reference_csv(m, eps_min, eps_max, steps, precision)
    assert dispersion_output(argv) == (0, expected, "")
    target = tmp_path / "table.csv"
    assert dispersion_output(argv + ["--out", str(target)]) == (0, "", "")
    assert target.read_bytes() == expected.encode()


OUT_OF_RANGE = [
    ["--mass", "3", "--eps-max", "1e-320", "--steps", "3"],        # w = inf
    ["--mass", "1e308", "--eps-max", "1e308", "--steps", "2"],     # u = nan
    ["--mass", "1e308", "--eps-max", "1.7e308", "--steps", "4"],   # u = w = inf
]
# the same tables with enough rows for the array hypot
OUT_OF_RANGE += [args[:-1] + ["5000"] for args in OUT_OF_RANGE]
OUT_OF_RANGE_IDS = ["w-inf", "u-nan", "u-w-inf", "w-inf-5000", "u-nan-5000", "u-w-inf-5000"]


@pytest.mark.parametrize("args", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
def test_dispersion_out_of_range_is_usage_error(args):
    proc = run_proc("dispersion", *args, env_extra={"PYTHONWARNINGS": "error"})
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr and b"Warning" not in proc.stderr
    assert b"out of floating-point range" in proc.stderr


@pytest.mark.parametrize("args", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
def test_dispersion_out_of_range_does_not_open_the_output(tmp_path, capsys, args):
    target = tmp_path / "table.csv"
    code, out, err = run_main(capsys, "dispersion", *args, "--out", str(target))
    assert (code, out) == (2, "")
    assert not target.exists()


# --------------------------------------------------------------------- spinor

def test_spinor_spot(capsys):
    code, out, _ = run_main(capsys, "spinor", "--species", "pt", "--sign", "+",
                            "--momentum", "0,0,5", "--mass", "3",
                            "--helicity", "+1", "--rep", "standard")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["components"] == "2.82842712+0i 0+0i 1.41421356+0i 0+0i"
    assert lines["norm"] == "10"
    assert float(lines["residual"]) <= 1e-12


def test_spinor_precision_flag(capsys):
    code, out, _ = run_main(capsys, "spinor", "--species", "pt",
                            "--momentum", "0,0,5", "--mass", "3",
                            "--precision", "10")
    assert code == 0
    assert "2.828427125+0i" in out


def test_spinor_luxon(capsys):
    code, out, _ = run_main(capsys, "spinor", "--species", "luxon",
                            "--momentum", "0,0,2", "--mass", "0")
    assert code == 0
    assert out.splitlines()[0] == \
        "components 1.41421356+0i 0+0i 1.41421356+0i 0+0i"


def test_spinor_nonphysical_momentum(capsys):
    code, _, err = run_main(capsys, "spinor", "--species", "pt",
                            "--momentum", "0,0,2", "--mass", "3")
    assert code == 2
    assert "error: NonPhysicalMomentum" in err


def test_spinor_bad_momentum_format(capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(capsys, "spinor", "--species", "pt", "--momentum", "1,2",
                 "--mass", "3")
    assert exc.value.code == 2


# --------------------------------------------------------------------- expect

def test_expect_spot(capsys):
    code, out, _ = run_main(capsys, "expect", "--species", "pt",
                            "--momentum", "0,0,5", "--mass", "3", "--helicity", "+1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mean_velocity 0 0 0.8"
    assert lines[1] == "mean_four_velocity 1.66666667 0 0 1.33333333"
    assert lines[2] == "mean_spin_four_vector 1.33333333 0 0 1.66666667"
    for line in lines[3:]:
        assert float(line.rsplit(" ", 1)[1]) <= 1e-11


def test_expect_bradyon(capsys):
    code, out, _ = run_main(capsys, "expect", "--species", "bradyon",
                            "--momentum", "0,0,4", "--mass", "3")
    assert code == 0
    assert out.splitlines()[0] == "mean_velocity 0 0 0.8"


def test_expect_transcendent(capsys):
    code, out, _ = run_main(capsys, "expect", "--species", "pt",
                            "--momentum", "0,0,3", "--mass", "3")
    assert code == 0
    assert out.splitlines()[0] == "mean_velocity 0 0 0"


def test_expect_at_subnormal_scale(capsys):
    # k = m: v = 1/sqrt(2) and vbar = (sqrt(2), 0, 0, 1), however small k and m
    code, out, _ = run_main(capsys, "expect", "--species", "bradyon",
                            "--momentum", "0,0,1e-320", "--mass", "1e-320")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mean_velocity 0 0 0.707106781"
    assert lines[1] == "mean_four_velocity 1.41421356 0 0 1"
    assert lines[2] == "mean_spin_four_vector 1 0 0 1.41421356"


def test_expect_luxon_rejected(capsys):
    code, _, err = run_main(capsys, "expect", "--species", "luxon",
                            "--momentum", "0,0,2", "--mass", "0")
    assert code == 2
    assert "error: MasslessSpecies" in err


def test_expect_non_finite_residual_fails(capsys, monkeypatch):
    real = cli.expectation_report

    def nan_residual(spec):
        report = real(spec)
        return report._replace(constraint_residuals={**report.constraint_residuals,
                                                     "p2_plus_m2": math.nan})

    monkeypatch.setattr(cli, "expectation_report", nan_residual)
    code, out, _ = run_main(capsys, "expect", "--species", "pt",
                            "--momentum", "0,0,5", "--mass", "3")
    assert code == 1
    assert "residual p2_plus_m2 nan" in out


# ------------------------------------------------------------------ transform

def test_transform_parity(capsys):
    code, out, _ = run_main(capsys, "transform", "--op", "P", "--species", "pt",
                            "--momentum", "0,0,5", "--mass", "3")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["transformed"] == "1.41421356+0i 0+0i -2.82842712+0i 0+0i"
    assert float(lines["residual"]) <= 1e-12


@pytest.mark.parametrize("op", ["C", "T", "I"])
def test_transform_other_discrete(capsys, op):
    code, out, _ = run_main(capsys, "transform", "--op", op, "--species", "bradyon",
                            "--momentum", "1,2,-2", "--mass", "1.5")
    assert code == 0
    residual = float(out.splitlines()[1].split()[1])
    assert residual <= 1e-12


def test_transform_boost(capsys):
    code, out, _ = run_main(capsys, "transform", "--op", "boost", "--species", "pt",
                            "--momentum", "0,0,5", "--mass", "3",
                            "--rapidity", "0.5", "--axis", "0,0,1")
    assert code == 0
    residual = float(out.splitlines()[1].split()[1])
    assert residual <= 1e-10


def test_transform_boost_requires_rapidity(capsys):
    code, _, err = run_main(capsys, "transform", "--op", "boost", "--species", "pt",
                            "--momentum", "0,0,5", "--mass", "3")
    assert code == 2
    assert "rapidity" in err


def test_transform_unknown_op(capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(capsys, "transform", "--op", "Q", "--species", "pt",
                 "--momentum", "0,0,5", "--mass", "3")
    assert exc.value.code == 2


def test_transform_unattainable_tolerance(capsys):
    code, _, _ = run_main(capsys, "transform", "--op", "P", "--species", "pt",
                          "--momentum", "0,0,5", "--mass", "3", "--tol", "1e-30")
    assert code == 1


# --------------------------------------------------------------------- verify

def test_verify_small_run_passes(capsys):
    code, out, _ = run_main(capsys, "verify", "--trials", "40")
    assert code == 0
    assert "seed 42" in out
    assert "RESULT: PASS" in out
    assert "clifford.anticommutation" in out
    assert "symmetries.boost_covariance" in out


GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify_seed42.txt"
# verify draws its trials from numpy's PCG64 Generator, whose streams numpy
# does not promise to keep across versions (NEP 19); the golden report was
# printed under this one
GOLDEN_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"the golden verify report was printed under numpy "
                           f"{GOLDEN_NUMPY}, whose random streams other versions "
                           f"need not reproduce (NEP 19); this is numpy {np.__version__}")
def test_verify_report_matches_the_golden_bytes():
    proc = run_proc("verify", "--seed", "42")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_VERIFY.read_bytes()


def test_verify_deterministic_output():
    a = run_proc("verify", "--seed", "7", "--trials", "60")
    b = run_proc("verify", "--seed", "7", "--trials", "60")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_unattainable_tolerance(capsys):
    code, out, _ = run_main(capsys, "verify", "--trials", "40", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_zero_trials(capsys):
    code, _, err = run_main(capsys, "verify", "--trials", "0")
    assert code == 2


def test_verify_trials_cap_checked_before_any_draw(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("verify ran")

    monkeypatch.setattr("ptdirac.verify.run_all", unreachable)
    code, out, err = run_main(capsys, "verify", "--trials", "100000000000")
    assert (code, out) == (2, "")
    assert err == f"error: trials must be at most {cli.MAX_TRIALS}, got 100000000000\n"


def test_verify_negative_seed_is_usage_error(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("verify ran")

    monkeypatch.setattr("ptdirac.verify.run_all", unreachable)
    with pytest.raises(SystemExit) as exc:
        run_main(capsys, "verify", "--seed", "-1")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "ptdirac verify: error: argument --seed: expected a non-negative integer, got -1\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--precision", "abc", "invalid int value: 'abc'"),
    ("--precision", "2", "precision must be in [3, 17], got 2"),
    ("--seed", "abc", "invalid int value: 'abc'"),
])
def test_integer_option_errors_read_as_argparse_ones(capsys, flag, value, message):
    argv = (["dispersion", "--mass", "3", "--eps-max", "10", "--steps", "11"]
            if flag == "--precision" else ["verify"])
    with pytest.raises(SystemExit) as exc:
        run_main(capsys, *argv, flag, value)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"ptdirac {argv[0]}: error: argument {flag}: {message}\n")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


PT = ["--species", "pt", "--momentum", "0,0,2", "--mass", "1"]
# each case as separate tokens and as --option=value: argparse alone reads a
# separate -.5,0,2, -1,0,0 or -1e-3 as an option and the value as missing
NEGATIVE_VALUES = [
    (["spinor", "--species", "pt", "--momentum", "-.5,0,2", "--mass", "1"],
     ["spinor", "--species", "pt", "--momentum=-.5,0,2", "--mass", "1"]),
    (["expect", "--species", "bradyon", "--momentum", "-.5,0,2", "--mass", "1"],
     ["expect", "--species", "bradyon", "--momentum=-.5,0,2", "--mass", "1"]),
    (["transform", "--op", "boost", *PT, "--rapidity", "-1e-3", "--axis", "-1,0,0"],
     ["transform", "--op", "boost", *PT, "--rapidity=-1e-3", "--axis=-1,0,0"]),
    (["spinor", "--species", "pt", "--momentum", "0,0,2", "--mass", "-1e-3"],
     ["spinor", "--species", "pt", "--momentum", "0,0,2", "--mass=-1e-3"]),
]


@pytest.mark.parametrize("tokens, joined", NEGATIVE_VALUES,
                         ids=["spinor", "expect", "transform_boost", "negative_mass"])
def test_a_negative_value_reads_alike_in_both_spellings(capsys, tokens, joined):
    code, out, err = run_main(capsys, *tokens)
    assert (code, out, err) == run_main(capsys, *joined)
    if tokens[-1] == "-1e-3":
        assert (code, out) == (2, "")
        assert err == "error: mass must be finite and non-negative, got -0.001\n"
    else:
        assert (code, err) == (0, "") and out


@pytest.mark.parametrize("argv", [
    ["spinor", "--species", "pt", "--momentum", "--mass", "1"],
    ["transform", "--op", "boost", *PT, "--rapidity"],
])
def test_a_missing_value_is_still_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_main(capsys, *argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_tolerance_is_read_on_each_call(capsys):
    """The parser is built once, so a --tol given once must not become the
    default of the next call."""
    argv = ["transform", "--op", "P", "--species", "pt", "--momentum", "0,0,5", "--mass", "3"]
    assert run_main(capsys, *argv, "--tol", "1e-30")[0] == 1
    assert run_main(capsys, *argv)[0] == 0


@pytest.mark.parametrize("value", ["not-a-number", "0", "-1e-12", "nan"])
def test_invalid_tolerance_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        run_main(capsys, "verify", "--trials", "40", "--tol", value)
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err

def test_main_calls_the_current_command_function(capsys, monkeypatch):
    run_main(capsys, "dispersion", "--mass", "3", "--eps-max", "10", "--steps", "11")
    monkeypatch.setattr(cli, "cmd_dispersion", lambda args: 7)
    assert run_main(capsys, "dispersion", "--mass", "3", "--eps-max", "10", "--steps", "11")[0] == 7


def test_the_cli_module_runs_as_the_package_does():
    """`python -m ptdirac.cli` runs `main` and exits with its code, as
    `python -m ptdirac` does."""
    args = ["spinor", "--species", "pt", "--momentum", "0,0.6,5", "--mass", "3"]
    for extra in ([], ["--mass", "-1"]):
        package = run_proc(*args, *extra)
        module = subprocess.run([sys.executable, "-m", "ptdirac.cli", *args, *extra],
                                capture_output=True)
        assert (module.returncode, module.stdout, module.stderr) \
            == (package.returncode, package.stdout, package.stderr)
        assert package.returncode == (2 if extra else 0)


# ------------------------------------------------------ out-of-range arguments

SPEC_ARGS = ["--species", "pt", "--momentum", "0,0,5", "--mass", "3"]


@pytest.mark.parametrize("argv", [
    ["dispersion", "--mass", "nan", "--eps-max", "10", "--steps", "11"],
    ["dispersion", "--mass", "3", "--eps-min", "nan", "--eps-max", "10", "--steps", "11"],
    ["dispersion", "--mass", "3", "--eps-max", "inf", "--steps", "11"],
    ["spinor", "--species", "pt", "--momentum", "0,nan,5", "--mass", "3"],
    ["expect", "--species", "pt", "--momentum", "0,0,5", "--mass", "inf"],
    ["transform", "--op", "boost", "--rapidity", "0.5", "--axis", "0,0,inf", *SPEC_ARGS],
    ["transform", "--op", "boost", "--rapidity", "nan", *SPEC_ARGS],
], ids=["mass", "eps-min", "eps-max", "momentum", "spec-mass", "axis", "rapidity"])
def test_non_finite_argument_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_main(capsys, *argv)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_transform_boost_overflow_is_usage_error(capsys):
    code, out, err = run_main(capsys, "transform", "--op", "boost", "--rapidity", "800",
                              *SPEC_ARGS)
    assert code == 2
    assert out == ""
    assert "error: boost out of floating-point range: cosh(800.0) overflows" in err
    assert "OverflowError" not in err


@pytest.mark.filterwarnings("error")
def test_huge_boost_axis_is_rejected_without_a_warning(capsys):
    """|axis|^2 overflows; the axis check still reports it and warns nothing."""
    assert run_main(capsys, "transform", "--op", "boost", "--rapidity", "1",
                    "--axis", "1e200,0,0", *SPEC_ARGS) == (
        2, "", "error: axis must be a unit vector, |axis| = inf\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_mean_four_velocity_is_usage_error(capsys):
    """vbar = p/m = 1e400 leaves the floating-point range."""
    assert run_main(capsys, "expect", "--species", "bradyon", "--momentum", "1e200,0,0",
                    "--mass", "1e-200") == (
        2, "", "error: mean four-velocity out of floating-point range: w^dag w / 2m "
               "overflows\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("species,momentum,mass,at", [
    ("bradyon", "0,1e140,0", "1e-40", "|p| = 1e+140, m = 1e-40"),
    ("pt", "1e200,0,0", "1", "|p| = 1e+200, m = 1.0"),
], ids=["p-dot-vbar", "p-squared"])
def test_overflowing_constraint_residuals_are_usage_error(capsys, species, momentum, mass, at):
    """vbar = p/m = 1e180 is finite, but p.vbar = 1e320 is not; at |p| = 1e200
    p^2 itself overflows."""
    assert run_main(capsys, "expect", "--species", species, "--momentum", momentum,
                    "--mass", mass) == (
        2, "", f"error: constraint residuals out of floating-point range at {at}\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_boosted_momentum_is_usage_error(capsys):
    """cosh(400) is finite, but the boosted energy 1e175 cosh(400) is not."""
    assert run_main(capsys, "transform", "--op", "boost", "--rapidity", "400",
                    "--species", "pt", "--momentum", "0,0,1e175", "--mass", "1e175") == (
        2, "", "error: boost out of floating-point range: the four-momentum boosted by "
               "rapidity 400.0 overflows\n")


def test_dispersion_steps_cap_checked_before_the_table(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "dispersion_table", unreachable)
    code, _, err = run_main(capsys, "dispersion", "--mass", "3", "--eps-max", "10",
                            "--steps", str(cli.MAX_STEPS + 1))
    assert code == 2
    assert f"at most {cli.MAX_STEPS}" in err


def test_dispersion_memory_error_is_usage_error(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("cannot allocate the table")

    monkeypatch.setattr(cli, "dispersion_table", out_of_memory)
    code, _, err = run_main(capsys, "dispersion", "--mass", "3", "--eps-max", "10",
                            "--steps", "11")
    assert code == 2
    assert "error: MemoryError" in err


def test_spinor_non_finite_residual_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solution_residual", lambda spec, w: math.nan)
    code, out, _ = run_main(capsys, "spinor", "--species", "pt",
                            "--momentum", "0,0,5", "--mass", "3")
    assert code == 1
    assert "residual nan" in out


@pytest.mark.parametrize("momentum,mass,species,err", [
    ("0,0,5", "-1", "pt", "error: mass must be finite and non-negative, got -1.0\n"),
    ("0,0,0", "1", "pt",
     "error: ZeroMomentum: plane-wave spec needs |p| > 0 (helicity direction)\n"),
    ("0,0,0.5", "1", "pt", "error: NonPhysicalMomentum: |p| = 0.5 < m = 1.0\n"),
    ("0,0,5", "1e308", "pt", "error: NonPhysicalMomentum: |p| = 5.0 < m = 1e+308\n"),
    ("0,0,5", "1e308", "bradyon",
     "error: bradyon plane wave out of floating-point range: norm target w^dag w = inf\n"),
], ids=["negative-mass", "zero-momentum", "below-shell", "pt-m-1e308", "bradyon-m-1e308"])
def test_invalid_spec_error_bytes(capsys, momentum, mass, species, err):
    assert run_main(capsys, "spinor", "--species", species, "--momentum", momentum,
                    "--mass", mass) == (2, "", err)


def test_spinor_out_of_range_is_usage_error():
    proc = run_proc("spinor", "--species", "bradyon", "--momentum", "0,0,5",
                    "--mass", "1e308", env_extra={"PYTHONWARNINGS": "error"})
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr and b"Warning" not in proc.stderr
    assert b"out of floating-point range" in proc.stderr


@pytest.mark.parametrize("species,momentum,mass,volume,line", [
    ("luxon", "0,0,1e-300", "0", "1e-300", b"normalization 7.07106781e+299\n"),
    ("bradyon", "0,0,1e200", "1e200", "1e200", b"normalization 5.94603558e-201\n"),
], ids=["luxon-tiny", "bradyon-huge"])
def test_spinor_normalization_at_extreme_volumes(species, momentum, mass, volume, line):
    """target * V under- or overflows here, 1/sqrt(target * V) does not."""
    proc = run_proc("spinor", "--species", species, "--momentum", momentum, "--mass", mass,
                    "--volume", volume, env_extra={"PYTHONWARNINGS": "error"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert line in proc.stdout


def test_spinor_normalization_out_of_range_is_usage_error():
    proc = run_proc("spinor", "--species", "luxon", "--momentum", "0,0,1e-310", "--mass", "0",
                    "--volume", "1e-310", env_extra={"PYTHONWARNINGS": "error"})
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == (b"error: luxon normalization factor out of floating-point range: "
                           b"1/sqrt(w^dag w V) = inf\n")
