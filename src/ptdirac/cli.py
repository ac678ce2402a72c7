"""Command line: inspect solutions, apply symmetries, emit dispersion tables.

Exit codes: 0 success, 1 verification failure (including a non-finite
residual or any other non-finite number printed), 2 argument or domain error
(including non-finite numbers, integer options out of their ranges, which the
parser refuses before any work, results out of floating-point range and work
too large to allocate), 3 I/O failure.
A dispersion table is computed and checked in full before its output is
opened, then written in chunks of CHUNK_ROWS rows.  Each chunk is formatted in
one vectorized pass whose bytes are still those of a row-by-row
f"{x:.{precision}g}"; `ptdirac.gformat` says how it rounds and extracts digits.
Each command imports only the modules it runs: `verify`, `symmetries` and
`gformat` are loaded by the commands that use them.
`transform` and `verify` judge residuals against --tol, 1e-12 by default.
All randomized commands print the effective seed, so failures are
replayable.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .clifford import Representation
from .kinematics import (
    DispersionTable,
    MassNotZero,
    NonPhysicalMomentum,
    Species,
    ZeroMomentum,
    dispersion_table,
)
from .observables import MasslessSpecies, expectation_report
from .spinors import PlaneWaveSpec, amplitude, normalization_factor, solution_residual

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_TOL = 1e-12
DEFAULT_SEED = 42
DEFAULT_TRIALS = 1000
DEFAULT_PRECISION = 9
# Most rows one dispersion table may have; the parser refuses more.
MAX_STEPS = 10_000_000
# Most trials one verify run may have; the parser refuses more.
MAX_TRIALS = 100_000
# Rows of a dispersion table formatted and written at a time.
CHUNK_ROWS = 4096

_SPECIES = {"bradyon": Species.BRADYON, "pt": Species.PSEUDOTACHYON,
            "pseudotachyon": Species.PSEUDOTACHYON, "luxon": Species.LUXON}
_SIGNS = {"+": 1, "-": -1, "+1": 1, "-1": -1}
_REPS = {"standard": Representation.STANDARD, "weyl": Representation.WEYL}


def _fmt(x: float, precision: int) -> str:
    return f"{float(x) + 0.0:.{precision}g}"


def _fmt_complex(z: complex, precision: int) -> str:
    real = _fmt(z.real, precision)
    im = _fmt(abs(z.imag), precision)
    sign = "-" if z.imag < 0 else "+"
    return f"{real}{sign}{im}i"


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite value, got {text!r}")
    return value


def _three_floats(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    x, y, z = (_finite_float(p) for p in parts)
    return (x, y, z)


def _int_in(name: str, lo: int, hi: float = math.inf):
    """An argparse type for an integer in [lo, hi]; its errors name `name`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # argparse's own message for type=int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"{name} must be in [{lo}, {hi}{')' if hi == math.inf else ']'}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {text}")
    return value


def _add_spec_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--species", required=True, choices=sorted(_SPECIES))
    sub.add_argument("--sign", default="+", choices=sorted(_SIGNS))
    sub.add_argument("--momentum", required=True, type=_three_floats,
                     metavar="PX,PY,PZ")
    sub.add_argument("--mass", required=True, type=_finite_float)
    sub.add_argument("--helicity", default="+1", choices=sorted(_SIGNS))
    sub.add_argument("--rep", default="standard", choices=sorted(_REPS))


def _spec_from_args(args) -> PlaneWaveSpec:
    return PlaneWaveSpec(
        species=_SPECIES[args.species],
        energy_sign=_SIGNS[args.sign],
        momentum=args.momentum,
        mass=args.mass,
        helicity=_SIGNS[args.helicity],
        rep=_REPS[args.rep],
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once."""
    parser = argparse.ArgumentParser(
        prog="ptdirac",
        description="Plane-wave mechanics of spin-1/2 particles with negative "
                    "mass squared, side by side with the ordinary Dirac theory.")
    subs = parser.add_subparsers(dest="command", required=True)
    precision = _int_in("precision", 3, 17)

    disp = subs.add_parser("dispersion", help="emit the energy-speed table as CSV")
    disp.add_argument("--mass", required=True, type=_finite_float)
    disp.add_argument("--eps-min", type=_finite_float, default=0.0)
    disp.add_argument("--eps-max", type=_finite_float, required=True)
    disp.add_argument("--steps", type=_int_in("steps", 2, MAX_STEPS), required=True,
                      help=f"number of rows, 2 to {MAX_STEPS}")
    disp.add_argument("--out", default="-", help="output path, '-' for stdout")
    disp.add_argument("--precision", type=precision, default=DEFAULT_PRECISION)

    spin = subs.add_parser("spinor", help="print one plane-wave amplitude")
    _add_spec_arguments(spin)
    spin.add_argument("--precision", type=precision, default=DEFAULT_PRECISION)
    spin.add_argument("--volume", type=_positive_float, default=1.0)

    exp = subs.add_parser("expect", help="print plane-wave expectation values")
    _add_spec_arguments(exp)
    exp.add_argument("--precision", type=precision, default=DEFAULT_PRECISION)

    tr = subs.add_parser("transform", help="apply a discrete symmetry or a boost")
    _add_spec_arguments(tr)
    tr.add_argument("--op", required=True, choices=["P", "C", "T", "I", "boost"])
    tr.add_argument("--rapidity", type=_finite_float, default=None)
    tr.add_argument("--axis", type=_three_floats, default=(0.0, 0.0, 1.0),
                    metavar="NX,NY,NZ")
    tr.add_argument("--precision", type=precision, default=DEFAULT_PRECISION)
    tr.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)

    ver = subs.add_parser("verify", help="run every invariant suite")
    ver.add_argument("--seed", type=_int_in("seed", 0), default=DEFAULT_SEED)
    ver.add_argument("--trials", type=_int_in("trials", 1, MAX_TRIALS), default=DEFAULT_TRIALS,
                     help=f"number of trials, 1 to {MAX_TRIALS}")
    ver.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    return parser


def _write_table(table: DispersionTable, precision: int, out) -> None:
    """Write a dispersion table as CSV to `out`, CHUNK_ROWS rows at a time.

    Rows without w (eps = 0) and rows without u (eps < m or eps = 0) are
    prefixes of the nondecreasing grid, so two NaN counts give its three runs.
    Each chunk of a run goes through `gformat.format_block` in one pass over
    its present fields, rows x fields flattened, and the bytes are still those
    of a row-by-row `f"{x:.{precision}g}"` (`_fmt`), as the table holds no
    -0.0; `ptdirac.gformat` says how they are produced.
    """
    from .gformat import format_block

    no_w, no_u = (np.count_nonzero(np.isnan(c)) for c in (table.w, table.u))
    runs = (((table.epsilon, table.v), (",,", ",\n"), 0, no_w),
            ((table.epsilon, table.v, table.w), (",,", ",", "\n"), no_w, no_u),
            (table, (",", ",", ",", "\n"), no_u, len(table.epsilon)))  # all four columns
    out.write("epsilon,u_bradyon,v_pt,w_tachyon\n")
    for columns, seps, start, end in runs:
        for lo in range(start, end, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, end)
            out.write(format_block(np.column_stack([c[lo:hi] for c in columns]),
                                   precision, seps))


def cmd_dispersion(args) -> int:
    table = dispersion_table(args.mass, args.eps_min, args.eps_max, args.steps)
    if args.out == "-":
        _write_table(table, args.precision, sys.stdout)
    else:
        with open(args.out, "w", newline="") as handle:
            _write_table(table, args.precision, handle)
    return EXIT_OK


def cmd_spinor(args) -> int:
    spec = _spec_from_args(args)
    w = amplitude(spec)
    p = args.precision
    norm = float(np.real(np.vdot(w, w)))
    n_factor = normalization_factor(spec, args.volume)
    print("components " + " ".join(_fmt_complex(z, p) for z in w))
    print(f"norm {_fmt(norm, p)}")
    print(f"normalization {_fmt(n_factor, p)}")
    residual = solution_residual(spec, w)
    print(f"residual {residual:.3e}")
    return EXIT_OK if math.isfinite(residual) else EXIT_VERIFY_FAILED


def cmd_expect(args) -> int:
    spec = _spec_from_args(args)
    report = expectation_report(spec)
    p = args.precision
    vectors = {"mean_velocity": report.mean_velocity,
               "mean_four_velocity": report.mean_four_velocity.as_array(),
               "mean_spin_four_vector": report.mean_spin_four_vector.as_array()}
    for label, vector in vectors.items():
        print(label + " " + " ".join(_fmt(c, p) for c in vector))
    for label, value in report.constraint_residuals.items():
        print(f"residual {label} {value:.3e}")
    printed = np.concatenate([*vectors.values(), list(report.constraint_residuals.values())])
    return EXIT_OK if np.isfinite(printed).all() else EXIT_VERIFY_FAILED


def cmd_transform(args) -> int:
    from .symmetries import DiscreteKind, apply_boost, apply_discrete

    spec = _spec_from_args(args)
    if args.op == "boost":
        if args.rapidity is None:
            raise ValueError("--rapidity is required for --op boost")
        transformed, residual = apply_boost(spec, args.axis, args.rapidity)
    else:
        transformed, residual = apply_discrete(DiscreteKind(args.op), spec)
    print("transformed " + " ".join(_fmt_complex(z, args.precision) for z in transformed))
    print(f"residual {residual:.3e}")
    return EXIT_OK if residual <= args.tol else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_all(args.seed, args.trials, args.tol)
    print(verify.format_report(report))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# A long option without its value, and a value that starts like a negative
# number: -.5,0,2, -1,0,0 or -1e-3, which argparse takes for an option.
_OPTION = re.compile(r"--\w[\w-]*")
_NEGATIVE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each `--option -value` pair, the value starting like a
    negative number, spelled `--option=-value`, so that both spellings parse
    alike; --help and its prefixes take no value and are left alone."""
    out = []
    for token in argv:
        if (out and _NEGATIVE.match(token) and _OPTION.fullmatch(out[-1])
                and not "--help".startswith(out[-1])):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    # looked up on each call, so that a replaced command function is called
    command = {"dispersion": cmd_dispersion, "spinor": cmd_spinor, "expect": cmd_expect,
               "transform": cmd_transform, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (NonPhysicalMomentum, MassNotZero, ZeroMomentum, MasslessSpecies, OverflowError,
            MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
