"""Command line: inspect solutions, apply symmetries, emit dispersion tables.

Exit codes: 0 success, 1 verification failure (including a non-finite
residual or any other non-finite number printed), 2 argument or domain error
(including non-finite numbers, results out of floating-point range, work
too large to allocate, tables above MAX_STEPS rows and verify runs above
MAX_TRIALS trials), 3 I/O failure.
A dispersion table is computed and checked in full before its output is
opened, then written in chunks of CHUNK_ROWS rows.  Each chunk is formatted in
one vectorized pass whose bytes are still those of a row-by-row
f"{x:.{precision}g}": the digits come from a double-double pass that proves
its rounding, with `%` as the per-value fallback where it cannot.
The environment variable PT_DIRAC_TOL overrides the default tolerance of
1e-12.  All randomized commands print the effective seed, so failures are
replayable.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import verify
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
from .spinors import (
    NormalizationContext,
    PlaneWaveSpec,
    TranscendentDivision,
    amplitude,
    normalization_factor,
    solution_residual,
)
from .symmetries import DiscreteKind, apply_boost, apply_discrete

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_TOL = 1e-12
DEFAULT_SEED = 42
DEFAULT_TRIALS = 1000
DEFAULT_PRECISION = 9
# Most rows one dispersion table may have; checked before the table is built.
MAX_STEPS = 10_000_000
# Most trials one verify run may have; checked before any input is drawn.
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
    re = _fmt(z.real, precision)
    im = _fmt(abs(z.imag), precision)
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"


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


def _precision(text: str) -> int:
    value = int(text)
    if not 3 <= value <= 17:
        raise argparse.ArgumentTypeError(f"precision must be in [3, 17], got {value}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {text}")
    return value


def _default_tol() -> float:
    raw = os.environ.get("PT_DIRAC_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        tol = -1.0
    if tol <= 0:
        print(f"error: PT_DIRAC_TOL must be a positive number, got {raw!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return tol


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
def build_parser(default_tol: float = DEFAULT_TOL) -> argparse.ArgumentParser:
    """The argument parser, built once per default tolerance."""
    parser = argparse.ArgumentParser(
        prog="ptdirac",
        description="Plane-wave mechanics of spin-1/2 particles with negative "
                    "mass squared, side by side with the ordinary Dirac theory.")
    subs = parser.add_subparsers(dest="command", required=True)

    disp = subs.add_parser("dispersion", help="emit the energy-speed table as CSV")
    disp.add_argument("--mass", required=True, type=_finite_float)
    disp.add_argument("--eps-min", type=_finite_float, default=0.0)
    disp.add_argument("--eps-max", type=_finite_float, required=True)
    disp.add_argument("--steps", type=int, required=True,
                      help=f"number of rows, 2 to {MAX_STEPS}")
    disp.add_argument("--out", default="-", help="output path, '-' for stdout")
    disp.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)

    spin = subs.add_parser("spinor", help="print one plane-wave amplitude")
    _add_spec_arguments(spin)
    spin.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    spin.add_argument("--volume", type=_positive_float, default=1.0)

    exp = subs.add_parser("expect", help="print plane-wave expectation values")
    _add_spec_arguments(exp)
    exp.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)

    tr = subs.add_parser("transform", help="apply a discrete symmetry or a boost")
    _add_spec_arguments(tr)
    tr.add_argument("--op", required=True, choices=["P", "C", "T", "I", "boost"])
    tr.add_argument("--rapidity", type=_finite_float, default=None)
    tr.add_argument("--axis", type=_three_floats, default=(0.0, 0.0, 1.0),
                    metavar="NX,NY,NZ")
    tr.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    tr.add_argument("--tol", type=_positive_float, default=default_tol)

    ver = subs.add_parser("verify", help="run every invariant suite")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                     help=f"number of trials, 1 to {MAX_TRIALS}")
    ver.add_argument("--tol", type=_positive_float, default=default_tol)
    return parser


# Dekker's constant 2**27 + 1: with c = x * _SPLIT, xh = c - (c - x) and
# x - xh are halves of x of at most 26 significant bits, so the products of
# halves are exact.
_SPLIT = 134217729.0
# Decimal exponents beyond this are printed by `%`: within it no split
# overflows and no partial product of the scaling underflows.
_EXP_RANGE = 270


@functools.cache
def _pow10(s: int) -> tuple[float, float, float, float]:
    """10**s as hi + lo, hi the double nearest to it and lo the double
    nearest to the rest, followed by the two Dekker halves of hi."""
    num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, lo, hh, hi - hh


def _scaled(x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**s as a double-double ph + pl: Dekker's exact product of x and
    hi, plus x * lo."""
    s0 = int(s.min())
    hi, lo, hh, hl = np.array([_pow10(t) for t in range(s0, int(s.max()) + 1)]).T
    i = s - s0
    xh = _SPLIT * x
    xh -= xh - x
    xl = x - xh
    ph = x * hi.take(i)
    # ((xh hh - ph) + xh hl + xl hh) + xl hl, then + x lo
    hh, hl = hh.take(i), hl.take(i)
    pl = xh * hh
    pl -= ph
    pl += xh * hl
    pl += xl * hh
    pl += xl * hl
    pl += x * lo.take(i)
    return ph, pl


def _decimal(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, slow): x rounded half-to-even to d 10**(e-p+1), d an integer in
    [10**(p-1), 10**p) (d = e = 0 at x = 0), and where `%` must decide.

    Scale: e = floor(log10 x), fixed up once each way, makes y = x 10**(p-1-e)
    about [10**(p-1), 10**p), formed as a double-double ph + pl.  Its error is
    below 2**-104 y: hi + lo is 10**s to 2**-106, Dekker's x hi = ph + err is
    exact, and x lo and err + x lo round once each (Dekker, Numer. Math. 18,
    1971).  A y that the fix-up leaves just outside the range still rounds to
    10**(p-1) or carries, as `%` would print it.
    Round: with d1 = rint(ph) and a = ph - d1, both exact, f = floor(a + pl)
    leaves y - d1 - f in [0, 1] up to 1e-14, so y rounds to d1 + f or
    d1 + f + 1, split by the half-integer h = f + 1/2.  g = (a - h) + pl,
    with a - h exact, is y's signed distance from d1 + h to a relative
    2**-53.  Where |g| > 2**-98 d1, over 2**5 times the scaling error since
    d1 >= 100 (or y = 0), g has the sign of the exact distance, so
    d = d1 + f + (g > 0) is x correctly rounded, as `%` rounds it (Gay,
    1990).  The rest, exact ties such as 1.125 at p = 3 and values that close
    to one, are `slow`, and so is every x with |e| > _EXP_RANGE.
    """
    e = np.log10(x, out=np.zeros(x.size), where=x > 0)
    e = np.floor(e, out=e).astype(np.int64)
    slow = np.abs(e) > _EXP_RANGE
    if slow.any():
        x = x * ~slow
        e[slow] = 0
    ph, pl = _scaled(x, (p - 1) - e)
    for step, bound in ((-1, 10.0 ** (p - 1)), (1, 10.0 ** p)):
        below = (ph < bound) | ((ph == bound) & (pl < 0))
        i = np.flatnonzero(below & (x > 0) if step < 0 else ~below)
        if i.size:
            e[i] += step
            ph[i], pl[i] = _scaled(x[i], (p - 1) - e[i])
    d1 = np.rint(ph)
    a = ph - d1
    f = a + pl
    np.floor(f, out=f)
    g = a - f
    g -= 0.5
    g += pl
    slow |= np.abs(g) <= 2.0 ** -98 * d1
    d = d1.astype(np.int64)
    d += f.astype(np.int64)
    d += g > 0
    carry = d == 10 ** p
    d[carry] = 10 ** (p - 1)
    e += carry
    return d, e, slow


def _spans(x: np.ndarray, p: int,
           seps: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(text, start, end): row i of `text` holds x[i]'s characters and its
    separator in columns start[i] to end[i].

    Digits come from `_decimal`, or from `%` (`_fmt`) where it cannot decide.
    The p digits are p - 1 passes of `// 10`, one row per place.  The buffer
    is built a column (character position) at a time for all values: four
    leading zeros and the digits, with the point after the units digit
    (fixed, -4 <= e < p) or after the first digit (scientific, followed by
    "e", the sign and two or three exponent digits).  A span starts at the
    units digit or the first digit and ends at the last nonzero digit, or at
    the units digit if that is later, so `%g`'s trailing zeros and bare
    point fall outside it.
    """
    n = x.size
    d, e, slow = _decimal(x, p)
    size = p + 4                             # digit slots: 4 leading zeros, then d
    buf = np.empty((size + 8, n), np.uint8)  # buf[c]: column c of every value
    buf[1:5] = 0                             # slot j in row j + 1 for now
    v = d.astype(np.int32) if p <= 9 else d
    for j in range(size - 1, 4, -1):
        quot = v // 10
        buf[j + 1] = v - 10 * quot
        v = quot
    buf[5] = v
    sci = (e < -4) | (e >= p)
    q = (4 + e * ~sci).astype(np.uint8)      # the point follows slot q
    last = np.maximum(q, 4)                  # the last slot printed
    for j in range(5, size):
        np.maximum(last, (buf[j + 1] != 0) * np.uint8(j), out=last)
    buf[1:size + 1] += ord("0")
    # slots up to the point move up a row; the point takes the row after them
    for c in range(int(q.max()) + 1):
        buf[c] += (q >= c) * (buf[c + 1] - buf[c])
    flat = buf.reshape(-1)
    cols = np.arange(n)
    flat[(q + 1).astype(np.int64) * n + cols] = ord(".")
    start = np.minimum(q, 4).astype(np.int64)
    end = last + (last > q).astype(np.int64)
    i = np.flatnonzero(sci)
    if i.size:
        k = np.abs(e[i])
        at = (end[i] + 1) * n + i
        flat[at] = ord("e")
        flat[at + n] = np.where(e[i] < 0, ord("-"), ord("+"))
        wide = k >= 100
        flat[at[wide] + 2 * n] = k[wide] // 100 + ord("0")
        at += (2 + wide) * n
        flat[at] = k // 10 % 10 + ord("0")
        flat[at + n] = k % 10 + ord("0")
        end[i] += 4 + wide
    for i in np.flatnonzero(slow):
        text = _fmt(x[i], p)
        buf[:len(text), i] = np.frombuffer(text.encode(), np.uint8)
        start[i], end[i] = 0, len(text) - 1
    ends = end.reshape(-1, len(seps))
    for j, sep in enumerate(seps):
        for char in sep:
            ends[:, j] += 1
            flat[ends[:, j] * n + cols[j::len(seps)]] = ord(char)
    lo = int(start.min())
    return buf[lo:int(end.max()) + 1].T.copy(), start - lo, end - lo


def _format_block(block: np.ndarray, precision: int, seps: tuple[str, ...]) -> str:
    """The rows of `block` as text, each field f"{x:.{precision}g}" followed
    by its separator in `seps`, for finite x >= 0 (no -0.0): `_spans`, then
    one boolean compress that keeps every span, in row order."""
    text, start, end = _spans(block.ravel(), precision, seps)
    width = text.shape[1]
    pos = np.arange(width)
    spans = (pos >= np.arange(5)[:, None, None]) & (pos <= pos[:, None])
    keep = spans.reshape(-1, width).take(start * width + end, axis=0)
    return str(text[keep], "ascii")


def _write_table(table: DispersionTable, precision: int, out) -> None:
    """Write a dispersion table as CSV to `out`, CHUNK_ROWS rows at a time.

    Rows with the same absent fields form runs (three at most, since the grid
    is nondecreasing).  Each chunk of a run goes through `_format_block` in
    one pass over its present fields, rows x fields flattened, and the bytes
    are still those of a row-by-row `f"{x:.{precision}g}"` (`_fmt`), as the
    table holds no -0.0: the digits come from the certified double-double
    pass of `_decimal`, and `%` prints each value that pass cannot decide.
    """
    shapes = {(False, False): ((table.epsilon, table.v), (",,", ",\n")),
              (False, True): ((table.epsilon, table.v, table.w), (",,", ",", "\n")),
              (True, True): ((table.epsilon, table.u, table.v, table.w),
                             (",", ",", ",", "\n"))}
    out.write("epsilon,u_bradyon,v_pt,w_tachyon\n")
    n = len(table.epsilon)
    ends = [*(np.flatnonzero((table.has_u[1:] != table.has_u[:-1])
                             | (table.has_w[1:] != table.has_w[:-1])) + 1), n]
    start = 0
    for end in ends:
        columns, seps = shapes[bool(table.has_u[start]), bool(table.has_w[start])]
        for lo in range(start, end, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, end)
            out.write(_format_block(np.column_stack([c[lo:hi] for c in columns]),
                                    precision, seps))
        start = end


def cmd_dispersion(args) -> int:
    if args.steps > MAX_STEPS:
        raise ValueError(f"steps must be at most {MAX_STEPS}, got {args.steps}")
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
    n_factor = normalization_factor(spec, NormalizationContext(volume=args.volume))
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
    if args.trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {args.trials}")
    report = verify.run_all(args.seed, args.trials, args.tol)
    print(verify.format_report(report))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    args = build_parser(_default_tol()).parse_args(argv)
    # looked up on each call, so that a replaced command function is called
    command = {"dispersion": cmd_dispersion, "spinor": cmd_spinor, "expect": cmd_expect,
               "transform": cmd_transform, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (NonPhysicalMomentum, MassNotZero, ZeroMomentum, TranscendentDivision,
            MasslessSpecies, OverflowError, MemoryError) as exc:
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
