"""Seeded workloads of the ptdirac benchmark: inputs, timed operations, checks.

A workload maps (seed, operation index) to one operation's inputs, runs the
operation through ptdirac's public functions (the timed part) and checks its
outputs afterwards (untimed).  Inputs come in fixed cycles of kinds, so every
run holds the same share of each kind whatever the seed; the seed only draws
the values inside each kind.  Every reduction over residuals propagates NaN,
so a NaN output counts as a failure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ptdirac import cli, observables, spinors, symmetries, verify
from ptdirac.clifford import Representation
from ptdirac.kinematics import MassNotZero, NonPhysicalMomentum, Species, ZeroMomentum
from ptdirac.observables import MasslessSpecies
from ptdirac.spinors import TranscendentDivision

# Errors that name one specific cause; raising one for another cause misleads.
TYPED_ERRORS = (NonPhysicalMomentum, MassNotZero, ZeroMomentum,
                TranscendentDivision, MasslessSpecies)


@dataclass(frozen=True)
class Outcome:
    """Checked result of one operation."""

    label: str                 # input kind, names failing inputs in the record
    items: int                 # work done: verify trials, CSV rows or states
    failure: Optional[str]     # None when every output check passed
    output_bytes: int = 0


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _unit(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        n = rng.normal(size=3)
        norm = float(np.linalg.norm(n))
        if norm > 1e-3:
            return tuple(float(c) for c in n / norm)


# ------------------------------------------------------------ verify-bulk

class VerifyBulk:
    """One `verify.run_all` call per operation, the acceptance gate's code path."""

    name = "verify-bulk"
    item = "trials"
    cycle = 1
    probe = 8000
    trace_ops = 1
    known_defects: frozenset[str] = frozenset()

    tol = 1e-12      # the CLI's default tolerance
    min_checks = 32  # checks run_all reports at the parent of this benchmark

    def __init__(self, trials: int = 1000):
        self.trials = trials

    def inputs(self, seed: int, index: int) -> int:
        return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])

    def run(self, call_seed: int):
        return verify.run_all(call_seed, self.trials, self.tol)

    def check(self, call_seed: int, report) -> Outcome:
        label = f"run_all(seed={call_seed})"
        if isinstance(report, Exception):
            return Outcome(label, self.trials, f"{type(report).__name__}: {report}")
        n = len(report.checks)
        worst = float(np.max([c.max_residual for c in report.checks]))
        summary = verify.format_report(report).splitlines()[-1]
        if not (n >= self.min_checks and worst <= self.tol
                and summary == f"RESULT: PASS ({n}/{n} checks)"):
            return Outcome(label, self.trials,
                           f"{summary}, worst residual {worst:.3e}")
        return Outcome(label, self.trials, None)

    def warm_up(self, seed: int):
        verify.run_all(seed, 10, self.tol)

    def fixed_checks(self) -> list[Outcome]:
        return []


# --------------------------------------------------------- dispersion-csv

@dataclass(frozen=True)
class TableInput:
    label: str
    mass: float
    eps_min: float
    eps_max: float
    steps: int
    precision: int

    def argv(self, out: Path) -> list[str]:
        return ["dispersion", "--mass", repr(self.mass), "--eps-min", repr(self.eps_min),
                "--eps-max", repr(self.eps_max), "--steps", str(self.steps),
                "--precision", str(self.precision), "--out", str(out)]


HEADER = "epsilon,u_bradyon,v_pt,w_tachyon"
GOLDEN_ARGV = ["dispersion", "--mass", "3", "--eps-min", "0", "--eps-max", "10",
               "--steps", "11"]


def _table_kinds(rng: np.random.Generator):
    """(label, mass, eps_min, eps_max, precision) of each kind in one cycle.

    The seed draws the mass scale; the range is fixed in units of the mass,
    up to 2%, so the share of rows below eps = m, and with it the cost of a
    table, is the same for every seed.
    """
    m = rng.uniform(0.1, 50.0, size=5)
    j = rng.uniform(0.98, 1.02, size=6)
    return (
        ("massless", 0.0, 0.0, 20.0 * j[0], 9),
        ("quiet_point_crossing", m[0], 0.0, 4.0 * j[1] * m[0], 9),
        ("crossing_p17", m[1], 0.5 * m[1], 3.0 * j[2] * m[1], 17),
        ("below_mass_p6", m[2], 0.05 * m[2], 0.8 * j[3] * m[2], 6),
        ("above_mass_p12", m[3], 1.5 * m[3], 20.0 * j[4] * m[3], 12),
        ("quiet_point_crossing_p3", m[4], 0.0, 2.0 * j[5] * m[4], 3),
    )


class DispersionCsv:
    """In-process `ptdirac dispersion --out FILE` over seeded ~10^5-row tables."""

    name = "dispersion-csv"
    item = "rows"
    cycle = 6
    probe = 4000
    trace_ops = 6
    known_defects: frozenset[str] = frozenset()

    def __init__(self, workdir: Path, golden: Path, rows: int = 100_000):
        self.out = Path(workdir) / "table.csv"
        self.golden = Path(golden)
        self.rows = rows

    def inputs(self, seed: int, index: int) -> TableInput:
        rng = _rng(seed, index)
        label, mass, lo, hi, precision = _table_kinds(rng)[index % self.cycle]
        steps = int(rng.integers(self.rows * 99 // 100, self.rows * 101 // 100 + 1))
        return TableInput(label, float(mass), float(lo), float(hi), steps, precision)

    def run(self, table: TableInput) -> int:
        return cli.main(table.argv(self.out))

    def check(self, table: TableInput, code) -> Outcome:
        if isinstance(code, Exception):
            return Outcome(table.label, table.steps, f"{type(code).__name__}: {code}")
        failure = f"exit code {code}" if code != 0 else check_table(self.out, table)
        return Outcome(table.label, table.steps, failure, self.out.stat().st_size)

    def warm_up(self, seed: int):
        # a full-size table, so the allocator already holds the memory one needs
        cli.main(self.inputs(seed, 0).argv(self.out))

    def fixed_checks(self) -> list[Outcome]:
        """The golden case, byte for byte."""
        code = cli.main(GOLDEN_ARGV + ["--out", str(self.out)])
        data = self.out.read_bytes()
        ok = code == 0 and data == self.golden.read_bytes()
        return [Outcome("golden_m3", 11, None if ok else "differs from the golden CSV",
                        len(data))]


def check_table(path: Path, t: TableInput, chunk: int = 10_000) -> Optional[str]:
    """Why the CSV file of table `t` is wrong, or None.

    Printed values carry `precision` significant digits, so each one is within
    a relative 10^(1-precision) of the value it prints; v*w = 1 must hold to
    1e-13 beyond that.  The file is read in chunks, so the check needs less
    memory than the command that wrote it and does not set the peak RSS.
    """
    grid = np.linspace(t.eps_min, t.eps_max, t.steps)
    rel = 10.0 ** (1 - t.precision)
    with open(path, newline="") as handle:
        if handle.readline() != HEADER + "\n":
            return "bad header"
        done = 0
        while lines := list(itertools.islice(handle, chunk)):
            if not all(line.endswith("\n") for line in lines):
                return "missing final newline"
            rows = [line[:-1].split(",") for line in lines]
            if any(len(r) != 4 for r in rows) or done + len(rows) > t.steps:
                return f"more than {t.steps} rows or a row without four fields"
            failure = _check_rows(rows, grid[done:done + len(rows)], t.mass, rel)
            if failure:
                return f"row {done + 1}+: {failure}"
            done += len(rows)
    return None if done == t.steps else f"{done} rows, expected {t.steps}"


def _check_rows(rows, grid, mass, rel) -> Optional[str]:
    eps_s, u_s, v_s, w_s = (np.array(c) for c in zip(*rows))
    u_empty, w_empty = u_s == "", w_s == ""
    if not np.array_equal(u_empty, (grid < mass) | (grid == 0.0)):
        return "u empty on the wrong rows"
    if not np.array_equal(w_empty, grid == 0.0):
        return "w empty on the wrong rows"
    try:
        eps = eps_s.astype(float)
        u = u_s[~u_empty].astype(float)
        v = v_s.astype(float)
        w = w_s[~w_empty].astype(float)
    except ValueError as exc:
        return f"unparsable field: {exc}"
    if not np.all(np.abs(eps - grid) <= rel * np.abs(grid)):
        return "epsilon column differs from the grid"
    if not (np.all((v >= 0.0) & (v <= 1.0)) and np.all((u >= 0.0) & (u <= 1.0))):
        return "speed outside [0, 1]"
    vw = v[~w_empty] * w
    if vw.size and not np.max(np.abs(vw - 1.0)) <= 1e-13 + 2.0 * rel:
        return "v*w differs from 1"
    return None


# ---------------------------------------------------------- state-inspect

# Pins from tests/test_acceptance.py.  The norm pin is absolute up to a norm
# of 1 and relative above it, so that edge-of-range momenta stay checkable.
SOLUTION_PIN = 1e-12
NORM_PIN = 1e-11
INTERTWINING_PIN = 1e-12
BOOST_PIN = 1e-10
CONSTRAINT_PIN = 1e-11


@dataclass(frozen=True)
class StateInput:
    label: str
    species: Species
    energy_sign: int
    momentum: tuple[float, float, float]
    mass: float
    helicity: int
    rep: Representation
    axis: tuple[float, float, float]
    rapidity: float
    expect: bool                         # call expectation_report
    error: Optional[type] = None         # documented error of an out-of-domain input
    edge: bool = False                   # extreme but valid: result or range error


@dataclass
class StateResult:
    """Outputs of one state operation, up to the error that stopped it."""

    w: Optional[np.ndarray] = None
    residual: Optional[float] = None
    report: Optional[observables.ExpectationReport] = None
    discrete: tuple = ()
    boosted: Optional[tuple] = None
    error: Optional[Exception] = None


_COMBOS = [(species, sign, lam, rep)
           for species in (Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON)
           for sign in (1, -1)
           for lam in (1, -1)
           for rep in (Representation.STANDARD, Representation.WEYL)]
_SHAPES = ("generic", "low_k", "pole_up", "pole_down")
_REGULAR = len(_COMBOS) * len(_SHAPES)


def _regular(pos: int, rng: np.random.Generator) -> StateInput:
    """Every species x sign x helicity x basis, on four momentum shapes.

    low_k is the transcendent point k = m for pseudotachyons, a slow bradyon
    and a soft luxon; the pole shapes put the momentum on the +-z axis.
    """
    species, sign, lam, rep = _COMBOS[pos % len(_COMBOS)]
    shape = _SHAPES[pos // len(_COMBOS)]
    low = shape == "low_k"
    if species is Species.LUXON:
        m, k = 0.0, rng.uniform(0.05, 0.5) if low else rng.uniform(0.05, 10.0)
    elif species is Species.PSEUDOTACHYON:
        m = rng.uniform(0.2, 2.0)
        k = m if low else m * rng.uniform(1.0, 8.0)
    else:
        m = rng.uniform(0.2, 2.0)
        k = m * (rng.uniform(0.02, 0.1) if low else rng.uniform(0.02, 8.0))
    n = {"pole_up": (0.0, 0.0, 1.0), "pole_down": (0.0, 0.0, -1.0)}.get(shape) or _unit(rng)
    return StateInput(f"{species.value}.{shape}", species, sign,
                      tuple(k * c for c in n), float(m), lam, rep, _unit(rng),
                      float(rng.uniform(-2.0, 2.0)), expect=bool(m > 0.0))


def _variant(rng: np.random.Generator, label: str, species: Species, momentum, mass,
             **kw) -> StateInput:
    fields = dict(energy_sign=int(rng.choice((1, -1))), helicity=int(rng.choice((1, -1))),
                  rep=(Representation.STANDARD, Representation.WEYL)[int(rng.integers(2))],
                  axis=_unit(rng), rapidity=float(rng.uniform(-2.0, 2.0)),
                  expect=mass > 0.0)
    fields.update(kw)
    return StateInput(label, species, momentum=tuple(float(c) for c in momentum),
                      mass=float(mass), **fields)


PT, BRAD, LUX = Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON

# Out of domain: each must raise its documented error.
_OUT_OF_DOMAIN = (
    lambda r, m: _variant(r, "ood.pt_below_shell", PT,
                          np.multiply(_unit(r), m * r.uniform(0.1, 0.9)), m,
                          error=NonPhysicalMomentum),
    lambda r, m: _variant(r, "ood.luxon_with_mass", LUX, _unit(r), m, error=MassNotZero),
    lambda r, m: _variant(r, "ood.zero_momentum", BRAD, (0.0, 0.0, 0.0), m, error=ZeroMomentum),
    lambda r, m: _variant(r, "ood.massless_expectation", LUX, _unit(r), 0.0, expect=True,
                          error=MasslessSpecies),
    lambda r, m: _variant(r, "ood.non_unit_axis", PT, np.multiply(_unit(r), 2 * m), m,
                          axis=(0.0, 0.0, 2.0), error=ValueError),
    lambda r, m: _variant(r, "ood.non_finite_momentum", BRAD, (float("nan"), 0.0, m), m,
                          error=ValueError),
)

# Edge of range (ROADMAP aim 3): valid inputs that must give a verified result
# or a range error.  The first four are ROADMAP item 1's library defects.
KNOWN_DEFECTS = frozenset({"edge.momentum_1e200", "edge.momentum_1e-300",
                           "edge.mass_1e308", "edge.rapidity_800"})
_EDGE = (
    lambda r, m: _variant(r, "edge.momentum_1e200", PT, (1e200, 0.0, 0.0), 1.0, edge=True),
    lambda r, m: _variant(r, "edge.momentum_1e-300", BRAD, (1e-300, 0.0, 0.0), 1e-300,
                          edge=True),
    lambda r, m: _variant(r, "edge.mass_1e308", BRAD, (0.0, 0.0, 5.0), 1e308, edge=True),
    lambda r, m: _variant(r, "edge.rapidity_800", PT, np.multiply(_unit(r), 2 * m), m,
                          rapidity=800.0, edge=True),
    lambda r, m: _variant(r, "edge.luxon_tiny_k", LUX,
                          np.multiply(_unit(r), 10 ** r.uniform(-9, -6)), 0.0, edge=True),
    lambda r, m: _variant(r, "edge.bradyon_near_rest", BRAD,
                          np.multiply(_unit(r), m * 10 ** r.uniform(-9, -6)), m, edge=True),
    lambda r, m: _variant(r, "edge.pt_just_above_shell", PT,
                          (0.0, 0.0, m * (1 + 10 ** r.uniform(-13, -10))), m, edge=True),
    lambda r, m: _variant(r, "edge.pt_transcendent_pole", PT, (0.0, 0.0, -m), m, edge=True),
    lambda r, m: _variant(r, "edge.pt_near_pole", PT, (m * 1e-9, 0.0, 2 * m), m, edge=True),
)


class StateInspect:
    """One plane-wave state per operation: the library work behind the
    `spinor`, `expect` and `transform` commands, without argparse or printing."""

    name = "state-inspect"
    item = "states"
    probe = 60
    cycle = _REGULAR + len(_OUT_OF_DOMAIN) + len(_EDGE)
    trace_ops = 4 * cycle
    known_defects = KNOWN_DEFECTS

    def inputs(self, seed: int, index: int) -> StateInput:
        rng = _rng(seed, index)
        pos = index % self.cycle
        if pos < _REGULAR:
            return _regular(pos, rng)
        m = float(rng.uniform(0.2, 2.0))
        pos -= _REGULAR
        if pos < len(_OUT_OF_DOMAIN):
            return _OUT_OF_DOMAIN[pos](rng, m)
        return _EDGE[pos - len(_OUT_OF_DOMAIN)](rng, m)

    def run(self, s: StateInput) -> StateResult:
        r = StateResult()
        try:
            spec = spinors.PlaneWaveSpec(s.species, s.energy_sign, s.momentum, s.mass,
                                         s.helicity, s.rep)
            r.w = spinors.amplitude(spec)
            r.residual = spinors.solution_residual(spec, r.w)
            if s.expect:
                r.report = observables.expectation_report(spec)
            for kind in symmetries.DiscreteKind:
                r.discrete += (symmetries.apply_discrete(kind, spec),)
            r.boosted = symmetries.apply_boost(spec, s.axis, s.rapidity)
        except Exception as exc:  # the check judges the error and what came before it
            r.error = exc
        return r

    def check(self, s: StateInput, result) -> Outcome:
        return Outcome(s.label, 1, check_state(s, result))

    def warm_up(self, seed: int):
        for index in range(self.cycle):
            self.run(self.inputs(seed, index))

    def fixed_checks(self) -> list[Outcome]:
        return []


def check_state(s: StateInput, r: StateResult) -> Optional[str]:
    """Why the outputs of state `s` are wrong, or None.

    Outputs produced before an error must pass their checks too, so an error
    raised after a NaN does not hide the NaN.
    """
    arrays, ratios = [], []
    if r.w is not None:
        k = math.hypot(*s.momentum)
        target = 2.0 * (math.hypot(k, s.mass) if s.species is Species.BRADYON else k)
        arrays.append(r.w)
        ratios.append(abs(float(np.vdot(r.w, r.w).real) - target)
                      / (NORM_PIN * max(1.0, target)))
    if r.residual is not None:
        ratios.append(r.residual / SOLUTION_PIN)
    if r.report is not None:
        arrays += [np.array(r.report.mean_velocity), r.report.mean_four_velocity.as_array(),
                   r.report.mean_spin_four_vector.as_array()]
        ratios += [abs(v) / CONSTRAINT_PIN for v in r.report.constraint_residuals.values()]
    for transformed, residual in r.discrete:
        arrays.append(transformed)
        ratios.append(residual / INTERTWINING_PIN)
    if r.boosted is not None:
        arrays.append(r.boosted[0])
        ratios.append(r.boosted[1] / BOOST_PIN)
    if not all(np.isfinite(a).all() for a in arrays):
        return "non-finite output"
    worst = float(np.max(ratios)) if ratios else 0.0
    if not worst <= 1.0:
        return f"residual {worst:.3g} x its pin"
    e = r.error
    if s.error is not None:
        if e is None:
            return f"returned a result, documented {s.error.__name__}"
        if isinstance(e, s.error) and (s.error in TYPED_ERRORS
                                       or not isinstance(e, TYPED_ERRORS)):
            return None
        return f"raised {type(e).__name__}: {e}; documented {s.error.__name__}"
    if e is None or (s.edge and isinstance(e, ValueError)
                     and not isinstance(e, TYPED_ERRORS)):
        return None
    return f"raised {type(e).__name__}: {e}"
