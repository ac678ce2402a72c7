"""Four-vector arithmetic, mass shells, dual momentum, dispersion speeds, boosts.

Three families of free particles are covered: bradyons (eps^2 = k^2 + m^2),
pseudotachyons (eps^2 = k^2 - m^2, which forces |p| >= m in every frame), and
massless luxons (eps = k).  The pseudotachyon point eps = 0, k = m (the
"transcendent" state) is fully supported.  The dispersion speeds at fixed
energy have one implementation, a law over arrays of energies: `speeds` is
that law at one energy and `dispersion_table` returns its columns over a grid.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# Relative slack for shell checks: |m * nhat| can land a couple of ulp below
# m, which must still count as an admissible pseudotachyon momentum.
SHELL_RTOL = 1e-12


class NonPhysicalMomentum(ValueError):
    """Pseudotachyon momentum below the mass: no such state in any frame."""


class MassNotZero(ValueError):
    """Luxon constructed with a nonzero mass."""


class ZeroMomentum(ValueError):
    """Vanishing momentum where a direction is required."""


class Species(enum.Enum):
    BRADYON = "bradyon"
    PSEUDOTACHYON = "pseudotachyon"
    LUXON = "luxon"


@dataclass(frozen=True)
class FourVector:
    """Energy-momentum vector (e; px, py, pz) with metric (+, -, -, -)."""

    e: float
    px: float
    py: float
    pz: float

    def __post_init__(self):
        for name in ("e", "px", "py", "pz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite four-vector component {name}")

    def as_array(self) -> np.ndarray:
        return np.array([self.e, self.px, self.py, self.pz])

    @classmethod
    def from_array(cls, arr) -> "FourVector":
        e, px, py, pz = np.asarray(arr, dtype=float).tolist()
        return cls(e, px, py, pz)


def minkowski_dot(a, b):
    """a.b with metric (+, -, -, -), row by row of two arrays whose last axis
    holds (e, px, py, pz)."""
    ab = a * b
    return ab[..., 0] - ab[..., 1] - ab[..., 2] - ab[..., 3]


def energy_from_momentum(species: Species, k, m):
    """Positive energy on the shell of the given species.

    The pseudotachyon branch is evaluated as sqrt(k - m) * sqrt(k + m), which
    is exact at the transcendent point k = m and avoids the cancellation in
    sqrt(k^2 - m^2) near it; the bradyon branch is ``math.hypot``, entry by
    entry.  ``k`` and ``m`` are floats, giving a float, or broadcastable
    arrays, giving one energy per entry; an entry off the shell raises, and
    the error names the first one.
    """
    k, m = np.asarray(k, dtype=float), np.asarray(m, dtype=float)
    if k.shape != m.shape:
        k, m = np.broadcast_arrays(k, m)
    if np.count_nonzero(np.minimum(k, m) < 0):
        raise ValueError("k and m must be non-negative")
    if species is Species.BRADYON:
        eps = np.fromiter(map(math.hypot, k.ravel().tolist(), m.ravel().tolist()),
                          dtype=float, count=k.size).reshape(k.shape)
    elif species is Species.LUXON:
        massive = m != 0.0
        if np.count_nonzero(massive):
            raise MassNotZero(f"luxon requires m = 0, got m = {m[massive][0]}")
        eps = k.copy()
    elif species is Species.PSEUDOTACHYON:
        below = k < m * (1.0 - SHELL_RTOL)
        if np.count_nonzero(below):
            raise NonPhysicalMomentum(f"|p| = {k[below][0]} < m = {m[below][0]}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN out of range
            eps = np.sqrt(np.maximum(k - m, 0.0)) * np.sqrt(k + m)
    else:
        raise ValueError(f"unknown species {species!r}")
    return float(eps) if eps.ndim == 0 else eps


def dual_momentum(p):
    """The dual (k; eps p / k) of p = (eps; p), swapping eps and k.

    Satisfies p.dual(p) = 0 and dual(p)^2 = -p^2.  ``p`` is an array whose
    last axis holds (e, px, py, pz), dualized row by row.  The definition is
    componentwise in the given frame; it is not claimed (nor tested) to
    transform as a four-vector under boosts that are not collinear with p.
    |p| is taken on p scaled exactly by the power of two of its largest
    component, so it neither overflows at 1e200 nor underflows at 1e-300.
    """
    p = np.asarray(p, dtype=float)
    scale = np.ldexp(1.0, np.frexp(np.abs(p[..., 1:]).max(axis=-1))[1])
    k = np.linalg.norm(p[..., 1:] / scale[..., None], axis=-1) * scale
    if np.any(k == 0.0):
        raise ZeroMomentum("dual momentum undefined at |p| = 0")
    return np.concatenate([k[..., None], (p[..., 0] / k)[..., None] * p[..., 1:]], axis=-1)


class SpeedTriple(NamedTuple):
    """Dispersion-law speeds at fixed energy, in units of c.

    u: bradyon speed k/eps (absent below the rest energy), v: pseudotachyon
    mean speed eps/k, w: classical tachyon speed k/eps (absent at eps = 0).
    """

    u: Optional[float]
    v: float
    w: Optional[float]


class DispersionTable(NamedTuple):
    """The dispersion-law speeds as columns over an array of energies.

    u is absent where eps < m or eps = 0 and w where eps = 0; `has_u` and
    `has_w` flag the present entries, and absent ones hold NaN.
    """

    epsilon: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    has_u: np.ndarray
    has_w: np.ndarray


def _speed_columns(eps: np.ndarray, m) -> DispersionTable:
    """The speeds at energies eps >= 0 (no -0.0) and masses m >= 0, one m or
    one per energy.

    Entry by entry these are the operations of the scalar law: v = eps/h and
    w = h/eps with h = math.hypot(eps, m) (np.hypot differs from it in the
    last ulp on some inputs), u = sqrt(eps - m) sqrt(eps + m) / eps, and
    u = v = w = 1 at m = 0.  Overflow leaves inf or NaN in a present entry.
    """
    ms = itertools.repeat(m) if np.ndim(m) == 0 else np.asarray(m).tolist()
    h = np.fromiter(map(math.hypot, eps.tolist(), ms), dtype=float, count=eps.size)
    has_u = ~((eps < m) | (eps == 0.0))
    has_w = eps != 0.0
    massless = m == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.sqrt(np.maximum(eps - m, 0.0)) * np.sqrt(eps + m) / eps
        v = np.where(massless, 1.0, eps / h)
        w = h / eps
    u = np.where(has_u, np.where(massless, 1.0, u), np.nan)
    w = np.where(has_w, np.where(massless, 1.0, w), np.nan)
    return DispersionTable(eps, u, v, w, has_u, has_w)


def speeds(epsilon: float, m: float) -> SpeedTriple:
    if not (0 <= epsilon < math.inf and 0 <= m < math.inf):
        raise ValueError(f"epsilon and m must be finite and non-negative, got {epsilon}, {m}")
    t = _speed_columns(np.array([epsilon + 0.0]), m)
    return SpeedTriple(u=float(t.u[0]) if t.has_u[0] else None, v=float(t.v[0]),
                       w=float(t.w[0]) if t.has_w[0] else None)


def _unit_axis(axis) -> np.ndarray:
    """The axis (or the rows of an (..., 3) array of axes), checked to be unit."""
    n = np.asarray(axis, dtype=float)
    if n.shape[-1:] != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = np.sqrt(np.add.reduce(n * n, axis=-1))
    unit = abs(norm - 1.0) <= 1e-9  # False for a NaN norm too
    if np.count_nonzero(unit) != unit.size:
        worst = np.ravel(norm)[np.argmin(np.ravel(unit))]
        raise ValueError(f"axis must be a unit vector, |axis| = {worst}")
    return n / norm[..., None]


def _cosh_sinh(rapidity):
    """``np.cosh`` and ``np.sinh`` of one rapidity, or of an array of them.

    A NaN rapidity raises a ValueError that names it.  Past |zeta| ~ 710
    they leave the floating-point range, which raises a ValueError naming
    the first such rapidity.
    """
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    finite = np.isfinite(ch)
    if np.count_nonzero(finite) != finite.size:
        first = float(np.asarray(rapidity)[~finite].flat[0])
        if math.isnan(first):
            raise ValueError("boost rapidity must be a number, got nan")
        raise ValueError(f"boost out of floating-point range: cosh({first!r}) overflows")
    return ch, sh


def _boost_arrays(p4: np.ndarray, n: np.ndarray, rapidity, cosh_sinh=None) -> np.ndarray:
    """`boost` of four-vectors (..., 4) along unit axes (..., 3), row by row;
    ``cosh_sinh``, if given, is `_cosh_sinh` of the rapidity already taken."""
    ch, sh = _cosh_sinh(rapidity) if cosh_sinh is None else cosh_sinh
    e, pv = p4[..., 0], p4[..., 1:]
    p_par = np.add.reduce(pv * n, axis=-1)
    perp = pv - p_par[..., None] * n
    out = np.empty(perp.shape[:-1] + (4,))
    out[..., 0] = e * ch - p_par * sh
    out[..., 1:] = perp + (p_par * ch - e * sh)[..., None] * n
    return out


def boost(p: FourVector, axis, rapidity: float) -> FourVector:
    """Proper Lorentz boost with rapidity zeta along a unit axis.

    Sign convention: e' = e cosh(zeta) - p_par sinh(zeta), so boosting a rest
    frame along +z gives p_z' = -m sinh(zeta).  Composition along one axis is
    additive in the rapidity.
    """
    return FourVector.from_array(_boost_arrays(p.as_array(), _unit_axis(axis), rapidity))


def dispersion_table(m: float, eps_min: float, eps_max: float,
                     steps: int) -> DispersionTable:
    """Evenly spaced energy grid with the three dispersion-law speeds.

    Raises ValueError when a present speed is not finite, that is when the
    grid reaches energies whose speeds are out of floating-point range.
    """
    if not 0 <= m < math.inf:
        raise ValueError(f"m must be finite and non-negative, got {m}")
    if not (0 <= eps_min < eps_max < math.inf):
        raise ValueError(f"need 0 <= eps_min < eps_max < inf, got [{eps_min}, {eps_max}]")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    table = _speed_columns(np.linspace(eps_min, eps_max, steps) + 0.0, m)  # -0.0 -> 0.0
    finite = (np.isfinite(table.v) & (np.isfinite(table.u) | ~table.has_u)
              & (np.isfinite(table.w) | ~table.has_w))
    if not finite.all():
        eps = float(table.epsilon[np.argmin(finite)])
        raise ValueError(f"dispersion speeds at epsilon = {eps!r} (m = {m!r}) "
                         "are out of floating-point range")
    return table
