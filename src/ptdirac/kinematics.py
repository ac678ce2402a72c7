"""Four-vector arithmetic, mass shells, dual momentum, dispersion speeds, boosts.

Three families of free particles are covered: bradyons (eps^2 = k^2 + m^2),
pseudotachyons (eps^2 = k^2 - m^2, which forces |p| >= m in every frame), and
massless luxons (eps = k).  The pseudotachyon point eps = 0, k = m (the
"transcendent" state) is fully supported.  The pseudotachyon shell is the
bradyon shell with eps and k exchanged, so `energy_from_momentum` of either
reads k back from the eps of the other (verify's shell roundtrip does so).
The dispersion speeds at fixed energy have one implementation, a law over
arrays of energies: `speeds` is that law at one energy and
`dispersion_table` returns its columns over a grid.  The law reads the
bradyon speed u off the pseudotachyon shell, whose energy at momentum eps is
the bradyon momentum at energy eps.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .clifford import _check_member, _norm

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


# `_hypot` maps math.hypot below this many entries, where its array port is
# not faster: the break-even is about 8e2 to 1e3 entries with numpy 2.4 on
# x86-64, so verify's 1000-trial groups stay on the per-entry side.
_HYPOT_MIN_SIZE = 1024
_HYPOT_BLOCK = 8192
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_DBL_MIN = 2.0 ** -1022


def _exact_square(x, hi, lo, z, zz):
    """z + zz = x*x exactly, into the buffers z and zz (hi and lo are
    scratch): CPython's ``dl_mul``, Dekker's product of Veltkamp halves
    without fma, with z = hi*hi + 2 hi*lo rounded."""
    np.multiply(x, _VELTKAMP, out=hi)
    np.subtract(hi, x, out=lo)
    np.subtract(hi, lo, out=hi)    # hi = t - (t - x)
    np.subtract(x, hi, out=lo)     # lo = x - hi
    np.multiply(hi, lo, out=zz)
    np.add(zz, zz, out=zz)         # q = hi*lo + lo*hi, exact
    np.multiply(hi, hi, out=hi)    # p = hi*hi, exact
    np.add(hi, zz, out=z)          # z = p + q
    np.subtract(hi, z, out=hi)
    np.add(hi, zz, out=hi)
    np.multiply(lo, lo, out=lo)
    np.add(hi, lo, out=zz)         # zz = p - z + q + lo*lo


def _hypot_block(a, b, out) -> np.ndarray:
    """CPython's two-argument ``vector_norm`` of the pairs of a and b into
    out, where the larger entry is a normal float; returns the indices of
    the other pairs, whose entries of out are not set."""
    x, lo, z, zz, csum, frac1, frac2 = np.empty((7, len(a)))
    np.maximum(a, b, out=x)
    odd = np.flatnonzero(~((x >= _DBL_MIN) & (x < math.inf)))  # 0, subnormal, inf, NaN
    hi, exponent = np.frexp(x)
    np.negative(exponent, out=exponent)
    np.ldexp(a, exponent, out=x)           # lossless scaling into [0, 1)
    _exact_square(x, hi, lo, z, frac1)     # frac1 = pr.lo
    np.add(z, 1.0, out=csum)               # fast_sum(1.0, pr.hi)
    np.subtract(1.0, csum, out=frac2)
    np.add(frac2, z, out=frac2)            # frac2 = sm.lo
    np.ldexp(b, exponent, out=x)
    _exact_square(x, hi, lo, z, zz)
    np.add(frac1, zz, out=frac1)
    np.add(csum, z, out=x)                 # fast_sum(csum, pr.hi)
    np.subtract(csum, x, out=csum)
    np.add(csum, z, out=csum)
    np.add(frac2, csum, out=frac2)
    csum, x = x, csum
    np.add(frac1, frac2, out=x)            # h = sqrt(csum - 1 + (frac1 + frac2))
    np.subtract(csum, 1.0, out=hi)
    np.add(hi, x, out=x)
    np.sqrt(x, out=x)
    _exact_square(x, hi, lo, z, zz)        # dl_mul(-h, h) = -(z + zz)
    np.subtract(csum, z, out=hi)           # fast_sum(csum, -z)
    np.subtract(csum, hi, out=csum)
    np.subtract(csum, z, out=csum)
    np.add(frac2, csum, out=frac2)
    np.subtract(frac1, zz, out=frac1)
    np.subtract(hi, 1.0, out=hi)           # csum - 1 + (frac1 + frac2)
    np.add(frac1, frac2, out=frac1)
    np.add(hi, frac1, out=hi)
    np.add(x, x, out=z)
    np.divide(hi, z, out=hi)
    np.add(x, hi, out=x)                   # differential correction
    np.negative(exponent, out=exponent)
    np.ldexp(x, exponent, out=out)
    return odd


def _hypot(a, b) -> np.ndarray:
    """``math.hypot`` of two broadcast arrays of non-negative floats, entry by
    entry and bit for bit.

    Below `_HYPOT_MIN_SIZE` entries it maps ``math.hypot``.  From there on it
    runs CPython's two-argument ``vector_norm`` as numpy passes over blocks of
    `_HYPOT_BLOCK` entries: each pair is scaled by the power of two of its
    larger entry, squared exactly, summed with the error terms of
    ``fast_sum`` and given one differential correction.  Pairs whose larger
    entry is zero, subnormal, infinite or NaN, which CPython treats in
    branches of their own, are mapped to ``math.hypot``.  No input warns.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape, n = a.shape, a.size
    if n < _HYPOT_MIN_SIZE:
        return np.fromiter(map(math.hypot, a.ravel().tolist(), b.ravel().tolist()),
                           dtype=float, count=n).reshape(shape)
    a, b = a.reshape(-1), b.reshape(-1)
    out = np.empty(n)
    with np.errstate(all="ignore"):
        for start in range(0, n, _HYPOT_BLOCK):
            block = slice(start, start + _HYPOT_BLOCK)
            odd = _hypot_block(a[block], b[block], out[block])
            for i in (odd + start).tolist():
                out[i] = math.hypot(a[i], b[i])
    return out.reshape(shape)


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
    entry, computed by `_hypot`.  ``k`` and ``m`` are floats, giving a float,
    or broadcastable arrays, giving one energy per entry; an entry off the
    shell raises, and the error names the first one.  Every representable
    energy is returned finite; a bradyon energy past the largest float raises
    a ValueError naming the first such entry, an infinite k with a finite m
    gives inf, and the pseudotachyon energy at k = m = inf raises a ValueError.
    """
    _check_member("species", species, Species)
    k, m = np.asarray(k, dtype=float), np.asarray(m, dtype=float)
    if k.shape != m.shape:
        k, m = np.broadcast_arrays(k, m)
    if np.count_nonzero(np.minimum(k, m) >= 0) != k.size:  # NaN fails too
        raise ValueError("k and m must be non-negative numbers")
    if species is Species.BRADYON:
        eps = _hypot(k, m)
        if np.count_nonzero(eps < math.inf) != eps.size:
            over = np.flatnonzero(~(eps < math.inf) & (np.maximum(k, m) < math.inf))
            if over.size:
                raise ValueError(f"bradyon energy out of floating-point range at k = "
                                 f"{float(k.flat[over[0]])!r}, m = {float(m.flat[over[0]])!r}")
    elif species is Species.LUXON:
        massive = m != 0.0
        if np.count_nonzero(massive):
            raise MassNotZero(f"luxon requires m = 0, got m = {m[massive][0]}")
        eps = k.copy()
    else:
        below = k < m * (1.0 - SHELL_RTOL)
        if np.count_nonzero(below):
            raise NonPhysicalMomentum(f"|p| = {k[below][0]} < m = {m[below][0]}")
        with np.errstate(over="ignore", invalid="ignore"):  # k + m past the range
            eps = np.sqrt(np.maximum(k - m, 0.0)) * np.sqrt(k + m)
            if np.count_nonzero(eps < math.inf) != eps.size:  # NaN fails too
                # sqrt(k + m) as 2 sqrt(k/4 + m/4), exact where k + m overflowed
                root = 2.0 * np.sqrt(np.maximum(k - m, 0.0)) * np.sqrt(k / 4 + m / 4)
                eps = np.where(eps < math.inf, eps, root)
                if np.count_nonzero(np.isnan(eps)):  # only k = m = inf is left
                    raise ValueError("pseudotachyon energy undefined at k = m = inf")
    return float(eps) if eps.ndim == 0 else eps


def dual_momentum(p):
    """The dual (k; eps p / k) of p = (eps; p), swapping eps and k.

    Satisfies p.dual(p) = 0 and dual(p)^2 = -p^2.  ``p`` is an array whose
    last axis holds (e, px, py, pz), dualized row by row.  The definition is
    componentwise in the given frame; it is not claimed (nor tested) to
    transform as a four-vector under boosts that are not collinear with p.
    |p| is taken on p scaled exactly by the power of two of its largest
    component, at most 2^1023, so it neither overflows from 1e200 up to the
    largest float nor underflows at 1e-300.
    A row whose dual is not finite, from a NaN or infinite component or
    from eps / k past the range, raises a ValueError naming the first one.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(all="ignore"):  # a non-finite dual is refused below
        scale = np.ldexp(1.0, np.minimum(np.frexp(np.abs(p[..., 1:]).max(axis=-1))[1], 1023))
        k = _norm(p[..., 1:] / scale[..., None]) * scale
        if np.any(k == 0.0):
            raise ZeroMomentum("dual momentum undefined at |p| = 0")
        dual = np.concatenate([k[..., None], (p[..., 0] / k)[..., None] * p[..., 1:]], axis=-1)
    finite = np.isfinite(dual).all(axis=-1).reshape(-1)
    if np.count_nonzero(finite) != finite.size:
        i = int(np.argmin(finite))
        raise ValueError(f"dual momentum not finite at row {i}, p = {p.reshape(-1, 4)[i].tolist()}")
    return dual


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

    An absent speed is NaN: u where eps < m or eps = 0, w where eps = 0.
    Every present speed is finite.
    """

    epsilon: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def _speed_columns(eps: np.ndarray, m) -> DispersionTable:
    """The speeds at energies eps >= 0 (no -0.0) and masses m >= 0, one m or
    one per energy.

    Entry by entry these are the operations of the scalar law: v = eps/h and
    w = h/eps with h = math.hypot(eps, m), computed by `_hypot` (np.hypot
    differs from it in the last ulp on some inputs); at m = 0, h = eps bit for
    bit, so w = 1, and v and u are set to 1.  The bradyon momentum at energy
    eps is the pseudotachyon energy at momentum eps, so u reads that shell:
    u = energy_from_momentum(PSEUDOTACHYON, max(eps, m), m) / eps.  Where
    m << eps the root can round above eps, so a u above 1 is set to 1.  An
    absent speed is NaN.  u and v cannot leave the floating-point range, but
    w can (h overflows, or h/eps at a subnormal eps): an infinite w raises a
    ValueError naming the first such energy and its mass.
    """
    h = _hypot(eps, m)
    massless = m == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = energy_from_momentum(Species.PSEUDOTACHYON, np.maximum(eps, m), m) / eps
        v = np.where(massless, 1.0, eps / h)
        w = h / eps
    u = np.where((eps < m) | (eps == 0.0), np.nan, np.where(massless, 1.0, u))
    np.minimum(u, 1.0, out=u)
    w[eps == 0.0] = np.nan
    over = np.isinf(w)
    if np.count_nonzero(over):
        i = np.argmax(over)
        raise ValueError(f"dispersion speeds at epsilon = {float(eps[i])!r} "
                         f"(m = {float(np.broadcast_to(m, eps.shape)[i])!r}) "
                         "are out of floating-point range")
    return DispersionTable(eps, u, v, w)


def speeds(epsilon: float, m: float) -> SpeedTriple:
    """The speed law at one energy: the first row of `dispersion_table` at
    that energy, with an absent speed as None.  It raises what a table whose
    first row is epsilon raises."""
    if not (0 <= epsilon < math.inf and 0 <= m < math.inf):
        raise ValueError(f"epsilon and m must be finite and non-negative, got {epsilon}, {m}")
    _, u, v, w = (float(c[0]) for c in _speed_columns(np.array([epsilon + 0.0]), m))
    return SpeedTriple(u=None if math.isnan(u) else u, v=v, w=None if math.isnan(w) else w)


def _unit_axis(axis) -> np.ndarray:
    """The axis (or the rows of an (..., 3) array of axes), checked to be unit."""
    n = np.asarray(axis, dtype=float)
    if n.shape[-1:] != (3,):
        raise ValueError("axis must be a 3-vector")
    with np.errstate(over="ignore"):  # a huge axis squares to inf, not unit either
        norm = _norm(n)
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
    ``cosh_sinh``, if given, is `_cosh_sinh` of the rapidity already taken.
    A boosted row out of the floating-point range raises a ValueError naming
    the first such rapidity."""
    ch, sh = _cosh_sinh(rapidity) if cosh_sinh is None else cosh_sinh
    e, pv = p4[..., 0], p4[..., 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        p_par = np.add.reduce(pv * n, axis=-1)
        perp = pv - p_par[..., None] * n
        out = np.empty(perp.shape[:-1] + (4,))
        out[..., 0] = e * ch - p_par * sh
        out[..., 1:] = perp + (p_par * ch - e * sh)[..., None] * n
    finite = np.isfinite(out)
    if np.count_nonzero(finite) != finite.size:
        first = float(np.broadcast_to(rapidity, out.shape[:-1])[~finite.all(axis=-1)].flat[0])
        raise ValueError(f"boost out of floating-point range: the four-momentum boosted "
                         f"by rapidity {first!r} overflows")
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

    An absent speed is NaN, and only w can leave the floating-point range
    (h = hypot(eps, m) overflows, or h/eps at a subnormal eps): a grid that
    reaches such energies raises the ValueError of the speed law.
    """
    if not 0 <= m < math.inf:
        raise ValueError(f"m must be finite and non-negative, got {m}")
    if not (0 <= eps_min < eps_max < math.inf):
        raise ValueError(f"need 0 <= eps_min < eps_max < inf, got [{eps_min}, {eps_max}]")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    with np.errstate(over="ignore"):  # (steps - 1) * step may round past the range,
        eps = np.linspace(eps_min, eps_max, steps)  # but that last row is set to eps_max
    return _speed_columns(eps + 0.0, m)  # -0.0 -> 0.0
