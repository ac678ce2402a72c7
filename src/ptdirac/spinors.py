"""Closed-form plane-wave bispinor amplitudes and the operators they solve.

Positive-energy amplitudes u and negative-energy amplitudes v satisfy, in
momentum space,

    (pslash - m gamma^5) u = 0,   (pslash + m gamma^5) v = 0   (pseudotachyon)
    (pslash - m) u = 0,           (pslash + m) v = 0            (bradyon)

with pslash = eps gamma^0 - p.gamma and eps >= 0 on the species shell.
Luxons are the massless limit of either family.  Helicity eigenstates are
labelled by lambda = +-1 (twice the helicity); v_{p,lambda} carries the
helicity eigenvalue -lambda.

Amplitudes are normalized to w^dag w = 2k (pseudotachyons, luxons) or 2 eps
(bradyons) and are fixed here up to the phase convention of the helicity
spinors below; comparisons against differently phased forms should use
``proportionality_defect``.  The square-root component factors are arranged
so that the transcendent point k = m and the massless chiral limit are exact,
with no 0/0 anywhere.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .clifford import (Representation, _check_member, _four_components, _norm, _rows, _with_term,
                       contract, gamma_set, representation_change)
from .kinematics import Species, ZeroMomentum, energy_from_momentum


class TranscendentDivision(ZeroDivisionError, ValueError):
    """A division by eps at the transcendent point eps = 0.  No function of
    this package raises it: the closed forms have no such division."""


def _helicity_spinors(n: np.ndarray, lam) -> np.ndarray:
    """Helicity spinors (N, 2) of unit directions n (N, 3) with labels lam,
    one +-1 for all rows or one per row."""
    x, y, z = n.T
    rho = np.hypot(x, y)
    # recover the small half-angle factor from rho = 2 c s rather than from
    # 1 -+ |z|, which rounds away near the poles
    big = np.sqrt((1.0 + np.minimum(np.abs(z), 1.0)) / 2.0)
    halves = np.array([big, rho / (2.0 * big)])
    c, s = np.where(z >= 0.0, halves, halves[::-1])
    # e^{i phi} as (cos, sin) = (x, y) / rho, divided componentwise
    # (complex/complex would square a possibly subnormal rho and underflow to
    # nan), then renormalized so the unit-norm invariant survives subnormal
    # transverse components; on the axis phi = 0
    phase = np.zeros((2, len(n)))
    phase[0] = 1.0
    np.divide(n.T[:2], rho, out=phase, where=rho != 0.0)
    t, u = s * (phase / np.hypot(*phase))
    zero = np.zeros(len(n))
    # lam = +1: (c, e^{i phi} s); lam = -1: (-e^{-i phi} s, c), as (re, im, re, im)
    parts = np.where(np.equal(lam, 1), [c, zero, t, u], [-t, u, c, zero])
    return np.ascontiguousarray(parts.T).view(complex)


def helicity_spinor(direction, lam: int) -> np.ndarray:
    """Unit Pauli spinor with (n.sigma) theta = lam theta along a unit direction.

    Phase convention for polar angles (theta, phi) of the direction:
    theta_{+1} = (cos t/2, e^{i phi} sin t/2) and
    theta_{-1} = (-e^{-i phi} sin t/2, cos t/2), reducing to the canonical
    basis at +z.  On the z-axis the azimuth is fixed to phi = 0.
    """
    if lam not in (1, -1):
        raise ValueError(f"lam must be +1 or -1, got {lam}")
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    norm = math.hypot(*n)
    if not norm < math.inf:  # a NaN or inf component, or a norm that overflows
        raise ValueError(f"direction must have a finite norm, got {tuple(n.tolist())}")
    if norm == 0.0:
        raise ZeroMomentum("helicity spinor undefined for zero direction")
    return _helicity_spinors((n / norm)[None], lam)[0]


_ZERO_MOMENTUM = "plane-wave spec needs |p| > 0 (helicity direction)"
# 2 x overflows exactly when x exceeds half the largest float
_HALF_MAX = sys.float_info.max / 2.0
# k and m below this are worked at a larger scale (`group_amplitudes`)
_TINY = 2.0 ** -960

_ONE_ROW = {label: np.array([label]) for label in (1, -1)}
for _row in _ONE_ROW.values():
    _row.setflags(write=False)


def _label_columns(energy_sign, helicity, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels as (n,) integer columns, each given as one +-1 or n of them.

    Two int labels on one row (every `PlaneWaveSpec`) take read-only
    constant columns without an array pass.
    """
    if n == 1 and type(energy_sign) is type(helicity) is int \
            and energy_sign in _ONE_ROW and helicity in _ONE_ROW:
        return _ONE_ROW[energy_sign], _ONE_ROW[helicity]
    given = (("energy_sign", energy_sign), ("helicity", helicity))
    labels = np.empty((2, n))
    for row, (name, label) in enumerate(given):
        x = np.asarray(label)
        if x.shape not in ((), (n,)):
            raise ValueError(f"{name} must be one label or one per momentum")
        if x.dtype.kind not in "biuf":
            raise ValueError(f"{name} must be +1 or -1, got {label!r}")
        labels[row] = x
    bad = np.abs(labels) != 1
    if np.count_nonzero(bad):
        row, col = np.argwhere(bad)[0]
        name, label = given[row]
        raise ValueError(f"{name} must be +1 or -1, got {np.broadcast_to(label, (n,))[col]}")
    sign, lam = labels.astype(int)
    return sign, lam


class SpecGroup(NamedTuple):
    """Plane-wave specs of one species and one basis, with their numbers and
    their other labels as arrays, one entry per spec.

    Species and basis choose the closed forms and the gamma matrices, so they
    are scalars; ``energy_sign`` and ``helicity`` are (n,) columns of +-1,
    ``k`` and ``mass`` are (n,), and ``four_momentum`` holds the rows (eps; p),
    (n, 4), of which ``epsilon`` (n,) and ``momentum`` (n, 3) are views.  A
    `PlaneWaveSpec` is a group of one with the same attributes as scalars, so
    the functions documented to take "a spec or a group" compute one row per
    spec, each with its own labels.  ``rows`` holds the positions of the
    specs in the sequence they came from.  Build groups with `from_arrays`,
    whose groups own every array they hold, read-only.
    """

    species: Species
    rep: Representation
    rows: np.ndarray
    energy_sign: np.ndarray
    helicity: np.ndarray
    momentum: np.ndarray
    k: np.ndarray
    mass: np.ndarray
    epsilon: np.ndarray
    four_momentum: np.ndarray

    @property
    def helicity_eigenvalue(self) -> np.ndarray:
        return self.energy_sign * self.helicity

    @classmethod
    def from_arrays(cls, species: Species, rep: Representation, energy_sign, helicity,
                    momentum, mass, rows) -> "SpecGroup":
        """The group of specs with momenta ``momentum`` (n, 3), masses
        ``mass`` (n,) and labels ``energy_sign``, ``helicity`` (one +-1 for
        all specs, or one per spec).

        The one plane-wave validator, `PlaneWaveSpec` included.  It computes
        |p| with ``math.hypot``, a scaled norm that neither overflows at 1e200
        nor underflows at 1e-300, and the shell energy with
        `energy_from_momentum`, once per spec.  A ``species`` or ``rep``
        that is not a member of its enum raises ValueError; so does the first
        invalid spec, or it raises `ZeroMomentum` or the shell or range error of
        `energy_from_momentum`; a norm target w^dag w = 2 max(k, eps)
        (`norm_convention`) beyond the floating-point range raises
        ValueError.
        """
        _check_member("species", species, Species)
        _check_member("rep", rep, Representation)
        p, m = np.asarray(momentum, dtype=float), np.array(mass, dtype=float)
        # np.count_nonzero is the cheapest reduction on one-row groups
        if p.ndim != 2 or p.shape[1] != 3 or np.count_nonzero(np.isfinite(p)) != p.size:
            raise ValueError("momentum must be three finite components per spec")
        if m.shape != p.shape[:1]:
            raise ValueError("mass must be one per momentum")
        ok = (m >= 0.0) & (m < math.inf)
        if np.count_nonzero(ok) != m.size:
            raise ValueError(f"mass must be finite and non-negative, got {m[~ok][0]}")
        sign, lam = _label_columns(energy_sign, helicity, len(m))
        k = np.fromiter(itertools.starmap(math.hypot, p.tolist()), dtype=float, count=len(p))
        if np.count_nonzero(k) != k.size:
            raise ZeroMomentum(_ZERO_MOMENTUM)
        eps = energy_from_momentum(species, k, m)
        # the norm target 2 max(k, eps) (`norm_convention` of every species)
        # bounds every sum under the square roots of the block factors (k + m,
        # k + eps, eps + m), up to the SHELL_RTOL slack of m over k, so it is
        # the one range to check
        half_target = np.maximum(k, eps)
        ok = half_target <= _HALF_MAX
        if np.count_nonzero(ok) != ok.size:
            raise ValueError(f"{species.value} plane wave out of floating-point range: "
                             f"norm target w^dag w = {2.0 * float(half_target[~ok][0])!r}")
        p4, rows = np.concatenate([eps[:, None], p], axis=1), np.array(rows)
        for a in (rows, sign, lam, k, m, p4):
            a.setflags(write=False)
        return cls(species, rep, rows=rows, energy_sign=sign, helicity=lam, momentum=p4[:, 1:],
                   k=k, mass=m, epsilon=p4[:, 0], four_momentum=p4)


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Labels one exact plane-wave solution: a validated group of one.

    ``energy_sign`` +1 selects the u-amplitude (wave e^{-ipx}), -1 the
    v-amplitude (wave e^{+ipx}, physical momentum -p).  ``helicity`` is the
    label lambda; the actual helicity eigenvalue of the amplitude is
    ``helicity_eigenvalue`` = energy_sign * helicity.  Construction builds
    the spec's `SpecGroup` of one with `SpecGroup.from_arrays`, which
    validates it and raises what that raises; the two labels (as ints),
    ``momentum``, ``mass``, ``k`` (|p|), ``epsilon`` (the shell energy) and
    ``four_momentum`` (eps; p) are read from its row 0, and `amplitude`
    computes row 0 of `group_amplitudes` on it.  The amplitude and the discrete images are computed on first use
    and kept on the spec, read-only.
    """

    species: Species
    energy_sign: int
    momentum: tuple[float, float, float]
    mass: float
    helicity: int
    rep: Representation = Representation.STANDARD

    def __post_init__(self):
        g = SpecGroup.from_arrays(self.species, self.rep, self.energy_sign, self.helicity,
                                  [self.momentum], [self.mass], [0])
        object.__setattr__(self, "energy_sign", int(g.energy_sign[0]))
        object.__setattr__(self, "momentum", tuple(g.momentum[0].tolist()))
        object.__setattr__(self, "mass", float(g.mass[0]))
        object.__setattr__(self, "helicity", int(g.helicity[0]))
        object.__setattr__(self, "_group", g)
        object.__setattr__(self, "_k", float(g.k[0]))
        object.__setattr__(self, "epsilon", float(g.epsilon[0]))
        object.__setattr__(self, "four_momentum", g.four_momentum[0])

    @property
    def k(self) -> float:
        return self._k

    helicity_eigenvalue = SpecGroup.helicity_eigenvalue


def _memoized(spec: PlaneWaveSpec, name: str, compute):
    """``compute()`` on the first call for ``name`` on a spec, kept on the spec
    (read-only, with every array inside it) and returned from then on."""
    value = spec.__dict__.get(name)
    if value is None:
        value = compute()
        for a in value if isinstance(value, tuple) else (value,):
            a.setflags(write=False)
        object.__setattr__(spec, name, value)
    return value


def _block_factors(g: SpecGroup) -> np.ndarray:
    """Factors (upper, lower), shape (2, n), multiplying the helicity spinor
    in each block.

    The stable square-root factors: for tachyonic species in the standard
    basis sqrt(k +- m lam); k - m is exact by Sterbenz whenever k <= 2m, so no
    special casing is needed.  The chiral-basis pair sqrt(k +- eps lam) and
    the bradyon pairs sqrt(eps +- m), sqrt(eps +- k lam) each contain one
    difference that does cancel, and is replaced by the identity
    small = (product of roots)/big.  Each row takes the branch of its own
    energy sign and helicity.
    """
    k, m, eps, lam = g.k, g.mass, g.epsilon, g.helicity
    tachyonic = g.species is not Species.BRADYON
    standard = g.rep is Representation.STANDARD
    if tachyonic and standard:
        # |p| may land an ulp below m at the transcendent point
        a, b = np.sqrt(np.maximum(k + np.array([m * lam, -m * lam]), 0.0))
    elif standard:
        a = np.sqrt(eps + m)
        b = k / a
    else:
        big = np.sqrt(k + eps)
        small = m / big
        a, b = np.where(lam == 1, big, small), np.where(lam == 1, small, big)
    lower_u = lam * b if standard or tachyonic else b
    if standard:
        upper_v, lower_v = (-lam * a, b) if tachyonic else (-lam * b, a)
    else:
        upper_v, lower_v = (lam * b, a) if tachyonic else (-b, a)
    return np.where(g.energy_sign == 1, [a, lower_u], [upper_v, lower_v])


def group_amplitudes(g: SpecGroup) -> np.ndarray:
    """The amplitudes (n, 4) of the specs of one group.

    The amplitude scales as the square root of (p, m), so a row whose k and
    m are both below _TINY is computed with p and m scaled exactly by 4^t,
    which brings them near 1, and divided by 2^t: there its k and eps keep
    the precision they lose as subnormal numbers.  Other rows are unchanged.
    """
    tiny = np.maximum(g.k, g.mass) < _TINY
    if np.count_nonzero(tiny):
        t = -(np.frexp(np.maximum(g.k, g.mass))[1] // 2) * tiny
        scaled = SpecGroup.from_arrays(g.species, g.rep, g.energy_sign, g.helicity,
                                       np.ldexp(g.momentum, 2 * t[:, None]),
                                       np.ldexp(g.mass, 2 * t), g.rows)
        return group_amplitudes(scaled) * np.ldexp(1.0, -t)[:, None]
    theta = _helicity_spinors(g.momentum / g.k[:, None], g.helicity_eigenvalue)
    return (_block_factors(g).T[:, :, None] * theta[:, None, :]).reshape(-1, 4)


def amplitude(spec) -> np.ndarray:
    """The helicity bispinor amplitude of the given plane wave, or the
    amplitudes (n, 4) of a `SpecGroup`, which are `group_amplitudes`.

    For a spec, row 0 of `group_amplitudes` on its group of one, computed on
    first use and kept on the spec; the array is read-only.
    """
    if isinstance(spec, SpecGroup):
        return group_amplitudes(spec)
    return _memoized(spec, "_amplitude", lambda: group_amplitudes(spec._group)[0])


def wave_operator(spec, p4, signed_mass) -> np.ndarray:
    """slash(p) - sign m (gamma^5 for tachyonic species, 1 for bradyons), in
    the basis and the species family of a spec or group.

    ``p4`` is a four-vector or an array (..., 4) of them, and ``signed_mass``
    (sign * m) broadcasts against its leading axes.  The operator of a raw
    four-vector, so it also serves boosted momenta off the positive shell.
    One `contract` of (eps; p, sign m) against `GammaSet.wave`.
    """
    return contract(_with_term(_four_components(p4), signed_mass),
                    gamma_set(spec.rep).wave[spec.species is Species.BRADYON])


def dirac_operator(spec) -> np.ndarray:
    """Momentum-space operator annihilating the amplitude of a spec or of
    each spec of a group."""
    return wave_operator(spec, spec.four_momentum, spec.energy_sign * spec.mass)


def relative_residual(op: np.ndarray, w: np.ndarray, eigenvalue=None):
    """|op w - lambda w| / |w| of a bispinor, or row by row of stacked operators
    and bispinors; ``eigenvalue`` lambda is one value or one per row (..., 1),
    and without it the residual is |op w| / |w|, with no subtraction."""
    a = _rows(op, w)
    return _norm(a if eigenvalue is None else a - eigenvalue * w) / _norm(w)


def solution_residual(spec, w: Optional[np.ndarray] = None):
    """Relative residual |D w| / |w| of an amplitude under its own operator.

    For a group, ``w`` holds one amplitude per spec and the result one
    residual per spec.
    """
    if w is None:
        w = amplitude(spec)
    return relative_residual(dirac_operator(spec), w)


def norm_convention(spec):
    """The target amplitude norm w^dag w: 2k (tachyonic) or 2 eps (bradyon),
    of a spec or of each spec of a group."""
    if spec.species is Species.BRADYON:
        return 2.0 * spec.epsilon
    return 2.0 * spec.k


def normalization_factor(spec, volume=1.0):
    """N with N^2 (w^dag w) = 1/V: 1/sqrt(2kV) tachyonic, 1/sqrt(2 eps V) bradyon,
    of a spec, or of each spec of a group.

    ``volume`` is the quantization volume V of the one-particle-in-V
    normalization: one finite positive volume, or one per spec of a group.
    The product target * V is formed from the two mantissas and scaled
    exactly by 4^-j, j half its binary exponent, and the result by 2^-j, so
    it neither overflows nor underflows where N itself is a normal float; a
    factor beyond that range raises ValueError.
    """
    target, vol = norm_convention(spec), np.asarray(volume, dtype=float)
    if vol.shape not in ((), np.shape(target)):
        raise ValueError(f"volume must be one value or one per spec, got shape {vol.shape}")
    if not (np.isfinite(vol).all() and (vol > 0).all()):
        raise ValueError(f"volume must be finite and positive, got {volume}")
    (t, et), (v, ev) = np.frexp(target), np.frexp(vol)
    j = (et + ev) // 2
    with np.errstate(over="ignore", under="ignore"):
        n = np.ldexp(1.0 / np.sqrt(np.ldexp(t * v, et + ev - 2 * j)), -j)
    ok = (n >= sys.float_info.min) & (n <= sys.float_info.max)
    if np.count_nonzero(ok) != ok.size:
        raise ValueError(f"{spec.species.value} normalization factor out of floating-point "
                         f"range: 1/sqrt(w^dag w V) = {float(np.extract(~ok, n)[0])!r}")
    return n


def convert_representation(b: np.ndarray, from_rep: Representation,
                           to_rep: Representation) -> np.ndarray:
    """Map a bispinor, or stacked bispinors along the last axis, between the
    Weyl and standard bases (involutive).  A basis that is not a
    `Representation` raises ValueError."""
    _check_member("from_rep", from_rep, Representation)
    _check_member("to_rep", to_rep, Representation)
    b = np.asarray(b, dtype=complex)
    if from_rep is to_rep:
        return b.copy()
    return b @ representation_change().T


def proportionality_defect(a: np.ndarray, b: np.ndarray) -> float:
    """sin of the angle between the rays of a and b; zero iff parallel.

    Equals sqrt(|a|^2 |b|^2 - |a^dag b|^2) / (|a| |b|), evaluated as the norm
    of the Gram-Schmidt rejection, which does not cancel catastrophically for
    nearly parallel vectors.  Vectors lie along the last axis; stacked
    vectors give one defect per row.  Each vector is first scaled exactly by
    the power of two of its largest |entry|, at most 2^1023, so its norm
    cannot overflow for any |entry| up to the largest float.
    """
    a, b = (x / np.ldexp(1.0, np.minimum(np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1],
                                         1023))
            for x in (np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    na, nb = _norm(a)[..., None], _norm(b)[..., None]
    if not (np.all(na != 0.0) and np.all(nb != 0.0)):
        raise ValueError("proportionality defect undefined for zero vectors")
    ah, bh = a / na, b / nb
    overlap = np.einsum("...i,...i->...", ah.conj(), bh)[..., None]
    return _norm(bh - ah * overlap)
