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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clifford import PAULI, GammaSet, Representation, gamma_set, representation_change, slash
from .kinematics import FourVector, Species, ZeroMomentum, energy_from_momentum


class TranscendentDivision(ZeroDivisionError, ValueError):
    """The general-spinor parameterization divides by eps, singular at eps = 0."""


def _helicity_spinors(n: np.ndarray, lam) -> np.ndarray:
    """Helicity spinors (N, 2) of unit directions n (N, 3) with labels lam,
    one +-1 for all rows or one per row."""
    z = np.clip(n[:, 2], -1.0, 1.0)
    rho = np.hypot(n[:, 0], n[:, 1])
    # recover the small half-angle factor from rho = 2 c s rather than from
    # 1 -+ z, which rounds away near the poles
    big = np.sqrt((1.0 + np.abs(z)) / 2.0)
    small = rho / (2.0 * big)
    north = z >= 0.0
    c, s = np.where(north, big, small), np.where(north, small, big)
    # componentwise division (complex/complex would square a possibly
    # subnormal rho and underflow to nan), then renormalize so the unit-norm
    # invariant survives subnormal transverse components
    axial = rho == 0.0
    rho_or_1 = np.where(axial, 1.0, rho)
    px, py = n[:, 0] / rho_or_1, n[:, 1] / rho_or_1
    h = np.where(axial, 1.0, np.hypot(px, py))
    cos_phi, sin_phi = np.where(axial, 1.0, px / h), np.where(axial, 0.0, py / h)
    # lam = +1: (c, e^{i phi} s); lam = -1: (-e^{-i phi} s, c)
    plus = np.asarray(lam) == 1
    theta = np.zeros((len(n), 2), dtype=complex)
    theta.real[:, 0] = np.where(plus, c, -cos_phi * s)
    theta.imag[:, 0] = np.where(plus, 0.0, sin_phi * s)
    theta.real[:, 1] = np.where(plus, cos_phi * s, c)
    theta.imag[:, 1] = np.where(plus, sin_phi * s, 0.0)
    return theta


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
    if norm == 0.0:
        raise ZeroMomentum("helicity spinor undefined for zero direction")
    return _helicity_spinors((n / norm)[None], lam)[0]


@dataclass(frozen=True)
class NormalizationContext:
    """Quantization volume for the one-particle-in-V normalization: one
    volume, or an array of them, one per spec of a group."""

    volume: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.volume)
        if not (np.isfinite(v).all() and (v > 0).all()):
            raise ValueError(f"volume must be finite and positive, got {self.volume}")


_ZERO_MOMENTUM = "plane-wave spec needs |p| > 0 (helicity direction)"


def _check_labels(energy_sign: int, helicity: int):
    if energy_sign not in (1, -1):
        raise ValueError(f"energy_sign must be +1 or -1, got {energy_sign}")
    if helicity not in (1, -1):
        raise ValueError(f"helicity must be +1 or -1, got {helicity}")


def _label_columns(energy_sign, helicity, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels as (n,) integer columns, each given as one +-1 or n of them."""
    columns = []
    for name, label in (("energy_sign", energy_sign), ("helicity", helicity)):
        x = np.asarray(label)
        if x.shape not in ((), (n,)):
            raise ValueError(f"{name} must be one label or one per momentum")
        bad = np.abs(x) != 1
        if bad.any():
            raise ValueError(f"{name} must be +1 or -1, got {x[bad].flat[0]}")
        columns.append(np.broadcast_to(x.astype(int), (n,)))
    return columns[0], columns[1]


def _out_of_range(species: Species, target) -> ValueError:
    # the norm target 2 max(k, eps) (`norm_convention` of every species)
    # bounds every sum under the square roots of the block factors (k + m,
    # k + eps, eps + m), up to the SHELL_RTOL slack of m over k, so it is the
    # one range to check
    return ValueError(f"{species.value} plane wave out of floating-point range: "
                      f"norm target w^dag w = {float(target)!r}")


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Labels one exact plane-wave solution.

    ``energy_sign`` +1 selects the u-amplitude (wave e^{-ipx}), -1 the
    v-amplitude (wave e^{+ipx}, physical momentum -p).  ``helicity`` is the
    label lambda; the actual helicity eigenvalue of the amplitude is
    ``helicity_eigenvalue`` = energy_sign * helicity.  |p| and the shell
    energy are computed once, at construction, which raises ValueError when
    the norm target (`norm_convention`) leaves the floating-point range.
    """

    species: Species
    energy_sign: int
    momentum: tuple[float, float, float]
    mass: float
    helicity: int
    rep: Representation = Representation.STANDARD

    def __post_init__(self):
        _check_labels(self.energy_sign, self.helicity)
        object.__setattr__(self, "momentum", tuple(map(float, self.momentum)))
        if len(self.momentum) != 3 or not all(map(math.isfinite, self.momentum)):
            raise ValueError("momentum must be three finite components")
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ValueError(f"mass must be finite and non-negative, got {self.mass}")
        # scaled norm: neither overflows at 1e200 nor underflows at 1e-300
        k = math.hypot(*self.momentum)
        if k == 0.0:
            raise ZeroMomentum(_ZERO_MOMENTUM)
        object.__setattr__(self, "_k", k)
        # shell validation (raises NonPhysicalMomentum / MassNotZero)
        eps = energy_from_momentum(self.species, k, self.mass)
        object.__setattr__(self, "_epsilon", eps)
        target = 2.0 * max(k, eps)
        if not math.isfinite(target):
            raise _out_of_range(self.species, target)

    @property
    def k(self) -> float:
        return self._k

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def direction(self) -> np.ndarray:
        return np.asarray(self.momentum) / self.k

    @property
    def four_momentum(self) -> FourVector:
        return FourVector(self.epsilon, *self.momentum)

    @property
    def helicity_eigenvalue(self) -> int:
        return self.energy_sign * self.helicity


@dataclass(frozen=True, eq=False)
class SpecGroup:
    """Specs of one species and one basis, with their numbers and their other
    labels as arrays, one entry per spec.

    Species and basis choose the closed forms and the gamma matrices, so they
    are scalars; ``energy_sign`` and ``helicity`` are (n,) columns of +-1,
    ``momentum`` is (n, 3) and ``k``, ``mass``, ``epsilon`` are (n,).  The
    attributes are those of `PlaneWaveSpec`, so the functions documented to
    take "a spec or a group" compute one row per spec, each with its own
    labels.  ``rows`` holds the positions of the specs in the sequence they
    came from.
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

    @property
    def helicity_eigenvalue(self) -> np.ndarray:
        return self.energy_sign * self.helicity

    @classmethod
    def from_arrays(cls, species: Species, rep: Representation, energy_sign, helicity,
                    momentum, mass, rows) -> "SpecGroup":
        """The group of specs with momenta ``momentum`` (n, 3), masses
        ``mass`` (n,) and labels ``energy_sign``, ``helicity`` (one +-1 for
        all specs, or one per spec), validated as `PlaneWaveSpec` validates
        each spec, with |p| and the shell energy by the same laws
        (bit-identical to it)."""
        p, m = np.asarray(momentum, dtype=float), np.asarray(mass, dtype=float)
        if p.ndim != 2 or p.shape[1] != 3 or not np.isfinite(p).all():
            raise ValueError("momentum must be rows of three finite components")
        if m.shape != p.shape[:1] or not (np.isfinite(m) & (m >= 0)).all():
            raise ValueError("mass must be finite and non-negative, one per momentum")
        sign, lam = _label_columns(energy_sign, helicity, len(m))
        k = np.fromiter(itertools.starmap(math.hypot, p.tolist()), dtype=float, count=len(p))
        if not k.all():
            raise ZeroMomentum(_ZERO_MOMENTUM)
        eps = energy_from_momentum(species, k, m)
        with np.errstate(over="ignore"):
            target = 2.0 * np.maximum(k, eps)
        if not np.isfinite(target).all():
            raise _out_of_range(species, target[~np.isfinite(target)][0])
        return cls(species, rep, rows=np.asarray(rows), energy_sign=sign, helicity=lam,
                   momentum=p, k=k, mass=m, epsilon=eps)


def spec_groups(specs) -> list[SpecGroup]:
    """Split a sequence of specs by (species, basis): at most 6 groups."""
    index: dict[tuple, list[int]] = {}
    for i, s in enumerate(specs):
        index.setdefault((s.species, s.rep), []).append(i)
    groups = []
    for (species, rep), rows in index.items():
        members = [specs[i] for i in rows]
        groups.append(SpecGroup(
            species, rep, rows=np.array(rows),
            energy_sign=np.array([s.energy_sign for s in members]),
            helicity=np.array([s.helicity for s in members]),
            momentum=np.array([s.momentum for s in members]).reshape(-1, 3),
            k=np.array([s.k for s in members]),
            mass=np.array([s.mass for s in members]),
            epsilon=np.array([s.epsilon for s in members])))
    return groups


def four_momenta(spec) -> np.ndarray:
    """(eps; p) of a spec, shape (4,), or of each spec of a group, shape (n, 4)."""
    eps = np.asarray(spec.epsilon, dtype=float)
    return np.concatenate([eps[..., None], np.asarray(spec.momentum, dtype=float)], axis=-1)


def _block_factors(g: SpecGroup) -> tuple[np.ndarray, np.ndarray]:
    """Factors (upper, lower) multiplying the helicity spinor in each block.

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
        a = np.sqrt(np.maximum(k + m * lam, 0.0))
        b = np.sqrt(np.maximum(k - m * lam, 0.0))
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
    u = g.energy_sign == 1
    return np.where(u, a, upper_v), np.where(u, lower_u, lower_v)


def group_amplitudes(g: SpecGroup) -> np.ndarray:
    """The amplitudes (n, 4) of the specs of one group."""
    upper, lower = _block_factors(g)
    theta = _helicity_spinors(g.momentum / g.k[:, None], g.helicity_eigenvalue)
    return np.concatenate([upper[:, None] * theta, lower[:, None] * theta], axis=1)


def amplitudes(specs) -> np.ndarray:
    """The helicity bispinor amplitudes (N, 4) of a sequence of specs, in order.

    The plane-wave kernel: specs are grouped by species and basis (at most 6
    groups) and each group runs its closed forms on arrays, every row on the
    branch of its energy sign and helicity.
    """
    out = np.empty((len(specs), 4), dtype=complex)
    for g in spec_groups(specs):
        out[g.rows] = group_amplitudes(g)
    return out


def amplitude(spec: PlaneWaveSpec) -> np.ndarray:
    """The helicity bispinor amplitude of the given plane wave.

    `amplitudes` at N = 1, computed on first use and kept on the spec; the
    array is read-only.
    """
    w = spec.__dict__.get("_amplitude")
    if w is None:
        w = amplitudes((spec,))[0]
        w.setflags(write=False)
        object.__setattr__(spec, "_amplitude", w)
    return w


def amplitude_from_spinor(species: Species, energy_sign: int, momentum, mass: float,
                          chi_or_phi: np.ndarray, rep: Representation) -> np.ndarray:
    """Bispinor from an arbitrary two-spinor via the general solution forms.

    Standard basis: u = (phi; (p.sigma - m)/eps phi) for pseudotachyons,
    u = (phi; p.sigma/(eps + m) phi) for bradyons, and the mirrored forms for
    v built from chi.  These divide by eps (pseudotachyons) so the
    transcendent point must go through ``amplitude`` instead.  The chiral
    forms divide by m, so massless amplitudes exist only via ``amplitude``.
    """
    if energy_sign not in (1, -1):
        raise ValueError(f"energy_sign must be +1 or -1, got {energy_sign}")
    p = np.asarray(momentum, dtype=float)
    k = float(np.linalg.norm(p))
    if k == 0.0:
        raise ZeroMomentum("plane-wave amplitude needs |p| > 0")
    eps = energy_from_momentum(species, k, mass)
    two = np.asarray(chi_or_phi, dtype=complex)
    if two.shape != (2,):
        raise ValueError("chi_or_phi must be a two-component spinor")
    psig = sum(p[i] * PAULI[i] for i in range(3))
    tachyonic = species is not Species.BRADYON
    if rep is Representation.STANDARD:
        if tachyonic:
            if eps == 0.0:
                raise TranscendentDivision(
                    "the general-spinor form divides by eps; "
                    "use amplitude() at the transcendent point")
            linked = (psig - mass * np.eye(2)) @ two / eps
        else:
            linked = psig @ two / (eps + mass)
        if energy_sign == 1:
            return np.concatenate([two, linked])
        return np.concatenate([linked, two])
    if mass == 0.0:
        raise ValueError("massless chiral amplitudes are not parameterized by a "
                         "single two-spinor; use amplitude()")
    if tachyonic:
        if energy_sign == 1:
            linked = (psig - eps * np.eye(2)) @ two / mass
            return np.concatenate([two, linked])
        linked = -(psig + eps * np.eye(2)) @ two / mass
        return np.concatenate([linked, two])
    if energy_sign == 1:
        linked = (eps * np.eye(2) - psig) @ two / mass
        return np.concatenate([two, linked])
    linked = -(eps * np.eye(2) + psig) @ two / mass
    return np.concatenate([linked, two])


_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


def wave_operator(gs: GammaSet, p4, signed_mass, tachyonic: bool) -> np.ndarray:
    """slash(p) - sign m (gamma^5 for tachyonic species, 1 for bradyons).

    ``p4`` is a four-vector or an array (..., 4) of them, and ``signed_mass``
    (sign * m) broadcasts against its leading axes.  The operator of a raw
    four-vector, so it also serves boosted momenta off the positive shell.
    """
    unit = gs.gamma5 if tachyonic else _EYE4
    return slash(gs, p4) - np.asarray(signed_mass)[..., None, None] * unit


def dirac_operator(spec) -> np.ndarray:
    """Momentum-space operator annihilating the amplitude of a spec or of
    each spec of a group."""
    return wave_operator(gamma_set(spec.rep), four_momenta(spec),
                         spec.energy_sign * spec.mass, spec.species is not Species.BRADYON)


def relative_residual(op: np.ndarray, w: np.ndarray):
    """|op w| / |w| of a bispinor, or row by row of stacked operators and bispinors."""
    return (np.linalg.norm(np.einsum("...ij,...j->...i", op, w), axis=-1)
            / np.linalg.norm(w, axis=-1))


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


def normalization_factor(spec, ctx: NormalizationContext = NormalizationContext()):
    """N with N^2 (w^dag w) = 1/V: 1/sqrt(2kV) tachyonic, 1/sqrt(2 eps V) bradyon,
    of a spec, or of each spec of a group."""
    return 1.0 / np.sqrt(norm_convention(spec) * ctx.volume)


def convert_representation(b: np.ndarray, from_rep: Representation,
                           to_rep: Representation) -> np.ndarray:
    """Map a bispinor between the Weyl and standard bases (involutive)."""
    b = np.asarray(b, dtype=complex)
    if from_rep is to_rep:
        return b.copy()
    return representation_change() @ b


def proportionality_defect(a: np.ndarray, b: np.ndarray) -> float:
    """sin of the angle between the rays of a and b; zero iff parallel.

    Equals sqrt(|a|^2 |b|^2 - |a^dag b|^2) / (|a| |b|), evaluated as the norm
    of the Gram-Schmidt rejection, which does not cancel catastrophically for
    nearly parallel vectors.  Vectors lie along the last axis; stacked
    vectors give one defect per row.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    if not (np.all(na != 0.0) and np.all(nb != 0.0)):
        raise ValueError("proportionality defect undefined for zero vectors")
    ah, bh = a / na, b / nb
    overlap = np.einsum("...i,...i->...", ah.conj(), bh)[..., None]
    return np.linalg.norm(bh - ah * overlap, axis=-1)
