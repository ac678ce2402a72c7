"""Discrete symmetry operators, their defining identities, and Lorentz spinor maps.

Parity and charge conjugation pick up an extra gamma^5 when passing from the
bradyonic sector to the pseudotachyon sector; time inversion and 4-inversion
are common to both:

    sector          P               C                 T              I
    bradyonic       gamma^0         i gamma^2         i g^1 g^3      i gamma^5
    pseudotachyon   gamma^0 g^5     i gamma^2 g^5     i g^1 g^3      i gamma^5

C and T act antilinearly; they are modelled as (matrix, conjugate-the-
argument) pairs, verified in momentum space only.  The product P C T equals
the 4-inversion operator exactly in the pseudotachyon sector and up to a
global phase (reported, not asserted) in the bradyonic one.

Finite boosts act on bispinors through S = exp(-zeta/2 alpha.n) =
cosh(zeta/2) I - sinh(zeta/2) alpha.n, the one-parameter family whose
generator is the spin-tensor combination below and which maps solutions at p
to solutions at the boosted momentum under the sign convention of
``kinematics.boost``.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .clifford import METRIC, PAIRS, Representation, contract, dagger, gamma_set
from .kinematics import Species, _boost_arrays, _cosh_sinh, _unit_axis
from .spinors import amplitude, four_momenta, relative_residual, wave_operator


class DiscreteKind(enum.Enum):
    PARITY = "P"
    CHARGE_CONJUGATION = "C"
    TIME_INVERSION = "T"
    FOUR_INVERSION = "I"


class Sector(enum.Enum):
    BRADYONIC = "bradyonic"
    PSEUDOTACHYONIC = "pseudotachyonic"


def sector_for(species: Species) -> Sector:
    """Luxons sit in the tachyonic family (their amplitudes are its m -> 0 limit)."""
    if species is Species.BRADYON:
        return Sector.BRADYONIC
    return Sector.PSEUDOTACHYONIC


@dataclass(frozen=True)
class SymmetryMatrix:
    kind: DiscreteKind
    sector: Sector
    rep: Representation
    matrix: np.ndarray
    conjugates_argument: bool


@functools.lru_cache(maxsize=None)
def discrete_operator(kind: DiscreteKind, sector: Sector,
                      rep: Representation) -> SymmetryMatrix:
    """The unitary matrix of one discrete symmetry in one sector and basis.

    Built once per (kind, sector, basis); the matrix is read-only.
    """
    gs = gamma_set(rep)
    g = gs.gammas
    extra = gs.gamma5 if sector is Sector.PSEUDOTACHYONIC else np.eye(4)
    if kind is DiscreteKind.PARITY:
        matrix = g[0] @ extra
    elif kind is DiscreteKind.CHARGE_CONJUGATION:
        matrix = 1j * g[2] @ extra
    elif kind is DiscreteKind.TIME_INVERSION:
        matrix = 1j * g[1] @ g[3]
    elif kind is DiscreteKind.FOUR_INVERSION:
        matrix = 1j * gs.gamma5
    else:
        raise ValueError(f"unknown discrete kind {kind!r}")
    conj = kind in (DiscreteKind.CHARGE_CONJUGATION, DiscreteKind.TIME_INVERSION)
    matrix.setflags(write=False)
    return SymmetryMatrix(kind=kind, sector=sector, rep=rep,
                          matrix=matrix, conjugates_argument=conj)


def apply_discrete(kind: DiscreteKind, spec, w=None) -> tuple[np.ndarray, float]:
    """Transform the amplitude of ``spec`` and verify it solves the mapped wave.

    Returns the transformed bispinor U w (or U conj(w) for the antilinear C
    and T) together with the relative residual of the target operator applied
    to it.  P and T send the wave to momentum -p at the same energy sign; C
    and I exchange the u and v families at the same momentum, which flips the
    sign of the mass term.  For a group, ``w`` holds one amplitude per spec,
    and both results have one row per spec.
    """
    op = discrete_operator(kind, sector_for(spec.species), spec.rep)
    if w is None:
        w = amplitude(spec)
    transformed = (np.conj(w) if op.conjugates_argument else w) @ op.matrix.T
    p4 = four_momenta(spec)
    signed_mass = spec.energy_sign * np.asarray(spec.mass)
    if kind in (DiscreteKind.PARITY, DiscreteKind.TIME_INVERSION):
        p4 = np.concatenate([p4[..., :1], -p4[..., 1:]], axis=-1)
    else:
        signed_mass = -signed_mass
    target = wave_operator(gamma_set(spec.rep), p4, signed_mass,
                           spec.species is not Species.BRADYON)
    return transformed, relative_residual(target, transformed)


def pct_product(sector: Sector, rep: Representation) -> np.ndarray:
    """The plain matrix product U_P U_C U_T, no argument conjugations applied."""
    p = discrete_operator(DiscreteKind.PARITY, sector, rep).matrix
    c = discrete_operator(DiscreteKind.CHARGE_CONJUGATION, sector, rep).matrix
    t = discrete_operator(DiscreteKind.TIME_INVERSION, sector, rep).matrix
    return p @ c @ t


def pct_phase(sector: Sector, rep: Representation) -> complex:
    """Global phase of U_P U_C U_T relative to the 4-inversion operator.

    Exactly 1 in the pseudotachyon sector; measured (not asserted) for the
    bradyonic one.
    """
    prod = pct_product(sector, rep)
    inv = discrete_operator(DiscreteKind.FOUR_INVERSION, sector, rep).matrix
    return complex(np.trace(prod @ dagger(inv)) / 4.0)


def _check_antisymmetric(domega: np.ndarray) -> np.ndarray:
    d = np.asarray(domega, dtype=float)
    if d.shape[-2:] != (4, 4):
        raise ValueError("generator parameters must form a 4x4 matrix")
    scale = 1.0 + np.abs(d).max(axis=(-2, -1))
    if np.any(np.abs(d + np.swapaxes(d, -1, -2)).max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("generator parameters must be antisymmetric")
    return d


def lorentz_generator(delta_omega, rep: Representation = Representation.STANDARD) -> np.ndarray:
    """First-order spinor map I - (i/4) sigma_{mu nu} domega^{mu nu}.

    ``delta_omega`` holds the upper-index antisymmetric parameters of an
    infinitesimal proper transformation, or a stack (..., 4, 4) of them.  The
    map commutes with gamma^5, so the tachyonic mass term transforms like the
    bradyonic one.
    """
    d = _check_antisymmetric(delta_omega)
    upper = np.stack([d[..., mu, nu] for mu, nu in PAIRS], axis=-1)
    # antisymmetry: the (nu, mu) term doubles the (mu, nu) one
    return np.eye(4) - 0.5j * contract(upper, gamma_set(rep).sigma_pairs)


def first_order_covariance_residual(delta_omega,
                                    rep: Representation = Representation.STANDARD) -> float:
    """Defect of the covariance identity for the first-order spinor map.

    The identity contracts each gamma with the vector transformation through
    its index-lowered components, gamma^mu (delta + domega_mu^nu) S = S
    gamma^nu.  The defect is quadratic in the generator parameters: halving
    them divides the residual by four.
    """
    d = _check_antisymmetric(delta_omega)
    gs = gamma_set(rep)
    s = lorentz_generator(d, rep)
    a = np.eye(4) + METRIC @ d  # a[mu, nu] = delta + domega_mu^nu
    worst = 0.0
    for nu in range(4):
        lhs = sum(gs.gammas[mu] * a[mu, nu] for mu in range(4)) @ s
        worst = max(worst, float(np.linalg.norm(lhs - s @ gs.gammas[nu])))
    return worst


def lorentz_boost_spinor(axis, rapidity,
                         rep: Representation = Representation.STANDARD) -> np.ndarray:
    """Finite bispinor boost cosh(zeta/2) I - sinh(zeta/2) alpha.n.

    (alpha.n)^2 = I closes the exponential series exactly; det S = 1 and
    [S, gamma^5] = 0.  Axes (..., 3) with rapidities (...) give one map per row.
    """
    n = _unit_axis(axis)
    ch, sh = _cosh_sinh(np.asarray(rapidity, dtype=float) / 2.0)
    a_n = contract(n, gamma_set(rep).alpha_stack)
    return (np.asarray(ch)[..., None, None] * np.eye(4)
            - np.asarray(sh)[..., None, None] * a_n)


def apply_boost(spec, axis, rapidity, w=None) -> tuple[np.ndarray, float]:
    """Boost the amplitude of ``spec`` and verify it solves the boosted wave.

    The boosted pseudotachyon energy may go negative, so the target operator
    is built directly from the boosted raw four-vector rather than from a new
    plane-wave spec.  For a group, ``w``, the axes and the rapidities have one
    row per spec, and so do both results.
    """
    n = _unit_axis(axis)
    if w is None:
        w = amplitude(spec)
    s = lorentz_boost_spinor(n, rapidity, spec.rep)
    transformed = np.einsum("...ij,...j->...i", s, w)
    q = _boost_arrays(four_momenta(spec), n, rapidity)
    target = wave_operator(gamma_set(spec.rep), q, spec.energy_sign * spec.mass,
                           spec.species is not Species.BRADYON)
    return transformed, relative_residual(target, transformed)
