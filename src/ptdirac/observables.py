"""Hamiltonians, plane-wave expectation values, and kinematic constraints.

The velocity operator of both theories is alpha, so mean velocities are the
bilinears w^dag alpha w / (w^dag w).  For bradyons this reproduces p/eps; for
pseudotachyons it gives the dual velocity eps p / k^2, whose magnitude is the
reciprocal of the superluminal classical speed k/eps and is therefore below c.

Mean four-velocity and four-polarization come from the vector and
pseudovector bilinears wbar gamma^mu w and wbar gamma^mu gamma^5 w.  With the
quantization volume cancelled analytically, both species reduce to the same
normalization wbar O w / (2m), so no volume ever enters the numbers here.
Closed forms (h is the helicity eigenvalue of the state, +-lambda for u/v):

    bradyon:        vbar = p/m,        sbar = h dual(p)/m
    pseudotachyon:  vbar = dual(p)/m,  sbar = h p/m

and in both cases vbar^2 = 1, sbar^2 = -1.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .clifford import Representation, _with_term, contract, gamma_set
from .kinematics import FourVector, Species, _check_member, dual_momentum, minkowski_dot
from .spinors import PlaneWaveSpec, amplitude, relative_residual

# w^dag w below which the subnormal rounding of one product of entries, up to
# 2^-1075, exceeds 2^-106 of it
_B_MIN = 2.0 ** -969


class MasslessSpecies(ValueError):
    """Mean four-velocity and four-polarization divide by the mass."""


class ExpectationReport(NamedTuple):
    """Every plane-wave expectation value of one spec, plus shell residuals.

    ``constraint_residuals`` holds the residuals of the constraints linking
    p, vbar, sbar, m on each shell.  Bradyons: p^2 = m^2, p.vbar = m,
    p.sbar = 0.  Pseudotachyons: p^2 = -m^2, p.vbar = 0, p.sbar = -m h with
    h the helicity eigenvalue of the state.  All entries vanish identically
    for amplitudes produced here.
    """

    mean_velocity: tuple[float, float, float]
    mean_four_velocity: FourVector
    mean_spin_four_vector: FourVector
    constraint_residuals: dict[str, float]


def hamiltonian(species: Species, momentum, mass,
                rep: Representation = Representation.STANDARD) -> np.ndarray:
    """Momentum-space hamiltonian alpha.p plus the species mass term.

    The mass term is m gamma^0 for bradyons (hermitian H) and m alpha^5 for
    tachyonic species; since (alpha^5)^2 = -1 that term is anti-hermitian and
    H is only gamma^5 pseudo-hermitian, g5 H g5 = H^dag, yet its spectrum
    +-sqrt(k^2 - m^2) is real on the physical shell |p| >= m.  In both cases
    H^2 is the squared shell energy times the identity.  ``momentum`` may be
    an (n, 3) array with ``mass`` (n,), giving one hamiltonian per row.  A
    ``species`` that is not a `Species` raises ValueError.
    """
    _check_member("species", species, Species)
    return contract(_with_term(np.asarray(momentum, dtype=float), mass),
                    gamma_set(rep).hamiltonian[species is Species.BRADYON])


def energy_eigencheck(spec, w=None, h=None):
    """Relative residual of H w = E w for the physical wave of a spec.

    The inferior-sign wave e^{+ipx} carries physical momentum -p and energy
    -eps, so v-amplitudes are checked against H(-p) v = -eps v.  ``h`` is
    that H(sign p), built here when not given.  For a group, ``w`` and ``h``
    hold one amplitude and one hamiltonian per spec and the result one
    residual per spec.
    """
    if w is None:
        w = amplitude(spec)
    sign = np.asarray(spec.energy_sign)[..., None]
    if h is None:
        h = hamiltonian(spec.species, sign * np.asarray(spec.momentum), spec.mass, spec.rep)
    return relative_residual(h, w, sign * np.asarray(spec.epsilon)[..., None])


def bilinears(w: np.ndarray, rep: Representation):
    """(b, j): b = Re(w^dag B w) over `GammaSet.bilinear_stack`, shape
    (..., 8), of w scaled exactly by 2^-j, so the bilinears of w are 4^j b.

    Entries 0-3 are wbar gamma^mu w (entry 0 is w^dag w, entries 1-3 the
    velocity numerators w^dag alpha w); entries 4-7 are wbar gamma^mu gamma^5 w.
    j is 0 unless some row has w^dag w below _B_MIN, where the products lose
    precision as subnormal numbers; then j is an integer array holding, for
    each such row, the binary exponent of its largest |entry| (0 elsewhere).
    """
    stack = gamma_set(rep).bilinear_stack
    b = np.einsum("...i,bij,...j->...b", w.conj(), stack, w).real
    small = b[..., 0] < _B_MIN
    if not np.count_nonzero(small):
        return b, 0
    j = np.frexp(np.abs(w).max(axis=-1))[1] * small
    w = w / np.ldexp(1.0, j)[..., None]
    return np.einsum("...i,bij,...j->...b", w.conj(), stack, w).real, j


def _require_massive(spec):
    if np.count_nonzero(np.asarray(spec.mass) == 0.0):
        raise MasslessSpecies("mean four-velocity/polarization divide by the mass")


def mean_velocity(spec, b=None) -> np.ndarray:
    """w^dag alpha w / (w^dag w), identical for both energy signs, from the
    `bilinears` b of a spec, or of each spec of a group (computed from the
    spec's amplitude when not given)."""
    if b is None:
        b, _ = bilinears(amplitude(spec), spec.rep)
    return b[..., 1:4] / b[..., :1]


def mean_four_vectors(spec, b: np.ndarray, j) -> tuple[np.ndarray, np.ndarray]:
    """(vbar, sbar) = (wbar gamma^mu w, wbar gamma^mu gamma^5 w) / 2m from the
    `bilinears` (b, j) of a spec, or of each spec of a group; ValueError if they overflow."""
    _require_massive(spec)
    two_m = np.ldexp(np.asarray(spec.mass), 1 - 2 * j)[..., None]
    with np.errstate(over="ignore"):
        vs = b / two_m
    if np.count_nonzero(np.isinf(vs)):  # w^dag w bounds every bilinear: vbar^0 overflows
        raise ValueError("mean four-velocity out of floating-point range: w^dag w / 2m overflows")
    return vs[..., 0:4], vs[..., 4:8]


def mean_four_velocity(spec: PlaneWaveSpec) -> FourVector:
    """wbar gamma^mu w / (2m); equals p/m (bradyon) or dual(p)/m (pseudotachyon)."""
    return expectation_report(spec).mean_four_velocity


def mean_spin_four_vector(spec: PlaneWaveSpec) -> FourVector:
    """wbar gamma^mu gamma^5 w / (2m); h dual(p)/m (bradyon) or h p/m (pseudotachyon)."""
    return expectation_report(spec).mean_spin_four_vector


def mean_velocity_closed_form(spec) -> np.ndarray:
    """p/eps for bradyons, eps p / k^2 (the dual velocity) for tachyonic species;
    of a spec or of each spec of a group."""
    p = np.asarray(spec.momentum)
    eps = np.asarray(spec.epsilon)[..., None]
    if spec.species is Species.BRADYON:
        return p / eps
    return eps * p / np.asarray(spec.k)[..., None] ** 2


def four_vector_closed_forms(spec) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (vbar, sbar) of a spec, shape (4,) each, or of a group, (n, 4).

    vbar = p/m, sbar = h dual(p)/m for bradyons; vbar = dual(p)/m,
    sbar = h p/m for pseudotachyons, with dual(p) = (k; eps p / k).
    """
    _require_massive(spec)
    p4 = spec.four_momentum
    dual = dual_momentum(p4)
    m = np.asarray(spec.mass)[..., None]
    h = np.asarray(spec.helicity_eigenvalue)[..., None]
    if spec.species is Species.BRADYON:
        return p4 / m, h * dual / m
    return dual / m, h * p4 / m


# indexed by `species is Species.BRADYON`
_CONSTRAINT_NAMES = (("p2_plus_m2", "p_dot_v", "p_dot_s_plus_m_lambda"),
                     ("p2_minus_m2", "p_dot_v_minus_m", "p_dot_s"))


def constraint_values(spec, vbar: np.ndarray, sbar: np.ndarray) -> np.ndarray:
    """The three constraint residuals (..., 3) of a spec or group, in the
    order of `ExpectationReport.constraint_residuals`."""
    p4 = spec.four_momentum
    m = np.asarray(spec.mass)
    p2, pv, ps = minkowski_dot(p4, np.array([p4, vbar, sbar]))
    out = np.empty(np.shape(p2) + (3,))
    if spec.species is Species.BRADYON:
        out[..., 0], out[..., 1], out[..., 2] = p2 - m * m, pv - m, ps
    else:
        out[..., 0], out[..., 1], out[..., 2] = p2 + m * m, pv, ps + m * spec.helicity_eigenvalue
    return out


def expectation_report(spec: PlaneWaveSpec) -> ExpectationReport:
    """Every expectation value of a massive spec, from one amplitude and one
    contraction; ValueError if a constraint residual is out of floating-point
    range, where a product of p with p, vbar or sbar overflows."""
    b, j = bilinears(amplitude(spec), spec.rep)
    vbar, sbar = mean_four_vectors(spec, b, j)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = constraint_values(spec, vbar, sbar)
    if np.count_nonzero(np.isfinite(residuals)) != residuals.size:
        raise ValueError("constraint residuals out of floating-point range at "
                         f"|p| = {spec.k!r}, m = {spec.mass!r}")
    names = _CONSTRAINT_NAMES[spec.species is Species.BRADYON]
    return ExpectationReport(
        mean_velocity=tuple(mean_velocity(spec, b).tolist()),
        mean_four_velocity=FourVector.from_array(vbar),
        mean_spin_four_vector=FourVector.from_array(sbar),
        constraint_residuals=dict(zip(names, residuals.tolist())),
    )
