"""Discrete symmetry operators, their defining identities, and Lorentz spinor maps.

Parity and charge conjugation pick up an extra gamma^5 when passing from the
bradyonic family to the pseudotachyonic one (luxons included); time
inversion and 4-inversion are common to both:

    family          P               C                 T              I
    bradyonic       gamma^0         i gamma^2         i g^1 g^3      i gamma^5
    pseudotachyon   gamma^0 g^5     i gamma^2 g^5     i g^1 g^3      i gamma^5

C and T act antilinearly (`DiscreteKind.antilinear`): their matrix acts on
the conjugated argument, verified in momentum space only.  The product P C T
equals the 4-inversion operator exactly for pseudotachyons and up to a
global phase (reported, not asserted) for bradyons.

Finite boosts act on bispinors through S = exp(-zeta/2 alpha.n) =
cosh(zeta/2) I - sinh(zeta/2) alpha.n, the one-parameter family whose
generator is the spin-tensor combination below and which maps solutions at p
to solutions at the boosted momentum under the sign convention of
``kinematics.boost``.
"""
from __future__ import annotations

import enum

import numpy as np

from .clifford import (METRIC, PAIRS, Representation, _check_member, _norm, _rows, _with_term,
                       contract, dagger, gamma_set)
from .kinematics import Species, _boost_arrays, _cosh_sinh, _unit_axis
from .spinors import PlaneWaveSpec, _memoized, amplitude, relative_residual, wave_operator


class DiscreteKind(enum.Enum):
    PARITY = "P"
    CHARGE_CONJUGATION = "C"
    TIME_INVERSION = "T"
    FOUR_INVERSION = "I"

    @property
    def antilinear(self) -> bool:
        """True for C and T, whose matrix acts on the conjugated argument."""
        return self in (DiscreteKind.CHARGE_CONJUGATION, DiscreteKind.TIME_INVERSION)


_KIND_INDEX = {kind: i for i, kind in enumerate(DiscreteKind)}
# Where `_images` puts entry U_k[i, j] of a family's stack in its (8, 16) map:
# row (c, j), c = 1 for the antilinear C and T and 0 for P and I, column (k, i).
_SLOTS = np.array([(kind.antilinear * 4 + j) * 16 + k * 4 + i
                   for k, kind in enumerate(DiscreteKind) for i in range(4) for j in range(4)])
# The two target waves: P and T send (eps; p) to (eps; -p), C and I flip the
# sign of the mass term.  In the order of DiscreteKind, kind 2a + b has target b.
_MOMENTUM_SIGNS = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0]])
_MASS_SIGNS = np.array([1.0, -1.0])


def discrete_operator(kind: DiscreteKind, species: Species, rep: Representation) -> np.ndarray:
    """The unitary matrix of one discrete symmetry for one species and basis.

    One row of `GammaSet.discrete`, read-only.  Luxons take the pseudotachyon
    matrices (their amplitudes are that family's m -> 0 limit).  A ``kind``
    that is not a `DiscreteKind`, or a ``species`` that is not a `Species`,
    raises ValueError.
    """
    _check_member("kind", kind, DiscreteKind)
    _check_member("species", species, Species)
    return gamma_set(rep).discrete[species is Species.BRADYON][_KIND_INDEX[kind]]


def _images(spec, w) -> tuple[np.ndarray, np.ndarray]:
    """`discrete_images` of a spec or group with its amplitudes ``w``, uncached."""
    rows = w.shape[:-1]
    both = np.concatenate([w, w.conj()], axis=-1)
    # (w, conj w) times the zero-padded map is U_k w or U_k conj(w) for all
    # four kinds in one matmul, exact since each column holds one +-1 or +-i
    flat = np.zeros(128, dtype=complex)
    flat[_SLOTS] = gamma_set(spec.rep).discrete[spec.species is Species.BRADYON].ravel()
    # the images as (..., a, b, 4), kind 2a + b, each pair against its target b
    images = (both @ flat.reshape(8, 16)).reshape(rows + (2, 2, 4))
    p4 = spec.four_momentum[..., None, :] * _MOMENTUM_SIGNS
    signed_mass = (spec.energy_sign * np.asarray(spec.mass))[..., None] * _MASS_SIGNS
    target = wave_operator(spec, p4, signed_mass)
    residuals = relative_residual(target[..., None, :, :, :], images)
    return images.reshape(rows + (4, 4)), residuals.reshape(rows + (4,))


def discrete_images(spec, w=None) -> tuple[np.ndarray, np.ndarray]:
    """`apply_discrete` of every kind at once, in the order of DiscreteKind.

    Returns the transformed bispinors (..., 4, 4), one row per kind, and the
    residuals (..., 4).  Both come from one pass: the `GammaSet.discrete`
    stack of the species family and basis, laid out on each call as one
    zero-padded (8, 16) map, applied to (w, conj w) in one matmul, and one
    `wave_operator` stack of the two targets, (eps; -p) with the mass term of
    w for P and T and (eps; p) with the opposite one for C and I, each applied
    to its pair of images in one `relative_residual`.  ``w`` defaults to
    `amplitude(spec)`, for a group too.
    For a `PlaneWaveSpec` and its own amplitude (``w`` None or
    ``amplitude(spec)``) the result is computed once and kept on the spec,
    read-only.
    """
    if isinstance(spec, PlaneWaveSpec) and (w is None or w is amplitude(spec)):
        return _memoized(spec, "_discrete_images", lambda: _images(spec, amplitude(spec)))
    return _images(spec, amplitude(spec) if w is None else w)


def apply_discrete(kind: DiscreteKind, spec, w=None) -> tuple[np.ndarray, float]:
    """Transform the amplitude of ``spec`` and verify it solves the mapped wave.

    Returns the transformed bispinor U w (or U conj(w) for the antilinear C
    and T) together with the relative residual of the target operator applied
    to it.  P and T send the wave to momentum -p at the same energy sign; C
    and I exchange the u and v families at the same momentum, which flips the
    sign of the mass term.  For a group, ``w`` holds one amplitude per spec,
    and both results have one row per spec.  This is one kind of
    `discrete_images`, so the four kinds of one spec cost one pass.  Only a
    `PlaneWaveSpec` keeps that pass: on a `SpecGroup` each call makes it
    again, so a caller that needs several kinds of a group should call
    `discrete_images` once.  A ``kind`` outside `DiscreteKind` raises ValueError.
    """
    _check_member("kind", kind, DiscreteKind)
    transformed, residuals = discrete_images(spec, w)
    i = _KIND_INDEX[kind]
    # [()] turns the 0-d residual of one spec into a float, as one norm gives
    return transformed[..., i, :], residuals[..., i][()]


def pct_product(species: Species, rep: Representation) -> np.ndarray:
    """The plain matrix product U_P U_C U_T, no argument conjugations applied."""
    p, c, t = (discrete_operator(DiscreteKind(op), species, rep) for op in "PCT")
    return p @ c @ t


def pct_phase(species: Species, rep: Representation) -> complex:
    """Global phase of U_P U_C U_T relative to the 4-inversion operator.

    Exactly 1 for pseudotachyons; measured (not asserted) for bradyons.
    """
    inv = discrete_operator(DiscreteKind.FOUR_INVERSION, species, rep)
    return complex(np.trace(pct_product(species, rep) @ dagger(inv)) / 4.0)


def _check_antisymmetric(domega: np.ndarray) -> np.ndarray:
    d = np.asarray(domega, dtype=float)
    if d.shape[-2:] != (4, 4):
        raise ValueError("generator parameters must form a 4x4 matrix")
    if np.count_nonzero(np.isfinite(d)) != d.size:
        raise ValueError("generator parameters must be finite")
    scale = 1.0 + np.abs(d).max(axis=(-2, -1))
    if np.any(np.abs(d + np.swapaxes(d, -1, -2)).max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("generator parameters must be antisymmetric")
    return d


_PAIR_ROWS, _PAIR_COLS = np.array(PAIRS).T


def lorentz_generator(delta_omega, rep: Representation = Representation.STANDARD) -> np.ndarray:
    """First-order spinor map I - (i/4) sigma_{mu nu} domega^{mu nu}.

    ``delta_omega`` holds the upper-index antisymmetric parameters of an
    infinitesimal proper transformation, or a stack (..., 4, 4) of them.  The
    map commutes with gamma^5, so the tachyonic mass term transforms like the
    bradyonic one.
    """
    d = _check_antisymmetric(delta_omega)
    # antisymmetry: the (nu, mu) term doubles the (mu, nu) one.  The sum is
    # twice the map, halved after, so a subnormal half rounds once
    s = contract(_with_term(d[..., _PAIR_ROWS, _PAIR_COLS], 2.0), gamma_set(rep).generator)
    s *= 0.5
    return s


def first_order_covariance_residual(delta_omega,
                                    rep: Representation = Representation.STANDARD) -> float:
    """Defect of the covariance identity for the first-order spinor map.

    The identity contracts each gamma with the vector transformation through
    its index-lowered components, gamma^mu (delta + domega_mu^nu) S = S
    gamma^nu.  The defect is quadratic in the generator parameters: halving
    them divides the residual by four.
    """
    s, gs = lorentz_generator(delta_omega, rep), gamma_set(rep)
    a = np.eye(4) + METRIC @ np.asarray(delta_omega, dtype=float)  # delta + domega_mu^nu
    lhs = contract(a.T, gs.gammas) @ s  # row nu: gamma^mu a[mu, nu] S
    return float(_norm(lhs - s @ gs.gammas, axis=(-2, -1)).max())


def _boost_spinors(n: np.ndarray, ch, sh, rep: Representation) -> np.ndarray:
    """cosh(zeta/2) I - sinh(zeta/2) alpha.n from unit axes and the cosh and
    sinh of the half rapidities."""
    return contract(_with_term(np.asarray(sh)[..., None] * n, ch), gamma_set(rep).boost)


def lorentz_boost_spinor(axis, rapidity,
                         rep: Representation = Representation.STANDARD) -> np.ndarray:
    """Finite bispinor boost cosh(zeta/2) I - sinh(zeta/2) alpha.n.

    (alpha.n)^2 = I closes the exponential series exactly; det S = 1 and
    [S, gamma^5] = 0.  Axes (..., 3) and rapidities (...) broadcast to one map
    per row: rapidities (k, n) against axes (n, 3) give k maps per axis.
    """
    return _boost_spinors(_unit_axis(axis),
                          *_cosh_sinh(np.asarray(rapidity, dtype=float) / 2.0), rep)


def apply_boost(spec, axis, rapidity, w=None) -> tuple[np.ndarray, float]:
    """Boost the amplitude of ``spec`` and verify it solves the boosted wave.

    The boosted pseudotachyon energy may go negative, so the target operator
    is built directly from the boosted raw four-vector rather than from a new
    plane-wave spec.  For a group, ``w``, the axes and the rapidities have one
    row per spec, and so do both results.  The axis is checked once, and the
    cosh and sinh of zeta/2 (the spinor map) and of zeta (the four-momentum)
    come from one `_cosh_sinh` call.
    """
    n = _unit_axis(axis)
    if w is None:
        w = amplitude(spec)
    zeta = np.asarray(rapidity, dtype=float)
    ch, sh = _cosh_sinh(np.array([zeta / 2.0, zeta]))
    transformed = _rows(_boost_spinors(n, ch[0], sh[0], spec.rep), w)
    q = _boost_arrays(spec.four_momentum, n, zeta, (ch[1], sh[1]))
    target = wave_operator(spec, q, spec.energy_sign * spec.mass)
    return transformed, relative_residual(target, transformed)
