"""Gamma-matrix algebra on dense complex 4x4 matrices.

Two bases are supported: the standard representation (diagonal gamma^0) and
the Weyl or chiral representation (diagonal gamma^5).  The metric signature
is (+, -, -, -) throughout, and hbar = c = 1.  Every matrix is built from the
exact literals {0, +-1, +-i, +-1/sqrt(2)}; derived members (alpha = gamma^0
gamma, alpha^5 = gamma^0 gamma^5, the spin block Sigma = alpha gamma^5) are
single exact products of those.

All arrays returned by this module are read-only; operations are pure
functions and safe for unrestricted concurrent use.
"""
from __future__ import annotations

import enum
import functools
from typing import NamedTuple

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.setflags(write=False)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Index pairs (mu, nu), mu < nu, of the independent sigma_{mu nu}.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_ID2 = np.eye(2, dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)


class Representation(enum.Enum):
    STANDARD = "standard"
    WEYL = "weyl"


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    m.setflags(write=False)
    return m


def _blocks(a, b, c, d) -> np.ndarray:
    return _frozen(np.concatenate([np.concatenate([a, b], 1), np.concatenate([c, d], 1)]))


class GammaSet(NamedTuple):
    """The four gamma matrices of one representation plus derived members.

    ``gammas`` stacks gamma^0..gamma^3, upper index, shape (4, 4, 4); lowering
    is by the diagonal metric.  ``alpha`` stacks alpha^1..alpha^3 and
    ``sigma_spin`` the three components of the 4x4 spin operator
    Sigma = alpha gamma^5, block-diagonal Pauli matrices in both
    representations, shape (3, 4, 4) each.  ``bilinear_stack`` holds
    gamma^0 gamma^mu then gamma^0 gamma^mu gamma^5, shape (8, 4, 4): w^dag B w
    over it gives wbar gamma^mu w and wbar gamma^mu gamma^5 w, and its first
    four are 1, alpha^1, alpha^2, alpha^3.  ``sigma_pairs`` holds the six
    sigma_{mu nu} = (i/2)[gamma_mu, gamma_nu] with mu < nu, in the order of
    PAIRS, shape (6, 4, 4).

    The folded stacks add an identity or mass term as one more row, so each
    operator below is one `contract`.  ``wave`` is the pair (tachyonic,
    bradyon) of gamma^0, -gamma^1, -gamma^2, -gamma^3 and then -gamma^5 or
    -1, shape (5, 4, 4): against (eps, p, sign m) it gives
    `spinors.wave_operator`.  ``hamiltonian`` is the pair of alpha^1..alpha^3
    and then alpha^5 or gamma^0, shape (4, 4, 4): against (p, m) it gives
    `observables.hamiltonian`.  ``boost`` holds -alpha^1..-alpha^3 and the
    identity, shape (4, 4, 4): against (sinh(zeta/2) n, cosh(zeta/2)) it
    gives the spinor boost.  ``generator`` holds -i sigma_{mu nu} in the order
    of PAIRS and the identity, shape (7, 4, 4): against (domega^{mu nu}, 2) it
    gives twice `symmetries.lorentz_generator`.  ``discrete`` is the pair of
    the discrete symmetry matrices in the order of `symmetries.DiscreteKind`,
    shape (4, 4, 4): P = gamma^0, C = i gamma^2, T = i gamma^1 gamma^3 and
    I = i gamma^5, with P and C times gamma^5 in the tachyonic family.  A pair
    is indexed by ``species is Species.BRADYON``.  Indexing a stack gives one
    matrix, and every stack is read-only.
    """

    rep: Representation
    gammas: np.ndarray
    gamma5: np.ndarray
    alpha: np.ndarray
    alpha5: np.ndarray
    sigma_spin: np.ndarray
    bilinear_stack: np.ndarray
    sigma_pairs: np.ndarray
    wave: tuple[np.ndarray, np.ndarray]
    hamiltonian: tuple[np.ndarray, np.ndarray]
    boost: np.ndarray
    generator: np.ndarray
    discrete: tuple[np.ndarray, np.ndarray]


def gamma_set(rep: Representation) -> GammaSet:
    """The gamma matrices of the requested representation, built once.  Any
    other basis, unhashable ones included, raises ValueError."""
    if not isinstance(rep, Representation):
        raise ValueError(f"unknown representation {rep!r}")
    return _build_gamma_set(rep)


@functools.cache
def _build_gamma_set(rep: Representation) -> GammaSet:
    if rep is Representation.STANDARD:
        g0 = _blocks(_ID2, _ZERO2, _ZERO2, -_ID2)
        gk = [_blocks(_ZERO2, s, -s, _ZERO2) for s in PAULI]
        g5 = _blocks(_ZERO2, _ID2, _ID2, _ZERO2)
    else:
        g0 = _blocks(_ZERO2, _ID2, _ID2, _ZERO2)
        gk = [_blocks(_ZERO2, -s, s, _ZERO2) for s in PAULI]
        g5 = _blocks(_ID2, _ZERO2, _ZERO2, -_ID2)
    gammas = np.stack([g0, *gk])
    g0_g = g0 @ gammas
    alpha, alpha5, eye = g0_g[1:], g0 @ g5, np.eye(4)[None]
    lowered = METRIC.diagonal()[:, None, None] * gammas
    gm, gn = lowered[np.array(PAIRS).T]
    sigma_pairs = 0.5j * (gm @ gn - gn @ gm)
    discrete = np.stack([g0, 1j * gk[1], 1j * gk[0] @ gk[2], 1j * g5])
    return GammaSet(rep, _frozen(gammas), g5, _frozen(alpha), _frozen(alpha5),
                    _frozen(alpha @ g5), _frozen(np.concatenate([g0_g, g0_g @ g5])),
                    _frozen(sigma_pairs),
                    tuple(_frozen(np.concatenate([lowered, -u])) for u in (g5[None], eye)),
                    tuple(_frozen(np.concatenate([alpha, t[None]])) for t in (alpha5, g0)),
                    _frozen(np.concatenate([-alpha, eye])),
                    _frozen(np.concatenate([-1j * sigma_pairs, eye])),
                    (_frozen(np.concatenate([discrete[:2] @ g5, discrete[2:]])),
                     _frozen(discrete)))


def _four_components(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1:] != (4,):
        raise ValueError(f"expected a four-vector, got shape {arr.shape}")
    return arr


def contract(coeffs, stack: np.ndarray) -> np.ndarray:
    """sum_a coeffs[..., a] stack[a]: real coefficients (..., k) against a
    complex stack (k, 4, 4) of matrices.  The result has the leading axes of
    ``coeffs`` followed by (4, 4); complex coefficients raise TypeError.

    One real matmul: the coefficients flattened to (-1, k) times the stack's
    float view (k, 32), real and imaginary parts interleaved, viewed back as
    complex.  Every stack it is given is a `GammaSet` field, with real and
    imaginary entries in {0, +-1} and at most two nonzero terms per entry and
    part, so every product is exact and every sum rounds once, in any order:
    the result is the exact sum correctly rounded under every BLAS kernel,
    and a real sum that overflows leaves the imaginary part alone.
    """
    c = np.asarray(coeffs)
    if c.dtype.kind == "c":
        raise TypeError("contract takes real coefficients")
    flat = c.reshape(-1, c.shape[-1]) @ stack.reshape(len(stack), 16).view(float)
    return flat.view(complex).reshape(c.shape[:-1] + (4, 4))


def _with_term(v: np.ndarray, t) -> np.ndarray:
    """Coefficients (..., k + 1): the rows of ``v`` (..., k) with the scalars
    ``t`` appended, the leading axes of both broadcast, in one buffer."""
    t = np.asarray(t)
    rows = v.shape[:-1]
    if rows != t.shape:
        rows = np.broadcast_shapes(rows, t.shape)
    c = np.empty(rows + (v.shape[-1] + 1,))
    c[..., :-1] = v
    c[..., -1] = t
    return c


def slash(gs: GammaSet, p) -> np.ndarray:
    """Contraction p_mu gamma^mu = e gamma^0 - p.gamma for p = (e; p).

    ``p`` is an array whose last axis holds (e, px, py, pz); the result has
    the leading axes of ``p`` followed by (4, 4).
    """
    return contract(_four_components(p) * METRIC.diagonal(), gs.gammas)


@functools.cache
def representation_change() -> np.ndarray:
    """Unitary map from Weyl-basis bispinors to standard-basis bispinors.

    Sends (xi; eta) to ((xi + eta)/sqrt(2); (xi - eta)/sqrt(2)).  The matrix
    is hermitian and involutive, so it is its own inverse, and it conjugates
    the Weyl gamma matrices into the standard ones.  Built once; every call
    returns the same read-only array.
    """
    return _frozen(_blocks(_ID2, _ID2, _ID2, -_ID2) / np.sqrt(2.0))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., i, j)."""
    return np.conj(np.swapaxes(m, -1, -2))


def _norm(x: np.ndarray, axis=-1) -> np.ndarray:
    """Euclidean norm along ``axis``; pass (-2, -1) for the Frobenius norm of
    a matrix or of each matrix of a stack.  The operations of
    ``np.linalg.norm(x, axis=axis)``, sqrt(add.reduce(Re(conj(x) x))), with
    no BLAS call, so the sum's order does not depend on the CPU."""
    return np.sqrt(np.add.reduce((np.conj(x) * x).real, axis=axis))


def _rows(op: np.ndarray, w: np.ndarray) -> np.ndarray:
    """op @ w for a matrix op (i, j) or stacked ones (..., i, j) acting on
    stacked vectors (..., j), the leading axes broadcast."""
    return np.einsum("...ij,...j->...i", op, w)
