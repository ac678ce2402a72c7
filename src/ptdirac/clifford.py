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
    PAIRS, shape (6, 4, 4).  Indexing a stack gives one matrix, and every
    stack is read-only.
    """

    rep: Representation
    gammas: np.ndarray
    gamma5: np.ndarray
    alpha: np.ndarray
    alpha5: np.ndarray
    sigma_spin: np.ndarray
    bilinear_stack: np.ndarray
    sigma_pairs: np.ndarray


@functools.lru_cache(maxsize=None)
def gamma_set(rep: Representation) -> GammaSet:
    """Construct the gamma matrices of the requested representation."""
    if rep is Representation.STANDARD:
        g0 = _blocks(_ID2, _ZERO2, _ZERO2, -_ID2)
        gk = [_blocks(_ZERO2, s, -s, _ZERO2) for s in PAULI]
        g5 = _blocks(_ZERO2, _ID2, _ID2, _ZERO2)
    elif rep is Representation.WEYL:
        g0 = _blocks(_ZERO2, _ID2, _ID2, _ZERO2)
        gk = [_blocks(_ZERO2, -s, s, _ZERO2) for s in PAULI]
        g5 = _blocks(_ID2, _ZERO2, _ZERO2, -_ID2)
    else:
        raise ValueError(f"unknown representation {rep!r}")
    gammas = np.stack([g0, *gk])
    g0_g = g0 @ gammas
    alpha = g0_g[1:]
    gm, gn = (METRIC.diagonal()[:, None, None] * gammas)[np.array(PAIRS).T]
    return GammaSet(rep, _frozen(gammas), g5, _frozen(alpha), _frozen(g0 @ g5),
                    _frozen(alpha @ g5), _frozen(np.concatenate([g0_g, g0_g @ g5])),
                    _frozen(0.5j * (gm @ gn - gn @ gm)))


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
    complex.  Every stack this package contracts has real and imaginary
    entries in {0, +-1} with at most two nonzero terms per entry and part, so
    every product is exact and every sum rounds once, in any order: the
    result is the exact sum correctly rounded under every BLAS kernel, and a
    real sum that overflows leaves the imaginary part alone.  The builders
    that add an identity or mass term (`spinors.wave_operator`,
    `observables.hamiltonian`, the boost and generator maps of `symmetries`)
    pass it as one more stack row with its coefficient.
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


def representation_change() -> np.ndarray:
    """Unitary map from Weyl-basis bispinors to standard-basis bispinors.

    Sends (xi; eta) to ((xi + eta)/sqrt(2); (xi - eta)/sqrt(2)).  The matrix
    is hermitian and involutive, so it is its own inverse, and it conjugates
    the Weyl gamma matrices into the standard ones.
    """
    return _frozen(_blocks(_ID2, _ID2, _ID2, -_ID2) / np.sqrt(2.0))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T
