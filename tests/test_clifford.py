import numpy as np
import pytest

from ptdirac.clifford import (
    METRIC,
    PAULI,
    Representation,
    contract,
    dagger,
    gamma_set,
    representation_change,
    sigma_tensor,
    slash,
)

I2 = np.eye(2)
O2 = np.zeros((2, 2))


def blocks(a, b, c, d):
    return np.block([[a, b], [c, d]]).astype(complex)


# The exact matrices of both bases, typed in independently of the library.
G0_STD = blocks(I2, O2, O2, -I2)
GK_STD = [blocks(O2, s, -s, O2) for s in PAULI]
G5_STD = blocks(O2, I2, I2, O2)
G0_WEYL = blocks(O2, I2, I2, O2)
GK_WEYL = [blocks(O2, -s, s, O2) for s in PAULI]
G5_WEYL = blocks(I2, O2, O2, -I2)


def test_standard_matrices_entrywise(std):
    assert np.array_equal(std.gammas[0], G0_STD)
    for k in range(3):
        assert np.array_equal(std.gammas[k + 1], GK_STD[k])
    assert np.array_equal(std.gamma5, G5_STD)


def test_weyl_matrices_entrywise(weyl):
    assert np.array_equal(weyl.gammas[0], G0_WEYL)
    for k in range(3):
        assert np.array_equal(weyl.gammas[k + 1], GK_WEYL[k])
    assert np.array_equal(weyl.gamma5, G5_WEYL)


def test_gamma5_off_diagonal_blocks_standard(std):
    g5 = std.gamma5
    assert np.array_equal(g5[:2, :2], O2)
    assert np.array_equal(g5[2:, 2:], O2)
    assert np.array_equal(g5[:2, 2:], I2)
    assert np.array_equal(g5[2:, :2], I2)


@pytest.mark.parametrize("rep", list(Representation))
def test_anticommutation_all_pairs(rep):
    gs = gamma_set(rep)
    for mu in range(4):
        for nu in range(4):
            a, b = gs.gammas[mu], gs.gammas[nu]
            acomm = a @ b + b @ a
            assert np.linalg.norm(acomm - 2 * METRIC[mu, nu] * np.eye(4)) <= 1e-13


@pytest.mark.parametrize("rep", list(Representation))
def test_hermiticity_pattern(rep):
    gs = gamma_set(rep)
    assert np.linalg.norm(dagger(gs.gammas[0]) - gs.gammas[0]) == 0.0
    for k in (1, 2, 3):
        assert np.linalg.norm(dagger(gs.gammas[k]) + gs.gammas[k]) == 0.0
    assert np.linalg.norm(dagger(gs.gamma5) - gs.gamma5) == 0.0
    assert np.linalg.norm(gs.gamma5 @ gs.gamma5 - np.eye(4)) == 0.0


@pytest.mark.parametrize("rep", list(Representation))
def test_gamma5_product_identity(rep):
    gs = gamma_set(rep)
    prod = 1j * gs.gammas[0] @ gs.gammas[1] @ gs.gammas[2] @ gs.gammas[3]
    assert np.linalg.norm(gs.gamma5 - prod) <= 1e-14


@pytest.mark.parametrize("rep", list(Representation))
def test_alpha5_squares_to_minus_identity(rep):
    gs = gamma_set(rep)
    assert np.linalg.norm(gs.alpha5 @ gs.alpha5 + np.eye(4)) <= 1e-14


def test_spin_operator_block_diagonal_standard(std):
    for i, s in enumerate(PAULI):
        expected = blocks(s, O2, O2, s)
        assert np.abs(std.sigma_spin[i] - expected).max() == 0.0
        assert np.array_equal(std.sigma_spin[i], std.alpha[i] @ std.gamma5)


def test_slash_unit_time_component(std):
    assert np.array_equal(slash(std, (1.0, 0, 0, 0)), std.gammas[0])


def test_slash_spatial_sign(std):
    assert np.array_equal(slash(std, (0, 0, 0, 1.0)), -std.gammas[3])


def test_slash_squares_to_invariant(std):
    ps = slash(std, (4.0, 0.0, 0.0, 5.0))
    assert np.linalg.norm(ps @ ps - (16.0 - 25.0) * np.eye(4)) <= 1e-13


def test_slash_linear_in_momentum(std, rng):
    p = rng.normal(size=4)
    q = rng.normal(size=4)
    a, b = rng.normal(size=2)
    lhs = slash(std, a * p + b * q)
    rhs = a * slash(std, p) + b * slash(std, q)
    assert np.linalg.norm(lhs - rhs) <= 1e-13


STACKS = ("gammas", "alpha", "sigma_spin", "bilinear_stack", "sigma_pairs")


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_contract_equals_einsum_bit_for_bit(rep, name):
    stack = getattr(gamma_set(rep), name)
    rng = np.random.default_rng(23)
    coeffs = rng.normal(size=(2000, len(stack))) * 10.0 ** rng.uniform(-6, 6, size=(2000, 1))
    got = contract(coeffs, stack)
    assert got.shape == (2000, 4, 4)
    assert got.tobytes() == np.einsum("...a,aij->...ij", coeffs, stack).tobytes()
    assert contract(coeffs.reshape(40, 50, -1), stack).shape == (40, 50, 4, 4)


@pytest.mark.parametrize("mu", range(4))
def test_sigma_tensor_diagonal_vanishes(std, mu):
    assert np.linalg.norm(sigma_tensor(std, mu, mu)) == 0.0


def test_sigma_tensor_definition_off_diagonal(std):
    expected = 1j * (METRIC[0, 0] * std.gammas[0]) @ (METRIC[1, 1] * std.gammas[1])
    assert np.linalg.norm(sigma_tensor(std, 0, 1) - expected) == 0.0


def test_sigma_tensor_antisymmetry(std):
    for mu in range(4):
        for nu in range(4):
            s = sigma_tensor(std, mu, nu) + sigma_tensor(std, nu, mu)
            assert np.linalg.norm(s) == 0.0


@pytest.mark.parametrize("rep", list(Representation))
def test_sigma_tensor_commutes_with_gamma5(rep):
    gs = gamma_set(rep)
    for mu in range(4):
        for nu in range(4):
            s = sigma_tensor(gs, mu, nu)
            c = s @ gs.gamma5 - gs.gamma5 @ s
            assert np.linalg.norm(c) <= 1e-14


def test_sigma_tensor_index_range(std):
    with pytest.raises(IndexError):
        sigma_tensor(std, 0, 4)
    with pytest.raises(IndexError):
        sigma_tensor(std, -1, 2)


def test_representation_change_on_equal_spinors():
    w = representation_change()
    theta = np.array([0.6, 0.8j])
    vec = np.concatenate([theta, theta])
    out = w @ vec
    assert np.linalg.norm(out[:2] - np.sqrt(2) * theta) <= 1e-15
    assert np.linalg.norm(out[2:]) <= 1e-15


def test_representation_change_involutive_unitary():
    w = representation_change()
    assert np.linalg.norm(w @ w - np.eye(4)) <= 1e-14
    assert np.linalg.norm(dagger(w) @ w - np.eye(4)) <= 1e-14
    assert np.linalg.norm(w - dagger(w)) == 0.0


def test_representation_change_conjugates_gammas(std, weyl):
    w = representation_change()
    for mu in range(4):
        diff = w @ weyl.gammas[mu] @ w - std.gammas[mu]
        assert np.linalg.norm(diff) <= 1e-14
    assert np.linalg.norm(w @ weyl.gamma5 @ w - std.gamma5) <= 1e-14


def test_dagger_of_gamma2_standard(std):
    assert np.array_equal(dagger(std.gammas[2]), -std.gammas[2])


def test_apply_identity(std, rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.array_equal(std.gamma5 @ (std.gamma5 @ v), v)


def test_frobenius_norm_of_zero(std):
    assert np.linalg.norm(std.gamma5 - dagger(std.gamma5)) == 0.0
    for g in std.gammas:
        assert np.linalg.norm(g) == 2.0


def test_matrix_primitives(std, rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(dagger(a), a.conj().T)
    assert np.array_equal(dagger(dagger(a)), a)
    assert np.array_equal(std.gammas[0] @ std.gamma5, std.alpha5)


def test_anticommutation_seeded_trials():
    """1000 seeded index-pair trials across both bases stay exact."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(1000):
        rep = list(Representation)[i % 2]
        gs = gamma_set(rep)
        mu, nu = rng.integers(0, 4, size=2)
        a, b = gs.gammas[mu], gs.gammas[nu]
        r = np.linalg.norm(a @ b + b @ a - 2 * METRIC[mu, nu] * np.eye(4))
        worst = max(worst, r)
    assert worst <= 1e-13


def test_gamma_set_arrays_read_only(std):
    with pytest.raises(ValueError):
        std.gammas[0][0, 0] = 5.0
