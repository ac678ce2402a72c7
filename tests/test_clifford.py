import numpy as np
import pytest

from ptdirac.clifford import (
    METRIC,
    PAIRS,
    PAULI,
    Representation,
    _norm,
    _rows,
    contract,
    dagger,
    gamma_set,
    representation_change,
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


def test_slash_rejects_a_three_vector(std):
    with pytest.raises(ValueError) as info:
        slash(std, [1.0, 2.0, 3.0])
    assert type(info.value) is ValueError
    assert str(info.value) == "expected a four-vector, got shape (3,)"


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
# The stacks the builders fold an identity or mass term into, per basis.
FOLDED = {
    "wave-bradyon": lambda rep: gamma_set(rep).wave[True],
    "wave-tachyonic": lambda rep: gamma_set(rep).wave[False],
    "hamiltonian-bradyon": lambda rep: gamma_set(rep).hamiltonian[True],
    "hamiltonian-tachyonic": lambda rep: gamma_set(rep).hamiltonian[False],
    "boost": lambda rep: gamma_set(rep).boost,
    "generator": lambda rep: gamma_set(rep).generator,
}
# zeros of both signs, subnormals, and magnitudes whose sums overflow
EDGE_COEFFS = (0.0, -0.0, 5e-324, 1e-310, 1e300, -1e300, 1.7e308, -1.7e308)


def stack_of(rep, name):
    return getattr(gamma_set(rep), name) if name in STACKS else FOLDED[name](rep)


@pytest.mark.parametrize("name", STACKS + tuple(FOLDED))
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_contract_equals_einsum_bit_for_bit(rep, name):
    stack = stack_of(rep, name)
    rng = np.random.default_rng(23)
    k = len(stack)
    coeffs = np.concatenate([
        rng.normal(size=(2000, k)) * 10.0 ** rng.uniform(-6, 6, size=(2000, 1)),
        rng.choice(EDGE_COEFFS, size=(2000, k))])
    with np.errstate(over="ignore"):
        got = contract(coeffs, stack)
        expected = np.einsum("...a,aij->...ij", coeffs, stack)
    assert got.shape == (4000, 4, 4)
    assert got.tobytes() == expected.tobytes()
    assert contract(coeffs[:2000].reshape(40, 50, -1), stack).shape == (40, 50, 4, 4)


def test_an_overflowing_real_sum_keeps_its_imaginary_part():
    """The real part of one entry overflows; the imaginary part stays 0, as
    in the definition, not inf - inf = nan."""
    with np.errstate(over="ignore"):
        m = contract([[1.7e308, 0, 0, -1.7e308]], gamma_set(Representation.WEYL).gammas)
    assert m[0, 0, 2] == complex(np.inf, 0.0)
    assert not np.isnan(m.view(float)).any()


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_sigma_pairs_definition(rep):
    """Row i is sigma_{mu nu} = (i/2)[gamma_mu, gamma_nu] = i gamma_mu gamma_nu
    of the i-th pair (mu, nu), mu < nu, since distinct gammas anticommute."""
    gs = gamma_set(rep)
    assert gs.sigma_pairs.shape == (6, 4, 4)
    for i, (mu, nu) in enumerate(PAIRS):
        expected = 1j * (METRIC[mu, mu] * gs.gammas[mu]) @ (METRIC[nu, nu] * gs.gammas[nu])
        assert np.linalg.norm(gs.sigma_pairs[i] - expected) == 0.0, (mu, nu)


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_bilinear_stack_definition(rep):
    """Rows 0-3 are gamma^0 gamma^mu, the first of them 1 and the next three
    alpha, and rows 4-7 are gamma^0 gamma^mu gamma^5."""
    gs = gamma_set(rep)
    assert gs.bilinear_stack.shape == (8, 4, 4)
    assert np.array_equal(gs.bilinear_stack[0], np.eye(4))
    assert np.array_equal(gs.bilinear_stack[1:4], gs.alpha)
    for mu in range(4):
        g0_g = gs.gammas[0] @ gs.gammas[mu]
        assert np.linalg.norm(gs.bilinear_stack[mu] - g0_g) == 0.0, mu
        assert np.linalg.norm(gs.bilinear_stack[4 + mu] - g0_g @ gs.gamma5) == 0.0, mu


def test_gamma_set_rejects_attribute_assignment():
    gs = gamma_set(Representation.STANDARD)
    with pytest.raises(AttributeError):
        gs.gammas = gs.alpha


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_sigma_pairs_commute_with_gamma5(rep):
    gs = gamma_set(rep)
    for i, s in enumerate(gs.sigma_pairs):
        c = s @ gs.gamma5 - gs.gamma5 @ s
        assert np.linalg.norm(c) <= 1e-14, PAIRS[i]



@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_sigma_pairs_are_self_adjoint_under_the_dirac_bar(rep):
    """gamma^0 sigma_{mu nu}^dag gamma^0 = sigma_{mu nu}, which makes
    psi-bar sigma_{mu nu} psi real; the three sigma_{0i} are anti-Hermitian
    and the three sigma_{ij} Hermitian."""
    gs = gamma_set(rep)
    g0 = gs.gammas[0]
    for (mu, nu), s in zip(PAIRS, gs.sigma_pairs):
        assert np.linalg.norm(g0 @ dagger(s) @ g0 - s) == 0.0, (mu, nu)
        assert np.linalg.norm(dagger(s) - (-s if mu == 0 else s)) == 0.0, (mu, nu)

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


def test_representation_change_is_built_once_and_read_only():
    w = representation_change()
    assert representation_change() is w
    assert not w.flags.writeable
    expected = np.block([[I2, I2], [I2, -I2]]) / np.sqrt(2.0)
    assert w.dtype == complex and w.tobytes() == expected.astype(complex).tobytes()


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


@pytest.mark.parametrize("rep", list(Representation))
def test_dagger_of_a_stack_is_the_dagger_of_each_matrix(rep, rng):
    gs = gamma_set(rep)
    for stack in (gs.gammas, gs.sigma_pairs, gs.wave[0]):
        for i, m in enumerate(stack):
            assert np.array_equal(dagger(stack)[i], dagger(m))
    a = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    assert np.array_equal(dagger(a)[1, 2], a[1, 2].conj().T)


@pytest.mark.parametrize("shape", [(4,), (7, 4), (2, 3, 4), (5, 4, 4), (2, 3, 4, 4)])
def test_norm_is_numpy_norm_bit_for_bit(shape, rng):
    for scale in (1.0, 1e-160, 1e150):
        x = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for a in (x, x.real):
            assert np.array_equal(_norm(a), np.linalg.norm(a, axis=-1))
            if a.ndim >= 2:
                assert np.array_equal(_norm(a, axis=(-2, -1)), np.linalg.norm(a, axis=(-2, -1)))


def test_rows_act_on_each_row(std, rng):
    w = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    ops = std.gammas[np.arange(6) % 4]
    assert np.array_equal(_rows(std.gamma5, w), np.array([std.gamma5 @ v for v in w]))
    assert np.array_equal(_rows(ops, w), np.array([op @ v for op, v in zip(ops, w)]))


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
