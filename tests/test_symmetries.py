import math
import re
import warnings

import numpy as np
import pytest

from ptdirac import verify
from ptdirac.clifford import Representation, dagger, gamma_set
from ptdirac.kinematics import FourVector, Species, boost
from ptdirac.spinors import PlaneWaveSpec, amplitude
from ptdirac.symmetries import (
    DiscreteKind,
    apply_boost,
    apply_discrete,
    discrete_operator,
    first_order_covariance_residual,
    lorentz_boost_spinor,
    lorentz_generator,
    pct_phase,
    pct_product,
)

STD = Representation.STANDARD
WEYL = Representation.WEYL

PT_SPEC = PlaneWaveSpec(Species.PSEUDOTACHYON, 1, (0, 0, 5.0), 3.0, 1, STD)


def test_operator_matrices_standard(std):
    g = std.gammas
    g5 = std.gamma5
    pt, brad = Species.PSEUDOTACHYON, Species.BRADYON
    cases = {
        (DiscreteKind.PARITY, pt): g[0] @ g5,
        (DiscreteKind.PARITY, brad): g[0],
        (DiscreteKind.CHARGE_CONJUGATION, pt): 1j * g[2] @ g5,
        (DiscreteKind.CHARGE_CONJUGATION, brad): 1j * g[2],
        (DiscreteKind.TIME_INVERSION, pt): 1j * g[1] @ g[3],
        (DiscreteKind.TIME_INVERSION, brad): 1j * g[1] @ g[3],
        (DiscreteKind.FOUR_INVERSION, pt): 1j * g5,
        (DiscreteKind.FOUR_INVERSION, brad): 1j * g5,
    }
    for (kind, species), expected in cases.items():
        assert np.array_equal(discrete_operator(kind, species, STD), expected), (kind, species)


@pytest.mark.parametrize("rep", [STD, WEYL])
def test_discrete_operators_are_rows_of_the_gamma_set_table(rep):
    table = gamma_set(rep).discrete
    for species in Species:
        stack = table[species is Species.BRADYON]
        for i, kind in enumerate(DiscreteKind):
            u = discrete_operator(kind, species, rep)
            assert u.tobytes() == stack[i].tobytes(), (kind, species)
            assert not u.flags.writeable
    for stack in table:
        assert stack.shape == (4, 4, 4)
        assert not stack.flags.writeable
        # monomial: one nonzero per row and column, each +-1 or +-i, so the
        # padded matmul of `symmetries._images` is exact under every BLAS kernel
        nonzero = stack != 0
        assert (nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=2) == 1).all()
        assert set(stack[nonzero].tolist()) <= {1, -1, 1j, -1j}
    for kind in ("P", "parity", None, 0):
        with pytest.raises(ValueError, match=rf"kind must be a DiscreteKind, got {kind!r}"):
            discrete_operator(kind, Species.BRADYON, rep)


@pytest.mark.parametrize("kind", ["P", None])
def test_apply_discrete_rejects_a_kind_outside_the_enum_before_any_work(kind):
    spec = PlaneWaveSpec(Species.PSEUDOTACHYON, 1, (0.0, 0.0, 5.0), 3.0, 1)
    with pytest.raises(ValueError) as info:
        apply_discrete(kind, spec)
    assert type(info.value) is ValueError
    assert str(info.value) == f"kind must be a DiscreteKind, got {kind!r}"
    assert "_amplitude" not in spec.__dict__ and "_discrete_images" not in spec.__dict__


def test_conjugation_flags():
    for kind, expected in [(DiscreteKind.PARITY, False),
                           (DiscreteKind.CHARGE_CONJUGATION, True),
                           (DiscreteKind.TIME_INVERSION, True),
                           (DiscreteKind.FOUR_INVERSION, False)]:
        assert kind.antilinear is expected


@pytest.mark.parametrize("rep", [STD, WEYL])
def test_operators_unitary(rep):
    for species in Species:
        for kind in DiscreteKind:
            u = discrete_operator(kind, species, rep)
            assert np.linalg.norm(dagger(u) @ u - np.eye(4)) <= 1e-14


@pytest.mark.parametrize("rep", [STD, WEYL])
def test_luxons_take_the_pseudotachyon_operators(rep):
    """Luxon amplitudes are the m -> 0 limit of the pseudotachyon ones."""
    for kind in DiscreteKind:
        luxon = discrete_operator(kind, Species.LUXON, rep)
        assert np.array_equal(luxon, discrete_operator(kind, Species.PSEUDOTACHYON, rep)), kind
        assert not luxon.flags.writeable


def test_parity_transform_spot(std):
    transformed, residual = apply_discrete(DiscreteKind.PARITY, PT_SPEC)
    assert residual <= 1e-12
    expected = std.gammas[0] @ std.gamma5 @ amplitude(PT_SPEC)
    assert np.array_equal(transformed, expected)
    # parity flips the lower block of (sqrt8, 0, sqrt2, 0)
    assert np.allclose(transformed, [math.sqrt(2), 0, -math.sqrt(8), 0], atol=1e-14)


@pytest.mark.parametrize("kind", list(DiscreteKind))
@pytest.mark.parametrize("sign", [1, -1])
def test_discrete_residuals_pt(kind, sign):
    spec = PlaneWaveSpec(Species.PSEUDOTACHYON, sign, (0, 0, 5.0), 3.0, 1, STD)
    _, residual = apply_discrete(kind, spec)
    assert residual <= 1e-12


def test_discrete_residuals_random(rng):
    species_cycle = [Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON]
    for i in range(200):
        species = species_cycle[i % 3]
        rep = [STD, WEYL][i % 2]
        sign = [1, -1][(i // 2) % 2]
        lam = [1, -1][(i // 4) % 2]
        if species is Species.LUXON:
            m, k = 0.0, rng.uniform(0.1, 8.0)
        else:
            m = rng.uniform(0.2, 3.0)
            k = m * rng.uniform(1.0, 8.0) if species is Species.PSEUDOTACHYON \
                else m * rng.uniform(0.05, 8.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = PlaneWaveSpec(species, sign, tuple(k * n), m, lam, rep)
        for kind in DiscreteKind:
            _, residual = apply_discrete(kind, spec)
            assert residual <= 1e-12, (kind, spec)


def test_pct_equals_four_inversion_pt(std):
    prod = pct_product(Species.PSEUDOTACHYON, STD)
    assert np.linalg.norm(prod - 1j * std.gamma5) <= 1e-14


def test_pct_equals_four_inversion_pt_weyl(weyl):
    prod = pct_product(Species.PSEUDOTACHYON, WEYL)
    assert np.linalg.norm(prod - 1j * weyl.gamma5) <= 1e-14


def test_pct_product_unitary():
    for species in Species:
        prod = pct_product(species, STD)
        assert np.linalg.norm(dagger(prod) @ prod - np.eye(4)) <= 1e-14


def test_bradyonic_pct_phase_reported(std):
    """The bradyonic product is the 4-inversion times a measured phase."""
    phase = pct_phase(Species.BRADYON, STD)
    assert abs(abs(phase) - 1.0) <= 1e-14
    prod = pct_product(Species.BRADYON, STD)
    assert np.linalg.norm(prod - phase * 1j * std.gamma5) <= 1e-14


def test_pct_phase_pt_is_unity():
    assert abs(pct_phase(Species.PSEUDOTACHYON, STD) - 1.0) <= 1e-14


def test_parity_invariance_of_hamiltonians(rng):
    """U_P H(-p) U_P^dag = H(p): the energy is a space-inversion scalar."""
    from ptdirac.observables import hamiltonian
    for species in (Species.PSEUDOTACHYON, Species.BRADYON):
        u_p = discrete_operator(DiscreteKind.PARITY, species, STD)
        p = rng.normal(size=3)
        h_flip = hamiltonian(species, -p, 1.3, STD)
        h = hamiltonian(species, p, 1.3, STD)
        assert np.linalg.norm(u_p @ h_flip @ dagger(u_p) - h) <= 1e-13


# ------------------------------------------------------------------- Lorentz

def test_generator_at_zero_is_identity():
    assert np.array_equal(lorentz_generator(np.zeros((4, 4))), np.eye(4))


def test_generator_rejects_non_antisymmetric():
    bad = np.zeros((4, 4))
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        lorentz_generator(bad)


def test_generator_rejects_parameters_that_are_not_4x4():
    with pytest.raises(ValueError) as info:
        lorentz_generator(np.zeros((3, 3)))
    assert type(info.value) is ValueError
    assert str(info.value) == "generator parameters must form a 4x4 matrix"


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_generator_rejects_non_finite_parameters(bad):
    """NaN fails every comparison of the antisymmetry check, and a matrix full
    of inf passes it (inf <= inf), so finiteness is checked first."""
    one = np.zeros((4, 4))
    one[0, 1], one[1, 0] = bad, -bad
    stack = np.zeros((3, 4, 4))
    stack[2] = one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: lorentz_generator(np.full((4, 4), bad)),
                     lambda: lorentz_generator(one, WEYL),
                     lambda: lorentz_generator(stack),
                     lambda: first_order_covariance_residual(one)):
            with pytest.raises(ValueError, match="generator parameters must be finite"):
                call()


def test_generator_commutes_with_gamma5(rng):
    for rep in (STD, WEYL):
        gs = gamma_set(rep)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) * 1e-3
            s = lorentz_generator(a - a.T, rep)
            assert np.linalg.norm(s @ gs.gamma5 - gs.gamma5 @ s) <= 1e-14


def test_first_order_residual_quadratic_scaling(rng):
    """Halving the generator parameters divides the covariance defect by 4."""
    for _ in range(10):
        a = rng.normal(size=(4, 4)) * 1e-3
        dom = a - a.T
        r1 = first_order_covariance_residual(dom)
        r2 = first_order_covariance_residual(dom / 2.0)
        assert 0.9 * 4.0 <= r1 / r2 <= 1.1 * 4.0


def test_first_order_residual_bounded_by_quadratic(rng):
    for _ in range(20):
        a = rng.normal(size=(4, 4)) * 1e-3
        dom = a - a.T
        r = first_order_covariance_residual(dom)
        assert r <= 10.0 * np.linalg.norm(dom) ** 2


def test_boost_spinor_zero_rapidity():
    assert np.array_equal(lorentz_boost_spinor((0, 0, 1.0), 0.0), np.eye(4))


def test_boost_spinor_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        lorentz_boost_spinor((0, 0, 0.5), 1.0)


def test_boost_spinor_rejects_an_axis_that_is_not_a_3_vector():
    with pytest.raises(ValueError) as info:
        lorentz_boost_spinor([0.0, 1.0], 0.5)
    assert type(info.value) is ValueError and str(info.value) == "axis must be a 3-vector"


def test_nan_rapidity_is_named_by_every_boost():
    """A NaN rapidity used to give NaN maps and images silently, and a
    four-vector error about its energy from `boost`."""
    nan_rows = np.array([0.5, math.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: boost(FourVector(5.0, 0.0, 0.0, 3.0), (0, 0, 1.0), math.nan),
                     lambda: lorentz_boost_spinor((0, 0, 1.0), math.nan),
                     lambda: lorentz_boost_spinor(np.array([[0, 0, 1.0]] * 2), nan_rows, WEYL),
                     lambda: apply_boost(PT_SPEC, (0, 0, 1.0), math.nan)):
            with pytest.raises(ValueError, match="rapidity must be a number, got nan"):
                call()


def test_boost_spinor_composition_and_det():
    axis = np.array([2.0, -1.0, 2.0]) / 3.0
    s1 = lorentz_boost_spinor(axis, 0.4)
    s2 = lorentz_boost_spinor(axis, 0.9)
    s12 = lorentz_boost_spinor(axis, 1.3)
    assert np.linalg.norm(s1 @ s2 - s12) <= 1e-12
    assert abs(np.linalg.det(s12) - 1.0) <= 1e-12


def test_boost_spinor_commutes_with_gamma5():
    for rep in (STD, WEYL):
        gs = gamma_set(rep)
        s = lorentz_boost_spinor((0, 0, 1.0), 1.7, rep)
        assert np.linalg.norm(s @ gs.gamma5 - gs.gamma5 @ s) <= 1e-13


def test_boost_covariance_spot():
    _, residual = apply_boost(PT_SPEC, (0, 0, 1.0), 0.5)
    assert residual <= 1e-10


def test_boost_covariance_random(rng):
    species_cycle = [Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON]
    for i in range(200):
        species = species_cycle[i % 3]
        rep = [STD, WEYL][i % 2]
        sign = [1, -1][(i // 2) % 2]
        lam = [1, -1][(i // 4) % 2]
        if species is Species.LUXON:
            m, k = 0.0, rng.uniform(0.1, 6.0)
        else:
            m = rng.uniform(0.3, 3.0)
            k = m * rng.uniform(1.0, 6.0) if species is Species.PSEUDOTACHYON \
                else m * rng.uniform(0.1, 6.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = PlaneWaveSpec(species, sign, tuple(k * n), m, lam, rep)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        zeta = rng.uniform(-2.0, 2.0)
        _, residual = apply_boost(spec, axis, zeta)
        assert residual <= 1e-10


# ----------------------------------------------------------------- suite

def test_symmetry_checks_pass():
    checks = verify.symmetry_checks(seed=1, trials=100, tol=1e-10)
    assert all(c.passed for c in checks)
    assert {c.name for c in checks} >= {
        "symmetries.unitarity", "symmetries.intertwining",
        "symmetries.pct_product", "symmetries.boost_covariance"}


def test_symmetry_checks_deterministic():
    a = verify.symmetry_checks(seed=3, trials=50, tol=1e-10)
    b = verify.symmetry_checks(seed=3, trials=50, tol=1e-10)
    assert a == b


def test_symmetry_checks_reject_zero_trials():
    with pytest.raises(ValueError):
        verify.symmetry_checks(seed=1, trials=0, tol=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("species", ["bradyon", "pseudotachyon", None, 0])
def test_operators_reject_a_species_outside_the_enum(species):
    """A species given by name must not fall through to the tachyonic family."""
    bad = rf"species must be a Species, got {re.escape(repr(species))}"
    for kind in DiscreteKind:
        for rep in (STD, WEYL):
            with pytest.raises(ValueError, match=bad):
                discrete_operator(kind, species, rep)
    for call in (pct_product, pct_phase):
        with pytest.raises(ValueError, match=bad):
            call(species, STD)
    assert pct_phase(Species.BRADYON, STD) == pytest.approx(-1.0)


@pytest.mark.parametrize("rep", [["x"], {"standard"}, "standard", None, 0])
def test_operators_reject_a_basis_outside_the_enum(rep):
    """An unhashable basis gets the same error as any other unknown one."""
    bad = rf"unknown representation {re.escape(repr(rep))}"
    with pytest.raises(ValueError, match=bad):
        gamma_set(rep)
    with pytest.raises(ValueError, match=bad):
        discrete_operator(DiscreteKind.PARITY, Species.BRADYON, rep)
    with pytest.raises(ValueError, match=bad):
        lorentz_boost_spinor((0, 0, 1), 0.3, rep)
    for good in (STD, WEYL):
        assert gamma_set(good) is gamma_set(good)
        assert gamma_set(good).rep is good
