"""The Clifford operator builders: one real `contract` each, bit for bit
equal to the complex formulas they replace, on every stack and call shape
the package uses."""
from types import SimpleNamespace

import numpy as np
import pytest

from ptdirac import cli, clifford, observables, spinors, symmetries, verify
from ptdirac.clifford import Representation, contract, gamma_set, slash
from ptdirac.kinematics import Species, _cosh_sinh, _unit_axis
from test_clifford import FOLDED, stack_of

REPS = list(Representation)
SPECIES = list(Species)


def contracted_stacks():
    """Every stack the package passes to `contract`, by name."""
    names = ("gammas", "alpha", "sigma_spin", "sigma_pairs") + tuple(FOLDED)
    return [(f"{name}-{rep.value}", stack_of(rep, name)) for rep in REPS for name in names]


def assert_exact_stack(stack):
    """Real and imaginary entries in {0, +-1}, at most two nonzero terms per
    output entry and part: every product is exact and every sum rounds once,
    whatever order a BLAS kernel adds in, with or without fused multiply-add."""
    assert stack.dtype == complex and stack.shape[1:] == (4, 4)
    parts = stack.reshape(len(stack), 16).view(float)
    assert np.isin(parts, (0.0, 1.0, -1.0)).all()
    assert np.count_nonzero(parts, axis=0).max() <= 2
    assert not stack.flags.writeable


@pytest.mark.parametrize("name,stack", contracted_stacks(),
                         ids=[name for name, _ in contracted_stacks()])
def test_every_contracted_stack_meets_the_exactness_precondition(name, stack):
    assert_exact_stack(stack)


def gamma_set_members():
    """id -> array of every stack held by a `GammaSet`, tuple members included."""
    members = {}
    for rep in REPS:
        for field in gamma_set(rep):
            for stack in field if isinstance(field, tuple) else (field,):
                if isinstance(stack, np.ndarray):
                    members[id(stack)] = stack
    return members


def one_state_runs():
    """The one-state path: `cli.main` spinor, expect and every transform for
    a pseudotachyon and a bradyon in both bases, then direct calls of the
    hamiltonian and the Lorentz generator."""
    for species in ("pt", "bradyon"):
        for rep in ("standard", "weyl"):
            spec = ["--species", species, "--momentum", "0.6,0,0.8", "--mass", "0.5",
                    "--rep", rep]
            runs = [["spinor"], ["expect"]] + [["transform", "--op", op] for op in "PCTI"]
            runs.append(["transform", "--op", "boost", "--rapidity", "0.7"])
            for run in runs:
                assert cli.main(run + spec) == cli.EXIT_OK
    for rep in REPS:
        for species in SPECIES:
            observables.hamiltonian(species, (0.6, 0.0, 0.8), 0.5, rep)
        d = np.zeros((4, 4))
        d[0, 1], d[1, 0] = 1e-3, -1e-3
        symmetries.lorentz_generator(d, rep)


def assert_contract_sees_only_gamma_set_members(monkeypatch, run):
    """No module builds a contracted stack of its own: every stack that
    `contract` receives during ``run()`` is a `GammaSet` field, by identity,
    so it meets the exactness precondition."""
    seen = {}

    def spy(coeffs, stack):
        seen[id(stack)] = stack
        return contract(coeffs, stack)

    # verify calls clifford.contract; the builders call the name they imported
    for module in (clifford, spinors, observables, symmetries):
        monkeypatch.setattr(module, "contract", spy)
    run()
    members = gamma_set_members()
    assert len(seen) >= 10
    for key, stack in seen.items():
        assert members.get(key) is stack, f"a stack {stack.shape} outside gamma_set"
        assert_exact_stack(stack)


def test_the_stacks_seen_by_contract_in_a_verify_run_meet_the_precondition(monkeypatch):
    def run():
        assert verify.run_all(3, 40, 1e-12).passed

    assert_contract_sees_only_gamma_set_members(monkeypatch, run)


def test_the_stacks_seen_by_contract_on_the_one_state_path_meet_the_precondition(monkeypatch):
    assert_contract_sees_only_gamma_set_members(monkeypatch, one_state_runs)


def test_folded_stacks_are_cached_per_basis_and_family():
    for rep in REPS:
        for name in FOLDED:
            assert stack_of(rep, name) is stack_of(rep, name)


def test_contract_rejects_complex_coefficients():
    with pytest.raises(TypeError, match="real coefficients"):
        contract(np.array([1.0, 0.0, 0.0, 1j]), gamma_set(Representation.STANDARD).gammas)


# --------------------------------------------- the formulas the builders replace

def old_wave_operator(spec, p4, signed_mass):
    gs = gamma_set(spec.rep)
    unit = np.eye(4) if spec.species is Species.BRADYON else gs.gamma5
    return slash(gs, p4) - np.asarray(signed_mass)[..., None, None] * unit


def old_hamiltonian(species, p, m, rep):
    gs = gamma_set(rep)
    term = gs.gammas[0] if species is Species.BRADYON else gs.alpha5
    return contract(np.asarray(p, dtype=float), gs.alpha) \
        + np.asarray(m, dtype=float)[..., None, None] * term


def old_boost(axis, zeta, rep):
    n = _unit_axis(axis)
    ch, sh = _cosh_sinh(np.asarray(zeta, dtype=float) / 2.0)
    return (ch[..., None, None] * np.eye(4)
            - sh[..., None, None] * contract(n, gamma_set(rep).alpha))


def old_generator(d, rep):
    upper = np.stack([d[..., mu, nu] for mu, nu in clifford.PAIRS], axis=-1)
    return np.eye(4) - 0.5j * contract(upper, gamma_set(rep).sigma_pairs)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def scaled(rng, shape, lo=-6, hi=6):
    """Normal draws at log-uniform scales 10^lo..10^hi, one scale per entry."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(lo, hi, size=shape)


N = 64


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.value)
@pytest.mark.parametrize("species", SPECIES, ids=lambda s: s.value)
def test_wave_operator_equals_slash_minus_mass_term(species, rep):
    rng = np.random.default_rng(11)
    spec = SimpleNamespace(species=species, rep=rep)
    shapes = [((4,), ()), ((N, 4), (N,)), ((N, 2, 4), (N, 2))]
    for p_shape, m_shape in shapes:
        p4, sm = scaled(rng, p_shape), scaled(rng, m_shape)
        assert_same_bits(spinors.wave_operator(spec, p4, sm), old_wave_operator(spec, p4, sm))
    p4, sm = np.array([2.0, 0.0, -0.0, 1.5]), 0.75
    assert_same_bits(spinors.wave_operator(spec, p4, sm), old_wave_operator(spec, p4, sm))
    # the signed mass broadcasts against the leading axes of the four-vectors
    p4 = scaled(rng, (N, 4))
    assert_same_bits(spinors.wave_operator(spec, p4, 1.25), old_wave_operator(spec, p4, 1.25))


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.value)
@pytest.mark.parametrize("species", SPECIES, ids=lambda s: s.value)
def test_hamiltonian_equals_alpha_p_plus_mass_term(species, rep):
    rng = np.random.default_rng(12)
    for p_shape, m_shape in [((3,), ()), ((N, 3), (N,))]:
        p, m = scaled(rng, p_shape), np.abs(scaled(rng, m_shape))
        assert_same_bits(observables.hamiltonian(species, p, m, rep),
                         old_hamiltonian(species, p, m, rep))
    p = (0.0, 0.0, 5.0)
    assert_same_bits(observables.hamiltonian(species, p, 3.0, rep),
                     old_hamiltonian(species, p, 3.0, rep))


def unit_axes(rng, n):
    a = rng.normal(size=(n, 3))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.value)
def test_boost_spinor_equals_cosh_minus_sinh_alpha_n(rep):
    rng = np.random.default_rng(13)
    n = unit_axes(rng, N)
    cases = [(n[0], 0.7), (n, rng.uniform(-3, 3, N)), (n, rng.uniform(-3, 3, (3, N))),
             (n[0], rng.uniform(-700, 700, 5)), (n, rng.uniform(-700, 700, N))]
    for axis, zeta in cases:
        assert_same_bits(symmetries.lorentz_boost_spinor(axis, zeta, rep),
                         old_boost(axis, zeta, rep))


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.value)
def test_generator_equals_identity_minus_half_i_sigma_omega(rep):
    rng = np.random.default_rng(14)
    for shape in [(4, 4), (N, 4, 4)]:
        for a in (scaled(rng, shape, -6, -1), scaled(rng, shape, -310, -300)):
            d = a - np.swapaxes(a, -1, -2)
            assert_same_bits(symmetries.lorentz_generator(d, rep), old_generator(d, rep))
        # half of +-5e-324 rounds to a zero of its sign, where the old
        # subtraction from the identity gave +0: equal up to the sign of zero
        a = rng.choice((0.0, -0.0, 5e-324, -5e-324, 1e-310), size=shape)
        d = a - np.swapaxes(a, -1, -2)
        assert_same_bits(symmetries.lorentz_generator(d, rep) + 0.0, old_generator(d, rep) + 0.0)
