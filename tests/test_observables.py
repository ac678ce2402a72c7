import numpy as np
import pytest

from ptdirac.clifford import Representation, dagger, gamma_set
from ptdirac.kinematics import FourVector, Species, minkowski_dot
from ptdirac.observables import (
    MasslessSpecies,
    energy_eigencheck,
    expectation_report,
    four_vector_closed_forms,
    hamiltonian,
    mean_four_velocity,
    mean_spin_four_vector,
    mean_velocity,
    mean_velocity_closed_form,
)
from ptdirac.spinors import PlaneWaveSpec, amplitude

STD = Representation.STANDARD
WEYL = Representation.WEYL

PT_SPEC = PlaneWaveSpec(Species.PSEUDOTACHYON, 1, (0, 0, 5.0), 3.0, 1, STD)
BR_SPEC = PlaneWaveSpec(Species.BRADYON, 1, (0, 0, 4.0), 3.0, 1, STD)


def random_massive_spec(rng, i):
    species = [Species.PSEUDOTACHYON, Species.BRADYON][i % 2]
    sign = [1, -1][(i // 2) % 2]
    lam = [1, -1][(i // 4) % 2]
    rep = [STD, WEYL][(i // 8) % 2]
    m = rng.uniform(0.2, 2.0)
    if species is Species.PSEUDOTACHYON:
        k = m * rng.uniform(1.001, 8.0)
    else:
        k = m * rng.uniform(0.05, 8.0)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return PlaneWaveSpec(species, sign, tuple(k * n), m, lam, rep)


# ------------------------------------------------------------------ hamiltonian

def test_pt_hamiltonian_squares_to_shell_energy():
    h = hamiltonian(Species.PSEUDOTACHYON, (0, 0, 5.0), 3.0, STD)
    assert np.linalg.norm(h @ h - 16.0 * np.eye(4)) <= 1e-13


def test_bradyon_hamiltonian_squares_to_shell_energy():
    h = hamiltonian(Species.BRADYON, (0, 0, 5.0), 3.0, STD)
    assert np.linalg.norm(h @ h - 34.0 * np.eye(4)) <= 1e-13


@pytest.mark.parametrize("rep", [STD, WEYL])
@pytest.mark.parametrize("species", [Species.PSEUDOTACHYON, Species.BRADYON])
def test_hamiltonian_commutes_with_helicity(species, rep):
    gs = gamma_set(rep)
    p = np.array([1.0, -2.0, 2.0])
    h = hamiltonian(species, p, 1.5, rep)
    lam_op = sum(p[i] * gs.sigma_spin[i] for i in range(3)) / np.linalg.norm(p)
    assert np.linalg.norm(h @ lam_op - lam_op @ h) <= 1e-13


def test_bradyon_hamiltonian_hermitian():
    h = hamiltonian(Species.BRADYON, (1.0, 2.0, -0.5), 1.2, STD)
    assert np.linalg.norm(h - dagger(h)) == 0.0


def test_pt_hamiltonian_pseudo_hermitian():
    """The tachyonic mass term is anti-hermitian; gamma^5 restores the adjoint."""
    g5 = gamma_set(STD).gamma5
    h = hamiltonian(Species.PSEUDOTACHYON, (1.0, 2.0, -0.5), 1.2, STD)
    assert np.linalg.norm(h - dagger(h)) > 1.0
    assert np.linalg.norm(g5 @ h @ g5 - dagger(h)) <= 1e-14


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("spec", [PT_SPEC, BR_SPEC])
def test_energy_eigencheck(spec, sign):
    from dataclasses import replace
    spec = replace(spec, energy_sign=sign)
    assert energy_eigencheck(spec) <= 1e-12
    # an amplitude given as a plain list is checked alike
    assert energy_eigencheck(spec, amplitude(spec).tolist()) == energy_eigencheck(spec)


# ---------------------------------------------------------------- mean velocity

def test_pt_mean_velocity_spot():
    assert np.linalg.norm(mean_velocity(PT_SPEC) - [0, 0, 0.8]) <= 1e-13


def test_bradyon_mean_velocity_spot():
    assert np.linalg.norm(mean_velocity(BR_SPEC) - [0, 0, 0.8]) <= 1e-13


def test_transcendent_mean_velocity_vanishes():
    spec = PlaneWaveSpec(Species.PSEUDOTACHYON, 1, (0, 0, 3.0), 3.0, 1, STD)
    assert np.linalg.norm(mean_velocity(spec)) <= 1e-14


def test_mean_velocity_same_for_both_energy_signs():
    from dataclasses import replace
    for spec in (PT_SPEC, BR_SPEC):
        v_pos = mean_velocity(spec)
        v_neg = mean_velocity(replace(spec, energy_sign=-1))
        assert np.linalg.norm(v_pos - v_neg) <= 1e-13


def test_velocity_duality_random(rng):
    """|<v>| k / eps = 1 and |<v>| < 1 for momentum above the mass."""
    for i in range(1000):
        m = rng.uniform(0.2, 2.0)
        k = m * rng.uniform(1.001, 8.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = PlaneWaveSpec(Species.PSEUDOTACHYON, [1, -1][i % 2], tuple(k * n),
                             m, [1, -1][(i // 2) % 2], STD)
        speed = np.linalg.norm(mean_velocity(spec))
        assert abs(speed * spec.k / spec.epsilon - 1.0) <= 1e-12
        assert speed < 1.0


# --------------------------------------------------------- four-vector bilinears

def test_pt_mean_four_velocity_spot():
    vbar = mean_four_velocity(PT_SPEC).as_array()
    assert np.allclose(vbar, [5 / 3, 0, 0, 4 / 3], atol=1e-13)
    assert abs(minkowski_dot(vbar, vbar) - 1.0) <= 1e-13


def test_bradyon_mean_four_velocity_spot():
    vbar = mean_four_velocity(BR_SPEC)
    assert np.allclose(vbar.as_array(), [5 / 3, 0, 0, 4 / 3], atol=1e-13)


def test_transcendent_mean_four_velocity():
    spec = PlaneWaveSpec(Species.PSEUDOTACHYON, 1, (0, 0, 3.0), 3.0, 1, STD)
    assert np.allclose(mean_four_velocity(spec).as_array(), [1, 0, 0, 0], atol=1e-14)


def test_pt_mean_spin_spot():
    sbar = mean_spin_four_vector(PT_SPEC).as_array()
    assert np.allclose(sbar, [4 / 3, 0, 0, 5 / 3], atol=1e-13)
    assert abs(minkowski_dot(sbar, sbar) + 1.0) <= 1e-13


def test_negative_energy_spin_flips():
    from dataclasses import replace
    sbar = mean_spin_four_vector(replace(PT_SPEC, energy_sign=-1))
    assert np.allclose(sbar.as_array(), [-4 / 3, 0, 0, -5 / 3], atol=1e-13)


def test_bradyon_spin_spot_negative_helicity():
    from dataclasses import replace
    sbar = mean_spin_four_vector(replace(BR_SPEC, helicity=-1))
    assert np.allclose(sbar.as_array(), [-4 / 3, 0, 0, -5 / 3], atol=1e-13)


def test_quiet_frame_spin():
    """At the transcendent point the polarization is purely spatial and unit."""
    spec = PlaneWaveSpec(Species.PSEUDOTACHYON, 1, (0, 0, 3.0), 3.0, 1, STD)
    sbar = mean_spin_four_vector(spec).as_array()
    assert abs(sbar[0]) <= 1e-14
    assert abs(np.linalg.norm(sbar[1:]) - 1.0) <= 1e-13


def test_massless_species_rejected():
    spec = PlaneWaveSpec(Species.LUXON, 1, (0, 0, 2.0), 0.0, 1, STD)
    with pytest.raises(MasslessSpecies):
        mean_four_velocity(spec)
    with pytest.raises(MasslessSpecies):
        mean_spin_four_vector(spec)
    with pytest.raises(MasslessSpecies):
        expectation_report(spec)


def test_bilinears_match_closed_forms_random(rng):
    """Brute-force bilinears agree with the closed forms for all labels."""
    for i in range(400):
        spec = random_massive_spec(rng, i)
        assert np.max(np.abs(mean_velocity(spec)
                             - mean_velocity_closed_form(spec))) <= 1e-11
        vbar = mean_four_velocity(spec).as_array()
        sbar = mean_spin_four_vector(spec).as_array()
        vbar_closed, sbar_closed = four_vector_closed_forms(spec)
        assert np.max(np.abs(vbar - vbar_closed)) <= 1e-11
        assert np.max(np.abs(sbar - sbar_closed)) <= 1e-11
        assert abs(minkowski_dot(vbar, vbar) - 1.0) <= 1e-11
        assert abs(minkowski_dot(sbar, sbar) + 1.0) <= 1e-11


# -------------------------------------------------------------------- constraints

def test_pt_constraint_labels_and_values():
    res = expectation_report(PT_SPEC).constraint_residuals
    assert set(res) == {"p2_plus_m2", "p_dot_v", "p_dot_s_plus_m_lambda"}
    assert all(abs(v) <= 1e-11 for v in res.values())


def test_bradyon_constraint_labels_and_values():
    from dataclasses import replace
    res = expectation_report(replace(BR_SPEC, helicity=-1)).constraint_residuals
    assert set(res) == {"p2_minus_m2", "p_dot_v_minus_m", "p_dot_s"}
    assert all(abs(v) <= 1e-11 for v in res.values())


def test_constraints_random_specs(rng):
    for i in range(400):
        spec = random_massive_spec(rng, i)
        res = expectation_report(spec).constraint_residuals
        assert max(abs(v) for v in res.values()) <= 1e-11


def test_pt_momentum_velocity_orthogonality(rng):
    """p.vbar = 0 for every tachyonic spec, as for massless spinning particles."""
    for i in range(100):
        spec = random_massive_spec(rng, 2 * i)  # even i -> pseudotachyon
        assert spec.species is Species.PSEUDOTACHYON
        vbar = mean_four_velocity(spec).as_array()
        assert abs(minkowski_dot(spec.four_momentum, vbar)) <= 1e-11


def test_expectation_report_bundle():
    report = expectation_report(PT_SPEC)
    assert np.allclose(report.mean_velocity, (0, 0, 0.8), atol=1e-13)
    assert isinstance(report.mean_four_velocity, FourVector)
    assert set(report.constraint_residuals) == {
        "p2_plus_m2", "p_dot_v", "p_dot_s_plus_m_lambda"}


def test_expectation_report_rejects_attribute_assignment():
    report = expectation_report(PT_SPEC)
    with pytest.raises(AttributeError):
        report.mean_velocity = (0.0, 0.0, 0.0)


def test_four_vector_closed_forms_at_tiny_momentum():
    """dual(p) takes |p| by a scaled norm, so |p| = 1e-300 no longer
    underflows to zero and raises ZeroMomentum."""
    spec = PlaneWaveSpec(Species.BRADYON, 1, (1e-300, 0.0, 0.0), 1e-300, 1, STD)
    vbar, sbar = four_vector_closed_forms(spec)
    r2 = np.sqrt(2.0)
    assert np.allclose(vbar, [r2, 1.0, 0.0, 0.0], rtol=1e-15, atol=0.0)
    assert np.allclose(sbar, [1.0, r2, 0.0, 0.0], rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("species", ["bradyon", "pseudotachyon", None])
def test_hamiltonian_rejects_a_species_outside_the_enum(species):
    """hamiltonian("bradyon", ...) must not return the pseudotachyon one."""
    with pytest.raises(ValueError, match=f"species must be a Species, got {species!r}"):
        hamiltonian(species, (0, 0, 1.0), 2.0)
    with pytest.raises(ValueError, match=f"species must be a Species, got {species!r}"):
        hamiltonian(species, [(0, 0, 1.0), (0, 1.0, 0)], [2.0, 3.0], WEYL)
