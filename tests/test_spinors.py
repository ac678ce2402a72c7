import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdirac.clifford import (PAULI, Representation, _norm, _rows, dagger, gamma_set,
                              representation_change)
from ptdirac.kinematics import (
    MassNotZero,
    NonPhysicalMomentum,
    Species,
    ZeroMomentum,
    energy_from_momentum,
)
from ptdirac.observables import expectation_report
from ptdirac.spinors import (
    PlaneWaveSpec,
    SpecGroup,
    amplitude,
    convert_representation,
    dirac_operator,
    group_amplitudes,
    helicity_spinor,
    normalization_factor,
    proportionality_defect,
    relative_residual,
    solution_residual,
)
from ptdirac.symmetries import DiscreteKind, apply_boost, apply_discrete

STD = Representation.STANDARD
WEYL = Representation.WEYL


def pt(sign=1, p=(0, 0, 5.0), m=3.0, lam=1, rep=STD):
    return PlaneWaveSpec(Species.PSEUDOTACHYON, sign, p, m, lam, rep)


def bradyon(sign=1, p=(0, 0, 4.0), m=3.0, lam=1, rep=STD):
    return PlaneWaveSpec(Species.BRADYON, sign, p, m, lam, rep)


def luxon(sign=1, p=(0, 0, 2.0), lam=1, rep=STD):
    return PlaneWaveSpec(Species.LUXON, sign, p, 0.0, lam, rep)


# ----------------------------------------------------------- helicity spinors

def test_helicity_spinor_z_axis():
    assert np.array_equal(helicity_spinor((0, 0, 1.0), 1), [1, 0])
    assert np.array_equal(helicity_spinor((0, 0, 1.0), -1), [0, 1])


def test_helicity_spinor_x_axis():
    expected = np.array([1.0, 1.0]) / math.sqrt(2)
    assert np.linalg.norm(helicity_spinor((1.0, 0, 0), 1) - expected) <= 1e-15


@pytest.mark.parametrize("direction", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                       (0.0, -math.inf, math.nan), (1.7e308, 1.7e308, 1.7e308)],
                         ids=["nan", "inf", "inf-nan", "norm-overflows"])
def test_helicity_spinor_rejects_a_direction_without_finite_norm(direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1, -1):
            with pytest.raises(ValueError, match="direction must have a finite norm"):
                helicity_spinor(direction, lam)


@pytest.mark.parametrize("direction,lam,message", [
    ((0, 0, 1), 0, "lam must be +1 or -1, got 0"),
    ((0, 1), 1, "direction must be a 3-vector"),
], ids=["label", "shape"])
def test_helicity_spinor_rejects_a_bad_label_or_shape(direction, lam, message):
    with pytest.raises(ValueError) as info:
        helicity_spinor(direction, lam)
    assert type(info.value) is ValueError and str(info.value) == message


def test_helicity_spinor_zero_direction_rejected():
    with pytest.raises(ZeroMomentum):
        helicity_spinor((0.0, 0.0, 0.0), 1)


@given(x=st.floats(-1, 1, allow_subnormal=False),
       y=st.floats(-1, 1, allow_subnormal=False),
       z=st.floats(-1, 1, allow_subnormal=False),
       lam=st.sampled_from([1, -1]))
@settings(max_examples=300, deadline=None)
def test_helicity_spinor_eigenvector_property(x, y, z, lam):
    n = np.array([x, y, z])
    norm = np.linalg.norm(n)
    if norm < 1e-3:
        return
    n = n / norm
    theta = helicity_spinor(n, lam)
    nsig = sum(n[i] * PAULI[i] for i in range(3))
    assert np.linalg.norm(nsig @ theta - lam * theta) <= 1e-14
    assert abs(np.vdot(theta, theta).real - 1.0) <= 1e-14


# ------------------------------------------------------------ spec validation

def test_spec_rejects_subshell_pt():
    from ptdirac.kinematics import NonPhysicalMomentum
    with pytest.raises(NonPhysicalMomentum):
        pt(p=(0, 0, 2.0), m=3.0)


def test_spec_rejects_massive_luxon():
    from ptdirac.kinematics import MassNotZero
    with pytest.raises(MassNotZero):
        PlaneWaveSpec(Species.LUXON, 1, (0, 0, 2.0), 0.5, 1, STD)


def test_spec_rejects_zero_momentum():
    with pytest.raises(ZeroMomentum):
        bradyon(p=(0.0, 0.0, 0.0))


def test_spec_rejects_bad_labels():
    with pytest.raises(ValueError):
        pt(sign=2)
    with pytest.raises(ValueError):
        pt(lam=0)


def test_helicity_eigenvalue_flips_for_negative_energy():
    assert pt(sign=1, lam=1).helicity_eigenvalue == 1
    assert pt(sign=-1, lam=1).helicity_eigenvalue == -1


# ----------------------------------------------------------- frozen amplitudes

def test_pt_positive_amplitude_spot():
    w = amplitude(pt())
    expected = [math.sqrt(8), 0, math.sqrt(2), 0]
    assert np.linalg.norm(w - expected) <= 1e-14
    assert abs(np.vdot(w, w).real - 10.0) <= 1e-13


def test_pt_negative_amplitude_spot():
    w = amplitude(pt(sign=-1))
    expected = [0, -math.sqrt(8), 0, math.sqrt(2)]
    assert np.linalg.norm(w - expected) <= 1e-14


def test_luxon_right_chiral_amplitude():
    w = amplitude(luxon())
    expected = math.sqrt(2) * np.array([1, 0, 1, 0])
    assert np.linalg.norm(w - expected) <= 1e-14


def test_transcendent_amplitudes():
    up = amplitude(pt(p=(0, 0, 3.0), m=3.0, lam=1))
    assert np.linalg.norm(up - [math.sqrt(6), 0, 0, 0]) <= 1e-14
    down = amplitude(pt(p=(0, 0, 3.0), m=3.0, lam=-1))
    # matches the lower-spinor form up to a global sign
    assert proportionality_defect(down, np.array([0, 0, 0, math.sqrt(6)])) <= 1e-14
    assert np.linalg.norm(down - [0, 0, 0, -math.sqrt(6)]) <= 1e-14


def test_bradyon_positive_amplitude_spot():
    w = amplitude(bradyon())
    expected = [math.sqrt(8), 0, math.sqrt(2), 0]
    assert np.linalg.norm(w - expected) <= 1e-14


def test_bradyon_rest_limit_lower_spinor_vanishes():
    """As |p| -> 0 the lower two-spinor of the positive-energy wave dies off."""
    m = 3.0
    for k in (1e-2, 1e-5, 1e-8):
        spec = bradyon(p=(0, 0, k), m=m)
        w = amplitude(spec)
        ratio = np.linalg.norm(w[2:]) / np.linalg.norm(w[:2])
        expected = k / (spec.epsilon + m)   # -> k/2m as k -> 0
        assert abs(ratio - expected) <= 1e-12 * expected
        assert ratio <= k


def test_pt_weyl_amplitude_spot():
    w = amplitude(pt(rep=WEYL))
    assert np.linalg.norm(w - [3.0, 0, 1.0, 0]) <= 1e-14
    assert abs(np.vdot(w, w).real - 10.0) <= 1e-13


def test_luxon_chiral_identities_standard():
    """gamma^5 eigenstates; u/v amplitudes coincide entrywise at m = 0."""
    g5 = gamma_set(STD).gamma5
    for p in [(0, 0, 2.0), (1.2, -0.4, 0.9)]:
        w_r = amplitude(luxon(p=p, lam=1))
        w_l = amplitude(luxon(p=p, lam=-1))
        assert np.linalg.norm(g5 @ w_r - w_r) <= 1e-14
        assert np.linalg.norm(g5 @ w_l + w_l) <= 1e-14
        assert np.linalg.norm(w_r - amplitude(luxon(sign=-1, p=p, lam=-1))) <= 1e-14
        assert np.linalg.norm(w_l + amplitude(luxon(sign=-1, p=p, lam=1))) <= 1e-14


# --------------------------------------------------------------- Dirac residual

@pytest.mark.parametrize("rep", [STD, WEYL])
@pytest.mark.parametrize("sign", [1, -1])
def test_pt_operator_annihilates_amplitude(rep, sign):
    spec = pt(sign=sign, rep=rep)
    assert solution_residual(spec) <= 1e-12


def test_random_bispinor_is_not_a_solution(rng):
    d = dirac_operator(pt())
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(d @ v) > 0.1


def test_solution_property_random_specs(rng):
    """Random shells across every species, sign, helicity, and basis."""
    worst = 0.0
    for i in range(300):
        species = [Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON][i % 3]
        rep = [STD, WEYL][i % 2]
        sign = [1, -1][(i // 2) % 2]
        lam = [1, -1][(i // 4) % 2]
        if species is Species.LUXON:
            m, k = 0.0, rng.uniform(0.05, 10.0)
        elif species is Species.PSEUDOTACHYON:
            m = rng.uniform(0.2, 3.0)
            k = m if i % 25 == 0 else m * rng.uniform(1.0, 10.0)
        else:
            m = rng.uniform(0.2, 3.0)
            k = m * rng.uniform(0.02, 10.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = PlaneWaveSpec(species, sign, tuple(k * n), m, lam, rep)
        worst = max(worst, solution_residual(spec))
        assert abs(np.vdot(amplitude(spec), amplitude(spec)).real
                   - (2 * spec.epsilon if species is Species.BRADYON else 2 * spec.k)) <= 1e-11
    assert worst <= 1e-12


def test_helicity_operator_eigenvalues(std):
    for sign in (1, -1):
        for lam in (1, -1):
            spec = pt(sign=sign, lam=lam, p=(1.8, -2.4, 3.9), m=1.5)
            w = amplitude(spec)
            lam_op = sum(spec.momentum[i] * std.sigma_spin[i] for i in range(3)) / spec.k
            target = lam if sign == 1 else -lam
            assert np.linalg.norm(lam_op @ w - target * w) <= 1e-11


def test_adjoint_row_equation(std):
    spec = pt(p=(2.1, 0.5, -4.4), m=2.0)
    w = amplitude(spec)
    from ptdirac.clifford import slash
    wbar = w.conj() @ std.gammas[0]
    adj = slash(std, spec.four_momentum) + spec.mass * std.gamma5
    assert np.linalg.norm(wbar @ adj) / np.linalg.norm(w) <= 1e-11


def test_transcendent_decoupling(std):
    spec = pt(p=(2.0, 2.0, 1.0), m=3.0)  # |p| = 3 exactly
    assert spec.epsilon == 0.0
    w = amplitude(spec)
    psig = sum(spec.momentum[i] * PAULI[i] for i in range(3))
    phi, chi = w[:2], w[2:]
    assert np.linalg.norm((psig + 3.0 * np.eye(2)) @ chi) <= 1e-11
    assert np.linalg.norm((psig - 3.0 * np.eye(2)) @ phi) <= 1e-11


# ------------------------------------------- the general solution as a check

def _general_form(species, sign, p, m, two):
    """The paper's solution built from any two-spinor, in the standard basis:
    (two; L two) for u and (L two; two) for v, with the link
    L = (p.sigma - m)/eps for pseudotachyons and p.sigma/(eps + m) for
    bradyons.  Written from the formulas alone, as a check on the closed
    helicity amplitudes; it divides by eps, so not at the transcendent point."""
    p = np.asarray(p, dtype=float)
    eps = energy_from_momentum(species, math.hypot(*p), m)
    psig = sum(p[i] * PAULI[i] for i in range(3))
    if species is Species.BRADYON:
        linked = psig @ two / (eps + m)
    else:
        linked = (psig - m * np.eye(2)) @ two / eps
    return np.concatenate([two, linked] if sign == 1 else [linked, two])


def test_pt_amplitude_spot_is_the_general_form():
    """p = (0, 0, 5), m = 3: eps = 4 and L = diag(1/2, -2)."""
    two = np.array([1.0, 0.0])
    w = _general_form(Species.PSEUDOTACHYON, 1, (0, 0, 5.0), 3.0, two)
    assert np.linalg.norm(w - [1, 0, 0.5, 0]) <= 1e-14
    assert proportionality_defect(amplitude(pt()), w) <= 1e-14


def test_bradyon_amplitude_spot_is_the_general_form():
    """p = (0, 0, 4), m = 3: eps = 5 and L = diag(1/2, -1/2)."""
    two = np.array([1.0, 0.0])
    w = _general_form(Species.BRADYON, 1, (0, 0, 4.0), 3.0, two)
    assert np.linalg.norm(w - [1, 0, 0.5, 0]) <= 1e-14
    assert proportionality_defect(amplitude(bradyon()), w) <= 1e-14


@pytest.mark.parametrize("rep", [STD, WEYL])
@pytest.mark.parametrize("species,p,m", [
    (Species.PSEUDOTACHYON, (1.5, -2.0, 4.0), 2.0),
    (Species.BRADYON, (0.5, 1.0, -2.0), 1.3),
])
def test_general_form_solves_equation_and_matches_helicity(rep, species, p, m):
    """Fed the helicity spinor, the general form is the closed amplitude as a
    ray, in either basis (the Weyl one through the representation change)."""
    to_rep = np.eye(4) if rep is STD else dagger(representation_change())
    for sign in (1, -1):
        for lam in (1, -1):
            spec = PlaneWaveSpec(species, sign, p, m, lam, rep)
            theta = helicity_spinor(p, spec.helicity_eigenvalue)
            w = to_rep @ _general_form(species, sign, p, m, theta)
            assert np.linalg.norm(dirac_operator(spec) @ w) / np.linalg.norm(w) <= 1e-12
            assert proportionality_defect(w, amplitude(spec)) <= 1e-12


@pytest.mark.parametrize("species,p,m", [
    (Species.PSEUDOTACHYON, (1e200, 0.0, 0.0), 1.0),
    (Species.BRADYON, (1e-300, 0.0, 0.0), 1e-300),
], ids=["1e200", "1e-300"])
def test_general_form_at_extreme_momenta(species, p, m):
    """The closed amplitude keeps the ray of the general form at |p| = 1e200
    and 1e-300, where k^2 overflows or underflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = _general_form(species, 1, p, m, helicity_spinor(p, 1))
        assert np.all(np.isfinite(w))
        assert proportionality_defect(w, amplitude(PlaneWaveSpec(species, 1, p, m, 1))) <= 1e-12


def _unit_directions():
    rng = np.random.default_rng(23)
    dirs = rng.normal(size=(4, 3))
    return [(1.0, 0.0, 0.0), (0.0, 0.0, -1.0), *(dirs / np.linalg.norm(dirs, axis=1)[:, None])]


@pytest.mark.parametrize("ratio", [1.0, 1.0 + 2**-40, 10.0, 1e5, 1e9, 1e50, 1e200])
@pytest.mark.parametrize("species", [Species.PSEUDOTACHYON, Species.BRADYON])
def test_weyl_amplitude_is_stable_at_large_k_over_m(species, ratio):
    """The chiral factors sqrt(k + eps) and m/sqrt(k + eps) leave out the
    cancelling sqrt(k - eps) (pseudotachyon) or sqrt(eps - k) (bradyon), which
    keeps no digits once k/m passes about 1e8.  So for every k/m, both
    helicities and both energy signs the Weyl amplitude is the ray of the
    standard one under the representation change; a factor taken through the
    difference would miss it by about 1e-8 at k/m = 1e9."""
    change = representation_change()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for direction, m in itertools.product(_unit_directions(), (1.0, 2.5)):
            p = tuple(ratio * m * c for c in direction)
            for sign, lam in itertools.product((1, -1), (1, -1)):
                w_weyl = amplitude(PlaneWaveSpec(species, sign, p, m, lam, WEYL))
                w_std = amplitude(PlaneWaveSpec(species, sign, p, m, lam, STD))
                assert np.all(np.isfinite(w_weyl))
                assert proportionality_defect(change @ w_weyl, w_std) <= 1e-12, (p, sign, lam)


# ---------------------------------------------------------------- normalization

# ------------------------------------------------------------ residuals

def test_relative_residual_with_an_eigenvalue_is_the_written_out_form(rng):
    """|op w - lambda w| / |w| bit for bit: one bispinor with one eigenvalue,
    and stacked rows with one eigenvalue per row, shape (n, 1)."""
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert relative_residual(op, w, -1.5) == _norm(_rows(op, w) - (-1.5) * w) / _norm(w)
    ops = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    ws = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    lam = rng.choice([-1.0, 1.0], size=(7, 1)) * rng.uniform(0.5, 2.0, size=(7, 1))
    want = _norm(_rows(ops, ws) - lam * ws) / _norm(ws)
    assert relative_residual(ops, ws, lam).tobytes() == want.tobytes()


def test_relative_residual_without_an_eigenvalue_subtracts_nothing(rng):
    """|op w| / |w|, the bytes of the form with no eigenvalue term, for the
    Dirac operators of a group and for one operator broadcast over rows."""
    g = SpecGroup.from_arrays(Species.PSEUDOTACHYON, WEYL, [1, -1, 1], [1, 1, -1],
                              [(0.0, 0.0, 5.0), (1.0, 2.0, 3.0), (3.0, 0.0, 0.0)],
                              [3.0, 1.5, 3.0], [0, 1, 2])
    w = group_amplitudes(g)
    assert solution_residual(g, w).tobytes() == (
        _norm(_rows(dirac_operator(g), w)) / _norm(w)).tobytes()
    ws = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    op = gamma_set(STD).gamma5
    assert relative_residual(op, ws).tobytes() == (_norm(_rows(op, ws)) / _norm(ws)).tobytes()


def test_normalization_factor_spots():
    assert abs(normalization_factor(pt()) - 1 / math.sqrt(10)) <= 1e-15
    assert abs(normalization_factor(bradyon(), volume=2.0) - 1 / math.sqrt(20)) <= 1e-15


def test_normalization_factor_transcendent_finite():
    spec = pt(p=(0, 0, 3.0), m=3.0)
    assert abs(normalization_factor(spec) - 1 / math.sqrt(6.0)) <= 1e-15


def test_normalization_identity():
    for spec in (pt(), bradyon(), luxon(), pt(rep=WEYL, sign=-1)):
        for vol in (0.5, 1.0, 7.25):
            n = normalization_factor(spec, volume=vol)
            w = amplitude(spec)
            assert abs(n * n * np.vdot(w, w).real * vol - 1.0) <= 1e-11


@pytest.mark.parametrize("volume", [0.0, -1.0, math.inf, math.nan, [1.0, 0.0]])
def test_normalization_volume_must_be_finite_and_positive(volume):
    g = SpecGroup.from_arrays(Species.BRADYON, STD, 1, 1, [(0, 0, 4.0), (0, 3.0, 0)],
                              [3.0, 1.0], [0, 1])
    with pytest.raises(ValueError, match="volume must be finite and positive"):
        normalization_factor(g, volume)


def test_normalization_takes_one_volume_or_one_per_spec():
    g = SpecGroup.from_arrays(Species.BRADYON, STD, 1, 1, [(0, 0, 4.0), (0, 3.0, 0)],
                              [3.0, 1.0], [0, 1])
    one = normalization_factor(g, 2.0)
    assert np.array_equal(normalization_factor(g, [2.0, 2.0]), one)
    assert np.array_equal(normalization_factor(g, [2.0, 8.0]), one * [1.0, 0.5])
    for spec, volume in [(bradyon(), [1.0, 4.0]), (bradyon(), [2.0]), (g, [1.0, 2.0, 3.0]),
                         (g, [[1.0, 2.0]])]:
        with pytest.raises(ValueError, match="volume must be one value or one per spec"):
            normalization_factor(spec, volume)


def test_normalization_factor_below_the_normal_range_is_a_range_error():
    """The underflow side of the range check: 1/sqrt(2 eps V) is subnormal."""
    spec = PlaneWaveSpec(Species.BRADYON, 1, (0, 0, 8e307), 0.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            normalization_factor(spec, 1.7e308)
    assert type(info.value) is ValueError
    assert str(info.value) == ("bradyon normalization factor out of floating-point range: "
                               "1/sqrt(w^dag w V) = 6.06339062590833e-309")


# ------------------------------------------------------- representation change

def test_convert_representation_spot():
    vec = np.array([1.0, 0, 1.0, 0])  # equal chiral halves
    out = convert_representation(vec, WEYL, STD)
    assert np.linalg.norm(out - [math.sqrt(2), 0, 0, 0]) <= 1e-14


@pytest.mark.parametrize("bad", ["standard", "weyl", None, 0])
def test_convert_representation_rejects_a_basis_outside_the_enum(bad):
    vec = np.array([1.0, 0, 1.0, 0])
    for args in ((bad, STD), (STD, bad), (bad, bad)):
        with pytest.raises(ValueError, match=r"_rep must be a Representation"):
            convert_representation(vec, *args)


def test_convert_representation_to_its_own_basis_is_a_writable_copy():
    w = amplitude(pt())
    out = convert_representation(w, STD, STD)
    assert out is not w and not np.shares_memory(out, w)
    assert out.flags.writeable and np.array_equal(out, w)


def test_convert_representation_maps_each_row_of_a_stack_alone(rng):
    rows = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) \
        * 10.0 ** rng.uniform(-200, 200, size=(4, 1))
    for src, dst in ((WEYL, STD), (STD, WEYL)):
        got = convert_representation(rows, src, dst)
        for b, row in zip(got, rows):
            assert b.tobytes() == convert_representation(row, src, dst).tobytes()


def test_convert_representation_involutive(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    twice = convert_representation(convert_representation(v, WEYL, STD), STD, WEYL)
    assert np.linalg.norm(twice - v) <= 1e-14


def test_weyl_amplitudes_map_to_standard_rays(rng):
    w_change = representation_change()
    for i in range(200):
        species = [Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON][i % 3]
        sign = [1, -1][i % 2]
        lam = [1, -1][(i // 2) % 2]
        if species is Species.LUXON:
            m, k = 0.0, rng.uniform(0.1, 8.0)
        else:
            m = rng.uniform(0.2, 3.0)
            k = m * rng.uniform(1.0, 9.0) if species is Species.PSEUDOTACHYON \
                else m * rng.uniform(0.05, 9.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = tuple(k * n)
        w_weyl = amplitude(PlaneWaveSpec(species, sign, p, m, lam, WEYL))
        w_std = amplitude(PlaneWaveSpec(species, sign, p, m, lam, STD))
        assert proportionality_defect(w_change @ w_weyl, w_std) <= 1e-12


# the shape of chiral amplitudes at k/m = 1e200: (theta; +-2e200 theta)
HUGE_RAYS = np.array([[1.0, 0.0, 2e200, 0.0], [0.0, 1.0, 0.0, -2e200],
                      [1.0, 0.0, -2e200, 0.0], [0.0, 1.0, 0.0, 2e200]])


def test_proportionality_defect_does_not_overflow():
    """Entries near 2e200 square to inf; the defect scales each vector by a
    power of two first, one vector at a time and stacked."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in HUGE_RAYS:
            assert proportionality_defect(w, 3 * w) == 0.0
        assert np.array_equal(proportionality_defect(HUGE_RAYS, -3j * HUGE_RAYS), np.zeros(4))



@pytest.mark.parametrize("species", [Species.PSEUDOTACHYON, Species.BRADYON])
def test_proportionality_defect_does_not_overflow_on_scaled_amplitudes(species):
    """Weyl amplitudes at k/m = 1e200 scaled by 2^560 have entries near 1e269
    beside entries near 1e68: the defect of each against its own multiples
    and its unscaled self is zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for direction, sign, lam in itertools.product(((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
                                                      (1, -1), (1, -1)):
            p = tuple(1e200 * c for c in direction)
            w0 = amplitude(PlaneWaveSpec(species, sign, p, 1.0, lam, WEYL))
            w = w0 * 2.0**560
            assert np.isinf(np.vdot(w, w).real)
            assert proportionality_defect(w, 3 * w) == 0.0
            assert proportionality_defect(w, w0) == 0.0

@pytest.mark.parametrize("species", [Species.PSEUDOTACHYON, Species.BRADYON])
def test_subnormal_row_is_computed_at_a_normal_scale(species):
    """p and m of (3, 4) and 2 times 2^-1070 give 2^-535 times the amplitude at
    scale 1, where eps computed at the subnormal scale would be off by 1e-4;
    a normal row of the same group keeps its bits."""
    tiny = 2.0 ** -1070
    normal_p, normal_m = (0.0, 3.0, 4.0), 2.0
    g = SpecGroup.from_arrays(species, STD, [1, -1], 1, [tuple(c * tiny for c in normal_p),
                                                        normal_p], [normal_m * tiny, normal_m],
                              [0, 1])
    w = group_amplitudes(g)
    alone = group_amplitudes(SpecGroup.from_arrays(species, STD, [1, -1], 1,
                                                   [normal_p, normal_p], [normal_m] * 2, [0, 1]))
    assert w[1].tobytes() == alone[1].tobytes()
    assert np.array_equal(w[0], alone[0] * 2.0 ** -535)


@pytest.mark.filterwarnings("error")
def test_proportionality_defect_up_to_the_largest_float():
    """An |entry| from 2^1023 up has the frexp exponent 1024, whose power of
    two is inf; the scale stops at 2^1023, so the norms stay finite."""
    a = np.array([1e308, 0.0, 0.0, 0.0])
    assert proportionality_defect(a, a) == 0.0
    assert proportionality_defect(a, np.array([0.0, 1e308, 0.0, 0.0])) == 1.0
    top = np.array([sys.float_info.max, 0.0, 0.0, 0.0])
    assert proportionality_defect(top, -top) == 0.0


def test_proportionality_defect_of_a_zero_vector_is_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^proportionality defect undefined for zero "
                                             "vectors$"):
            proportionality_defect(np.zeros(4), amplitude(pt()))


def test_proportionality_defect_orthogonal_vectors():
    a = np.array([1.0, 0, 0, 0])
    b = np.array([0, 1.0, 0, 0])
    assert abs(proportionality_defect(a, b) - 1.0) <= 1e-15
    assert proportionality_defect(a, 3j * a) <= 1e-15


# ---------------------------------------------------- extreme momentum scales

@pytest.mark.parametrize("species,p,m", [
    (Species.PSEUDOTACHYON, (1e200, 0.0, 0.0), 1.0),   # |p|^2 overflows
    (Species.BRADYON, (1e-300, 0.0, 0.0), 1e-300),     # |p|^2 underflows
], ids=["1e200", "1e-300"])
@pytest.mark.parametrize("rep", [STD, WEYL])
def test_extreme_momenta_construct_with_finite_amplitude(species, p, m, rep):
    spec = PlaneWaveSpec(species, 1, p, m, 1, rep)
    assert spec.k == p[0]
    w = amplitude(spec)
    assert np.all(np.isfinite(w))
    target = 2 * spec.epsilon if species is Species.BRADYON else 2 * spec.k
    assert abs(np.vdot(w, w).real - target) <= 1e-11 * target


@pytest.mark.parametrize("species,p,m", [
    (Species.BRADYON, (0.0, 0.0, 5.0), 1e308),          # 2 eps and eps + m overflow
    (Species.PSEUDOTACHYON, (1e308, 1e308, 0.0), 1.0),  # 2k overflows
    (Species.LUXON, (1.7e308, 0.0, 0.0), 0.0),
], ids=["bradyon-m-1e308", "pt-k-1.4e308", "luxon-k-1.7e308"])
def test_norm_target_out_of_range_is_a_range_error(species, p, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: PlaneWaveSpec(species, 1, p, m, 1),
                      lambda: SpecGroup.from_arrays(species, STD, 1, 1, [(1.0, 0.0, 1.0), p],
                                                    [m, m], [0, 1])):
            with pytest.raises(ValueError, match="out of floating-point range") as info:
                build()
            assert type(info.value) is ValueError


@pytest.mark.parametrize("species,sign,p,m,lam,error", [
    (Species.BRADYON, 0, (0.0, 0.0, 1.0), 1.0, 1, ValueError),
    (Species.BRADYON, 1, (0.0, 0.0, 1.0), 1.0, 2, ValueError),
    (Species.BRADYON, 1, (math.nan, 0.0, 1.0), 1.0, 1, ValueError),
    (Species.BRADYON, 1, (0.0, 0.0, 1.0), -1.0, 1, ValueError),
    (Species.BRADYON, 1, (0.0, 0.0, 1.0), math.inf, 1, ValueError),
    (Species.BRADYON, 1, (0.0, 0.0, 0.0), 1.0, 1, ZeroMomentum),
    (Species.PSEUDOTACHYON, 1, (0.0, 0.0, 1.0), 2.0, 1, NonPhysicalMomentum),
    (Species.LUXON, 1, (0.0, 0.0, 1.0), 1.0, 1, MassNotZero),
], ids=["sign", "helicity", "nan-momentum", "negative-mass", "inf-mass", "zero-momentum",
        "below-shell", "luxon-mass"])
def test_group_from_arrays_rejects_what_the_spec_rejects(species, sign, p, m, lam, error):
    with pytest.raises(error):
        PlaneWaveSpec(species, sign, p, m, lam)
    good = (3.0, 0.0, 4.0)
    with pytest.raises(error):
        SpecGroup.from_arrays(species, STD, sign, lam, [good, p],
                              [0.0 if species is Species.LUXON else 1.0, m], [0, 1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("species,rep,bad", [
    (Species.PSEUDOTACHYON, "standard", "rep must be a Representation, got 'standard'"),
    (Species.PSEUDOTACHYON, 0, "rep must be a Representation, got 0"),
    ("pseudotachyon", STD, "species must be a Species, got 'pseudotachyon'"),
    (None, WEYL, "species must be a Species, got None"),
], ids=["rep-str", "rep-int", "species-str", "species-none"])
def test_spec_and_group_reject_labels_outside_their_enums(species, rep, bad):
    """A basis given by name, such as "standard", must not fall through to the
    Weyl amplitude."""
    with pytest.raises(ValueError, match=bad):
        PlaneWaveSpec(species, 1, (0, 0, 5.0), 3.0, 1, rep)
    with pytest.raises(ValueError, match=bad):
        SpecGroup.from_arrays(species, rep, 1, 1, [(0, 0, 5.0)], [3.0], [0])


def test_group_from_arrays_rejects_misshapen_input():
    with pytest.raises(ValueError):
        SpecGroup.from_arrays(Species.BRADYON, STD, 1, 1, [(1.0, 2.0)], [1.0], [0])
    with pytest.raises(ValueError):
        SpecGroup.from_arrays(Species.BRADYON, STD, 1, 1, [(1.0, 2.0, 3.0)], [1.0, 2.0], [0])


@pytest.mark.parametrize("sign,lam", [([1, 0], 1), (1, [-1, 2]), ([1, math.nan], 1),
                                      ([1, -1, 1], 1), (1, [[1, -1]])],
                         ids=["sign-0", "helicity-2", "sign-nan", "sign-length", "helicity-shape"])
def test_group_from_arrays_rejects_bad_label_columns(sign, lam):
    with pytest.raises(ValueError, match="energy_sign|helicity"):
        SpecGroup.from_arrays(Species.BRADYON, STD, sign, lam, [(1.0, 2.0, 3.0), (0, 0, 1.0)],
                              [1.0, 2.0], [0, 1])


def test_group_from_arrays_rejects_a_label_that_is_not_a_number():
    with pytest.raises(ValueError) as info:
        SpecGroup.from_arrays(Species.BRADYON, STD, "+", 1, [[0, 0, 1.0]], [1.0], [0])
    assert type(info.value) is ValueError
    assert str(info.value) == "energy_sign must be +1 or -1, got '+'"


def test_group_label_columns_take_one_label_or_one_per_spec():
    p, m = [(1.0, 2.0, 3.0), (0, 0, 1.0)], [1.0, 2.0]
    one = SpecGroup.from_arrays(Species.BRADYON, STD, -1, 1, p, m, [0, 1])
    rows = SpecGroup.from_arrays(Species.BRADYON, STD, [-1, -1], [1.0, 1.0], p, m, [0, 1])
    for g in (one, rows):
        assert g.energy_sign.tolist() == [-1, -1] and g.helicity.tolist() == [1, 1]
        assert g.helicity_eigenvalue.tolist() == [-1, -1]


def test_group_rejects_attribute_assignment():
    g = SpecGroup.from_arrays(Species.BRADYON, STD, 1, 1, [(0, 0, 4.0)], [3.0], [0])
    with pytest.raises(AttributeError):
        g.mass = np.array([1.0])


def test_group_replace_keeps_the_other_arrays():
    """verify builds its twin groups with `_replace`: the fields not named
    are the very arrays of the original group, already validated."""
    g = SpecGroup.from_arrays(Species.LUXON, STD, [1, -1], 1, [(0, 0, 4.0), (0, 3.0, 0)],
                              [0.0, 0.0], [0, 1])
    twin = g._replace(energy_sign=-g.energy_sign, helicity=-g.helicity, rep=WEYL)
    assert twin.rep is WEYL and twin.species is g.species
    assert twin.energy_sign.tolist() == [-1, 1] and twin.helicity.tolist() == [-1, -1]
    for name in ("rows", "momentum", "k", "mass", "epsilon", "four_momentum"):
        assert getattr(twin, name) is getattr(g, name), name


def test_group_keeps_its_numbers_when_the_caller_mutates_its_inputs():
    """A pseudotachyon group whose caller flips p_x, changes the masses and
    renumbers the rows after validation still solves its own wave equation,
    with the very bytes it had."""
    p = np.array([[0.6, 0.0, 5.0], [3.0, 0.0, 4.0]])
    m, rows = np.array([3.0, 3.0]), np.array([4, 7])
    g = SpecGroup.from_arrays(Species.PSEUDOTACHYON, WEYL, [1, -1], [1, -1], p, m, rows)
    before = [a.tobytes() for a in g if isinstance(a, np.ndarray)]
    residual, w = solution_residual(g), group_amplitudes(g).tobytes()
    p[:, 0] *= -1.0
    m[:] = 1.0
    rows[:] = 0
    assert [a.tobytes() for a in g if isinstance(a, np.ndarray)] == before
    assert solution_residual(g).tobytes() == residual.tobytes()
    assert group_amplitudes(g).tobytes() == w
    assert residual.max() < 1e-15


@pytest.mark.parametrize("n", [1, 3])
def test_group_owns_read_only_arrays_and_views_its_four_momentum(n):
    """Every array of a group from `from_arrays` is read-only and none shares
    memory with an input; `momentum` and `epsilon` are views of the one
    (eps; p) block, so the three cannot disagree."""
    p = np.array([[0.0, 0.0, 5.0], [0.0, 3.0, 4.0], [1.0, 2.0, 2.0]])[:n]
    m, rows = np.full(n, 2.0), np.arange(n)
    sign, lam = np.ones(n, dtype=int), -np.ones(n, dtype=int)
    for labels in ((1, -1), (sign, lam)):
        g = SpecGroup.from_arrays(Species.BRADYON, STD, *labels, p, m, rows)
        arrays = {name: a for name, a in g._asdict().items() if isinstance(a, np.ndarray)}
        assert set(arrays) == {"rows", "energy_sign", "helicity", "momentum", "k", "mass",
                               "epsilon", "four_momentum"}
        for name, a in arrays.items():
            assert not a.flags.writeable, name
            for given in (p, m, rows, sign, lam):
                assert not np.shares_memory(a, given), name
        for name, column in (("epsilon", 0), ("momentum", slice(1, None))):
            assert np.shares_memory(arrays[name], g.four_momentum), name
            assert arrays[name].tobytes() == g.four_momentum[:, column].tobytes(), name
        assert g.momentum.tobytes() == p.tobytes()


def test_spec_keeps_its_mass_as_the_float_of_its_group():
    """A mass given as a string or an int is validated as its float, and the
    spec keeps that float, so it equals, hashes, reports and transforms like
    the spec built with 1.0."""
    one = PlaneWaveSpec(Species.BRADYON, 1, (0, 0, 2), 1.0, 1)
    for mass in ("1", 1, np.float32(1.0)):
        spec = PlaneWaveSpec(Species.BRADYON, 1, (0, 0, 2), mass, 1)
        assert type(spec.mass) is float and spec.mass == 1.0
        assert spec == one and hash(spec) == hash(one)
        assert repr(expectation_report(spec)) == repr(expectation_report(one))
        for kind in DiscreteKind:
            image, residual = apply_discrete(kind, spec)
            want, want_residual = apply_discrete(kind, one)
            assert image.tobytes() == want.tobytes() and residual == want_residual


@pytest.mark.parametrize("sign, lam", [(1.0, np.float64(-1.0)), (np.float64(-1.0), 1.0),
                                       (True, -1.0), (np.int8(-1), True)])
def test_spec_keeps_its_labels_as_the_ints_of_its_group(sign, lam):
    """Labels given as floats, numpy scalars or bools are validated as the
    ints +-1, and the spec keeps those ints, so it equals, hashes, reprs,
    reports and transforms like the spec built with ints."""
    spec = PlaneWaveSpec(Species.PSEUDOTACHYON, sign, (0, 0.6, 5.0), 3.0, lam)
    ints = PlaneWaveSpec(Species.PSEUDOTACHYON, int(sign), (0, 0.6, 5.0), 3.0, int(lam))
    assert type(spec.energy_sign) is int and type(spec.helicity) is int
    assert spec == ints and hash(spec) == hash(ints) and repr(spec) == repr(ints)
    assert amplitude(spec).tobytes() == amplitude(ints).tobytes()
    assert repr(expectation_report(spec)) == repr(expectation_report(ints))
    for kind in DiscreteKind:
        image, residual = apply_discrete(kind, spec)
        want, want_residual = apply_discrete(kind, ints)
        assert image.tobytes() == want.tobytes() and residual == want_residual
    boosted, residual = apply_boost(spec, (0.6, 0.0, 0.8), 0.7)
    want, want_residual = apply_boost(ints, (0.6, 0.0, 0.8), 0.7)
    assert boosted.tobytes() == want.tobytes() and residual == want_residual


# ------------------------------------------------- batch kernel against N = 1

def kernel_specs():
    """Every label combination on generic, pole, near-pole and (for
    pseudotachyons) transcendent momenta; luxons are the massless states."""
    rng = np.random.default_rng(11)
    specs = []
    for species in Species:
        for sign in (1, -1):
            for lam in (1, -1):
                for rep in (STD, WEYL):
                    m = 0.0 if species is Species.LUXON else rng.uniform(0.2, 3.0)
                    k = 1.7 * m + 0.5
                    n = rng.normal(size=3)
                    directions = [n / np.linalg.norm(n), (0, 0, 1.0), (0, 0, -1.0),
                                  (1e-9, 0, 1.0), (0, -1e-9, -1.0)]
                    for d in directions:
                        d = np.asarray(d) / np.linalg.norm(d)
                        specs.append(PlaneWaveSpec(species, sign, tuple(k * d), m, lam, rep))
                    if species is Species.PSEUDOTACHYON:
                        specs.append(PlaneWaveSpec(species, sign, (0.0, 0.0, m), m, lam, rep))
                        specs.append(PlaneWaveSpec(species, sign, (m * 0.6, 0.0, m * 0.8),
                                                   m, lam, rep))
    return specs


def groups_of(specs):
    """One `SpecGroup` per species and basis, built from the fields of the specs."""
    groups = []
    for species, rep in dict.fromkeys((s.species, s.rep) for s in specs):
        rows = [i for i, s in enumerate(specs) if (s.species, s.rep) == (species, rep)]
        fields = [[getattr(specs[i], name) for i in rows]
                  for name in ("energy_sign", "helicity", "momentum", "mass")]
        groups.append(SpecGroup.from_arrays(species, rep, *fields, rows))
    return groups


def fresh(spec):
    return PlaneWaveSpec(spec.species, spec.energy_sign, spec.momentum, spec.mass,
                         spec.helicity, spec.rep)


def test_batch_rows_equal_single_amplitudes_bit_for_bit():
    specs = kernel_specs()
    labels = {(s.species, s.energy_sign, s.helicity, s.rep) for s in specs}
    assert len(labels) == 24
    assert sum(s.epsilon == 0.0 for s in specs) >= 8
    groups = groups_of(specs)
    assert sorted(np.concatenate([g.rows for g in groups])) == list(range(len(specs)))
    for g in groups:
        for i, row in zip(g.rows, group_amplitudes(g)):
            assert row.tobytes() == amplitude(fresh(specs[i])).tobytes(), specs[i]


def test_batch_bilinears_match_expectation_report():
    from ptdirac.observables import bilinears, expectation_report, mean_four_vectors
    specs = [s for s in kernel_specs() if s.mass > 0]
    for g in groups_of(specs):
        b, scale = bilinears(group_amplitudes(g), g.rep)
        v = b[:, 1:4] / b[:, :1]
        vbar, sbar = mean_four_vectors(g, b, scale)
        for j, i in enumerate(g.rows):
            report = expectation_report(fresh(specs[i]))
            for got, want in [(v[j], report.mean_velocity),
                              (vbar[j], report.mean_four_velocity.as_array()),
                              (sbar[j], report.mean_spin_four_vector.as_array())]:
                want = np.asarray(want)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_amplitude_is_computed_once_and_read_only():
    spec = pt(p=(1.0, -2.0, 4.5), m=2.0)
    w = amplitude(spec)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    again = amplitude(spec)
    assert again is w
    assert np.array_equal(again, amplitude(fresh(spec)))
