"""The one stacked P/C/T/I pass and the one-call boost against per-kind references.

`symmetries.discrete_images` computes the four discrete images of a spec or
group in one pass; `apply_boost` checks its axis once and takes the cosh and
sinh of zeta/2 and zeta in one call.  The references below compute each
result on its own, with the operations of the per-kind code: U w or U conj(w),
the target built from (eps; -p) for P and T and from -sign m for C and I, and
norms from ``np.linalg.norm``.  Every result must match them byte for byte.
"""
import itertools

import numpy as np
import pytest

from ptdirac import kinematics, spinors, symmetries
from ptdirac.cli import main
from ptdirac.clifford import Representation, gamma_set, slash
from ptdirac.kinematics import Species
from ptdirac.spinors import PlaneWaveSpec, SpecGroup
from ptdirac.symmetries import DiscreteKind
from test_mixed_labels import GROUPS, IDS, SPECS, fresh

KINDS = list(DiscreteKind)


def reference_image(kind, spec, w):
    """One discrete image and its residual, computed for this kind alone."""
    op = symmetries.discrete_operator(kind, spec.species, spec.rep)
    transformed = (np.conj(w) if kind.antilinear else w) @ op.T
    eps = np.asarray(spec.epsilon, dtype=float)
    p4 = np.concatenate([eps[..., None], np.asarray(spec.momentum, dtype=float)], axis=-1)
    signed_mass = spec.energy_sign * np.asarray(spec.mass)
    if kind in (DiscreteKind.PARITY, DiscreteKind.TIME_INVERSION):
        p4 = np.concatenate([p4[..., :1], -p4[..., 1:]], axis=-1)
    else:
        signed_mass = -signed_mass
    return transformed, _residual(spec, p4, signed_mass, transformed)


def reference_boost(spec, axis, rapidity, w):
    """`apply_boost` with the axis checked and cosh/sinh taken per use."""
    s = symmetries.lorentz_boost_spinor(axis, rapidity, spec.rep)
    transformed = np.einsum("...ij,...j->...i", s, w)
    q = kinematics._boost_arrays(spec.four_momentum, kinematics._unit_axis(axis), rapidity)
    return transformed, _residual(spec, q, spec.energy_sign * np.asarray(spec.mass),
                                  transformed)


def _residual(spec, p4, signed_mass, transformed):
    gs = gamma_set(spec.rep)
    unit = gs.gamma5 if spec.species is not Species.BRADYON else np.eye(4)
    target = slash(gs, p4) - np.asarray(signed_mass)[..., None, None] * unit
    return (np.linalg.norm(np.einsum("...ij,...j->...i", target, transformed), axis=-1)
            / np.linalg.norm(transformed, axis=-1))


def assert_bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def edge_specs():
    """Poles, near-poles, the transcendent point and subnormal transverse
    components, for every species, basis and label."""
    shapes = {
        Species.PSEUDOTACHYON: (1.3, [(0, 0, 2.0), (0, 0, -2.0), (1e-9, 0, 2.0), (0, 0, 1.3),
                                      (0, 0, -1.3), (0.78, 0.0, 1.04), (5e-324, 0, 2.0),
                                      (1e-310, -1e-310, -2.0)]),
        Species.BRADYON: (0.7, [(0, 0, 0.4), (0, 0, -3.0), (-1e-9, 1e-9, 3.0), (5e-324, 0, -0.2),
                                (1e-310, 1e-310, 1.0)]),
        Species.LUXON: (0.0, [(0, 0, 0.5), (0, 0, -0.5), (1e-9, 0, -0.5), (0, 5e-324, 2.0)]),
    }
    specs = []
    for species, (m, momenta) in shapes.items():
        for p, sign, lam, rep in itertools.product(momenta, (1, -1), (1, -1), Representation):
            specs.append(PlaneWaveSpec(species, sign, p, m, lam, rep))
    return specs


EDGE = edge_specs()


def edge_groups():
    """The edge specs as one group per species and basis."""
    groups = []
    for species, rep in itertools.product(Species, Representation):
        rows = [s for s in EDGE if s.species is species and s.rep is rep]
        groups.append(SpecGroup.from_arrays(
            species, rep, [s.energy_sign for s in rows], [s.helicity for s in rows],
            [s.momentum for s in rows], [s.mass for s in rows], np.arange(len(rows))))
    return groups


@pytest.mark.parametrize("g", GROUPS + edge_groups(),
                         ids=IDS + [f"edge-{i}" for i in IDS])
def test_stacked_pass_equals_the_per_kind_reference_on_groups(g):
    w = spinors.group_amplitudes(g)
    transformed, residuals = symmetries.discrete_images(g, w)
    assert transformed.shape == (len(g.rows), 4, 4)
    assert residuals.shape == (len(g.rows), 4)
    for i, kind in enumerate(KINDS):
        want_t, want_r = reference_image(kind, g, w)
        assert_bytes_equal(transformed[:, i], want_t)
        assert_bytes_equal(residuals[:, i], want_r)
        got_t, got_r = symmetries.apply_discrete(kind, g, w)
        assert_bytes_equal(got_t, want_t)
        assert_bytes_equal(got_r, want_r)


@pytest.mark.parametrize("spec", SPECS + EDGE, ids=lambda s: f"{s.species.value}-{s.rep.value}")
def test_stacked_pass_equals_the_per_kind_reference_on_one_spec(spec):
    spec = fresh(spec)
    w = spinors.amplitude(spec)
    for kind in KINDS:
        want = reference_image(kind, spec, w)
        got = symmetries.apply_discrete(kind, spec)
        assert_bytes_equal(got[0], want[0])
        assert_bytes_equal(got[1], want[1])
        assert type(got[1]) is type(want[1])
        # the amplitude passed explicitly gives the same memoized result
        given = symmetries.apply_discrete(kind, spec, spinors.amplitude(spec))
        assert_bytes_equal(given[0], got[0])
        assert_bytes_equal(given[1], got[1])


def test_memoized_images_are_read_only_and_computed_once(monkeypatch):
    spec = fresh(SPECS[0])
    w = spinors.amplitude(spec)
    passes = []
    images = symmetries._images
    monkeypatch.setattr(symmetries, "_images", lambda *a: passes.append(1) or images(*a))
    results = [symmetries.apply_discrete(kind, spec) for kind in KINDS]
    results += [symmetries.apply_discrete(kind, spec, w) for kind in KINDS]
    assert len(passes) == 1
    for transformed, residual in results:
        assert not transformed.flags.writeable
        with pytest.raises(ValueError):
            transformed[0] = 0.0
    transformed, residuals = symmetries.discrete_images(spec)
    assert not transformed.flags.writeable and not residuals.flags.writeable
    assert not w.flags.writeable


def test_another_amplitude_is_not_served_from_the_memo():
    spec = fresh(SPECS[1])
    w = 2.0 * spinors.amplitude(spec)
    for kind in KINDS:
        want = reference_image(kind, spec, w)
        got = symmetries.apply_discrete(kind, spec, w)
        assert_bytes_equal(got[0], want[0])
        assert_bytes_equal(got[1], want[1])
    assert symmetries.apply_discrete(DiscreteKind.PARITY, spec)[0].tobytes() \
        != symmetries.apply_discrete(DiscreteKind.PARITY, spec, w)[0].tobytes()


@pytest.mark.parametrize("spec", SPECS + EDGE, ids=lambda s: f"{s.species.value}-{s.rep.value}")
def test_one_call_boost_equals_the_reference(spec):
    rng = np.random.default_rng(abs(hash(spec.momentum)) % 2**32)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    w = spinors.amplitude(spec)
    for rapidity in (0.7, -1.3, float(rng.uniform(-5.0, 5.0)), 0.0):
        got = symmetries.apply_boost(spec, axis, rapidity)
        want = reference_boost(spec, axis, rapidity, w)
        assert_bytes_equal(got[0], want[0])
        assert_bytes_equal(got[1], want[1])


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_one_call_boost_equals_the_reference_on_groups(g):
    rng = np.random.default_rng(11)
    n = len(g.rows)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    zetas = rng.uniform(-3.0, 3.0, size=n)
    w = spinors.group_amplitudes(g)
    got = symmetries.apply_boost(g, axes, zetas, w)
    want = reference_boost(g, axes, zetas, w)
    assert_bytes_equal(got[0], want[0])
    assert_bytes_equal(got[1], want[1])


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(kinematics, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (kinematics, symmetries):
        monkeypatch.setattr(module, name, counted)
    return calls


def test_apply_boost_checks_its_axis_once_and_takes_cosh_sinh_once(monkeypatch):
    axis_calls = _count_calls(monkeypatch, "_unit_axis")
    cosh_calls = _count_calls(monkeypatch, "_cosh_sinh")
    spec = fresh(SPECS[2])
    spinors.amplitude(spec)
    symmetries.apply_boost(spec, (0.6, 0.0, 0.8), 0.7)
    assert (len(axis_calls), len(cosh_calls)) == (1, 1)
    g = GROUPS[0]
    n = len(g.rows)
    symmetries.apply_boost(g, np.tile([0.0, 0.0, 1.0], (n, 1)), np.full(n, -1.3),
                           spinors.group_amplitudes(g))
    assert (len(axis_calls), len(cosh_calls)) == (2, 2)


def test_boost_errors_keep_their_messages(capsys):
    spec = fresh(SPECS[0])
    with pytest.raises(ValueError, match=r"axis must be a unit vector, \|axis\| = 2.0"):
        symmetries.apply_boost(spec, (0.0, 0.0, 2.0), 0.7)
    for rapidity, named in ((800.0, "800.0"), (-1500.0, "-750.0")):
        with pytest.raises(ValueError, match=rf"cosh\({named}\) overflows"):
            symmetries.apply_boost(spec, (0.0, 0.0, 1.0), rapidity)
    code = main(["transform", "--species=pt", "--momentum=0,0,2.5", "--mass=1.2",
                 "--op=boost", "--rapidity=800"])
    assert code == 2
    assert "cosh(800.0)" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_a_huge_axis_is_rejected_without_a_warning():
    """|axis|^2 overflows to inf, which the one shared axis check rejects."""
    spec = fresh(SPECS[0])
    for boost in (lambda axis: symmetries.apply_boost(spec, axis, 0.7),
                  lambda axis: symmetries.lorentz_boost_spinor(axis, 0.7)):
        with pytest.raises(ValueError, match=r"axis must be a unit vector, \|axis\| = inf"):
            boost((1e200, 0.0, 0.0))
