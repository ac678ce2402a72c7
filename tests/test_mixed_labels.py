"""Groups that mix energy signs and helicities compute each row with its own labels.

A `SpecGroup` holds one species and one basis; its energy signs and
helicities are per-row columns.  Every function documented to take "a spec
or a group" must give, for each row of such a group, exactly the bytes it
gives for that spec alone, with the result shaped (n, ...).
"""
import itertools

import numpy as np
import pytest

from ptdirac import observables, spinors, symmetries
from ptdirac.clifford import Representation
from ptdirac.kinematics import Species
from ptdirac.spinors import PlaneWaveSpec, SpecGroup

LABELS = list(itertools.product((1, -1), (1, -1)))


def mixed_specs():
    """Per species and basis, all four sign x helicity labels on a generic
    momentum, both poles and, for pseudotachyons, the transcendent point; the
    labels alternate from spec to spec.  Returns the specs and, built from
    the same arrays, one group per species and basis."""
    rng = np.random.default_rng(17)
    specs, groups = [], []
    for species in Species:
        for rep in Representation:
            m = 0.0 if species is Species.LUXON else rng.uniform(0.2, 3.0)
            n = rng.normal(size=3)
            momenta = [(1.7 * m + 0.5) * n / np.linalg.norm(n), (0.0, 0.0, 2.3 * m + 0.4),
                       (0.0, 0.0, -(1.2 * m + 0.1))]
            if species is Species.PSEUDOTACHYON:
                momenta += [(0.0, 0.0, m), (0.6 * m, 0.0, 0.8 * m)]
            rows = [(tuple(p), sign, lam) for p in momenta for sign, lam in LABELS]
            ps, signs, lams = zip(*rows)
            positions = np.arange(len(specs), len(specs) + len(rows))
            groups.append(SpecGroup.from_arrays(species, rep, signs, lams, ps, [m] * len(rows),
                                                positions))
            specs += [PlaneWaveSpec(species, sign, p, m, lam, rep) for p, sign, lam in rows]
    return specs, groups


SPECS, GROUPS = mixed_specs()
IDS = [f"{g.species.value}-{g.rep.value}" for g in GROUPS]


def fresh(spec):
    """The same spec without its memoized amplitude."""
    return PlaneWaveSpec(spec.species, spec.energy_sign, spec.momentum, spec.mass,
                         spec.helicity, spec.rep)


def assert_rows_equal(batch, single, n):
    """batch has n rows, and row j has the bytes of single(j)."""
    batch = np.asarray(batch)
    assert batch.shape[0] == n
    for j in range(n):
        want = np.asarray(single(j))
        assert batch[j].shape == want.shape
        assert batch[j].tobytes() == want.tobytes(), j


def test_every_group_mixes_all_four_labels():
    assert len(GROUPS) == 6
    for g in GROUPS:
        assert {(int(s), int(h)) for s, h in zip(g.energy_sign, g.helicity)} == set(LABELS)
        assert g.energy_sign.shape == g.helicity.shape == g.k.shape


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_amplitude_residual_and_energy_rows_equal_single_specs(g):
    n, specs = len(g.rows), [SPECS[i] for i in g.rows]
    w = spinors.group_amplitudes(g)
    assert w.shape == (n, 4)
    assert_rows_equal(w, lambda j: spinors.amplitude(fresh(specs[j])), n)
    assert_rows_equal(spinors.solution_residual(g, w),
                      lambda j: spinors.solution_residual(specs[j]), n)
    assert_rows_equal(observables.energy_eigencheck(g, w),
                      lambda j: observables.energy_eigencheck(specs[j]), n)


@pytest.mark.parametrize("g", [g for g in GROUPS if g.species is not Species.LUXON],
                         ids=[i for g, i in zip(GROUPS, IDS) if g.species is not Species.LUXON])
def test_four_vector_and_constraint_rows_equal_single_specs(g):
    n, specs = len(g.rows), [SPECS[i] for i in g.rows]
    vb, sb = observables.four_vector_closed_forms(g)
    assert_rows_equal(vb, lambda j: observables.four_vector_closed_forms(specs[j])[0], n)
    assert_rows_equal(sb, lambda j: observables.four_vector_closed_forms(specs[j])[1], n)
    b, scale = observables.bilinears(spinors.group_amplitudes(g), g.rep)
    vbar, sbar = observables.mean_four_vectors(g, b, scale)
    assert_rows_equal(observables.constraint_values(g, vbar, sbar),
                      lambda j: observables.constraint_values(specs[j], vbar[j], sbar[j]), n)


@pytest.mark.parametrize("kind", list(symmetries.DiscreteKind), ids=lambda k: k.value)
@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_discrete_image_rows_equal_single_specs(g, kind):
    n, specs = len(g.rows), [SPECS[i] for i in g.rows]
    transformed, residual = symmetries.apply_discrete(kind, g, spinors.group_amplitudes(g))
    assert_rows_equal(transformed, lambda j: symmetries.apply_discrete(kind, specs[j])[0], n)
    assert_rows_equal(residual, lambda j: symmetries.apply_discrete(kind, specs[j])[1], n)


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_boost_rows_equal_single_specs(g):
    n, specs = len(g.rows), [SPECS[i] for i in g.rows]
    rng = np.random.default_rng(5)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    zetas = rng.uniform(-2.0, 2.0, size=n)
    transformed, residual = symmetries.apply_boost(g, axes, zetas, spinors.group_amplitudes(g))
    single = [symmetries.apply_boost(s, axes[j], float(zetas[j])) for j, s in enumerate(specs)]
    assert_rows_equal(transformed, lambda j: single[j][0], n)
    assert_rows_equal(residual, lambda j: single[j][1], n)


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_a_group_given_no_amplitudes_takes_its_group_amplitudes(g):
    """``w`` omitted on a group means `group_amplitudes(g)`, as it means the
    spec's own amplitude on a spec."""
    w = spinors.group_amplitudes(g)
    b, _ = observables.bilinears(w, g.rep)
    calls = [(spinors.amplitude(g), w),
             (spinors.solution_residual(g), spinors.solution_residual(g, w)),
             (observables.energy_eigencheck(g), observables.energy_eigencheck(g, w)),
             (symmetries.apply_boost(g, (0, 0, 1), 0.3),
              symmetries.apply_boost(g, (0, 0, 1), 0.3, w)),
             (observables.mean_velocity(g), observables.mean_velocity(g, b)),
             (symmetries.discrete_images(g), symmetries.discrete_images(g, w))]
    calls += [(symmetries.apply_discrete(kind, g), symmetries.apply_discrete(kind, g, w))
              for kind in symmetries.DiscreteKind]
    for got, want in calls:
        for x, y in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, want)),
                        strict=True):
            assert x.shape[0] == len(g.rows)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
