import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdirac.kinematics import (
    _HYPOT_BLOCK,
    _HYPOT_MIN_SIZE,
    FourVector,
    MassNotZero,
    NonPhysicalMomentum,
    Species,
    ZeroMomentum,
    _boost_arrays,
    _hypot,
    _speed_columns,
    boost,
    dispersion_table,
    dual_momentum,
    energy_from_momentum,
    minkowski_dot,
    speeds,
)

finite = dict(allow_nan=False, allow_infinity=False)


def test_pt_energy_spot():
    assert abs(energy_from_momentum(Species.PSEUDOTACHYON, 5.0, 3.0) - 4.0) <= 1e-14


def test_pt_transcendent_energy_is_exactly_zero():
    assert energy_from_momentum(Species.PSEUDOTACHYON, 3.0, 3.0) == 0.0


def test_bradyon_rest_energy():
    assert energy_from_momentum(Species.BRADYON, 0.0, 3.0) == 3.0


def test_pt_below_shell_raises():
    with pytest.raises(NonPhysicalMomentum):
        energy_from_momentum(Species.PSEUDOTACHYON, 2.0, 3.0)


def test_luxon_with_mass_raises():
    with pytest.raises(MassNotZero):
        energy_from_momentum(Species.LUXON, 2.0, 0.5)


def test_mass_shell_constructor():
    assert energy_from_momentum(Species.PSEUDOTACHYON, 5.0, 3.0) == pytest.approx(4.0, abs=1e-14)


def test_minkowski_dot_spots():
    t = np.array([1.0, 0, 0, 0])
    assert minkowski_dot(t, t) == 1.0
    p = np.array([4.0, 0, 0, 5])
    assert minkowski_dot(p, p) == -9.0
    q = np.array([5.0, 0, 0, 4])
    assert minkowski_dot(p, q) == 0.0
    assert minkowski_dot(np.array([t, p]), np.array([t, q])).tolist() == [1.0, 0.0]


def test_dual_momentum_spot():
    d = dual_momentum((4, 0, 0, 5))
    assert np.allclose(d, [5, 0, 0, 4], atol=1e-14)


def test_dual_momentum_transcendent():
    d = dual_momentum((0, 0, 0, 3))
    assert np.allclose(d, [3, 0, 0, 0], atol=1e-15)


def test_dual_momentum_zero_momentum_raises():
    with pytest.raises(ZeroMomentum):
        dual_momentum((4, 0, 0, 0))


@pytest.mark.parametrize("scale", [1e-300, 1e200])
def test_dual_momentum_at_extreme_scales(scale):
    """|p| is a scaled norm: the square of 1e-300 underflows to 0 (which
    raised ZeroMomentum) and that of 1e200 overflows; neither reaches |p|."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(dual_momentum(np.array([scale, scale, 0.0, 0.0])),
                              [scale, scale, 0.0, 0.0])
        d = dual_momentum(np.array([[2 * scale, 0.0, 0.6 * scale, 0.8 * scale]]))
        assert np.allclose(d / scale, [[1.0, 0.0, 1.2, 1.6]], rtol=1e-15, atol=0.0)


def test_dual_momentum_identities_random(rng):
    for _ in range(1000):
        m = rng.uniform(0.2, 3.0)
        species = rng.choice([Species.PSEUDOTACHYON, Species.BRADYON])
        k = m * rng.uniform(1.0, 10.0) if species is Species.PSEUDOTACHYON \
            else m * rng.uniform(0.01, 10.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = np.array([energy_from_momentum(species, k, m), *(k * n)])
        d = dual_momentum(p)
        p2 = minkowski_dot(p, p)
        scale = max(1.0, abs(p2))
        assert abs(minkowski_dot(p, d)) / scale <= 1e-10
        assert abs(minkowski_dot(d, d) + p2) / scale <= 1e-10


def test_dual_momentum_rows_equal_the_scalar_formula(rng):
    p = np.column_stack([rng.uniform(0.0, 5.0, 50), rng.normal(size=(50, 3))])
    p[0] = (0.0, 0.0, 0.0, 3.0)
    rows = dual_momentum(p)
    assert rows.shape == (50, 4)
    for row, (e, px, py, pz) in zip(rows, p.tolist()):
        k = math.hypot(px, py, pz)
        want = np.array([k, e * px / k, e * py / k, e * pz / k])
        assert np.max(np.abs(row - want)) <= 4e-16 * np.max(np.abs(want))
    with pytest.raises(ZeroMomentum):
        dual_momentum(np.array([[1.0, 2.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("species", list(Species))
def test_energy_from_momentum_over_arrays_is_the_scalar_law(species, rng):
    if species is Species.LUXON:
        m, k = np.zeros(40), rng.uniform(0.0, 9.0, 40)
    else:
        m = rng.uniform(0.2, 3.0, 40)
        k = m * rng.uniform(1.0, 10.0, 40)
    if species is Species.PSEUDOTACHYON:
        k[:5] = m[:5]                      # the transcendent point
        k[5] = m[5] * (1 - 1e-13)          # an ulp-scale shortfall still counts
    eps = energy_from_momentum(species, k, m)
    want = [energy_from_momentum(species, float(a), float(b)) for a, b in zip(k, m)]
    assert eps.tobytes() == np.array(want).tobytes()
    assert energy_from_momentum(species, k[:1], float(m[0])).tobytes() == eps[:1].tobytes()


@pytest.mark.parametrize("species,k,m,error", [
    (Species.PSEUDOTACHYON, [5.0, 2.0], [3.0, 3.0], NonPhysicalMomentum),
    (Species.LUXON, [1.0, 2.0], [0.0, 1.0], MassNotZero),
    (Species.BRADYON, [1.0, -2.0], [1.0, 1.0], ValueError),
])
def test_energy_from_momentum_over_arrays_rejects_like_the_scalar_law(species, k, m, error):
    with pytest.raises(error):
        energy_from_momentum(species, k[1], m[1])
    with pytest.raises(error):
        energy_from_momentum(species, np.array(k), np.array(m))


@pytest.mark.parametrize("species,k,m", [
    (Species.BRADYON, math.nan, 1.0),
    (Species.PSEUDOTACHYON, math.nan, 1.0),
    (Species.LUXON, 1.0, math.nan),
    (Species.BRADYON, [2.0, math.nan], [1.0, 1.0]),
    (Species.PSEUDOTACHYON, 2.0, -1.0),
])
def test_energy_from_momentum_rejects_a_negative_or_nan_argument(species, k, m):
    with pytest.raises(ValueError) as info:
        energy_from_momentum(species, k, m)
    assert type(info.value) is ValueError
    assert str(info.value) == "k and m must be non-negative numbers"


@pytest.mark.parametrize("species,m", [
    (Species.BRADYON, 1.0), (Species.PSEUDOTACHYON, 1.0), (Species.LUXON, 0.0)])
def test_energy_from_momentum_keeps_an_infinite_momentum(species, m):
    """`SpecGroup.from_arrays` turns an overflowing |p| into its range error."""
    assert energy_from_momentum(species, math.inf, m) == math.inf


def test_energy_from_momentum_rejects_a_species_outside_the_enum():
    with pytest.raises(ValueError) as info:
        energy_from_momentum("pt", 1.0, 0.5)
    assert type(info.value) is ValueError and str(info.value) == "unknown species 'pt'"


def test_exchanged_shells_invert_each_other_exactly_at_the_transcendent_point():
    """The pseudotachyon shell is the bradyon shell with eps and k exchanged:
    the bradyon law reads k = m back from the transcendent eps = 0, at every
    scale, and the luxon law is its own inverse."""
    m = np.logspace(-300, 300, 601)
    eps = energy_from_momentum(Species.PSEUDOTACHYON, m, m)
    assert np.array_equal(eps, np.zeros_like(m))
    assert np.array_equal(energy_from_momentum(Species.BRADYON, eps, m), m)
    zero = np.zeros_like(m)
    back = energy_from_momentum(Species.LUXON, energy_from_momentum(Species.LUXON, m, zero), zero)
    assert np.array_equal(back, m)


def test_speeds_spot_values():
    s = speeds(4.0, 3.0)
    assert abs(s.u - math.sqrt(7.0) / 4.0) <= 1e-15
    assert abs(s.v - 0.8) <= 1e-15
    assert abs(s.w - 1.25) <= 1e-15
    # sqrt(eps - m) sqrt(eps + m) rounds above eps = 2 at m = 1e-9
    assert speeds(2.0, 1e-9).u == 1.0


def test_speeds_massless_all_light_speed():
    s = speeds(2.5, 0.0)
    assert s.u == s.v == s.w == 1.0


def test_speeds_at_zero_energy():
    s = speeds(0.0, 3.0)
    assert s.u is None and s.w is None
    assert s.v == 0.0


def test_speeds_u_absent_below_rest_energy():
    s = speeds(2.0, 3.0)
    assert s.u is None
    assert s.w is not None


@given(eps=st.floats(min_value=1e-3, max_value=1e3, **finite),
       m=st.floats(min_value=1e-3, max_value=1e3, **finite))
@settings(max_examples=200, deadline=None)
def test_speed_bounds_and_duality(eps, m):
    s = speeds(eps, m)
    assert 0.0 <= s.v < 1.0
    assert s.w > 1.0
    assert abs(s.v * s.w - 1.0) <= 1e-13
    if s.u is not None:
        assert 0.0 <= s.u < 1.0


@given(eps=st.floats(min_value=1e-3, max_value=1e3, **finite),
       log_ratio=st.floats(min_value=-300.0, max_value=0.0, **finite))
@settings(max_examples=300, deadline=None)
def test_speeds_stay_in_range_down_to_tiny_masses(eps, log_ratio):
    s = speeds(eps, eps * 10.0 ** log_ratio)
    assert 0.0 <= s.u <= 1.0
    assert 0.0 <= s.v <= 1.0
    assert s.w >= 1.0


@given(m=st.floats(min_value=1e-2, max_value=100.0, **finite),
       eps=st.floats(min_value=1e-3, max_value=1e3, **finite),
       factor=st.floats(min_value=1.0001, max_value=10.0, **finite))
@settings(max_examples=200, deadline=None)
def test_pt_speed_strictly_increasing(m, eps, factor):
    assert speeds(eps, m).v < speeds(eps * factor, m).v


@given(k=st.floats(min_value=1e-3, max_value=1e3, **finite),
       ratio=st.floats(min_value=1.0, max_value=50.0, **finite))
@settings(max_examples=200, deadline=None)
def test_shell_roundtrip_pt(k, ratio):
    m = k / ratio
    eps = energy_from_momentum(Species.PSEUDOTACHYON, k, m)
    k_back = math.hypot(eps, m)
    assert abs(k_back - k) / k <= 1e-12


@given(m=st.floats(min_value=1e-3, max_value=1e3, **finite),
       ratio=st.floats(min_value=0.1, max_value=10.0, **finite))
@settings(max_examples=200, deadline=None)
def test_shell_roundtrip_bradyon(m, ratio):
    # the sqrt(eps - m) reconstruction is conditioned by (m/k)^2
    k = m * ratio
    eps = energy_from_momentum(Species.BRADYON, k, m)
    k_back = math.sqrt(max(eps - m, 0.0)) * math.sqrt(eps + m)
    assert abs(k_back - k) / k <= 1e-12



def hypot_pairs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairs with log-uniform magnitudes from 1e-320 to 1.7e308, and among
    them zeros, subnormals, equal pairs and pairs whose hypot overflows."""
    rng = np.random.default_rng(seed)
    a, b = np.exp(rng.uniform(math.log(1e-320), math.log(1.7e308), size=(2, n)))
    special = [0.0, 5e-324, 2.0 ** -1074 * 3, 1e-310, 2.0 ** -1024, 2.0 ** -1022,
               np.nextafter(2.0 ** -1022, 0.0), 1.0, 3.0, 1e308, sys.float_info.max]
    at = rng.choice(n, size=(5, n // 16), replace=False)
    a[at[0]], b[at[0]] = rng.choice(special, size=(2, n // 16))
    b[at[1]] = a[at[1]]                                           # equal pairs
    a[at[2]] = rng.uniform(0.71, 1.0, n // 16) * sys.float_info.max  # overflows to inf
    b[at[2]] = rng.uniform(0.71, 1.0, n // 16) * sys.float_info.max
    a[at[3]] = 0.0
    b[at[3][:4]] = 0.0                                            # hypot 0
    b[at[4]] = rng.uniform(0.0, 2.0 ** -1022, n // 16)           # subnormal
    return a, b


@pytest.mark.parametrize("n", [_HYPOT_MIN_SIZE - 1, _HYPOT_MIN_SIZE,
                               3 * _HYPOT_BLOCK + 5, 200_000])
def test_hypot_is_math_hypot_bit_for_bit(n):
    """Both sides of the size switch, with no warning on any input."""
    a, b = hypot_pairs(n, seed=n)
    expected = np.array([math.hypot(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert np.isinf(expected).any() and (expected == 0.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _hypot(a, b)
        swapped = _hypot(b, a)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    expected = np.array([math.hypot(y, x) for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(swapped.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("m", [0.0, 3.0, 1e-310, 1e290])
def test_hypot_broadcasts_one_mass_and_keeps_the_shape(m):
    eps = np.linspace(0.0, 7.0 * max(m, 1.0), 4 * _HYPOT_MIN_SIZE)
    expected = np.array([math.hypot(x, m) for x in eps.tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat, grid = _hypot(eps, m), _hypot(eps.reshape(64, -1), np.full((64, 1), m))
    assert np.array_equal(flat.view(np.int64), expected.view(np.int64))
    assert np.array_equal(grid.ravel().view(np.int64), expected.view(np.int64))


@pytest.mark.filterwarnings("error")
def test_bradyon_energy_of_a_large_array_is_math_hypot():
    k = np.geomspace(1e-200, 1e200, 3 * _HYPOT_MIN_SIZE).reshape(3, -1)
    eps = energy_from_momentum(Species.BRADYON, k, 2.5)
    assert eps.shape == k.shape
    assert eps.ravel().tolist() == [math.hypot(x, 2.5) for x in k.ravel().tolist()]

def test_boost_zero_rapidity_identity():
    p = FourVector(4.0, 1.0, -2.0, 5.0)
    q = boost(p, (0, 0, 1.0), 0.0)
    assert np.array_equal(q.as_array(), p.as_array())


def test_boost_rest_frame_formula():
    m, zeta = 3.0, 0.7
    q = boost(FourVector(m, 0, 0, 0), (0, 0, 1.0), zeta)
    assert abs(q.e - m * math.cosh(zeta)) <= 1e-13
    assert abs(q.pz + m * math.sinh(zeta)) <= 1e-13
    assert q.px == q.py == 0.0


def test_boost_preserves_spacelike_norm():
    p = FourVector(4, 0, 0, 5)
    for zeta in (-1.5, -0.3, 0.4, 2.0):
        q = boost(p, (0, 0, 1.0), zeta).as_array()
        assert abs(minkowski_dot(q, q) + 9.0) <= 1e-12 * 9.0


@given(zeta1=st.floats(min_value=-2, max_value=2, **finite),
       zeta2=st.floats(min_value=-2, max_value=2, **finite))
@settings(max_examples=200, deadline=None)
def test_boost_composition(zeta1, zeta2):
    p = FourVector(2.0, 0.3, -1.1, 0.7)
    axis = np.array([2.0, -1.0, 2.0]) / 3.0
    q12 = boost(boost(p, axis, zeta1), axis, zeta2)
    q = boost(p, axis, zeta1 + zeta2)
    assert np.max(np.abs(q12.as_array() - q.as_array())) <= 1e-12 * max(
        1.0, np.max(np.abs(q.as_array())))


def test_boost_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        boost(FourVector(1, 0, 0, 0), (0, 0, 2.0), 0.5)


def test_boost_matrix_matches_boost(rng):
    p = FourVector(*rng.normal(size=4))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ch, sh = math.cosh(0.8), math.sinh(0.8)
    L = np.eye(4)
    L[0, 0] = ch
    L[0, 1:] = L[1:, 0] = -sh * axis
    L[1:, 1:] += (ch - 1.0) * np.outer(axis, axis)
    assert np.allclose(L @ p.as_array(), boost(p, axis, 0.8).as_array(), atol=1e-13)


def test_boost_past_the_float_range_is_a_range_error():
    """cosh(800) overflows: one rapidity and an array of them both raise a
    plain ValueError, with no OverflowError and no RuntimeWarning."""
    p = FourVector(4, 0, 0, 5)
    rows = np.array([p.as_array(), p.as_array()])
    axes = np.array([[0, 0, 1.0], [1.0, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: boost(p, (0, 0, 1.0), 800.0),
                     lambda: boost(p, (0, 0, 1.0), -711.0),
                     lambda: _boost_arrays(rows, axes, np.array([1.0, -800.0]))):
            with pytest.raises(ValueError, match="out of floating-point range") as info:
                call()
            assert type(info.value) is ValueError
        assert np.isfinite(boost(p, (0, 0, 1.0), 700.0).as_array()).all()


def test_boost_past_the_float_range_of_the_four_vector_is_a_range_error():
    """cosh(400) is finite but 1e175 cosh(400) is not: the error names the
    rapidity of the first such row, with no RuntimeWarning."""
    p = FourVector(1e175, 0, 0, 5e174)
    rows = np.array([[4.0, 0, 0, 5.0], p.as_array()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: boost(p, (0, 0, 1.0), 400.0),
                     lambda: _boost_arrays(rows, np.array([0, 0, 1.0]), np.array([1.0, 400.0]))):
            with pytest.raises(ValueError, match="boosted by rapidity 400.0 overflows"):
                call()


def test_four_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        FourVector(float("nan"), 0, 0, 0)


def test_dispersion_table_row_at_four():
    table = dispersion_table(3.0, 0.0, 10.0, 11)
    assert table.epsilon[4] == 4.0
    assert table.has_u[4] and table.has_w[4]
    assert abs(table.u[4] - 0.661437828) <= 1e-9
    assert abs(table.v[4] - 0.8) <= 1e-15
    assert abs(table.w[4] - 1.25) <= 1e-15


def test_dispersion_table_zero_energy_row():
    table = dispersion_table(3.0, 0.0, 10.0, 11)
    assert table.epsilon[0] == 0.0
    assert not table.has_u[0] and not table.has_w[0]
    assert math.isnan(table.u[0]) and math.isnan(table.w[0])
    assert table.v[0] == 0.0
    # u appears at eps = m = 3, w at the first nonzero energy
    assert table.has_u.tolist() == [False] * 3 + [True] * 8
    assert table.has_w.tolist() == [False] + [True] * 10


def test_dispersion_table_newtonian_regime():
    """At energies far below the mass the tachyonic speed is eps/m."""
    m = 3.0
    table = dispersion_table(m, m / 1e4, m / 100.0, 7)
    expected = table.epsilon / m
    assert np.all(np.abs(table.v - expected) / expected <= 0.01)


@pytest.mark.parametrize("m, eps_min, eps_max, steps, m_eps", [
    (3.0, 0.0, 1e-320, 3, 5e-321),            # h / eps overflows: w = inf
    (1e308, 0.0, 1e308, 2, 1e308),            # 0 * sqrt(2e308): u = nan
    (1e308, 0.0, 1.7e308, 4, 1.1333333333333334e308),  # u = inf, w = inf
], ids=["w-overflow", "u-nan", "u-w-overflow"])
def test_dispersion_table_out_of_range_speeds_raise(m, eps_min, eps_max, steps, m_eps):
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(ValueError, match=re.escape(f"epsilon = {m_eps!r} ")
                           + ".*out of floating-point range"):
            dispersion_table(m, eps_min, eps_max, steps)


@pytest.mark.parametrize("eps", [0.0, -0.0, 1e-300, 2.0, 3.0, 3.0000000000000004, 7.5, 1e300])
@pytest.mark.parametrize("m", [0.0, 3.0])
def test_speeds_equal_the_table_columns(eps, m):
    """`speeds` is the column law at one energy, absent entries included."""
    s = speeds(eps, m)
    t = dispersion_table(m, eps, max(2 * eps, 1.0), 2)
    assert (s.u is None) == (not t.has_u[0]) and (s.w is None) == (not t.has_w[0])
    assert [s.u, s.v, s.w] == [t.u[0] if t.has_u[0] else None, t.v[0],
                               t.w[0] if t.has_w[0] else None]
    assert math.copysign(1.0, s.v) == 1.0


@pytest.mark.parametrize("eps, m, eps_max", [
    (1e308, 1e308, 1.5e308),    # 0 * sqrt(2e308): u = nan
    (1.5e308, 1e308, 1.7e308),  # u = inf, w = inf
    (1e-320, 3.0, 1.0),         # h / eps overflows: w = inf
], ids=["u-nan", "u-w-overflow", "w-overflow"])
def test_speeds_refuse_what_the_table_refuses(eps, m, eps_max):
    """`speeds` raises the range error of a table whose first row is its energy."""
    message = (f"dispersion speeds at epsilon = {eps!r} (m = {m!r}) "
               "are out of floating-point range")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(ValueError) as at_one:
            speeds(eps, m)
        with pytest.raises(ValueError) as in_table:
            dispersion_table(m, eps, eps_max, 2)
    assert str(at_one.value) == str(in_table.value) == message


def test_speed_law_names_the_mass_of_the_offending_row():
    eps, m = np.array([1.0, 2.0, 1e-320, 1e-320]), np.array([0.5, 3.0, 7.0, 5.0])
    with pytest.raises(ValueError, match=re.escape("epsilon = 1e-320 (m = 7.0) are out")):
        _speed_columns(eps, m)


def test_dispersion_table_invalid_ranges():
    with pytest.raises(ValueError):
        dispersion_table(3.0, 5.0, 2.0, 4)
    with pytest.raises(ValueError):
        dispersion_table(3.0, -1.0, 2.0, 4)
    with pytest.raises(ValueError):
        dispersion_table(3.0, 0.0, 2.0, 1)
    with pytest.raises(ValueError, match="finite"):
        dispersion_table(math.nan, 0.0, 2.0, 4)
    with pytest.raises(ValueError):
        dispersion_table(3.0, 0.0, math.inf, 4)


@pytest.mark.parametrize("eps, m", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                    (1.0, math.inf), (-1.0, 1.0)])
def test_speeds_reject_non_finite_or_negative(eps, m):
    with pytest.raises(ValueError):
        speeds(eps, m)
