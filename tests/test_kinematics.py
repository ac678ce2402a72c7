import math
import re
import sys
import warnings
from decimal import Decimal, localcontext

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
    SpeedTriple,
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, bad", [
    ((1e300, 1e-300, 0.0, 0.0), "[1e+300, 1e-300, 0.0, 0.0]"),   # eps / k overflows
    ((1.0, math.nan, 0.0, 0.0), "[1.0, nan, 0.0, 0.0]"),
    ((1.0, 0.0, math.inf, 0.0), "[1.0, 0.0, inf, 0.0]"),
    ((math.inf, 0.0, 0.0, 1.0), "[inf, 0.0, 0.0, 1.0]"),
], ids=["eps-over-k", "nan", "inf-momentum", "inf-energy"])
def test_dual_momentum_refuses_a_row_that_is_not_finite(row, bad):
    for p, i in ((np.array(row), 0), (np.array([[2.0, 1.0, 0.0, 0.0], row]), 1)):
        with pytest.raises(ValueError) as info:
            dual_momentum(p)
        assert type(info.value) is ValueError
        assert str(info.value) == f"dual momentum not finite at row {i}, p = {bad}"


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, dual", [
    ((1e308, 1e308, 0.0, 0.0), [1e308, 1e308, 0.0, 0.0]),
    ((1e300, 1e308, 0.0, 0.0), [1e308, 1e300, 0.0, 0.0]),
    ((sys.float_info.max, sys.float_info.max, 0.0, 0.0),
     [sys.float_info.max, sys.float_info.max, 0.0, 0.0]),
])
def test_dual_momentum_up_to_the_largest_float(row, dual):
    """A component from 2^1023 up has the frexp exponent 1024, whose power of
    two is inf; the scale stops at 2^1023, so a representable dual is returned."""
    assert dual_momentum(np.array(row)).tolist() == dual


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


@pytest.mark.filterwarnings("error")
def test_pt_energy_at_infinite_momentum_and_mass_raises():
    """inf - inf leaves no energy; a plain ValueError, not an off-shell one."""
    k = np.array([2.0, math.inf])
    for args in ((math.inf, math.inf), (k, np.array([1.0, math.inf])),
                 (np.full((2, 1), math.inf), np.array([1.0, math.inf]))):
        with pytest.raises(ValueError) as info:
            energy_from_momentum(Species.PSEUDOTACHYON, *args)
        assert type(info.value) is ValueError
        assert str(info.value) == "pseudotachyon energy undefined at k = m = inf"


def test_energy_from_momentum_rejects_a_species_outside_the_enum():
    with pytest.raises(ValueError) as info:
        energy_from_momentum("pt", 1.0, 0.5)
    assert type(info.value) is ValueError
    assert str(info.value) == "species must be a Species, got 'pt'"


TOP = sys.float_info.max
PT_ULPS = 3.0  # k - m, k + m, both roots and their product round once each


def pt_energy_ulps(k: float, m: float, eps: float) -> float:
    """|eps - sqrt(k^2 - m^2)| in ulps of the exact energy, from a decimal root."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(k) ** 2 - Decimal(m) ** 2).sqrt()
        return float(abs(Decimal(eps) - exact) / Decimal(math.ulp(float(exact))))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1e308, 1.7e308, TOP])
def test_pt_energy_at_the_top_transcendent_point_is_zero(k):
    """k + m overflows, yet eps = sqrt(k - m) sqrt(k + m) = 0 exactly."""
    assert energy_from_momentum(Species.PSEUDOTACHYON, k, k) == 0.0
    assert energy_from_momentum(Species.PSEUDOTACHYON, [2.0, k], [1.0, k])[1] == 0.0


@pytest.mark.filterwarnings("error")
def test_pt_energy_past_the_sum_range_is_as_accurate_as_in_range(rng):
    """Where k + m overflows, sqrt(k + m) is taken as 2 sqrt(k/4 + m/4): the
    energy is that of (k/4, m/4) times 4 bit for bit, and meets the ulp bound
    of in-range momenta."""
    m = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 400))
    k = m * np.exp(rng.uniform(0.0, math.log(1e6), 400))
    k[:100] = m[:100] * (1.0 + rng.uniform(0.0, 1e-10, 100))   # near k = m
    eps = energy_from_momentum(Species.PSEUDOTACHYON, k, m)
    assert max(map(pt_energy_ulps, k.tolist(), m.tolist(), eps.tolist())) <= PT_ULPS
    eps = energy_from_momentum(Species.PSEUDOTACHYON, 1.5e308, 1e308)
    assert math.isfinite(eps) and pt_energy_ulps(1.5e308, 1e308, eps) <= PT_ULPS
    m = rng.uniform(0.5, 1.0, 200) * TOP
    k = m + rng.uniform(0.0, 1.0, 200) * (TOP - m)
    with np.errstate(over="ignore"):
        assert np.isinf(k + m).all()
    eps = energy_from_momentum(Species.PSEUDOTACHYON, k, m)
    assert np.array_equal(eps, 4.0 * energy_from_momentum(Species.PSEUDOTACHYON, k / 4, m / 4))


@pytest.mark.filterwarnings("error")
def test_bradyon_energy_past_the_largest_float_names_the_first_entry():
    k, m = np.array([1.0, 1.5e308, TOP]), np.array([1.0, 1e308, 1e308])
    for args in ((1.5e308, 1e308), (k, m), (k.reshape(3, 1), m)):
        with pytest.raises(ValueError) as info:
            energy_from_momentum(Species.BRADYON, *args)
        assert type(info.value) is ValueError
        assert str(info.value) == ("bradyon energy out of floating-point range at "
                                   "k = 1.5e+308, m = 1e+308")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("species", [Species.BRADYON, Species.PSEUDOTACHYON])
def test_energy_keeps_the_bits_of_the_written_out_law_wherever_it_is_finite(species):
    """math.hypot, or sqrt(k - m) sqrt(k + m), which is finite wherever k + m
    is.  Where it is not, the pseudotachyon energy is still finite."""
    a, b = hypot_pairs(20_000, seed=5)
    k, m = np.maximum(a, b), np.minimum(a, b)
    if species is Species.BRADYON:
        law = np.array(list(map(math.hypot, k.tolist(), m.tolist())))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            law = np.sqrt(np.maximum(k - m, 0.0)) * np.sqrt(k + m)
    finite = np.isfinite(law)
    assert 0 < np.count_nonzero(~finite) < 2_000
    if species is Species.BRADYON:  # the others raise the range error
        k, m, law, finite = k[finite], m[finite], law[finite], finite[finite]
    eps = energy_from_momentum(species, k, m)
    assert np.isfinite(eps).all()
    assert np.array_equal(eps[finite].view(np.int64), law[finite].view(np.int64))


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
    assert not np.isnan(table.u[4]) and not np.isnan(table.w[4])
    assert abs(table.u[4] - 0.661437828) <= 1e-9
    assert abs(table.v[4] - 0.8) <= 1e-15
    assert abs(table.w[4] - 1.25) <= 1e-15


def test_dispersion_table_zero_energy_row():
    table = dispersion_table(3.0, 0.0, 10.0, 11)
    assert table.epsilon[0] == 0.0
    assert math.isnan(table.u[0]) and math.isnan(table.w[0])
    assert table.v[0] == 0.0
    # u appears at eps = m = 3, w at the first nonzero energy
    assert np.isnan(table.u).tolist() == [True] * 3 + [False] * 8
    assert np.isnan(table.w).tolist() == [True] + [False] * 10


def test_dispersion_table_newtonian_regime():
    """At energies far below the mass the tachyonic speed is eps/m."""
    m = 3.0
    table = dispersion_table(m, m / 1e4, m / 100.0, 7)
    expected = table.epsilon / m
    assert np.all(np.abs(table.v - expected) / expected <= 0.01)


@pytest.mark.parametrize("m, eps_min, eps_max, steps, m_eps", [
    (3.0, 0.0, 1e-320, 3, 5e-321),            # h / eps overflows: w = inf
    (1e308, 0.0, 1.7e308, 4, 1.7e308),        # h overflows: w = inf
], ids=["w-overflow", "u-w-overflow"])
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
    assert (s.u is None) == math.isnan(t.u[0]) and (s.w is None) == math.isnan(t.w[0])
    assert [s.u, s.v, s.w] == [None if math.isnan(t.u[0]) else t.u[0], t.v[0],
                               None if math.isnan(t.w[0]) else t.w[0]]
    assert math.copysign(1.0, s.v) == 1.0


@pytest.mark.parametrize("eps, m, eps_max", [
    (1.5e308, 1e308, 1.7e308),  # h overflows: w = inf
    (1e-320, 3.0, 1.0),         # h / eps overflows: w = inf
], ids=["u-w-overflow", "w-overflow"])
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


@pytest.mark.filterwarnings("error")
def test_speeds_at_the_top_transcendent_point_are_finite():
    """eps = m = 1e308: eps + m overflows, yet u is the pseudotachyon energy
    at momentum eps over eps, exactly 0."""
    table = dispersion_table(1e308, 0.0, 1e308, 2)
    assert np.array_equal(table.u, [np.nan, 0.0], equal_nan=True)
    assert table.v.tolist() == [0.0, 0.7071067811865475]
    assert np.array_equal(table.w, [np.nan, 1.4142135623730951], equal_nan=True)
    assert speeds(1e308, 1e308) == SpeedTriple(0.0, 0.7071067811865475, 1.4142135623730951)


@pytest.mark.filterwarnings("error")
def test_bradyon_speed_keeps_the_bits_of_the_written_out_root():
    """Wherever eps + m is finite, u is sqrt(eps - m) sqrt(eps + m) / eps
    clamped to 1, bit for bit, over `hypot_pairs` with eps >= m."""
    a, b = hypot_pairs(20_000, seed=7)
    eps, m = np.maximum(a, b), np.minimum(a, b)
    eps, m = eps[eps > 0.0], m[eps > 0.0]
    with np.errstate(over="ignore"):
        in_range = eps + m < math.inf
    eps, m = eps[in_range], m[in_range]
    law = np.sqrt(np.maximum(eps - m, 0.0)) * np.sqrt(eps + m) / eps
    law = np.where(m == 0.0, 1.0, np.minimum(law, 1.0))
    u = _speed_columns(eps, m).u
    assert np.array_equal(u.view(np.int64), law.view(np.int64))


def u_ulps(eps: float, m: float, u: float) -> float:
    """|u - sqrt(eps^2 - m^2) / eps| in ulps of the exact speed."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(eps) ** 2 - Decimal(m) ** 2).sqrt() / Decimal(eps)
        return float(abs(Decimal(u) - exact) / Decimal(math.ulp(float(exact))))


@pytest.mark.filterwarnings("error")
def test_bradyon_speed_past_the_sum_range_is_finite_and_accurate(rng):
    """Where eps + m overflows but h = hypot(eps, m) does not, u is finite, at
    most 1 and within 4 ulp of a decimal root, the transcendent u = 0 included."""
    m = rng.uniform(0.5, 0.7, 600) * TOP
    eps = m + rng.uniform(0.0, 1.0, 600) * (np.sqrt(1.0 - (m / TOP) ** 2) * TOP * 0.999 - m)
    eps[:3] = m[:3] = [0.6 * TOP, 0.65 * TOP, 0.7 * TOP]
    with np.errstate(over="ignore"):
        past = eps + m == math.inf
    assert np.count_nonzero(past) > 300
    eps, m = eps[past], m[past]
    u = _speed_columns(eps, m).u
    assert np.isfinite(u).all() and (u <= 1.0).all() and (u[:3] == 0.0).all()
    assert max(map(u_ulps, eps[3:].tolist(), m[3:].tolist(), u[3:].tolist())) <= 4.0


def test_speed_law_names_the_mass_of_the_offending_row():
    eps, m = np.array([1.0, 2.0, 1e-320, 1e-320]), np.array([0.5, 3.0, 7.0, 5.0])
    with pytest.raises(ValueError, match=re.escape("epsilon = 1e-320 (m = 7.0) are out")):
        _speed_columns(eps, m)


# 0, subnormals, log-uniform magnitudes from 1e-323 to 1e308 and the largest
# float: every range where h = hypot(eps, m), eps / h or h / eps could leave
# the floating-point range
speed_law_values = st.one_of(st.just(0.0), st.integers(1, 2 ** 52 - 1).map(lambda i: i * 5e-324),
                             st.floats(min_value=-323.0, max_value=308.0).map(lambda e: 10.0 ** e),
                             st.just(TOP))


@st.composite
def speed_law_pairs(draw):
    eps = draw(speed_law_values)
    return eps, draw(st.one_of(speed_law_values, st.just(eps)))  # equal pairs too


def assert_speed_law_rows(eps, m, law):
    """`law()` gives the columns (u, v, w) at energies eps and masses m, or
    raises the range error of the first row whose w = hypot(eps, m) / eps is
    inf; it raises if and only if there is such a row.  Otherwise u and v are
    finite where present, with 0 <= u <= 1, a present w is finite, and u is
    NaN exactly where eps < m or eps = 0, w exactly where eps = 0."""
    rows = list(zip(eps.tolist(), np.broadcast_to(m, eps.shape).tolist()))
    over = [e > 0.0 and math.hypot(e, mi) / e == math.inf for e, mi in rows]
    if any(over):
        e, mi = rows[over.index(True)]
        with pytest.raises(ValueError) as info:
            law()
        assert str(info.value) == (f"dispersion speeds at epsilon = {e!r} (m = {mi!r}) "
                                   "are out of floating-point range")
        return
    for (e, mi), u, v, w in zip(rows, *(np.asarray(c).tolist() for c in law())):
        assert math.isnan(u) == (e < mi or e == 0.0) and math.isnan(w) == (e == 0.0)
        assert math.isnan(u) or 0.0 <= u <= 1.0
        assert math.isfinite(v) and (math.isnan(w) or math.isfinite(w))


# the second filter lets hypothesis's report hook print a falsifying example
@pytest.mark.filterwarnings("error",
                            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@given(pairs=st.lists(speed_law_pairs(), min_size=2, max_size=8), steps=st.integers(2, 5))
@settings(max_examples=300, deadline=None)
def test_only_w_can_leave_the_float_range(pairs, steps):
    """The fact the law's one range test, on w, rests on, through
    `_speed_columns` with one mass per energy (as verify calls it), `speeds`
    at each energy, and `dispersion_table` over the drawn energies at the
    first mass, on per-entry `math.hypot` and on `_hypot`'s array blocks."""
    eps, m = np.array(pairs).T
    assert_speed_law_rows(eps, m, lambda: _speed_columns(eps, m)[1:])
    for e, mi in pairs:
        assert_speed_law_rows(np.array([e]), mi, lambda: [[math.nan if x is None else x]
                                                          for x in speeds(e, mi)])
    lo, hi = eps.min(), eps.max()
    if lo < hi:
        with np.errstate(over="ignore"):  # the last step may round past the range
            grid = np.linspace(lo, hi, steps) + 0.0
        assert_speed_law_rows(grid, m[0],
                              lambda: dispersion_table(m[0], lo, hi, steps)[1:])
    reps = -(-_HYPOT_MIN_SIZE // len(pairs))  # past the per-entry side of `_hypot`
    assert_speed_law_rows(np.tile(eps, reps), np.tile(m, reps),
                          lambda: _speed_columns(np.tile(eps, reps), np.tile(m, reps))[1:])


@pytest.mark.filterwarnings("error")
def test_dispersion_table_up_to_the_largest_float_does_not_warn():
    """(steps - 1) * (eps_max / (steps - 1)) rounds past the range at eps_max =
    TOP, steps = 4, yet the grid ends at TOP with no RuntimeWarning."""
    table = dispersion_table(1.0, 0.0, TOP, 4)
    assert table.epsilon[-1] == TOP and np.isfinite(table.epsilon).all()
    assert table.w[1:].tolist() == [1.0] * 3


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
