"""The dispersion writer's vectorized %g formatter against Python's own, value by value."""
import math
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdirac import cli, gformat, kinematics
from test_cli import reference_csv


def formatted(x: float, p: int) -> tuple[str, int]:
    """`format_block` of the single value x, and how many values it passed to `%`."""
    with mock.patch.object(gformat, "_fmt", wraps=gformat._fmt) as fallback:
        text = gformat.format_block(np.array([[x]]), p, ("\n",))
    assert text.endswith("\n")
    return text[:-1], fallback.call_count


@given(x=st.floats(min_value=0.0, max_value=sys.float_info.max, allow_subnormal=True),
       p=st.integers(min_value=3, max_value=17))
@settings(max_examples=500, deadline=None)
def test_format_matches_percent_g(x, p):
    assert formatted(x, p)[0] == f"{x:.{p}g}"


def edge_values() -> list[float]:
    values = [0.0, 5e-324, sys.float_info.max, 1.125, 2.5, 0.5, 9.5, 99.5, 999.5]
    values += [k / 2.0 ** j for j in (1, 3, 7, 10, 24) for k in range(1, 64, 3)]
    for k in range(-8, 26):
        power = float(f"1e{k}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    return [float(v) for v in values]


@pytest.mark.parametrize("p", range(3, 18))
def test_format_edge_values(p):
    """Zero, the extremes, ties and dyadic grids, and each 10^k with both of its
    neighbours: the rounding carry and the switches at 1e-4 / 1e-5 and 10^p."""
    for x in edge_values():
        assert gformat.format_block(np.array([[x]]), p, ("\n",)) == f"{x:.{p}g}\n", x


@pytest.mark.parametrize("x, p", [
    (2.0 ** -24, 16), (1235.0, 3), (5e-324, 9), (sys.float_info.max, 17), (1e-300, 9),
    (1e280, 12),
])
def test_uncertified_ties_and_extreme_exponents_go_through_percent(x, p):
    """Exact ties that _decimal cannot certify, where s = p-1-e is above 22
    (2^-24 at p = 16) or negative (1235 at p = 3), and |e| > 270."""
    text, fallbacks = formatted(x, p)
    assert (text, fallbacks) == (f"{x:.{p}g}", 1)


@pytest.mark.parametrize("x, p", [
    (1.125, 3), (2.375, 3), (0.1875, 3), (999.5, 3), (2.0 ** -10, 6), (2.0 ** -20, 13),
    (12345678.5, 9), (0.5, 3),
])
def test_certified_ties_round_half_to_even_without_percent(x, p):
    """x 10^s ends in .5 with 0 <= s <= 22, where 10^s is exact: 1.125 gives
    1.12, 2.375 gives 2.38, and 999.5 carries to 1e+03."""
    text, fallbacks = formatted(x, p)
    assert (text, fallbacks) == (f"{x:.{p}g}", 0)


def test_tie_heavy_table_sends_few_values_to_percent(tmp_path):
    """A massless table on the grid k/8 prints many exact ties at p = 3: only
    1005 and 1015, ties that _decimal cannot certify (s = -1), go to `%`, and
    the bytes are the row-by-row reference."""
    target = tmp_path / "table.csv"
    argv = ["dispersion", "--mass", "0", "--eps-max", "1024", "--steps", "8193",
            "--precision", "3", "--out", str(target)]
    with mock.patch.object(gformat, "_fmt", wraps=gformat._fmt) as fallback:
        assert cli.main(argv) == 0
    assert fallback.call_count == 2
    assert target.read_text() == reference_csv(0.0, 0.0, 1024.0, 8193, 3)


@pytest.mark.parametrize("x, p", [(0.0, 9), (1.5, 3), (0.8, 9), (1.126, 3), (123.456, 9),
                                  (1e-5, 9), (1e17, 17), (1 / 3, 17), (2.0 ** -100, 12)])
def test_ordinary_values_do_not_go_through_percent(x, p):
    text, fallbacks = formatted(x, p)
    assert (text, fallbacks) == (f"{x:.{p}g}", 0)


def test_block_of_mixed_layouts_matches_row_by_row():
    """One call over rows x fields whose values take every layout at once."""
    values = np.array(edge_values())
    block = values[:len(values) // 4 * 4].reshape(-1, 4)
    for p in (3, 9, 17):
        expected = "".join(f"{a:.{p}g},{b:.{p}g},,{c:.{p}g},{d:.{p}g}\n"
                           for a, b, c, d in block.tolist())
        assert gformat.format_block(block, p, (",", ",,", ",", "\n")) == expected


def ulps_around(values, n: int = 8) -> np.ndarray:
    """Every double within n ulps of each of `values` (all positive), both sides."""
    bits = np.asarray(values, np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-n, n + 1)).ravel().view(np.float64)


def near_ties(p: int) -> np.ndarray:
    """Doubles within 8 ulps of decimal ties d + 1/2 at p digits, d away from
    the decade bounds, at scales from 1e-12 to 1e14."""
    rng = np.random.default_rng(p)
    digits = rng.integers(10 ** (p - 1) + 1, 10 ** p - 1, size=12, dtype=np.int64)
    scales = rng.integers(-12, 15, size=12)
    ties = [float(f"{d}5e{k - p}") for d, k in zip(digits.tolist(), scales.tolist())]
    return ulps_around(ties)


def near_decades() -> np.ndarray:
    """Doubles within 8 ulps of each 10^k, k = -5..20, both sides."""
    return ulps_around([float(f"1e{k}") for k in range(-5, 21)])


def assert_matches_percent(values, p: int):
    block = np.asarray(values, np.float64).reshape(-1, 1)
    expected = "".join(f"{x:.{p}g}\n" for x in block.ravel().tolist())
    assert gformat.format_block(block, p, ("\n",)) == expected


@pytest.mark.parametrize("p", range(3, 18))
def test_near_ties_match_percent_g(p):
    """Values where the high product alone cannot decide the rounding."""
    assert_matches_percent(near_ties(p), p)


@pytest.mark.parametrize("p", range(3, 18))
def test_near_decades_match_percent_g(p):
    """Values on both sides of a decade: the exponent estimate, the carry and
    the switch between fixed and scientific layouts."""
    assert_matches_percent(near_decades(), p)


@pytest.mark.parametrize("p", range(3, 18))
def test_exact_decades_and_a_column_of_ones_match_percent_g(p):
    """Exact decades, repunits, and a block whose middle column is all ones,
    as in a massless table, so every value of that column shifts its point
    alike."""
    decades = [float(10 ** k) for k in range(23)] + [float(f"1e-{k}") for k in range(1, 23)]
    repunits = [float("1" * k) for k in range(1, 18)] + [float("0." + "1" * k) for k in range(1, 18)]
    values = np.array(decades + repunits)
    assert_matches_percent(values, p)
    block = np.column_stack([values, np.ones(values.size), values[::-1]])
    expected = "".join(f"{a:.{p}g},{b:.{p}g},{c:.{p}g}\n" for a, b, c in block.tolist())
    assert gformat.format_block(block, p, (",", ",", "\n")) == expected


def scaled_inputs(block: np.ndarray, p: int) -> list[np.ndarray]:
    """The values `format_block` passes to the double-double `_scaled`, call by call."""
    with mock.patch.object(gformat, "_scaled", wraps=gformat._scaled) as spy:
        gformat.format_block(block, p, ("\n",) * block.shape[1])
    return [call.args[0] for call in spy.call_args_list]


def test_double_double_runs_on_no_value_of_a_p9_grid_chunk():
    """One CHUNK_ROWS chunk of a pseudotachyon table away from eps = 0: the
    high product decides every value at p = 9."""
    table = kinematics.dispersion_table(3.0, 0.0, 1e3, 100_000)
    rows = slice(cli.CHUNK_ROWS, 2 * cli.CHUNK_ROWS)
    block = np.column_stack([table.epsilon[rows], table.u[rows], table.v[rows], table.w[rows]])
    assert scaled_inputs(block, 9) == []


def test_double_double_runs_on_every_value_at_p17():
    ties = near_ties(12)
    block = np.column_stack([ties, near_decades()[:ties.size]])
    calls = scaled_inputs(block, 17)
    np.testing.assert_array_equal(calls[0], block.ravel())


def tie_distance(x: float, p: int) -> tuple[Fraction, Fraction]:
    """(y, delta): y = x 10^(p-1-e) in [10^(p-1), 10^p) exactly, and its
    distance from the nearest half-integer."""
    y = Fraction(x)
    while y < 10 ** (p - 1):
        y *= 10
    while y >= 10 ** p:
        y /= 10
    return y, abs(y - math.floor(y) - Fraction(1, 2))


def test_double_double_runs_only_on_the_undecided_near_ties():
    """At p <= 15 the high product ph = x hi is within 2^-52 ph of y, and it
    decides where it is more than 2^-51 ph from a tie: so a value within
    2^-53 y of a tie must go to the double-double, and one more than 2^-50 y
    from it must not."""
    undecided = decided = 0
    for p in range(3, 16):
        values = near_ties(p)
        passed = set(np.concatenate([[], *scaled_inputs(values.reshape(-1, 1), p)]).tolist())
        for x in values.tolist():
            y, delta = tie_distance(x, p)
            if delta <= y * Fraction(2) ** -53:
                assert x in passed, (x, p)
                undecided += 1
            elif delta > y * Fraction(2) ** -50:
                assert x not in passed, (x, p)
                decided += 1
    assert undecided > 100 and decided > 100, (undecided, decided)


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("p", [3, 9, 12, 15, 17])
def test_an_exponent_estimate_off_by_one_still_matches_percent_g(p, shift):
    """log10 rounds differently across SIMD builds, so floor(log10 x) can be
    one off next to a decade: the high product must then leave the value to
    the double-double stage, which fixes the exponent up.  The stand-in
    returns the exact decimal exponent of each x > 0 plus `shift`."""
    def off_by_one(x, out, where):
        out[where] = [Decimal(v).adjusted() + shift for v in x[where].tolist()]
        return out

    values = np.concatenate([near_decades(), near_ties(p), [0.0, 1.0, 0.5, 123.456]])
    with mock.patch.object(np, "log10", off_by_one):
        assert_matches_percent(values, p)
