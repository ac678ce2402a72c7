"""The dispersion writer's vectorized %g formatter against Python's own, value by value."""
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdirac import cli, gformat
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
