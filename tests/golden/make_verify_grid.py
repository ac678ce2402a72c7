"""Write verify_grid.txt: the `verify.format_report` text and the exact
worst residual (`repr` of `max_residual`) of every check, over a grid of
seeds and trial counts.

`verify_seed42.txt` fixes one seed at 1000 trials to three printed digits;
this grid fixes every check bit for bit at trial counts from 1 to 3001, so a
change that reorders the arithmetic of a residual shows here even when the
printed digits hold.  The digits are tied to numpy's Generator streams, as
for `verify_seed42.txt`.

Regenerate (only when a change of the residual bits is intended) with

    PYTHONPATH=src python tests/golden/make_verify_grid.py

and review the diff; tests/test_verify.py compares `render()` with the
committed file byte for byte.
"""
from __future__ import annotations

import sys
from pathlib import Path

from ptdirac import verify

PATH = Path(__file__).with_name("verify_grid.txt")

SEEDS = (1, 2, 3, 7, 99, 12345)
TRIALS = (1, 5, 13, 100, 1000, 3001)
TOL = 1e-12


def run(seed: int, trials: int) -> str:
    """One report as text: the `format_report` lines, then one line per
    check with its worst residual to the last bit."""
    report = verify.run_all(seed, trials, TOL)
    lines = [verify.format_report(report)]
    lines += [f"  {c.name} {c.max_residual!r}" for c in report.checks]
    return "\n".join(lines) + "\n"


def render() -> str:
    return "".join(run(seed, trials) for seed in SEEDS for trials in TRIALS)


if __name__ == "__main__":
    PATH.write_text(render(), encoding="utf-8")
    print(f"wrote {len(SEEDS) * len(TRIALS)} reports to {PATH}", file=sys.stderr)
