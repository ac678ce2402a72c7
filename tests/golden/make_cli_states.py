"""Write cli_states.txt: the stdout, stderr and exit code of a fixed set of
`spinor`, `expect` and `transform` runs, in process through `cli.main`.

The runs cover every species x energy sign x helicity x basis on a generic
momentum, on both z poles and (pseudotachyons) at the transcendent point
k = m; `spinor` at the default settings and at --precision 17 --volume 2.5,
`expect` for the massive species, `transform --op P|C|T|I` and boosts at
rapidity 0.7 and -1.3; and a few inputs that must exit 2.  No run may emit
a warning, so the file also holds under ``-W error``.

Regenerate (only when a change of the printed bytes is intended) with

    PYTHONPATH=src python tests/golden/make_cli_states.py

and review the diff; tests/test_cli_states.py compares `render()` with the
committed file byte for byte.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import sys
import warnings
from pathlib import Path

from ptdirac import cli

PATH = Path(__file__).with_name("cli_states.txt")

SPECIES = (("pt", 1.2), ("bradyon", 1.2), ("luxon", 0.0))
MOMENTA = (("generic", "0.3,-1.1,2.2"), ("pole_up", "0,0,2.5"), ("pole_down", "0,0,-2.5"))
# |(0.6, 0, 0.8)| rounds to exactly 1.0, so this is the point k = m
TRANSCENDENT = (("k_eq_m_pole", "0,0,1.2", 1.2), ("k_eq_m_generic", "0.6,0,0.8", 1.0))
BOOSTS = (("0.7", "0,0,1"), ("-1.3", "0.6,0,0.8"))
# Each must exit 2: rapidity 800, a bradyon norm target beyond the float
# range, zero momentum, a non-unit axis, and two off-shell specs
EXIT_2 = (
    ("transform", "--species=pt", "--momentum=0,0,2.5", "--mass=1.2", "--op=boost",
     "--rapidity=800"),
    ("spinor", "--species=bradyon", "--momentum=0,0,5", "--mass=1e308"),
    ("spinor", "--species=bradyon", "--momentum=0,0,0", "--mass=1"),
    ("transform", "--species=pt", "--momentum=0,0,2.5", "--mass=1.2", "--op=boost",
     "--rapidity=0.7", "--axis=0,0,2"),
    ("expect", "--species=pt", "--momentum=0,0,0.5", "--mass=1.2"),
    ("spinor", "--species=luxon", "--momentum=0,0,1", "--mass=0.5"),
)


def runs():
    """The argument lists of every run, in file order."""
    for (species, mass), sign, lam, rep in itertools.product(
            SPECIES, ("+", "-"), ("+1", "-1"), ("standard", "weyl")):
        shapes = [(name, p, mass) for name, p in MOMENTA]
        if species == "pt":
            shapes += TRANSCENDENT
        for _, momentum, m in shapes:
            spec = (f"--species={species}", f"--sign={sign}", f"--momentum={momentum}",
                    f"--mass={m}", f"--helicity={lam}", f"--rep={rep}")
            yield ("spinor", *spec)
            yield ("spinor", *spec, "--precision=17", "--volume=2.5")
            if m > 0.0:
                yield ("expect", *spec)
            for op in "PCTI":
                yield ("transform", *spec, f"--op={op}")
            for rapidity, axis in BOOSTS:
                yield ("transform", *spec, "--op=boost", f"--rapidity={rapidity}",
                       f"--axis={axis}")
    yield from EXIT_2


def run(argv) -> str:
    """One run as text: the command, its stdout lines ('| '), its stderr
    lines ('! ') and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse
                code = exc.code
    if caught:
        raise AssertionError(f"{' '.join(argv)} warned: {caught[0].message}")
    lines = [f"$ ptdirac {' '.join(argv)}"]
    lines += [f"| {line}" for line in out.getvalue().splitlines()]
    lines += [f"! {line}" for line in err.getvalue().splitlines()]
    lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def render() -> str:
    """Every run, at the default tolerance."""
    return "".join(run(argv) for argv in runs())


if __name__ == "__main__":
    PATH.write_text(render(), encoding="utf-8")
    print(f"wrote {sum(1 for _ in runs())} runs to {PATH}", file=sys.stderr)
