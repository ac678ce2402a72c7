"""The `spinor`, `expect` and `transform` bytes of tests/golden/cli_states.txt.

The corpus and its generator are described in tests/golden/make_cli_states.py.
"""
import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location("make_cli_states",
                                                  GOLDEN / "make_cli_states.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_state_runs_match_the_golden_bytes():
    make = _generator()
    got = make.render().encode("utf-8")
    want = make.PATH.read_bytes()
    if got != want:
        got_runs, want_runs = got.split(b"\n$ "), want.split(b"\n$ ")
        first = next((a for a, b in zip(got_runs, want_runs) if a != b), None)
        raise AssertionError(f"{len(got_runs)} runs against {len(want_runs)}; "
                             f"first differing run:\n{first!r}")
