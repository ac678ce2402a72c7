"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench

Smoke runs check that every metric BENCHMARK.json names is printed with its
unit; planted defects check that the output checks count failures.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from ptdirac import spinors  # noqa: E402
from ptdirac.kinematics import NonPhysicalMomentum  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture(autouse=True)
def spans_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def tiny(name, tmp_path):
    if name == "verify-bulk":
        return workloads.VerifyBulk(trials=5)
    if name == "dispersion-csv":
        return workloads.DispersionCsv(tmp_path, run.GOLDEN, rows=200)
    return workloads.StateInspect()


def execute(workload, capsys, trace=False):
    run.execute(workload, SEED, 0.01, trace, setup_repeats=1)
    out = capsys.readouterr().out.splitlines()
    return json.loads(out[-1]), out[:-1]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    result, lines = execute(tiny(name, tmp_path), capsys, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    assert any(line.startswith("ops attempted") for line in lines)
    assert any(line.startswith("record ") for line in lines)


def test_end_to_end_metrics_are_positive(tmp_path, capsys):
    result, _ = execute(tiny("state-inspect", tmp_path), capsys)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_csv_row_is_a_failure(tmp_path, capsys):
    class Corrupted(workloads.DispersionCsv):
        def run(self, table):
            code = super().run(table)
            lines = self.out.read_text().split("\n")
            eps, u, v, w = lines[-5].split(",")
            lines[-5] = ",".join([eps, u, v, repr(2.0 * float(w))])
            self.out.write_text("\n".join(lines))
            return code

    clean, _ = execute(tiny("dispersion-csv", tmp_path), capsys)
    planted, lines = execute(Corrupted(tmp_path, run.GOLDEN, rows=200), capsys)
    assert clean["failed"] == 0
    assert planted["failed"] > 0 and not planted["correct"]
    assert any("v*w differs from 1" in line for line in lines)


def failed_ratio(workload, ops):
    tally = run.closed_loop(workload, SEED, ops=ops).tally
    return tally.failed / tally.attempted


# The first 96 state operations are in-domain states, the next 6 out of domain.
REGULAR, WITH_OUT_OF_DOMAIN = 96, 102


def test_nan_residual_is_a_failure(monkeypatch):
    assert failed_ratio(workloads.StateInspect(), REGULAR) == 0.0
    monkeypatch.setattr(spinors, "solution_residual", lambda spec, w=None: math.nan)
    assert failed_ratio(workloads.StateInspect(), REGULAR) > 0.0


def test_wrong_exception_type_is_a_failure(monkeypatch):
    assert failed_ratio(workloads.StateInspect(), WITH_OUT_OF_DOMAIN) == 0.0
    real = spinors.energy_from_momentum

    def untyped(species, k, m):
        try:
            return real(species, k, m)
        except NonPhysicalMomentum as exc:
            raise ValueError(str(exc)) from None

    monkeypatch.setattr(spinors, "energy_from_momentum", untyped)
    assert failed_ratio(workloads.StateInspect(), WITH_OUT_OF_DOMAIN) > 0.0


def test_only_known_defects_fail_on_state_inspect():
    workload = workloads.StateInspect()
    tally = run.closed_loop(workload, SEED, ops=workload.cycle).tally
    assert {label for label, _ in tally.failures} <= workloads.KNOWN_DEFECTS


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "state-inspect", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
