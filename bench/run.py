"""ptdirac benchmark: three seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload verify-bulk --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; ptdirac is imported from the
checkout's `src/`.  The load is one process with one caller thread in a closed
loop: the next operation starts only when the previous one has returned.
Inputs are generated from --seed before each operation, outside its timed
region, and every output is checked after it, also untimed.

--trace 0 times the workload for --seconds and reports the end-to-end metrics,
rescaled by a host-speed probe (see PROBE_NOMINAL_S); the raw wall-clock
values are printed next to them.
--trace 1 runs a fixed number of operations twice, untraced and then with span
wrappers installed around ptdirac's public functions, and reports per-layer
metrics from the spans plus the tracing overhead; the fixed count makes every
per-layer call count repeat exactly for a seed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # must be set before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = ROOT / "tests" / "golden" / "dispersion_m3.csv"

if not (SRC / "ptdirac" / "__init__.py").is_file():
    sys.exit(f"error: no ptdirac sources in {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ptdirac  # noqa: E402

if Path(ptdirac.__file__).resolve().parent != SRC / "ptdirac":
    sys.exit(f"error: imported ptdirac from {ptdirac.__file__}, not from {SRC}")

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify-bulk", "dispersion-csv", "state-inspect")

# A cold `ptdirac expect` call: interpreter start, imports, one warm-up call.
SETUP_CODE = ("import sys, ptdirac, ptdirac.cli; "
              "sys.exit(ptdirac.cli.main(['expect', '--species', 'pt', "
              "'--momentum', '0.6,0,0.8', '--mass', '0.5']))")
SETUP_REPEATS = 7
# The reference start loads what a cold ptdirac start loads apart from ptdirac;
# its nominal time is near its uncontended time on the host the benchmark was
# defined on.  Like PROBE_NOMINAL_S below, it cancels the host's speed swings.
SETUP_REFERENCE_CODE = "import numpy, argparse, dataclasses, enum, zlib"
SETUP_REFERENCE_NOMINAL_S = 0.18

# Per-layer metrics read from spans, named <span>.<statistic>.
SPAN_METRICS = (
    "clifford.gamma_set.calls", "clifford.slash.calls", "clifford.slash.self_s",
    "kinematics.speeds.calls", "kinematics.speeds.self_s",
    "kinematics.dispersion_table.self_s", "kinematics.energy_from_momentum.calls",
    "kinematics.boost.self_s",
    "spinors.PlaneWaveSpec.init.calls", "spinors.PlaneWaveSpec.init.self_s",
    "spinors.PlaneWaveSpec.k.calls", "spinors.amplitude.calls", "spinors.amplitude.self_s",
    "spinors.helicity_spinor.self_s", "spinors.dirac_operator.calls",
    "spinors.dirac_operator.self_s",
    "observables.expectation_report.self_s", "observables.mean_four_velocity.self_s",
    "observables.mean_spin_four_vector.self_s",
    "symmetries.apply_discrete.self_s", "symmetries.apply_boost.self_s",
    "symmetries.discrete_operator.calls", "symmetries.lorentz_boost_spinor.calls",
    "symmetries.lorentz_boost_spinor.self_s",
    "verify.clifford_checks.wall_s", "verify.kinematics_checks.wall_s",
    "verify.spinor_checks.wall_s", "verify.observable_checks.wall_s",
    "verify.symmetry_checks.wall_s", "verify.random_spec.calls",
    "cli.main.self_s", "cli.cmd_dispersion.self_s",
    "spinors.PlaneWaveSpec.init.mean_us", "spinors.amplitude.mean_us",
    "observables.expectation_report.mean_us",
)
UNITS = {"calls": "count", "self_s": "s", "wall_s": "s", "mean_us": "us"}

# ROADMAP aim 1's per-call baselines: (span, label, value in microseconds).
ROADMAP_BASELINES = (
    ("spinors.PlaneWaveSpec.init", "PlaneWaveSpec(...)", 16.0),
    ("spinors.amplitude", "amplitude", 26.0),
    ("observables.expectation_report", "expectation_report", 386.0),
)
ROADMAP_TABLE_MS_PER_1E4_ROWS = 39.0
ROADMAP_VERIFY_GROUPS_S = {"symmetry_checks": 0.84, "observable_checks": 0.73,
                           "spinor_checks": 0.21, "kinematics_checks": 0.14,
                           "clifford_checks": 0.04}


def make_workload(name: str, workdir: Path):
    if name == "verify-bulk":
        return workloads.VerifyBulk()
    if name == "dispersion-csv":
        return workloads.DispersionCsv(workdir, GOLDEN)
    return workloads.StateInspect()


class Tally:
    """Checked operations, counted without keeping one object per operation."""

    def __init__(self):
        self.attempted = self.items = self.output_bytes = 0
        self.failures = Counter()  # (label, why) -> count

    def add(self, outcome: workloads.Outcome):
        self.attempted += 1
        self.items += outcome.items
        self.output_bytes += outcome.output_bytes
        if outcome.failure:
            self.failures[outcome.label, outcome.failure] += 1

    def update(self, other: "Tally"):
        self.attempted += other.attempted
        self.items += other.items
        self.output_bytes += other.output_bytes
        self.failures.update(other.failures)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Samples:
    """Per-operation latency and adjacent host-speed probe time."""

    def __init__(self):
        self.latency, self.probe = array("d"), array("d")
        self.tally = Tally()


# The 2-core host the benchmark was defined on shares its cores with other
# tenants, and its speed swings by up to 2x within seconds and drifts between
# minutes.  A fixed task unrelated to ptdirac, timed right after each
# operation, measures that swing, and every reported time is rescaled to the
# task's fixed nominal speed below, near its uncontended speed on that host.
PROBE_NOMINAL_S = 6.5e-6  # seconds per probe iteration
_PROBE_MATRIX = np.array([[1, 2j, 0, 1], [0, 1, 1j, 0], [1, 0, 1, 0], [0, 1j, 0, 1]]) / 2


def host_probe(iterations: int) -> float:
    """Seconds taken by a fixed mix of Python-level work and small numpy calls."""
    t0 = time.perf_counter()
    for i in range(iterations):
        w = _PROBE_MATRIX @ np.array([math.cos(i), math.sin(i), 1.0, 0.5], dtype=complex)
        float(np.linalg.norm(w)) + math.hypot(w[0].real, w[1].imag)
    return time.perf_counter() - t0


def closed_loop(workload, seed: int, seconds=None, ops=None, spans=None,
                probe: int = 0) -> Samples:
    """Run operations back to back until `ops` have run or, at the end of a
    cycle of input kinds, `seconds` have passed.  With `probe` iterations,
    the host-speed probe runs right before and right after each operation."""
    out = Samples()
    clock = time.perf_counter
    began = clock()
    for index in itertools.count():
        if index == ops or (ops is None and index % workload.cycle == 0
                            and clock() - began >= seconds):
            break
        inputs = workload.inputs(seed, index)
        if spans is not None:
            spans.op_id = index
        before = host_probe(probe)
        t0 = clock()
        try:
            raw = workload.run(inputs)
        except Exception as exc:  # the check counts it as a failed operation
            raw = exc
        out.latency.append(clock() - t0)
        out.probe.append((before + host_probe(probe)) / 2)
        out.tally.add(workload.check(inputs, raw))
    return out


def setup_seconds(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ptdirac and making one call,
    raw and rescaled by the reference interpreters started before and after."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PT_DIRAC_TOL", None)

    def start(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    raw, scaled = [], []
    before = start(SETUP_REFERENCE_CODE)
    for _ in range(repeats):
        raw.append(start(SETUP_CODE))
        after = start(SETUP_REFERENCE_CODE)
        scaled.append(raw[-1] * SETUP_REFERENCE_NOMINAL_S / ((before + after) / 2))
        before = after
    return raw, scaled


def git_sha(root: Path):
    """Commit of a git checkout, read from .git; None elsewhere."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptdirac").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(workload: str, seed: int, seconds, trace: int) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha(ROOT), "src_sha256": src_sha256(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "load": "closed loop, 1 process, 1 caller thread"}


def failure_lines(workload, tally: Tally) -> list[str]:
    return [f"failed {count} x {label}"
            f"{' (known defect)' if label in workload.known_defects else ''}: {why}"
            for (label, why), count in sorted(tally.failures.items())]


def rescaled(run: Samples, probe: int) -> np.ndarray:
    """Operation latencies rescaled to the host-speed probe's nominal speed."""
    return np.array(run.latency) * probe * PROBE_NOMINAL_S / np.array(run.probe)


def end_to_end(workload, run: Samples, setup) -> tuple[dict, list[str]]:
    raw = np.array(run.latency)
    lat = rescaled(run, workload.probe)
    items = run.tally.items
    p50, p99 = np.percentile(lat, [50, 99])
    n, beyond = len(lat), int(np.sum(lat > p99))
    setup_raw, setup_scaled = setup
    metrics = {
        "throughput_per_s": (items / float(np.sum(lat)), "1/s"),
        "latency_p50_ms": (1e3 * float(p50), "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_p50, raw_p99 = 1e3 * np.percentile(raw, [50, 99])
    notes = {
        "throughput_per_s": f"{workload.item} per second over {n} operations; "
                            f"raw {items / np.sum(raw):.6g}",
        "latency_p50_ms": f"per operation, n={n}; raw {raw_p50:.6g}",
        "setup_s": f"cold import + one call, median of {len(setup_raw)} interpreters, "
                   f"rescaled by reference starts; raw {statistics.median(setup_raw):.6g}",
        "peak_rss_mb": "peak resident memory of this process",
    }
    lines = [f"{k} {v:.6g} {u}  ({notes[k]})" for k, (v, u) in metrics.items()]
    # Not in BENCHMARK.json: only state-inspect has the 1000+ operations that
    # put ten samples beyond p99; elsewhere it is the slowest operation.
    lines.append(f"latency_p99_ms {1e3 * p99:.6g} ms  (per operation, n={n}, {beyond} beyond "
                 f"p99; raw {raw_p99:.6g})")
    lines.append(f"times are rescaled to the host-speed probe's nominal "
                 f"{1e6 * PROBE_NOMINAL_S:g} us per iteration; it ran at a median "
                 f"{1e6 * np.median(run.probe) / workload.probe:.3g} us")
    return metrics, lines


def per_layer(workload, stats, traced: Samples, overhead_s, n_spans) -> tuple[dict, list[str]]:
    metrics = {}
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        metrics[name] = (getattr(stats, stat)(span), UNITS[stat])
    reports = stats.calls("observables.expectation_report")
    inner = stats.descendants("observables.expectation_report", "spinors.amplitude")
    tally = traced.tally
    rows = tally.items if workload.name == "dispersion-csv" else 0
    table_s = stats.wall_s("kinematics.dispersion_table")
    metrics.update({
        "observables.amplitudes_per_report": (inner / reports if reports else 0.0, "ratio"),
        "kinematics.dispersion_table.ms_per_1e4_rows":
            (1e7 * table_s / rows if rows else 0.0, "ms"),
        "cli.output_bytes": (tally.output_bytes, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
        "ops_failed_ratio": (tally.failed / tally.attempted, "ratio"),
    })
    lines = [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]

    # Compare with ROADMAP aim 1, also net of the wrappers nested in each span.
    per_span = overhead_s / n_spans if n_spans else 0.0
    lines.append(f"tracing overhead {overhead_s:.4g} s over {n_spans} spans "
                 f"({1e6 * per_span:.3g} us per span); span times are rescaled "
                 f"by the host-speed probe like end-to-end times")

    def net_s(span):
        return stats.wall_s(span) - per_span * stats.descendants(span)

    for span, label, baseline_us in ROADMAP_BASELINES:
        calls = stats.calls(span)
        if calls:
            lines.append(f"baseline {label}: ROADMAP {baseline_us:g} us, traced mean "
                         f"{stats.mean_us(span):.4g} us, net of nested wrappers "
                         f"{1e6 * net_s(span) / calls:.4g} us ({calls} calls)")
    if rows:
        lines.append(f"baseline dispersion_table per 1e4 rows: ROADMAP "
                     f"{ROADMAP_TABLE_MS_PER_1E4_ROWS:g} ms, traced "
                     f"{1e7 * table_s / rows:.4g} ms, net of nested wrappers "
                     f"{1e7 * net_s('kinematics.dispersion_table') / rows:.4g} ms")
    for group, baseline in ROADMAP_VERIFY_GROUPS_S.items():
        span = f"verify.{group}"
        if stats.calls(span):
            lines.append(f"baseline verify {group}: ROADMAP {baseline:g} s per 1000 trials, "
                         f"traced {stats.wall_s(span):.4g} s, net of nested wrappers "
                         f"{net_s(span):.4g} s")
    return metrics, lines


def execute(workload, seed: int, seconds, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one benchmark pass, print its report and return the result object."""
    print(f"ptdirac benchmark: workload {workload.name}, seed {seed}, "
          f"seconds {seconds}, trace {int(trace)}")
    workload.warm_up(seed)
    tally = Tally()
    for outcome in workload.fixed_checks():
        tally.add(outcome)
    if trace:
        untraced = closed_loop(workload, seed, ops=workload.trace_ops, probe=workload.probe)
        spans = tracer.Tracer()
        spans.install()
        try:
            traced = closed_loop(workload, seed, ops=workload.trace_ops, spans=spans,
                                 probe=workload.probe)
        finally:
            spans.uninstall()
        OUT.mkdir(exist_ok=True)
        n_spans = spans.write(OUT / f"spans-{workload.name}-{seed}.npz")
        overhead_s = float(np.sum(rescaled(traced, workload.probe))
                           - np.sum(rescaled(untraced, workload.probe)))
        op_scale = workload.probe * PROBE_NOMINAL_S / np.array(traced.probe)
        metrics, lines = per_layer(workload, tracer.SpanStats(spans, op_scale), traced,
                                   overhead_s, n_spans)
        tally.update(untraced.tally)
        tally.update(traced.tally)
    else:
        setup = setup_seconds(setup_repeats)
        run = closed_loop(workload, seed, seconds=seconds, probe=workload.probe)
        metrics, lines = end_to_end(workload, run, setup)
        tally.update(run.tally)
    lines.append(f"ops attempted {tally.attempted}, failed {tally.failed}, "
                 f"ops_failed_ratio {tally.failed / tally.attempted:.6g}")
    lines += failure_lines(workload, tally)
    lines.append("record " + json.dumps(run_record(workload.name, seed, seconds, int(trace))))
    print("\n".join(lines))
    result = {
        # Known defects (ROADMAP item 1) count in `failed` but do not make the
        # run incorrect; any other failed check does.
        "correct": all(label in workload.known_defects for label, _ in tally.failures),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        execute(make_workload(args.workload, workdir), args.seed, args.seconds,
                bool(args.trace))
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
