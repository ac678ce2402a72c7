"""Span tracer installed around ptdirac's public functions at run time.

Every traced call records one span: name, start, end, parent span and the
operation id the benchmark was running.  Spans stay in memory in flat arrays
and are written out once, when the traced run ends.  A span's self time is its
duration minus the time its child spans cover; with one caller thread the
children of a span never overlap, so that is the sum of their durations.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced function.  The wrapper replaces the
# function wherever a ptdirac module bound the name, so calls through
# `from .kinematics import boost` are traced as well as `kinematics.boost`.
FUNCTIONS = (
    ("clifford", "gamma_set"),
    ("clifford", "slash"),
    ("kinematics", "energy_from_momentum"),
    ("kinematics", "boost"),
    ("kinematics", "speeds"),
    ("kinematics", "dispersion_table"),
    ("spinors", "helicity_spinor"),
    ("spinors", "amplitude"),
    ("spinors", "dirac_operator"),
    ("observables", "expectation_report"),
    ("observables", "mean_four_velocity"),
    ("observables", "mean_spin_four_vector"),
    ("symmetries", "apply_discrete"),
    ("symmetries", "apply_boost"),
    ("symmetries", "discrete_operator"),
    ("symmetries", "lorentz_boost_spinor"),
    ("verify", "clifford_checks"),
    ("verify", "kinematics_checks"),
    ("verify", "spinor_checks"),
    ("verify", "observable_checks"),
    ("verify", "symmetry_checks"),
    ("verify", "random_spec"),
    ("cli", "main"),
    ("cli", "cmd_dispersion"),
)


class Tracer:
    """Records spans while installed; `install` and `uninstall` bracket a run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function wherever a ptdirac module bound it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ptdirac" or n.startswith("ptdirac."))]
        for mod_name, attr in FUNCTIONS:
            fn = getattr(sys.modules[f"ptdirac.{mod_name}"], attr)
            traced = self.wrap(f"{mod_name}.{attr}", fn)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, bound, traced)
        spec = sys.modules["ptdirac.spinors"].PlaneWaveSpec
        self._replace(spec, "__init__",
                      self.wrap("spinors.PlaneWaveSpec.init", spec.__init__))
        self._replace(spec, "k",
                      property(self.wrap("spinors.PlaneWaveSpec.k", spec.k.fget)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def write(self, path) -> int:
        """Write every span to an .npz file; returns the span count."""
        data = self.arrays()
        np.savez(path, names=np.array(self.names), **data)
        return len(data["start"])


class SpanStats:
    """Per-name aggregates of a finished trace.

    `op_scale[i]` multiplies the durations of the spans of operation i, so
    span times can be rescaled like the operations' own latencies.
    """

    def __init__(self, tracer: Tracer, op_scale: np.ndarray):
        a = tracer.arrays()
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        n_names = len(tracer.names)
        names, start, end, parent = a["name_id"], a["start"], a["end"], a["parent"]
        dur = (end - start) * op_scale[a["op"]]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self._calls = np.bincount(names, minlength=n_names)
        self._wall = np.bincount(names, weights=dur, minlength=n_names)
        self._self = np.bincount(names, weights=dur - child, minlength=n_names)
        self._names, self._start, self._end = names, start, end

    def calls(self, name: str) -> int:
        return int(self._calls[self.ids[name]])

    def wall_s(self, name: str) -> float:
        return float(self._wall[self.ids[name]])

    def self_s(self, name: str) -> float:
        return float(self._self[self.ids[name]])

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return 1e6 * self.wall_s(name) / calls if calls else 0.0

    def descendants(self, outer: str, inner: str = None) -> int:
        """Number of spans (named `inner`, if given) inside `outer` spans.

        Spans are stored in start order and nest, so the descendants of span
        i are the spans after it that start before it ends.
        """
        idx = np.flatnonzero(self._names == self.ids[outer])
        last = np.searchsorted(self._start, self._end[idx], side="left")
        if inner is None:
            return int(np.sum(last - idx - 1))
        is_inner = np.concatenate(([0], np.cumsum(self._names == self.ids[inner])))
        return int(np.sum(is_inner[last] - is_inner[idx + 1]))
