"""Span tracing of opalg's layers, installed from outside the package.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) and, for the
heavy calls in ``HEAVY``, the tracemalloc peak of the call.  A function is
often bound under several module names (``scenarios`` does
``from .gns import gns_construct``), so every ``opalg`` module attribute
that holds the original object is rebound.  ``uninstall()`` puts the
originals back.  Spans are kept in memory; the tracer is single-threaded and
meant for an in-process ``opalg run --jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

MODULES = ("algebra", "gns", "linalg", "qubits", "groups", "ccr", "fields",
           "symmetry", "scenarios", "cli")

# span names that differ from "<module>.<function>"
RENAME = {
    "scenarios.parse_scenario": "scenarios.parse",
    "scenarios.run_scenario": "scenarios.run",
    "fields.pauli_jordan_minus": "fields.pauli_jordan",
    "fields.euclidean_propagator": "fields.euclidean",
}

# class methods traced as layers: (module, class, method) -> span name
METHODS = {
    ("scenarios", "Report", "render"): "scenarios.render",
    ("fields", "MassShellGrid", "__init__"): "fields.mass_shell_grid",
    ("fields", "EuclideanLattice", "__init__"): "fields.euclidean",
    ("fields", "EuclideanLattice", "propagator"): "fields.euclidean",
    ("fields", "EuclideanLattice", "band_limited_delta"): "fields.euclidean",
    ("fields", "EuclideanLattice", "green_identity_residual"): "fields.euclidean",
    ("symmetry", "AutomorphismGroup", "__init__"): "symmetry.automorphism_group",
}

# spans that also record their tracemalloc peak
HEAVY = frozenset({"gns.commutant_basis", "gns.equivalence_check",
                   "ccr.build_fock_operators", "fields.euclidean"})


def _span_name(module: str, func: str) -> str:
    name = f"{module}.{func}"
    if module == "cli":
        return "cli.main"   # the CLI layer: argument parsing, file I/O, dispatch
    return RENAME.get(name, name)


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.peaks = {}          # span index -> bytes allocated above the entry level
        self._stack = []
        self._mem = []           # open heavy spans: [index, base, peak]
        self._restore = []       # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        heavy = name in HEAVY
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if heavy:
                self._mem_enter(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                if heavy:
                    self._mem_exit()
                stack.pop()

        return traced

    def _mem_enter(self, idx):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()
        self._mem.append([idx, current, current])

    def _mem_exit(self):
        _, peak = tracemalloc.get_traced_memory()
        idx, base, frame_peak = self._mem.pop()
        frame_peak = max(frame_peak, peak)
        self.peaks[idx] = frame_peak - base
        if self._mem:
            self._mem[-1][2] = max(self._mem[-1][2], frame_peak)
        else:
            tracemalloc.stop()

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the public functions and listed methods of the traced modules."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"opalg.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(_span_name(short, attr), obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "opalg" and not mod_name.startswith("opalg."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for (short, cls_name, method), name in METHODS.items():
            cls = getattr(importlib.import_module(f"opalg.{short}"), cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        dur = self.durations()
        child = [0] * len(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[idx]
        return [d - c for d, c in zip(dur, child)]

    def summary(self):
        """name -> {"self_s", "calls", "peak_mb"} aggregated over all spans."""
        out = {}
        for idx, (name, own) in enumerate(zip(self.names, self.self_times())):
            row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "peak_mb": 0.0})
            row["self_s"] += own / 1e9
            row["calls"] += 1
            if idx in self.peaks:
                row["peak_mb"] = max(row["peak_mb"], self.peaks[idx] / 2**20)
        return out

    def tree_problems(self):
        """Spans that leave their parent's interval or have negative self time."""
        problems = []
        for idx, parent in enumerate(self.parents):
            if self.ends[idx] < self.starts[idx]:
                problems.append(f"span {idx} {self.names[idx]} ends before it starts")
            if parent >= 0 and not (self.starts[parent] <= self.starts[idx]
                                    and self.ends[idx] <= self.ends[parent]):
                problems.append(f"span {idx} {self.names[idx]} lies outside its parent")
        for idx, own in enumerate(self.self_times()):
            if own < 0:
                problems.append(f"span {idx} {self.names[idx]} has negative self time")
        if self._stack:
            problems.append("spans left open")
        return problems
