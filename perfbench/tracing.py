"""Per-layer tracing by wrapping frqme's public functions from outside.

Nothing inside ``src/`` is edited.  ``Tracer.install`` replaces each listed
function object in every loaded ``frqme`` module namespace that bound it:
``scenarios`` and ``verify`` import ``purity``, ``trace_distance``,
``propagate`` and others by name, so patching only the defining module
would silently miss their calls.

Each wrapped call is one span (name, span id, parent span id, op id,
start, end), kept in compact in-memory arrays and written out once with
``Tracer.save``.  A function's self time is its span's duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer (module) -> public functions wrapped in that layer.
TARGETS = {
    "_kernels": ("expm", "propagate_grid", "evolve_coefficients"),
    "liouville": ("build_generator", "matrix_exponential", "propagate",
                  "vectorize", "devectorize"),
    "operators": ("validate_density_matrix", "require_hermitian", "purity",
                  "trace_distance", "project_to_physical"),
    "spectral": ("eigendecompose", "to_eigenbasis", "analytic_evolve",
                 "asymptotic_state", "convergence_time"),
    "born": ("born_predict", "compare_to_prediction"),
    "scenarios": ("single_qubit_scenario", "two_qubit_scenario", "custom_scenario"),
    "verify": ("run_checks",),
    "cli": ("main",),
}

EXPM = ("_kernels", "expm")


def metric_prefix(module: str, function: str) -> str:
    # Metric names must start with a letter or digit.
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Wraps the TARGETS functions and accumulates calls and self time."""

    def __init__(self):
        self.keys = [(m, f) for m, fs in TARGETS.items() for f in fs]
        n = len(self.keys)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.expm_n3 = 0
        self.op_id = 0
        self._stack = []          # [span id, covered child time] per open span
        self._next_id = 0
        self._patched = []        # (namespace, attribute, original)
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _wrap(self, index: int, fn):
        stack = self._stack
        clock = time.perf_counter
        count_n3 = self.keys[index] == EXPM

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[index] += 1
                self.self_s[index] += duration - frame[1]
                if count_n3:
                    self.expm_n3 += int(np.shape(args[0])[0]) ** 3
                self.span_name.append(index)
                self.span_id.append(span)
                self.span_parent.append(parent)
                self.span_op.append(self.op_id)
                self.span_start.append(start)
                self.span_end.append(end)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "frqme" or name.startswith("frqme."))]
        for index, (module, function) in enumerate(self.keys):
            original = getattr(sys.modules[f"frqme.{module}"], function)
            wrapper = self._wrap(index, original)
            for mod in modules:
                namespace = vars(mod)
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._patched.append((namespace, attr, original))
                        namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def snapshot(self):
        """Copy of the running totals, for per-op differences."""
        return list(self.calls), list(self.self_s), self.expm_n3

    def save(self, path) -> None:
        names = np.array([metric_prefix(m, f) for m, f in self.keys])
        np.savez_compressed(
            path, names=names,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
