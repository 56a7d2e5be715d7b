"""Span recorder for the traced run, installed from outside the program.

A ``from x import f`` binds ``f`` in the importing module, so each function
is wrapped where its caller looks it up (``WRAPS``).  Every wrapped call
records a span: name, start, end and the index of the enclosing span.  Spans
stay in memory while the workload runs and are aggregated, and written out,
only afterwards.  A span's self time is its duration minus the durations of
its direct children; since calls nest, the self times of all spans add up to
the root span's duration.

Only the traced child process imports this module.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

ROOT_SPAN = "workload"

# (module in greenks, attribute, span name).  The span is named after the
# module that defines the function.  "GreensBasis.build" is a classmethod.
WRAPS = (
    ("pde", "run", "pde.run"),
    ("pde", "step_u", "pde.step_u"),
    ("pde", "stable_dt", "pde.stable_dt"),
    ("pde", "step_v_parabolic", "pde.step_v_parabolic"),
    ("pde", "drift_velocity_chemo", "pde.drift_velocity_chemo"),
    ("pde", "elliptic_solve", "greens.elliptic_solve"),
    ("pde", "periodic_convolve", "domain.periodic_convolve"),
    ("pde", "gradient", "domain.gradient"),
    ("pde", "inner_l2", "domain.inner_l2"),
    ("harness", "run", "pde.run"),
    ("harness", "fit_coefficients", "fit.fit_coefficients"),
    ("harness", "compare_runs", "harness.compare_runs"),
    ("harness", "study_kernel", "harness.study_kernel"),
    ("cli", "main", "cli.main"),
    ("cli", "run_solver", "pde.run"),
    ("cli", "write_field_csv", "domain.write_field_csv"),
    ("config", "periodize", "kernel.periodize"),
    ("greens", "periodize", "kernel.periodize"),
    ("kernel", "bessel_k", "specfun.bessel_k"),
    ("greens", "GreensBasis.build", "greens.GreensBasis.build"),
)

# Self-time metrics, in print order.  pde.run calls gradient both for the
# drift (nonlocal mode, via its inner velocity_of) and for the energy
# bookkeeping (directly); drift_velocity_chemo calls it for the drift.  The
# calling function's name tells the two apart.
SELF_SPANS = (
    "pde.run", "pde.step_u", "pde.stable_dt", "pde.step_v_parabolic",
    "pde.drift_velocity_chemo", "greens.elliptic_solve", "greens.GreensBasis.build",
    "domain.gradient.drift", "domain.gradient.energy", "domain.periodic_convolve",
    "domain.inner_l2", "domain.write_field_csv", "kernel.periodize", "specfun.bessel_k",
    "fit.fit_coefficients", "harness.study_kernel", "harness.compare_runs", "cli.main",
    ROOT_SPAN,
)
CALL_COUNTS = ("greens.elliptic_solve", "specfun.bessel_k", "fit.fit_coefficients")


def _gradient_span(caller_frame) -> str:
    if caller_frame.f_code.co_name == "run":
        return "domain.gradient.energy"
    return "domain.gradient.drift"


def _count_steps(tracer, args, result):
    tracer.counts["pde.steps"] += len(result[1].diagnostics.times) - 1


def _count_bytes(tracer, args, result):
    if isinstance(args[0], str):
        tracer.counts["domain.write_field_csv.bytes"] += os.path.getsize(args[0])


def _count_shells(tracer, args, result):
    tracer.counts["kernel.periodize.shells"] += result.truncation_radius_cells


AFTER = {"pde.run": _count_steps, "domain.write_field_csv": _count_bytes,
         "kernel.periodize": _count_shells}


class Tracer:
    """Records spans of wrapped greenks calls; ``install``/``uninstall`` swap the wrappers."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts = {"pde.steps": 0, "domain.write_field_csv.bytes": 0,
                       "kernel.periodize.shells": 0}
        self._stack = [-1]
        self._originals: list = []   # (owner, attribute, original object)

    def wrap(self, fn, name):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        after = AFTER.get(name)
        name_of = _gradient_span if name == "domain.gradient" else None

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(name if name_of is None else name_of(sys._getframe(1)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPS:
            owner = importlib.import_module(f"greenks.{module}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                replacement = classmethod(self.wrap(original.__func__, name))
            else:
                original = getattr(owner, attr)
                replacement = self.wrap(original, name)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def run_root(self, fn, *args):
        """Call ``fn(*args)`` as the root span."""
        return self.wrap(fn, ROOT_SPAN)(*args)

    def self_times(self) -> dict:
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        out: dict = {}
        for i, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + dur[i] - covered[i]
        return out

    def metrics(self) -> dict:
        """Per-layer metrics of one traced workload run (see BENCHMARK.json)."""
        self_t = self.self_times()
        calls: dict = {}
        for name in self.names:
            calls[name] = calls.get(name, 0) + 1
        root = [i for i, p in enumerate(self.parents) if p < 0]
        if len(root) != 1 or self.names[root[0]] != ROOT_SPAN:
            raise RuntimeError("spans were recorded outside the root span")
        out = {f"{name}.self_s": self_t.get(name, 0.0) for name in SELF_SPANS}
        out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTS})
        steps = self.counts["pde.steps"]
        out["pde.steps"] = steps
        out["pde.dt_halvings"] = calls.get("pde.step_u", 0) - steps
        run_s = sum(self.ends[i] - self.starts[i] for i, name in enumerate(self.names)
                    if name == "pde.run")
        out["pde.step_us"] = 1e6 * run_s / steps if steps else 0.0
        out["domain.write_field_csv.bytes"] = self.counts["domain.write_field_csv.bytes"]
        out["kernel.periodize.shells"] = self.counts["kernel.periodize.shells"]
        out["trace.wall_s"] = self.ends[root[0]] - self.starts[root[0]]
        return out

    def write_spans(self, path: str):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                f.write(f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                        f"{self.parents[i]}\n")
