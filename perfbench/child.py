"""One benchmark sample: a fresh process that sets up, runs and checks one workload.

    python3 perfbench/child.py --workload NAME --seed N --t-spawn T [--trace] [--tiny]
        [--full-check]

``--t-spawn`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC is shared between processes), so ``setup_s``
covers interpreter start, the imports of numpy, scipy and greenks, and
building the inputs.  ``wall_s`` covers the timed section.

Both are reported in reference seconds.  On a shared 2-vCPU machine the speed
of one vCPU swings by 20-40 % within seconds as other tenants load the host,
and a timing taken before or after the workload does not follow it.  So a
``SpeedProbe`` runs inside the process for its whole life: every 50 ms a
SIGALRM handler times a small fixed kernel (about 1 % of the time): pure
Python during set-up, small-array numpy work in the timed section.  Python
runs the handler between two bytecodes of the workload, so the probe starts
on whatever cache, branch-predictor and allocator state the workload left.
Each tick therefore first runs ``PROBE_WARMUP`` untimed rounds of its kernel
and times only the ``PROBE_TIMED`` rounds after them, with the cyclic garbage
collector held off, so that the timed part measures the vCPU and not the
workload.  An interval is reported as its length minus the probe's own time
in it (warm-up included), divided by the probe's mean slowdown in it against
``PROBE_REF_S``.  The raw intervals and the slowdowns are kept in the record
(``raw_setup_s``, ``raw_wall_s``, ``setup_slowdown``, ``wall_slowdown``);
``probe_check.py`` checks that the slowdown does not depend on the workload.

The last line of standard output is one JSON record.  Exit code 3 means the
set-up failed (for instance greenks is not importable from the checkout's
``src``); the workload itself never changes the exit code: its exceptions
and failed checks are counted in the record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")   # scratch files and spans
EXIT_SETUP = 3

PROBE_PERIOD_S = 0.05
PROBE_WARMUP = 5            # untimed kernel rounds per tick, to re-warm caches
PROBE_TIMED = 15            # timed kernel rounds per tick
# reference times of the PROBE_TIMED rounds: fixed constants that only set
# the scale of a reference second (a tick that takes this long reads 1)
PROBE_REF_S = {"python": 6e-4, "numpy": 3.5e-4}
PROBE_MIN_TICKS = 5


def _python_round(x):
    for i in range(700):
        x += i * i
    return x


def _numpy_round(np, a):
    np.fft.rfft(a)
    return float((a * np.roll(a, 1)).sum())


class SpeedProbe:
    """Times a small fixed kernel from a SIGALRM handler every ``PROBE_PERIOD_S``.

    The kernel is pure Python until ``use_numpy`` is called once numpy is
    fully imported; from then on it is small-array numpy work, which follows
    the workloads' slowdowns much more closely.
    """

    def __init__(self):
        self.ticks: list = []      # (start, tick duration, timed rounds' duration, kernel)
        self._np = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t = perf_counter()
        if self._np is None:
            kind, one_round, args = "python", _python_round, (0,)
        else:
            kind, one_round, args = "numpy", _numpy_round, (self._np, self._array)
        for _ in range(PROBE_WARMUP):
            one_round(*args)
        t_timed = perf_counter()
        for _ in range(PROBE_TIMED):
            one_round(*args)
        t_end = perf_counter()
        if gc_was_enabled:
            gc.enable()
        self.ticks.append((t, t_end - t, t_end - t_timed, kind))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def use_numpy(self, np):
        """Switch to the numpy kernel (warmed up here, on an FFT length no workload uses)."""
        array = np.linspace(0.0, 1.0, 300)
        for _ in range(PROBE_WARMUP):
            _numpy_round(np, array)
        self._array = array
        self._np = np

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t_from: float, t_to: float) -> float:
        """Mean of timed-rounds duration over its reference, for ticks in [t_from, t_to).

        An interval too short for ``PROBE_MIN_TICKS`` ticks uses all ticks.
        """
        inside = [(timed, k) for t, _, timed, k in self.ticks if t_from <= t < t_to]
        if len(inside) < PROBE_MIN_TICKS:
            inside = [(timed, k) for _, _, timed, k in self.ticks]
        return sum(timed / PROBE_REF_S[k] for timed, k in inside) / len(inside)

    def scaled(self, t_from: float, t_to: float) -> float:
        """Length of [t_from, t_to) without probe time, in reference seconds."""
        probe_s = sum(d for t, d, _, _ in self.ticks if t_from <= t < t_to)
        return (t_to - t_from - probe_s) / self.slowdown(t_from, t_to)


def _import_workloads():
    """Import greenks from this checkout's src, never from elsewhere."""
    sys.path.insert(0, SRC)
    import greenks
    where = os.path.dirname(os.path.abspath(greenks.__file__))
    if where != os.path.join(SRC, "greenks"):
        raise ImportError(f"greenks imported from {where}, not from {SRC}")
    import workloads
    return workloads


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return _main(argv, probe)
    finally:
        probe.stop()


def _main(argv, probe) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--full-check", action="store_true")
    args = p.parse_args(argv)

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    try:
        workload = _import_workloads().WORKLOADS[args.workload]
        os.makedirs(workdir, exist_ok=True)
        inputs = workload.prepare(args.seed, args.tiny, workdir)
        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install()
    except Exception:
        traceback.print_exc()
        shutil.rmtree(workdir, ignore_errors=True)
        return EXIT_SETUP

    try:
        return _measure(args, workload, inputs, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, inputs, tracer, probe) -> int:
    t_ready = perf_counter()
    import numpy
    probe.use_numpy(numpy)
    error = None
    t0 = perf_counter()
    try:
        if tracer is None:
            result = workload.execute(inputs)
        else:
            result = tracer.run_root(workload.execute, inputs)
    except Exception:
        error = traceback.format_exc(limit=4)
    t1 = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()

    record = {"workload": args.workload, "seed": args.seed, "about": inputs["about"],
              "setup_s": probe.scaled(args.t_spawn, t_ready), "wall_s": probe.scaled(t0, t1),
              "peak_rss_mb": peak_rss_mb, "raw_setup_s": t_ready - args.t_spawn,
              "raw_wall_s": t1 - t0, "setup_slowdown": probe.slowdown(args.t_spawn, t_ready),
              "wall_slowdown": probe.slowdown(t0, t1), "probe_ticks": len(probe.ticks)}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(WORKDIR, f"spans-{args.workload}.csv"))

    ops = inputs["ops"]
    if error is None:
        try:
            problems = workload.check(inputs, result, args.full_check)
        except Exception:
            problems = {op: [traceback.format_exc(limit=4)] for op in ops}
    else:
        problems = {op: [error] for op in ops}
    record["attempted"] = len(ops)
    record["failed"] = sum(1 for op in ops if problems.get(op, ["not checked"]))
    record["problems"] = {op: found for op, found in problems.items() if found}

    import scipy
    record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    record["tracer_imported"] = "tracer" in sys.modules
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
