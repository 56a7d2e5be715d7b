"""greenks benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json in fresh child processes
(``perfbench/child.py``), one after another, until ``--seconds`` have passed
(at least two samples).  Each child sets up, runs the workload once in the
timed section and checks the result afterwards.  With ``--trace 0`` the
end-to-end metrics are printed as medians over the children; with
``--trace 1`` untraced and traced children alternate and the per-layer
metrics are medians over the traced ones, plus ``trace.wall_ratio``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The failure fraction
(``fail_frac``) is ``failed / attempted``.

BLAS and OpenMP threads are pinned to 1 in every child.  The runner exits
with code 1 and prints no result if a child cannot set up or does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MIN_SAMPLES = 2
RUN_BUDGET_S = 170.0       # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(workload: str, seed: int, trace: bool, tiny: bool, full_check: bool,
              timeout: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny + ["--full-check"] * full_check
    cmd += ["--t-spawn", repr(perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} child printed no record:\n{proc.stdout[-2000:]}")


def collect(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> list:
    """Children until `seconds` have passed; in trace mode (untraced, traced) pairs."""
    start = perf_counter()
    samples: list = []
    longest = 0.0
    while True:
        if trace:
            # alternate which side of a pair runs first
            order = (False, True) if len(samples) % 4 == 0 else (True, False)
        else:
            order = (False,)
        for traced in order:
            t = perf_counter()
            remaining = RUN_BUDGET_S - (t - start)
            rec = run_child(workload, seed, traced, tiny, full_check=not samples,
                            timeout=max(remaining, 1.0))
            rec["traced"] = traced
            samples.append(rec)
            longest = max(longest, perf_counter() - t)
        elapsed = perf_counter() - start
        enough = len(samples) >= MIN_SAMPLES * len(order)
        if enough and (elapsed >= seconds or elapsed + len(order) * longest > RUN_BUDGET_S):
            return samples


def summarize(spec: dict, samples: list, trace: bool) -> tuple:
    """(metrics for the JSON line, human-readable lines)."""
    untraced = [s for s in samples if not s["traced"]]
    metrics, lines = {}, []
    if trace:
        traced = [s for s in samples if s["traced"]]
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        untraced_wall = statistics.median(s["wall_s"] for s in untraced)
        for m in spec["per_layer"]:
            if m["name"] == "trace.wall_ratio":
                value = traced_wall / untraced_wall
            else:
                value = statistics.median(s["layers"][m["name"]] for s in traced)
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        n = len(traced)
        lines.append(f"# per-layer metrics: medians of {n} traced children "
                     f"({len(untraced)} untraced for trace.wall_ratio)")
        for name, v in metrics.items():
            lines.append(f"{name:34s} {v['value']:>14.6g} {v['unit']}")
        # reported but not declared: both read 0 (or either sign) on the seed code
        halvings = statistics.median(s["layers"]["pde.dt_halvings"] for s in traced)
        lines.append(f"{'pde.dt_halvings':34s} {halvings:>14.6g} count")
        lines.append(f"{'trace.overhead_s':34s} {traced_wall - untraced_wall:>14.6g} s "
                     f"(traced minus untraced wall_s)")
        return metrics, lines

    for m in spec["end_to_end"]:
        values = [s[m["name"]] for s in untraced]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        lines.append(f"{m['name']:12s} {med:12.6g} {m['unit']:4s} median of {len(values)} "
                     f"(q1 {q1:.6g}, q3 {q3:.6g}), {m['better']} is better")
    raw = {k: statistics.median(s[k] for s in untraced) for k in ("raw_wall_s", "raw_setup_s")}
    slow = {k: statistics.median(s[k] for s in untraced)
            for k in ("wall_slowdown", "setup_slowdown")}
    lines.append(f"# before scaling to reference speed: wall {raw['raw_wall_s']:.6g} s, "
                 f"setup {raw['raw_setup_s']:.6g} s; probe slowdown: wall "
                 f"{slow['wall_slowdown']:.4g}, setup {slow['setup_slowdown']:.4g} (medians)")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    lines.append(f"{'fail_frac':12s} {failed / attempted:12.6g}      "
                 f"{failed} failed of {attempted} operations")
    return metrics, lines


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="greenks benchmark runner")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs for the benchmark's own tests")
    args = p.parse_args(argv)

    try:
        samples = collect(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    metrics, lines = summarize(spec, samples, bool(args.trace))
    first = samples[0]
    v = first["versions"]
    print(f"# greenks benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={'tiny' if args.tiny else 'full'}")
    print(f"# inputs: {first['about']}")
    print(f"# python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
          f"nproc {os.cpu_count()}, BLAS/OpenMP threads 1, {len(samples)} fresh processes")
    for s in samples:
        for op, found in s["problems"].items():
            print(f"# FAILED {op}: {'; '.join(found)}")
    print("\n".join(lines))
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
