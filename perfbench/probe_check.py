"""Checks that the speed probe measures the machine, not the workload.

    python3 perfbench/probe_check.py --rounds 10 [--tiny]

``wall_s`` and ``setup_s`` are divided by the slowdown of a probe that runs
inside the workload's process (see ``child.py``).  That is only sound if the
slowdown depends on how loaded the machine is and not on what the workload
does.  Each round runs one untraced child of every workload, in alternating
order, so all workloads see the same mix of host load.  Each child's mean
probe slowdown over its timed section (and over its set-up) is divided by the
geometric mean over the round.  For a probe that measures only the machine,
the median of those ratios is 1 for every workload; the script prints it
with its standard error, and the largest gap between two workloads as a
share of the ``wall_s`` bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import BenchError, load_spec, run_child

CHILD_TIMEOUT_S = 170.0


def relative(rounds: list, key: str, names: list) -> dict:
    """Per workload: the ratios of each round's slowdown to the round's geometric mean."""
    out: dict = {name: [] for name in names}
    for rnd in rounds:
        mean = statistics.geometric_mean(rnd[name][key] for name in names)
        for name in names:
            out[name].append(rnd[name][key] / mean)
    return out


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    rounds = []
    try:
        for r in range(args.rounds):
            order = names if r % 2 == 0 else names[::-1]
            rounds.append({name: run_child(name, r + 1, False, args.tiny, False,
                                           CHILD_TIMEOUT_S) for name in order})
    except BenchError as e:
        print(f"probe check failed: {e}", file=sys.stderr)
        return 1

    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    print(f"# {args.rounds} rounds of {len(names)} interleaved children; "
          f"ratio = slowdown / geometric mean of the round")
    for key in ("wall_slowdown", "setup_slowdown"):
        rel = relative(rounds, key, names)
        medians = {name: statistics.median(v) for name, v in rel.items()}
        for name in names:
            se = statistics.stdev(rel[name]) / len(rel[name]) ** 0.5 if len(rounds) > 1 else 0.0
            raw = statistics.median(rnd[name][key] for rnd in rounds)
            print(f"{key:15s} {name:16s} median {raw:7.4f}  ratio {medians[name]:.4f} "
                  f"+- {se:.4f}")
        gap = max(medians.values()) - min(medians.values())
        print(f"{key:15s} largest gap between workloads {gap:.4f} "
              f"({gap / bound:.2f} of the wall_s bound {bound})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
