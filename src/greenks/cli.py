"""Command-line entry point.

Subcommands: fit-kernel, run, study-xi, study-kernel, compare, selftest.
Exit codes: 0 success, 1 validation error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .domain import (Field, Grid, SpaceTimeSeries, csv_table, gradient, norm_w11,
                     periodic_convolve, read_field_csv, write_field_csv)
from .fit import fit_to_tolerance
from .greens import elliptic_solve, greens_periodic_spectral, lattice_sum_green
from .harness import ComparisonError, basis_fits, compare_runs, study_kernel, study_xi
from .pde import InputValidationError, NumericalAbortError, run as run_solver
from .svgplot import line_chart

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def _save_series(outdir: str, series: SpaceTimeSeries):
    """The snapshot files and ``times.csv``, a ``csv_table`` of their indices and times."""
    snapdir = os.path.join(outdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    for i, snap in enumerate(series.snapshots):
        write_field_csv(os.path.join(snapdir, f"snap_{i:05d}.csv"), snap)
    _write(os.path.join(outdir, "times.csv"),
           csv_table({"index": range(len(series.times)), "time": series.times}))


def _load_series(outdir: str) -> SpaceTimeSeries:
    times_path = os.path.join(outdir, "times.csv")
    if not os.path.exists(times_path):
        raise FileNotFoundError(f"{times_path} not found; not a run directory?")
    try:
        with open(times_path) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        if not rows:
            raise ComparisonError(f"{times_path} lists no snapshots")
        times = [float(t) for _, t in rows]
        snaps = [read_field_csv(os.path.join(outdir, "snapshots", f"snap_{int(i):05d}.csv"))
                 for i, _ in rows]
        return SpaceTimeSeries(snaps[0].grid, times, snaps)
    except (ValueError, KeyError) as e:   # a malformed times.csv or snapshot
        raise ComparisonError(str(e)) from e


def _cmd_run(args) -> int:
    cfg = cfgmod.load_config(args.config)
    series, state = run_solver(*cfgmod.build_problem(cfg))

    outdir = args.output
    _write(os.path.join(outdir, "config.txt"), cfgmod.config_echo(cfg) + "\n")
    _write(os.path.join(outdir, "diagnostics.csv"), state.diagnostics.to_csv())
    _save_series(outdir, series)
    d = state.diagnostics
    if args.plot:
        svg = line_chart(
            {"mass": (d.times, d.mass), "max_u": (d.times, d.max_u),
             "phi": (d.times, d.phi)},
            title="run diagnostics", xlabel="t", ylabel="value")
        _write(os.path.join(outdir, "diagnostics.svg"), svg)
    steps = np.diff(d.times)   # the accepted steps, one per diagnostics row after t = 0
    print(f"run complete: t_end={state.time:.6g}, {len(steps)} steps with dt in "
          f"[{steps.min():.3g}, {steps.max():.3g}], {len(series.times)} snapshots -> {outdir}")
    return EXIT_OK


def _cmd_fit_kernel(args) -> int:
    cfg = cfgmod.load_config(args.config)
    W = cfgmod.require_kernel(cfgmod.build_problem(cfg)[1], "fit-kernel")
    epsilon = args.epsilon if args.epsilon is not None else 0.05 * norm_w11(W.field)
    if epsilon == 0.0:
        raise cfgmod.ConfigError("the kernel is zero; fit-kernel needs --epsilon")
    result = fit_to_tolerance(basis_fits(cfg, W), epsilon)
    _write(os.path.join(args.output, "fit.csv"), result.to_csv())
    print(f"fit: M={len(result.coefficients)} residual_w11={result.residual_w11:.6g} "
          f"converged={result.converged} singular={result.singular}")
    return EXIT_OK


def _cmd_study(args) -> int:
    report = args.study(cfgmod.load_config(args.config))
    name, outdir = report.experiment_id, args.output
    _write(os.path.join(outdir, f"{name}.csv"), report.to_csv())
    if args.plot:
        svg = line_chart(
            {"error": (report.parameter_axis, report.errors)},
            title=name, xlabel="parameter", ylabel="L2(Q_T) error",
            logx=name == "study-xi", logy=all(e > 0 for e in report.errors))
        _write(os.path.join(outdir, f"{name}.svg"), svg)
    print(f"{name}: errors={['%.3e' % e for e in report.errors]} "
          f"monotone={report.monotone_flag}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = _load_series(args.run_a)
    b = _load_series(args.run_b)
    print(f"{compare_runs(a, b):.17g}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    failures = []

    def check(name, ok):
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    grid = Grid(1, 1.0, 64)
    rng = np.random.default_rng(7)
    u = Field(grid, rng.random(grid.shape))
    v = Field(grid, rng.random(grid.shape))

    conv_ab = periodic_convolve(u, v)
    conv_ba = periodic_convolve(v, u)
    check("convolution commutes",
          float(np.abs(conv_ab.values - conv_ba.values).max()) < 1e-12)

    w = greens_periodic_spectral(1.0, grid)
    sol = elliptic_solve(1.0, u)
    check("elliptic solve = Green convolution",
          float(np.abs(sol.values - periodic_convolve(w, u).values).max()) < 1e-12)
    check("elliptic solve preserves the mean",
          abs(sol.mean() - u.mean()) < 1e-13)

    lat = lattice_sum_green(1.0, grid)
    check("Green field integrates to 1", abs(lat.field.integral() - 1.0) < 2e-4)

    g = gradient(Field.constant(grid, 3.7))
    check("gradient annihilates constants",
          all(float(np.abs(c.values).max()) == 0.0 for c in g))

    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return EXIT_NUMERICAL
    print("selftest: all checks passed")
    return EXIT_OK


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:   # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="greenks",
                                description="Nonlocal-vs-chemotaxis PDE laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    for name, about, func, study in (
            ("run", "advance one system and dump snapshots", _cmd_run, None),
            ("fit-kernel", "fit a kernel with Green-function fields", _cmd_fit_kernel, None),
            ("study-xi", "relaxation-limit error curve", _cmd_study, study_xi),
            ("study-kernel", "kernel-approximation error curve", _cmd_study, study_kernel)):
        sp = sub.add_parser(name, help=about)
        sp.add_argument("config")
        if name == "fit-kernel":
            sp.add_argument("--epsilon", type=_positive_float, default=None,
                            help="target W11 residual (default: 5%% of the kernel norm)")
        else:
            sp.add_argument("--plot", action="store_true", help="emit SVG plots")
        sp.add_argument("--output", "-o", default="out", help="output directory")
        sp.set_defaults(func=func, study=study)

    sp = sub.add_parser("compare", help="L2(Q_T) distance of two run directories")
    sp.add_argument("run_a")
    sp.add_argument("run_b")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("selftest", help="small-grid invariant checks")
    sp.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (cfgmod.ConfigError, InputValidationError, ComparisonError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalAbortError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
