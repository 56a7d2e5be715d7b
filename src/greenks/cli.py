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
from .domain import (Field, Grid, SpaceTimeSeries, gradient, norm_w11,
                     periodic_convolve, read_field_csv, write_field_csv)
from .fit import fit_to_tolerance
from .greens import elliptic_solve, greens_periodic_spectral, lattice_sum_green
from .harness import ComparisonError, compare_runs, study_kernel, study_xi
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
    snapdir = os.path.join(outdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    lines = ["index,time"]
    for i, (t, snap) in enumerate(zip(series.times, series.snapshots)):
        write_field_csv(os.path.join(snapdir, f"snap_{i:05d}.csv"), snap)
        lines.append(f"{i},{t:.17g}")
    _write(os.path.join(outdir, "times.csv"), "\n".join(lines) + "\n")


def _load_series(outdir: str) -> SpaceTimeSeries:
    times_path = os.path.join(outdir, "times.csv")
    if not os.path.exists(times_path):
        raise FileNotFoundError(f"{times_path} not found; not a run directory?")
    times, snaps = [], []
    with open(times_path) as f:
        next(f)
        for line in f:
            idx, t = line.strip().split(",")
            times.append(float(t))
            snaps.append(read_field_csv(
                os.path.join(outdir, "snapshots", f"snap_{int(idx):05d}.csv")))
    return SpaceTimeSeries(snaps[0].grid, times, snaps)


def _cmd_run(args) -> int:
    cfg = cfgmod.load_config(args.config)
    grid = cfgmod.build_grid(cfg)
    model = cfgmod.build_model(cfg)
    u0 = cfgmod.build_initial_datum(cfg, grid)
    run_cfg = cfgmod.build_run_config(cfg, grid)
    kernel = cfgmod.build_kernel(cfg, grid)
    chem = kernel if kernel is not None else cfgmod.build_chemical(cfg)

    series, state = run_solver(model, chem, u0, run_cfg)

    outdir = args.output
    _write(os.path.join(outdir, "config.txt"), cfgmod.config_echo(cfg) + "\n")
    _write(os.path.join(outdir, "diagnostics.csv"), state.diagnostics.to_csv())
    _save_series(outdir, series)
    if args.plot:
        d = state.diagnostics
        svg = line_chart(
            {"mass": (d.times, d.mass), "max_u": (d.times, d.max_u),
             "phi": (d.times, d.phi)},
            title="run diagnostics", xlabel="t", ylabel="value")
        _write(os.path.join(outdir, "diagnostics.svg"), svg)
    print(f"run complete: t_end={state.time:.6g}, "
          f"{len(series.times)} snapshots -> {outdir}")
    return EXIT_OK


def _cmd_fit_kernel(args) -> int:
    cfg = cfgmod.load_config(args.config)
    grid = cfgmod.build_grid(cfg)
    W = cfgmod.build_kernel(cfg, grid)
    if W is None:
        print("fit-kernel requires kernel.type != none", file=sys.stderr)
        return EXIT_VALIDATION
    m_list = cfgmod.study_m_list(cfg)
    result = fit_to_tolerance(
        W, epsilon=args.epsilon if args.epsilon is not None
        else 0.05 * norm_w11(W.field),
        M_max=max(m_list), d_star=float(cfg["study.d_star"]),
        regularization=float(cfg["study.regularization"]))
    _write(os.path.join(args.output, "fit.csv"), result.to_csv())
    print(f"fit: M={len(result.coefficients)} residual_w11={result.residual_w11:.6g} "
          f"converged={result.converged}")
    return EXIT_OK


def _report_outputs(report, outdir: str, plot: bool, logx: bool = True):
    _write(os.path.join(outdir, f"{report.experiment_id}.csv"), report.to_csv())
    if plot:
        svg = line_chart(
            {"error": (report.parameter_axis, report.errors)},
            title=report.experiment_id, xlabel="parameter", ylabel="L2(Q_T) error",
            logx=logx, logy=all(e > 0 for e in report.errors))
        _write(os.path.join(outdir, f"{report.experiment_id}.svg"), svg)


def _cmd_study_xi(args) -> int:
    cfg = cfgmod.load_config(args.config)
    report = study_xi(cfg)
    _report_outputs(report, args.output, args.plot)
    print(f"study-xi: errors={['%.3e' % e for e in report.errors]} "
          f"monotone={report.monotone_flag}")
    return EXIT_OK


def _cmd_study_kernel(args) -> int:
    cfg = cfgmod.load_config(args.config)
    report = study_kernel(cfg)
    _report_outputs(report, args.output, args.plot, logx=False)
    print(f"study-kernel: errors={['%.3e' % e for e in report.errors]} "
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="greenks",
                                description="Nonlocal-vs-chemotaxis PDE laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--output", "-o", default="out", help="output directory")
        sp.add_argument("--plot", action="store_true", help="emit SVG plots")

    sp = sub.add_parser("run", help="advance one system and dump snapshots")
    sp.add_argument("config")
    add_common(sp)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("fit-kernel", help="fit a kernel with Green-function fields")
    sp.add_argument("config")
    sp.add_argument("--epsilon", type=float, default=None,
                    help="target W11 residual (default: 5%% of the kernel norm)")
    add_common(sp)
    sp.set_defaults(func=_cmd_fit_kernel)

    sp = sub.add_parser("study-xi", help="relaxation-limit error curve")
    sp.add_argument("config")
    add_common(sp)
    sp.set_defaults(func=_cmd_study_xi)

    sp = sub.add_parser("study-kernel", help="kernel-approximation error curve")
    sp.add_argument("config")
    add_common(sp)
    sp.set_defaults(func=_cmd_study_kernel)

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
    except (cfgmod.ConfigError, InputValidationError, ComparisonError,
            FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalAbortError, AssertionError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
