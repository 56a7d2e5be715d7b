"""Experiment orchestration: relaxation-limit and kernel-approximation studies."""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import config as cfgmod
from .domain import (Field, SpaceTimeSeries, gradient, norm_l1, norm_l2,
                     norm_l2_spacetime, periodic_convolve)
from .fit import fit_coefficients
from .greens import GreensBasis
from .kernel import PeriodizedKernel
from .pde import ChemicalSpec, run


class ComparisonError(ValueError):
    """Two runs cannot be compared (grid or snapshot-time mismatch)."""


@dataclass
class ExperimentReport:
    experiment_id: str
    parameter_axis: list
    errors: list
    metadata: str
    monotone_flag: bool
    aborted: bool = False
    extra: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if len(self.parameter_axis) != len(self.errors):
            raise ValueError("parameter axis and errors length mismatch")
        if self.monotone_flag != _monotone(self.errors):
            raise ValueError("monotone_flag inconsistent with recorded errors")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("param,error,monotone\n")
        for p, e in zip(self.parameter_axis, self.errors):
            buf.write(f"{p:.17g},{e:.17g},{str(self.monotone_flag).lower()}\n")
        for line in self.metadata.splitlines():
            buf.write(f"# {line}\n")
        return buf.getvalue()


def _monotone(errors) -> bool:
    return all(b <= a * (1.0 + 1e-12) for a, b in zip(errors, errors[1:]))


def compare_runs(a: SpaceTimeSeries, b: SpaceTimeSeries) -> float:
    """L2(Q_T) distance between two runs on identical snapshot grids."""
    if a.grid != b.grid:
        raise ComparisonError("runs on different grids")
    if len(a.times) != len(b.times) or len(a.times) < 2:
        raise ComparisonError("snapshot times do not overlap")
    ta, tb = np.asarray(a.times), np.asarray(b.times)
    if np.any(np.abs(ta - tb) > 1e-12 * max(1.0, float(ta[-1]))):
        raise ComparisonError("snapshot times differ")
    diffs = [sa - sb for sa, sb in zip(a.snapshots, b.snapshots)]
    return norm_l2_spacetime(SpaceTimeSeries(a.grid, a.times, diffs))


def study_xi(cfg: dict, xi_list=None) -> ExperimentReport:
    """Distance of the relaxed chemical system to its instantaneous limit."""
    if xi_list is None:
        xi_list = cfgmod.study_xi_list(cfg)
    xi_list = [float(x) for x in xi_list]
    if any(x2 >= x1 for x1, x2 in zip(xi_list, xi_list[1:])) or any(x <= 0 for x in xi_list):
        raise ValueError("xi list must be strictly decreasing and positive")

    grid = cfgmod.build_grid(cfg)
    model = cfgmod.build_model(cfg)
    u0 = cfgmod.build_initial_datum(cfg, grid)
    run_cfg = cfgmod.build_run_config(cfg, grid)
    chem = cfgmod.build_chemical(cfg)

    limit = ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=0.0)
    ref, _ = run(model, limit, u0, run_cfg)

    errors = []
    for xi in xi_list:
        relaxed = ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=xi)
        series, _ = run(model, relaxed, u0, run_cfg)
        errors.append(compare_runs(series, ref))

    return ExperimentReport(
        experiment_id="study-xi",
        parameter_axis=xi_list,
        errors=errors,
        metadata=cfgmod.config_echo(cfg),
        monotone_flag=_monotone(errors),
    )


def study_kernel(cfg: dict, W_target: PeriodizedKernel = None, M_list=None,
                 young_slack: float = 1e-8) -> ExperimentReport:
    """Solution error of Green-basis kernel surrogates against the exact kernel.

    For each basis size the target kernel is fitted, the fitted combination is
    run through the parabolic-elliptic solver (exercising the coincidence with
    the nonlocal form), and the result is compared with the nonlocal reference
    run.  The report carries kernel residuals alongside the solution errors and
    asserts the convolution drift bound on every snapshot.
    """
    grid = cfgmod.build_grid(cfg)
    model = cfgmod.build_model(cfg)
    u0 = cfgmod.build_initial_datum(cfg, grid)
    run_cfg = cfgmod.build_run_config(cfg, grid)
    if W_target is None:
        W_target = cfgmod.build_kernel(cfg, grid)
        if W_target is None:
            raise ValueError("study-kernel needs kernel.type != none")
    if M_list is None:
        M_list = cfgmod.study_m_list(cfg)
    M_list = [int(m) for m in M_list]
    if any(m2 <= m1 for m1, m2 in zip(M_list, M_list[1:])):
        raise ValueError("M list must be strictly increasing")
    d_star = float(cfg["study.d_star"])
    reg = float(cfg["study.regularization"])

    ref_series, _ = run(model, W_target, u0, run_cfg)

    errors, kernel_residuals, fit_results = [], [], []
    for M in M_list:
        from .fit import default_diffusivities
        seq = default_diffusivities(M, d_star)
        basis = GreensBasis.build(grid, seq.values)
        result = fit_coefficients(W_target, basis, reg)
        fit_results.append(result)
        grad_l1 = sum(
            norm_l1(ga - gb) for ga, gb in
            zip(gradient(basis.combination(result.coefficients)), gradient(W_target.field)))
        kernel_residuals.append(grad_l1)

        chem = ChemicalSpec(diffusivities=list(seq.values),
                            sensitivities=list(result.coefficients), xi=0.0)
        series, _ = run(model, chem, u0, run_cfg)
        errors.append(compare_runs(series, ref_series))

        W_diff = basis.as_kernel(result.coefficients).field - W_target.field
        if not all(young_drift_bound_holds(u, W_diff, young_slack) for u in series.snapshots):
            raise AssertionError("drift Young bound violated on a snapshot")

    return ExperimentReport(
        experiment_id="study-kernel",
        parameter_axis=[float(m) for m in M_list],
        errors=errors,
        metadata=cfgmod.config_echo(cfg),
        monotone_flag=_monotone(errors),
        extra={"kernel_residuals": kernel_residuals, "fits": fit_results},
    )


def young_drift_bound_holds(u: Field, W: Field, slack: float = 1e-8) -> bool:
    """Discrete Young inequality sqrt(sum_i ||d_i W * u||_L2^2) <= ||grad W||_L1 ||u||_L2."""
    gw = gradient(W)
    lhs = np.sqrt(sum(norm_l2(periodic_convolve(c, u)) ** 2 for c in gw))
    return lhs <= sum(norm_l1(c) for c in gw) * norm_l2(u) * (1.0 + slack)
