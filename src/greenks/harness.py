"""Experiment orchestration: relaxation-limit and kernel-approximation studies."""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import config as cfgmod
from .domain import (Field, SpaceTimeSeries, gradient, norm_l1, norm_l2,
                     norm_l2_spacetime, periodic_convolve)
from .fit import default_diffusivities, fit_coefficients
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
    extra: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if len(self.parameter_axis) != len(self.errors):
            raise ValueError("parameter axis and errors length mismatch")

    @property
    def monotone_flag(self) -> bool:
        """Whether the errors are non-increasing along the parameter axis."""
        return all(b <= a * (1.0 + 1e-12) for a, b in zip(self.errors, self.errors[1:]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("param,error,monotone\n")
        for p, e in zip(self.parameter_axis, self.errors):
            buf.write(f"{p:.17g},{e:.17g},{str(self.monotone_flag).lower()}\n")
        for line in self.metadata.splitlines():
            buf.write(f"# {line}\n")
        return buf.getvalue()


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
    xi_list = cfgmod.study_list(cfg, "study.xi", xi_list)
    model, chem, u0, run_cfg = cfgmod.build_problem(cfg)
    if isinstance(chem, PeriodizedKernel):
        raise cfgmod.ConfigError("study-xi needs kernel.type = none")

    limit = ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=0.0)
    ref, _ = run(model, limit, u0, run_cfg)

    errors = []
    for xi in xi_list:
        relaxed = ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=xi)
        series, _ = run(model, relaxed, u0, run_cfg)
        errors.append(compare_runs(series, ref))

    return ExperimentReport("study-xi", xi_list, errors, cfgmod.config_echo(cfg))


def study_kernel(cfg: dict, W_target: PeriodizedKernel = None, M_list=None,
                 young_slack: float = 1e-8) -> ExperimentReport:
    """Solution error of Green-basis kernel surrogates against the exact kernel.

    The target kernel is ``W_target`` if given (the config's own kernel is
    then never periodized), else the config's.  For each basis size it is
    fitted, the fitted combination is run through the parabolic-elliptic
    solver (exercising the coincidence with the nonlocal form), and the
    result is compared with the nonlocal reference run.  The convolution
    drift bound is asserted on every snapshot.  ``extra["fits"]`` holds the
    ``FitResult`` of each basis size, W11 residual included.
    """
    model, chem, u0, run_cfg = cfgmod.build_problem(cfg, W_target)
    W_target = cfgmod.require_kernel(chem, "study-kernel")
    d_star, reg = cfgmod.study_fit_settings(cfg)
    M_list = cfgmod.study_list(cfg, "study.M", M_list)

    ref_series, _ = run(model, W_target, u0, run_cfg)

    errors, fit_results = [], []
    for M in M_list:
        seq = default_diffusivities(M, d_star)
        basis = GreensBasis.build(u0.grid, seq.values)
        result = fit_coefficients(W_target, basis, reg)
        fit_results.append(result)

        chem = ChemicalSpec(diffusivities=list(seq.values),
                            sensitivities=list(result.coefficients), xi=0.0)
        series, _ = run(model, chem, u0, run_cfg)
        errors.append(compare_runs(series, ref_series))

        W_diff = basis.as_kernel(result.coefficients).field - W_target.field
        if not all(young_drift_bound_holds(u, W_diff, young_slack) for u in series.snapshots):
            raise AssertionError("drift Young bound violated on a snapshot")

    return ExperimentReport("study-kernel", [float(m) for m in M_list], errors,
                            cfgmod.config_echo(cfg), extra={"fits": fit_results})


def young_drift_bound_holds(u: Field, W: Field, slack: float = 1e-8) -> bool:
    """Discrete Young inequality sqrt(sum_i ||d_i W * u||_L2^2) <= ||grad W||_L1 ||u||_L2."""
    gw = gradient(W)
    lhs = np.sqrt(sum(norm_l2(periodic_convolve(c, u)) ** 2 for c in gw))
    return lhs <= sum(norm_l1(c) for c in gw) * norm_l2(u) * (1.0 + slack)
