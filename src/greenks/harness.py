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
from .pde import ChemicalSpec, run, run_ensemble


class ComparisonError(ValueError):
    """Two runs cannot be compared (grid or snapshot-time mismatch)."""


@dataclass
class ExperimentReport:
    experiment_id: str
    parameter_axis: list
    errors: list
    metadata: str
    extra: dict = dc_field(default_factory=dict)
    columns: dict = dc_field(default_factory=dict)   # name -> one value per parameter

    def __post_init__(self):
        if len(self.parameter_axis) != len(self.errors):
            raise ValueError("parameter axis and errors length mismatch")
        if any(len(values) != len(self.errors) for values in self.columns.values()):
            raise ValueError("every column needs one value per parameter")

    @property
    def monotone_flag(self) -> bool:
        """Whether the errors are non-increasing along the parameter axis."""
        return all(b <= a * (1.0 + 1e-12) for a, b in zip(self.errors, self.errors[1:]))

    def to_csv(self) -> str:
        """One row per parameter; the extra ``columns`` follow ``monotone``."""
        buf = io.StringIO()
        buf.write(",".join(["param", "error", "monotone", *self.columns]) + "\n")
        flag = str(self.monotone_flag).lower()
        for i, (p, e) in enumerate(zip(self.parameter_axis, self.errors)):
            cells = [_csv_cell(values[i]) for values in self.columns.values()]
            buf.write(",".join([f"{p:.17g}", f"{e:.17g}", flag, *cells]) + "\n")
        for line in self.metadata.splitlines():
            buf.write(f"# {line}\n")
        return buf.getvalue()


def _csv_cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else f"{value:.17g}"


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
    """Distance of the relaxed chemical system to its instantaneous limit.

    The xi list runs as one lockstep ensemble; the limit is a run of its own.
    """
    xi_list = cfgmod.study_list(cfg, "study.xi", xi_list)
    model, chem, u0, run_cfg = cfgmod.build_problem(cfg)
    if isinstance(chem, PeriodizedKernel):
        raise cfgmod.ConfigError("study-xi needs kernel.type = none")

    limit = ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=0.0)
    ref, _ = run(model, limit, u0, run_cfg)
    relaxed = [ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=xi) for xi in xi_list]
    errors = [compare_runs(series, ref)
              for series, _ in run_ensemble(model, relaxed, u0, run_cfg)]
    return ExperimentReport("study-xi", xi_list, errors, cfgmod.config_echo(cfg))


def study_kernel(cfg: dict, W_target: PeriodizedKernel = None, M_list=None,
                 young_slack: float = 1e-8) -> ExperimentReport:
    """Solution error of Green-basis kernel surrogates against the exact kernel.

    The target kernel is ``W_target`` if given (the config's own kernel is
    then never periodized), else the config's.  It is fitted at every basis
    size, then the nonlocal reference and the fitted combinations, run
    through the parabolic-elliptic solver (exercising the coincidence with
    the nonlocal form), advance as one lockstep ensemble, so every error is
    measured on one shared time grid.  The convolution drift bound is
    asserted on every snapshot.  ``extra["fits"]`` holds the ``FitResult``
    of each basis size; the report's columns record its residuals, Gram
    condition and singular flag, and the drift defect: the largest left side
    of the drift bound over the surrogate's snapshots.
    """
    model, chem, u0, run_cfg = cfgmod.build_problem(cfg, W_target)
    W_target = cfgmod.require_kernel(chem, "study-kernel")
    d_star, reg = cfgmod.study_fit_settings(cfg)
    M_list = cfgmod.study_list(cfg, "study.M", M_list)

    fits, surrogates, kernel_diffs = [], [], []
    for M in M_list:
        seq = default_diffusivities(M, d_star)
        basis = GreensBasis.build(u0.grid, seq.values)
        result = fit_coefficients(W_target, basis, reg)
        fits.append(result)
        surrogates.append(ChemicalSpec(diffusivities=list(seq.values),
                                       sensitivities=list(result.coefficients), xi=0.0))
        kernel_diffs.append(basis.as_kernel(result.coefficients).field - W_target.field)

    (ref_series, _), *runs = run_ensemble(model, [W_target, *surrogates], u0, run_cfg)
    errors, defects = [], []
    for (series, _), W_diff in zip(runs, kernel_diffs):
        errors.append(compare_runs(series, ref_series))
        sides = [young_drift_sides(u, W_diff) for u in series.snapshots]
        if not all(lhs <= rhs * (1.0 + young_slack) for lhs, rhs in sides):
            raise AssertionError("drift Young bound violated on a snapshot")
        defects.append(max(lhs for lhs, _ in sides))

    columns = {"residual_w11": [f.residual_w11 for f in fits],
               "residual_h1": [f.residual_h1 for f in fits],
               "gram_condition": [f.gram_condition_estimate for f in fits],
               "singular": [f.singular for f in fits],
               "drift_defect": defects}
    return ExperimentReport("study-kernel", [float(m) for m in M_list], errors,
                            cfgmod.config_echo(cfg), extra={"fits": fits}, columns=columns)


def young_drift_sides(u: Field, W: Field) -> tuple:
    """Both sides of the discrete Young inequality
    sqrt(sum_i ||d_i W * u||_L2^2) <= ||grad W||_L1 ||u||_L2."""
    gw = gradient(W)
    lhs = float(np.sqrt(sum(norm_l2(periodic_convolve(c, u)) ** 2 for c in gw)))
    return lhs, sum(norm_l1(c) for c in gw) * norm_l2(u)


def young_drift_bound_holds(u: Field, W: Field, slack: float = 1e-8) -> bool:
    """Whether the discrete Young inequality of :func:`young_drift_sides` holds."""
    lhs, rhs = young_drift_sides(u, W)
    return lhs <= rhs * (1.0 + slack)
