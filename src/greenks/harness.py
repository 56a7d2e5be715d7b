"""Experiment orchestration: relaxation-limit and kernel-approximation studies."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import config as cfgmod
from .domain import (Field, SpaceTimeSeries, csv_table, gradient, norm_l1, norm_l2,
                     norm_l2_spacetime, periodic_convolve)
from .fit import default_diffusivities, fit_coefficients
from .greens import GreensBasis
from .kernel import PeriodizedKernel
from .pde import ChemicalSpec, NumericalAbortError, run, run_ensemble

_YOUNG_SLACK = 1e-8   # relative rounding allowance of the checked drift bound


class ComparisonError(ValueError):
    """Two runs cannot be compared (grid or snapshot-time mismatch)."""


@dataclass
class ExperimentReport:
    experiment_id: str
    parameter_axis: list
    errors: list
    metadata: str
    columns: dict = dc_field(default_factory=dict)   # name -> one value per parameter

    def __post_init__(self):
        if len(self.parameter_axis) != len(self.errors):
            raise ValueError("parameter axis and errors length mismatch")
        if ({"param", "error", "monotone"} & set(self.columns)
                or any(len(values) != len(self.errors) for values in self.columns.values())):
            raise ValueError("every column needs a name of its own and one value per parameter")

    @property
    def monotone_flag(self) -> bool:
        """Whether the errors are non-increasing along the parameter axis."""
        return all(b <= a * (1.0 + 1e-12) for a, b in zip(self.errors, self.errors[1:]))

    def to_csv(self) -> str:
        """A ``domain.csv_table`` with one row per parameter: ``param``, ``error``,
        the ``monotone`` flag repeated, then the extra ``columns``; each
        metadata line becomes a comment."""
        flags = [self.monotone_flag] * len(self.errors)
        return csv_table({"param": self.parameter_axis, "error": self.errors,
                          "monotone": flags, **self.columns}, self.metadata.splitlines())


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


def study_xi(cfg: dict) -> ExperimentReport:
    """Distance of the relaxed chemical system to its instantaneous limit.

    The ``study.xi`` list runs as one lockstep ensemble; the limit is a run
    of its own.
    """
    xis = cfgmod.study_list(cfg, "study.xi")
    model, chem, u0, run_cfg = cfgmod.build_problem(cfg)
    if isinstance(chem, PeriodizedKernel):
        raise cfgmod.ConfigError("study-xi needs kernel.type = none")

    limit = ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=0.0)
    ref, _ = run(model, limit, u0, run_cfg)
    relaxed = [ChemicalSpec(chem.diffusivities, chem.sensitivities, xi=xi) for xi in xis]
    errors = [compare_runs(series, ref)
              for series, _ in run_ensemble(model, relaxed, u0, run_cfg)]
    return ExperimentReport("study-xi", xis, errors, cfgmod.config_echo(cfg))


def basis_fits(cfg: dict, W: PeriodizedKernel, M_list=None):
    """The one place that turns the ``study.*`` keys into fits of ``W``: for
    each size of ``study.M`` (or ``M_list``) in order, yields the
    ``FitResult`` of the default diffusivities of ``study.d_star`` with
    ``study.regularization``.  The keys are checked at the first fit, and a
    consumer that stops early fits no larger basis."""
    d_star, regularization = cfgmod.study_fit_settings(cfg)
    for M in cfgmod.study_list(cfg, "study.M", M_list):
        basis = GreensBasis.build(W.field.grid, default_diffusivities(M, d_star))
        yield fit_coefficients(W, basis, regularization)


def study_kernel(cfg: dict, M_list=None) -> ExperimentReport:
    """Solution error of Green-basis kernel surrogates against the exact kernel.

    The config's kernel is fitted at every size of ``basis_fits``, then the
    nonlocal reference and the fitted combinations, run through the
    parabolic-elliptic solver (exercising the coincidence with the nonlocal
    form), advance as one lockstep ensemble, so every error is measured on
    one shared time grid.  The convolution drift bound is checked on every
    snapshot; a violation is a NumericalAbortError.  The report's columns
    record each fit's residuals, Gram condition and singular flag, and the
    drift defect: the largest left side of the drift bound over the
    surrogate's snapshots.
    """
    model, chem, u0, run_cfg = cfgmod.build_problem(cfg)
    W = cfgmod.require_kernel(chem, "study-kernel")
    fits = list(basis_fits(cfg, W, M_list))
    surrogates = [ChemicalSpec(fit.diffusivities, list(fit.coefficients)) for fit in fits]

    (ref_series, _), *runs = run_ensemble(model, [W, *surrogates], u0, run_cfg)
    errors, defects = [], []
    for (series, _), fit in zip(runs, fits):
        errors.append(compare_runs(series, ref_series))
        W_M = GreensBasis.build(W.field.grid, fit.diffusivities).combination(fit.coefficients)
        sides = young_drift_sides(series.snapshots, W_M - W.field)
        if not all(lhs <= rhs * (1.0 + _YOUNG_SLACK) for lhs, rhs in sides):
            raise NumericalAbortError("drift Young bound violated on a snapshot")
        defects.append(max(lhs for lhs, _ in sides))

    columns = {"residual_w11": [f.residual_w11 for f in fits],
               "residual_h1": [f.residual_h1 for f in fits],
               "gram_condition": [f.gram_condition_estimate for f in fits],
               "singular": [f.singular for f in fits],
               "drift_defect": defects}
    return ExperimentReport("study-kernel", [float(len(f.coefficients)) for f in fits], errors,
                            cfgmod.config_echo(cfg), columns=columns)


def young_drift_sides(snapshots, W: Field) -> list:
    """Both sides of the discrete Young inequality
    sqrt(sum_i ||d_i W * u||_L2^2) <= ||grad W||_L1 ||u||_L2 for each snapshot u;
    the gradient of W and its L1 norm are built once."""
    gw = gradient(W)
    gw_l1 = sum(norm_l1(c) for c in gw)
    return [(float(np.sqrt(sum(norm_l2(periodic_convolve(c, u)) ** 2 for c in gw))),
             gw_l1 * norm_l2(u)) for u in snapshots]
