"""Least-squares approximation of a periodic kernel by Green-function fields.

The coefficients minimize the discrete H1 distance (plus optional Tikhonov
term); the report also carries the W11 residual, which is the norm the
solution-convergence experiments care about.  Diffusivity sequences cluster
toward an accumulation point, so the Gram matrix is ill-conditioned by
design and the solver has to degrade gracefully.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import Field, gradient, inner_h1, norm_h1, norm_l2, norm_w11
from .greens import GreensBasis
from .kernel import PeriodizedKernel

# eigenvalues below this (relative to the largest) are treated as null space
_EIG_CUTOFF = 1e-14


@dataclass
class DiffusivitySequence:
    """Distinct positive diffusivities accumulating at a positive point."""

    values: list
    accumulation_point: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v <= 0) or self.accumulation_point <= 0:
            raise ValueError("diffusivities and accumulation point must be positive")
        if len(set(v.tolist())) != len(v):
            raise ValueError("diffusivities must be pairwise distinct")
        gaps = np.abs(v - self.accumulation_point)
        if np.any(np.diff(gaps) >= 0):
            raise ValueError("sequence must approach the accumulation point monotonically")


@dataclass
class FitResult:
    coefficients: np.ndarray
    diffusivities: list
    residual_w11: float
    residual_l2: float
    residual_h1: float
    gram_condition_estimate: float
    regularization_weight: float
    converged: bool = True
    singular: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("j,d_j,a_j\n")
        for j, (d, a) in enumerate(zip(self.diffusivities, self.coefficients), start=1):
            buf.write(f"{j},{d:.17g},{a:.17g}\n")
        buf.write(f"# M={len(self.coefficients)} residual_w11={self.residual_w11:.17g} "
                  f"residual_l2={self.residual_l2:.17g} residual_h1={self.residual_h1:.17g} "
                  f"condition={self.gram_condition_estimate:.6g} "
                  f"regularization={self.regularization_weight:.6g} "
                  f"converged={self.converged}\n")
        return buf.getvalue()


def default_diffusivities(M: int, d_star: float) -> DiffusivitySequence:
    """d_j = d_star (1 + 1/(j+1)), j = 1..M: distinct, accumulating at d_star."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if d_star <= 0:
        raise ValueError("d_star must be positive")
    values = [d_star * (1.0 + 1.0 / (j + 1)) for j in range(1, M + 1)]
    return DiffusivitySequence(values=values, accumulation_point=d_star)


def _h1_design_column(f: Field) -> np.ndarray:
    """Stack the field and its gradient with quadrature weights so that
    column inner products reproduce the discrete H1 inner product."""
    w = np.sqrt(f.grid.cell_volume)
    parts = [f.values.ravel()] + [g.values.ravel() for g in gradient(f)]
    return np.concatenate(parts) * w


def fit_coefficients(W: PeriodizedKernel, basis: GreensBasis,
                     regularization: float = 0.0) -> FitResult:
    """Minimize ||W - sum a_j w_j||_H1^2 + regularization ||a||^2.

    Solved as a linear least-squares problem on the H1 square-root factor
    (SVD), which carries only the square root of the Gram condition number;
    the clustered diffusivity sequences make the Gram system too
    ill-conditioned for plain normal equations.  Only singular values at
    machine-precision level are truncated (minimum-norm completion); the
    result is flagged singular whenever the Gram system is numerically
    rank-deficient.  The H1 residual is the minimized norm, so it is
    non-increasing over nested bases as long as the larger fit is not
    singular.  A singular fit may exceed it slightly (by up to 3e-4 relative
    on configs/study_kernel.cfg, M <= 32).  The W11 residual is not
    minimized and may rise over nested bases (there: M = 16 to 32).
    """
    if W.field.grid != basis.grid:
        raise ValueError("kernel and basis live on different grids")
    if regularization < 0:
        raise ValueError("regularization must be nonnegative")
    M = len(basis.fields)
    A = np.column_stack([_h1_design_column(f) for f in basis.fields])
    b = _h1_design_column(W.field)
    if regularization > 0:
        A = np.vstack([A, np.sqrt(regularization) * np.eye(M)])
        b = np.concatenate([b, np.zeros(M)])

    a, _, _, svals = np.linalg.lstsq(A, b, rcond=None)
    smax = float(svals.max())
    singular = bool(np.any(svals <= np.sqrt(_EIG_CUTOFF) * smax))
    cond = (smax / float(svals.min())) ** 2 if svals.min() > 0 else np.inf
    residual_field = W.field - basis.combination(a)
    return FitResult(
        coefficients=a,
        diffusivities=list(basis.diffusivities),
        residual_w11=norm_w11(residual_field),
        residual_l2=norm_l2(residual_field),
        residual_h1=norm_h1(residual_field),
        gram_condition_estimate=cond,
        regularization_weight=regularization,
        singular=singular,
    )


def fit_to_tolerance(W: PeriodizedKernel, epsilon: float, M_max: int,
                     d_star: float, regularization: float = 0.0) -> FitResult:
    """Double M until the W11 residual drops below epsilon.

    Returns the first fit meeting the tolerance; if M_max is exhausted, the
    best fit seen is returned with ``converged=False`` (the existence result
    behind this construction holds only in the continuum limit, so running
    out of basis size is an outcome, not an error).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if M_max < 1:
        raise ValueError("M_max must be at least 1")
    best = None
    M = 1
    while True:
        seq = default_diffusivities(M, d_star)
        basis = GreensBasis.build(W.field.grid, seq.values)
        result = fit_coefficients(W, basis, regularization)
        if best is None or result.residual_w11 < best.residual_w11:
            best = result
        if result.residual_w11 < epsilon:
            result.converged = True
            return result
        if M >= M_max:
            best.converged = False
            return best
        M = min(2 * M, M_max)
