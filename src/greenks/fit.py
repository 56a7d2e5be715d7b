"""Least-squares approximation of a periodic kernel by Green-function fields.

The coefficients minimize the discrete H1 distance (plus optional Tikhonov
term); the report also carries the W11 residual, which is the norm the
solution-convergence experiments care about.  The fit is posed per Fourier
mode.  The default diffusivities cluster toward d_star, so the Gram matrix
is ill-conditioned by design and the solver has to degrade gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import csv_table, norm_h1, norm_l2, norm_w11
from .greens import GreensBasis
from .kernel import PeriodizedKernel

# a Gram eigenvalue below this (relative to the largest) flags the fit
# singular; it truncates nothing, lstsq's rcond does that
_EIG_CUTOFF = 1e-14


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
        """A ``domain.csv_table`` with one row ``j,d_j,a_j`` per basis field and a
        ``# M=...`` summary comment that ends with the converged and singular
        flags; unequal diffusivities and coefficients raise."""
        M = len(self.coefficients)
        summary = (f"M={M} residual_w11={self.residual_w11:.17g} "
                   f"residual_l2={self.residual_l2:.17g} residual_h1={self.residual_h1:.17g} "
                   f"condition={self.gram_condition_estimate:.6g} "
                   f"regularization={self.regularization_weight:.6g} converged={self.converged} "
                   f"singular={self.singular}")
        return csv_table({"j": range(1, M + 1), "d_j": self.diffusivities,
                          "a_j": self.coefficients}, [summary])


def default_diffusivities(M: int, d_star: float) -> list:
    """d_j = d_star (1 + 1/(j+1)), j = 1..M: distinct, accumulating at d_star."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if d_star <= 0:
        raise ValueError("d_star must be positive")
    return [d_star * (1.0 + 1.0 / (j + 1)) for j in range(1, M + 1)]


def fit_coefficients(W: PeriodizedKernel, basis: GreensBasis,
                     regularization: float = 0.0) -> FitResult:
    """Minimize ||W - sum a_j w_j||_H1^2 + regularization ||a||^2.

    By Parseval the design has one row per Fourier mode of the full lattice:
    column j is the root of the H1 weight times the symbol m_j of w_j (the
    grid's resolvent, mirrored from the rfft half lattice), the
    target that root times h^N fftn(W), whose imaginary part only adds a
    constant to the residual.  SVD (lstsq) carries only the square root of
    the Gram condition number, which the clustered diffusivities make too
    large for normal equations.  Singular values are truncated at machine
    precision, at the cutoff of the (N+1) n^N-row real-space design this
    replaces, and the fit is flagged singular when the Gram system is
    numerically rank-deficient; a singular fit is fixed only to rounding.
    The H1 residual is the minimized norm, so it is non-increasing over
    nested bases as long as the larger fit is not singular.  A singular fit
    may exceed it slightly (by up to 3e-4 relative on
    configs/study_kernel.cfg, M <= 32).  The W11 residual is not minimized
    and may rise over nested bases (there: M = 16 to 32).
    The design is pinned bit for bit: on the rfft half lattice it has the
    same Gram matrix in exact arithmetic, yet there the study errors of
    configs/study_kernel.cfg moved (M = 8: 1.50122e-5 -> 1.49931e-5, M = 16:
    1.49999e-5 -> 1.49987e-5) and were no longer monotone in M.
    """
    grid, h = basis.grid, basis.grid.h
    if W.field.grid != grid:
        raise ValueError("kernel and basis live on different grids")
    if not 0.0 <= regularization < np.inf:
        raise ValueError("regularization must be nonnegative and finite")
    M = len(basis.diffusivities)
    # ||f||_H1 = ||root * h^N fftn(f)||_2; the weight is the centred-difference symbol
    mesh = np.meshgrid(*grid.frequencies(), indexing="ij")
    root = np.sqrt((1.0 + sum(np.sin(k * h) ** 2 for k in mesh) / h ** 2)
                   / (grid.n ** grid.dim * grid.cell_volume))
    m = np.stack([grid.resolvent(d) for d in basis.diffusivities], axis=-1)
    m = np.concatenate((m, m[..., grid.n // 2 - 1:0:-1, :]), axis=-2)   # mirrored: k -> -k
    A = (root[..., np.newaxis] * m).reshape(-1, M)
    b = (root * grid.cell_volume * np.fft.fftn(W.field.values).real).ravel()
    if regularization > 0:
        A = np.vstack([A, np.sqrt(regularization) * np.eye(M)])
        b = np.concatenate([b, np.zeros(M)])

    # the default cutoff of the (N+1) n^N-row real-space design
    rcond = np.finfo(float).eps * (grid.dim + 1) * grid.n ** grid.dim
    a, _, _, svals = np.linalg.lstsq(A, b, rcond=rcond)
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


def fit_to_tolerance(fits, epsilon: float) -> FitResult:
    """The first fit whose W11 residual is below epsilon.

    ``fits`` yields ``FitResult``s by growing basis size, as
    ``harness.basis_fits`` does, and is read no further than that fit.  If no
    fit meets the tolerance, a copy of the best one is returned with
    ``converged=False`` (the existence result behind this construction holds
    only in the continuum limit, so running out of basis sizes is an outcome,
    not an error).  Empty ``fits`` raise.
    """
    if not epsilon > 0:   # also rejects NaN
        raise ValueError("epsilon must be positive")
    best = None
    for result in fits:
        if result.residual_w11 < epsilon:
            return result
        if best is None or result.residual_w11 < best.residual_w11:
            best = result
    if best is None:
        raise ValueError("no fits to choose from")
    return replace(best, converged=False)
