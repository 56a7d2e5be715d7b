"""Periodic Green functions of -d*Laplace + 1 and the spectral elliptic solve.

Two constructions coexist on purpose.  ``elliptic_solve`` and the basis
invert the operator exactly in the discrete Fourier space (the grid's
resolvent, a truncated multiplier), so convolving a density with a basis
field and solving the chemical equation are the *same* discrete operation.
``greens_periodic_spectral(..., refinement>1)`` instead returns exact
samples of the continuum Green function, from its Fourier series summed in
closed form along one axis.  That is what the Bessel lattice sum of
:mod:`greenks.kernel` produces by an independent route, so the two are
cross-checked against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Field, Grid
from .kernel import PeriodizedKernel, greens_free_space, periodize


def elliptic_solve(d: float, u: Field) -> Field:
    """Solve (-d*Laplace_h + I) v = u exactly in Fourier space."""
    if d <= 0:
        raise ValueError("diffusivity d must be positive")
    return Field(u.grid, u.grid.irfft(u.grid.resolvent(d) * u.grid.rfft(u.values)))


def _continuum_samples(d: float, grid: Grid) -> Field:
    """Exact samples of the continuum periodic Green function.

    Along the last axis, each transverse frequency k' = pi m/L contributes
    the 1D periodic Green function of -d*D^2 + c, c = 1 + d|k'|^2, in closed
    form: (e^{-nu|y|} + e^{-nu(2L-|y|)}) / (-2 d nu expm1(-2 nu L)) with
    nu = sqrt(c/d).  At lattice points the terms -8n <= m_i < 8n fold onto n
    bins (m mod n), and one inverse FFT over the transverse axes sums them;
    they decay like e^{-nu h}, far below rounding at the cutoff.  Points
    whose last index is 0 take the value of an axis permutation with a
    nonzero last index.  For N >= 2 the origin holds the cell average over
    [-a, a]^N, a = h/2, from C_1 = (1 - e(1))/(2a) and

        C_N = C_{N-1}/(2a) - (2L)^{1-N} sum_k' prod sinc(k'_i a) e(c)/(2ac),

    e(c) = sinh(nu(L-a))/sinh(nu L), a sum that decays like e^{-nu a}.
    """
    n, L, dim = grid.n, grid.half_length, grid.dim
    a = grid.h / 2.0

    def edge(c):   # e(c), written to stay finite for large nu
        nu = np.sqrt(c / d)
        return np.exp(-nu * a) * np.expm1(-2.0 * nu * (L - a)) / np.expm1(-2.0 * nu * L)

    m = np.arange(-8 * n, 8 * n)
    k2, sinc = np.zeros(()), np.ones(())   # over the transverse frequencies k'
    origin = (1.0 - edge(1.0)) / (2.0 * a)
    for level in range(2, dim + 1):
        k2 = np.add.outer(k2, (np.pi * m / L) ** 2)
        sinc = np.multiply.outer(sinc, np.sinc(m / n))   # sin(k a)/(k a) at k = pi m/L
        c = 1.0 + d * k2
        remainder = float(np.sum(sinc * edge(c) / (2.0 * a * c)))
        origin = origin / (2.0 * a) - remainder / (2.0 * L) ** (level - 1)

    nu = np.sqrt((1.0 + d * k2) / d)[..., None]
    y = np.abs(grid.axis_offsets())
    g = np.exp(-nu * y) + np.exp(-nu * (2.0 * L - y))
    g /= -2.0 * d * nu * np.expm1(-2.0 * nu * L)
    folded = g.reshape((16, n) * (dim - 1) + (n,)).sum(axis=tuple(range(0, 2 * dim - 2, 2)))
    w = np.fft.ifftn(folded, axes=range(dim - 1)).real * (n / (2.0 * L)) ** (dim - 1)
    for i in range(dim - 1):
        # where index i is 0 this reads the point itself, so it stays as is
        w[..., 0] = np.swapaxes(w, i, -1)[..., 0].copy()
    if dim > 1:
        w[(0,) * dim] = origin
    return Field(grid, w)


def greens_periodic_spectral(d: float, grid: Grid, refinement: int = 1) -> Field:
    """Periodic Green function of -d*Laplace + 1 on the offset lattice.

    ``refinement=1`` returns the discrete resolvent applied to the discrete
    delta (the object the solvers convolve with).  Any other even integer
    returns the exact samples of the continuum Green function, the same for
    every such value, for cross-checking against the Bessel lattice sum; in
    two and three dimensions the origin cell then holds the cell average of
    the (singular) continuum Green function.
    """
    if d <= 0:
        raise ValueError("diffusivity d must be positive")
    if refinement == 1:
        return elliptic_solve(d, Field.delta(grid))
    if refinement < 2 or refinement % 2 != 0:
        raise ValueError("refinement must be an even integer >= 2")
    return _continuum_samples(d, grid)


@dataclass
class GreensBasis:
    """Discrete Green fields w_j of distinct diffusivities d_j, held as the
    d_j alone: w_j has the Fourier symbol ``grid.resolvent(d_j) / h^N``."""

    grid: Grid
    diffusivities: list

    def __post_init__(self):
        d = np.asarray(self.diffusivities, dtype=float)
        if d.size == 0:
            raise ValueError("a Green basis needs at least one diffusivity")
        if not np.all((d > 0) & np.isfinite(d)):
            raise ValueError("diffusivities must be positive and finite")
        if len(set(d.tolist())) != len(d):
            raise ValueError("diffusivities must be pairwise distinct")

    @classmethod
    def build(cls, grid: Grid, diffusivities) -> "GreensBasis":
        return cls(grid=grid, diffusivities=[float(d) for d in diffusivities])

    def combination(self, coefficients) -> Field:
        """Sum a_j w_j as a single field, from one inverse FFT."""
        if len(coefficients) != len(self.diffusivities):
            raise ValueError("coefficient count does not match basis size")
        g = self.grid
        symbol = sum(float(a) * g.resolvent(d) for a, d in zip(coefficients, self.diffusivities))
        return Field(g, g.irfft(symbol) / g.cell_volume)

    def as_kernel(self, coefficients) -> PeriodizedKernel:
        """Wrap a basis combination as a periodized kernel."""
        return PeriodizedKernel(field=self.combination(coefficients), truncation_radius_cells=0)


def lattice_sum_green(d: float, grid: Grid) -> PeriodizedKernel:
    """Bessel lattice-sum construction of the same periodic Green function,
    truncated where :func:`greenks.kernel.periodize` certifies its tail."""
    return periodize(greens_free_space(d, grid.dim), grid)
