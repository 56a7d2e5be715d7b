"""Periodic Green functions of -d*Laplace + 1 and the spectral elliptic solve.

Two constructions coexist on purpose.  ``elliptic_solve`` and the basis
fields invert the operator exactly in the discrete Fourier space (plain
truncated multiplier), so convolving a density with a basis field and
solving the chemical equation are the *same* discrete operation.  The
refined construction in ``greens_periodic_spectral(..., refinement>1)``
instead targets point samples of the continuum Green function, which is
what the Bessel lattice sum of :mod:`greenks.kernel` produces; the two are
cross-checked against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Field, Grid
from .kernel import PeriodizedKernel, greens_free_space, periodize


def _multiplier(d: float, grid: Grid) -> np.ndarray:
    """Fourier symbol 1/(1 + d |xi_k|^2) on the grid's frequency lattice."""
    freqs = grid.frequencies()
    mesh = np.meshgrid(*freqs, indexing="ij")
    k2 = sum(c * c for c in mesh)
    return 1.0 / (1.0 + d * k2)


def elliptic_solve(d: float, u: Field) -> Field:
    """Solve (-d*Laplace_h + I) v = u exactly in Fourier space."""
    if d <= 0:
        raise ValueError("diffusivity d must be positive")
    v = np.fft.ifftn(_multiplier(d, u.grid) * np.fft.fftn(u.values)).real
    return Field(u.grid, v)


def _plain_green_field(d: float, grid: Grid) -> Field:
    return elliptic_solve(d, Field.delta(grid))


def _origin_cell_average_fourier(d: float, grid: Grid, kmax: int = 8000) -> float:
    """Cell average over [-h/2, h/2)^N of the continuum periodic Green
    function, summed directly in Fourier space with per-mode averaging
    factors (absolutely convergent for N <= 3)."""
    L = grid.half_length
    h = grid.h
    k = np.arange(-kmax, kmax + 1, dtype=float) * np.pi / L
    s = np.sinc(k * h / (2.0 * np.pi))  # sin(kh/2)/(kh/2)
    if grid.dim == 1:
        return float(np.sum(s / (1.0 + d * k * k))) / (2.0 * L)
    if grid.dim == 2:
        total = 0.0
        block = 512
        for i0 in range(0, k.size, block):
            kx = k[i0:i0 + block][:, None]
            sx = s[i0:i0 + block][:, None]
            total += float(np.sum(sx * s[None, :] / (1.0 + d * (kx * kx + k[None, :] ** 2))))
        return total / (2.0 * L) ** 2
    total = 0.0
    # 3D decays fast enough for a smaller cutoff
    kmax3 = min(kmax, 600)
    k3 = np.arange(-kmax3, kmax3 + 1, dtype=float) * np.pi / L
    s3 = np.sinc(k3 * h / (2.0 * np.pi))
    KX, KY = np.meshgrid(k3, k3, indexing="ij")
    SXY = np.outer(s3, s3)
    for kz, sz in zip(k3, s3):
        total += float(np.sum(SXY * sz / (1.0 + d * (KX ** 2 + KY ** 2 + kz * kz))))
    return total / (2.0 * L) ** 3


def _refined_samples(d: float, grid: Grid, refinement: int) -> Field:
    """Continuum Green samples via fine-grid spectral fields restricted to
    the coarse offset lattice, Richardson-extrapolated in the fine spacing."""
    if refinement < 2 or refinement % 2 != 0:
        raise ValueError("refinement must be an even integer >= 2")

    def restricted(ref):
        fine = Grid(grid.dim, grid.half_length, grid.n * ref)
        wf = _plain_green_field(d, fine).values
        sl = tuple(slice(0, None, ref) for _ in range(grid.dim))
        return wf[sl].copy()

    if grid.dim == 1:
        # the Fourier tail at the kink decays only like 1/n_fine, so use the
        # full refinement directly instead of extrapolating
        w = restricted(refinement)
    else:
        coarse = restricted(refinement // 2)
        fine = restricted(refinement)
        w = (4.0 * fine - coarse) / 3.0  # leading O(h_fine^2) term cancels
        w[(0,) * grid.dim] = _origin_cell_average_fourier(d, grid)
    return Field(grid, w)


def greens_periodic_spectral(d: float, grid: Grid, refinement: int = 1) -> Field:
    """Periodic Green function of -d*Laplace + 1 on the offset lattice.

    ``refinement=1`` returns the discrete resolvent applied to the discrete
    delta (the object the solvers convolve with).  ``refinement>1`` returns
    continuum-accurate samples for cross-checking against the Bessel lattice
    sum; in two and three dimensions the origin cell then holds the cell
    average of the (singular) continuum Green function.
    """
    if d <= 0:
        raise ValueError("diffusivity d must be positive")
    if refinement == 1:
        return _plain_green_field(d, grid)
    return _refined_samples(d, grid, refinement)


@dataclass
class GreensBasis:
    """Discrete Green fields w_j for a family of distinct diffusivities."""

    grid: Grid
    diffusivities: list
    fields: list      # list of Field, one per d_j

    def __post_init__(self):
        d = np.asarray(self.diffusivities, dtype=float)
        if np.any(d <= 0):
            raise ValueError("diffusivities must be positive")
        if len(set(d.tolist())) != len(d):
            raise ValueError("diffusivities must be pairwise distinct")

    @classmethod
    def build(cls, grid: Grid, diffusivities) -> "GreensBasis":
        ds = [float(d) for d in diffusivities]
        return cls(grid=grid, diffusivities=ds, fields=[_plain_green_field(d, grid) for d in ds])

    def combination(self, coefficients) -> Field:
        """Sum a_j w_j as a single field."""
        if len(coefficients) != len(self.fields):
            raise ValueError("coefficient count does not match basis size")
        out = np.zeros(self.grid.shape)
        for a, f in zip(coefficients, self.fields):
            out += float(a) * f.values
        return Field(self.grid, out)

    def as_kernel(self, coefficients) -> PeriodizedKernel:
        """Wrap a basis combination as a periodized kernel."""
        return PeriodizedKernel(field=self.combination(coefficients), truncation_radius_cells=0)


def lattice_sum_green(d: float, grid: Grid, tolerance: float = 1e-10) -> PeriodizedKernel:
    """Bessel lattice-sum construction of the same periodic Green function."""
    return periodize(greens_free_space(d, grid.dim), grid, tolerance)
