"""Radial free-space kernels and their periodization onto the torus.

A kernel is described by a radial profile K(r) and its derivative; the
screened-Poisson Green functions and the adhesion potential built from a
force profile omega are provided as constructors.  ``periodize`` sums the
lattice translates K(x - 2L*l) on the offset lattice of a grid (index 0
holds the zero offset), so that circular convolution with a density field
is the midpoint-rule nonlocal term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .domain import Field, Grid
from .specfun import bessel_k

_DECAY_CHECK_RADII = (0.5, 1.0, 2.0, 5.0, 10.0)
# Elements per batch of translates in the lattice sum: each working array
# of a batch is about 128 KiB of float64 unless one translate needs more.
_BATCH_ELEMENTS = 2 ** 14
_ORIGIN_GAUSS_ORDER = 6


@dataclass
class RadialKernel:
    """Free-space radial kernel with decay metadata.

    ``decay = (C, alpha)`` asserts |K(r)| + |K'(r)| <= C (1+r)^(-alpha) away
    from the origin; ``tail_bound`` may sharpen that for the lattice-sum
    truncation (the Green kernels decay exponentially).  ``support_radius``
    marks compact support instead.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    derivative_profile: Callable[[np.ndarray], np.ndarray]
    decay: Optional[tuple] = None          # (C, alpha), alpha > N
    support_radius: Optional[float] = None
    singular_at_origin: bool = False
    tail_bound: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.decay is not None:
            C, alpha = self.decay
            r = np.array(_DECAY_CHECK_RADII)
            total = np.abs(self.profile(r)) + np.abs(self.derivative_profile(r))
            bound = C * (1.0 + r) ** (-alpha)
            if np.any(total > bound * (1.0 + 1e-12)):
                raise ValueError("decay metadata violated at the check radii")

    def value_at_origin(self) -> float:
        if self.singular_at_origin:
            raise ValueError("kernel is singular at the origin")
        return float(self.profile(np.array([0.0]))[0])


@dataclass
class PeriodizedKernel:
    """Lattice sum of a radial kernel sampled on a grid's offset lattice."""

    field: Field
    truncation_radius_cells: int


def greens_free_space(d: float, dim: int) -> RadialKernel:
    """Free-space Green function of -d*Laplace + 1 in `dim` dimensions."""
    if d <= 0:
        raise ValueError("diffusivity d must be positive")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    mu = 1.0 / math.sqrt(d)

    if dim == 1:
        def profile(r):
            return np.exp(-mu * np.asarray(r, dtype=float)) / (2.0 * math.sqrt(d))

        def dprofile(r):
            return -np.exp(-mu * np.asarray(r, dtype=float)) / (2.0 * d)

        singular = False
    elif dim == 2:
        def profile(r):
            return bessel_k(0, np.asarray(r, dtype=float) * mu) / (2.0 * math.pi * d)

        def dprofile(r):
            return -mu * bessel_k(1, np.asarray(r, dtype=float) * mu) / (2.0 * math.pi * d)

        singular = True
    else:
        def profile(r):
            r = np.asarray(r, dtype=float)
            return np.exp(-mu * r) / (4.0 * math.pi * d * r)

        def dprofile(r):
            r = np.asarray(r, dtype=float)
            return -np.exp(-mu * r) * (1.0 + mu * r) / (4.0 * math.pi * d * r * r)

        singular = True

    # Algebraic decay certificate: exponential decay dominates any power.
    alpha = dim + 1.0
    rr = np.linspace(0.5, 80.0, 400)
    C = float(((np.abs(profile(rr)) + np.abs(dprofile(rr))) * (1.0 + rr) ** alpha).max())

    def tail(r, _mu=mu, _d=d, _dim=dim):
        # crude but safe for r >= 0.5: |K|+|K'| <= pref * e^{-mu r}
        r = max(r, 0.5)
        if _dim == 1:
            pref = 1.0 / (2.0 * math.sqrt(_d)) + 1.0 / (2.0 * _d)
            return pref * math.exp(-_mu * r)
        if _dim == 2:
            # K_0, K_1 <= sqrt(pi/(2 mu r)) e^{-mu r} * (1 + 1/(mu r)) margin
            pref = (1.0 + _mu) / (2.0 * math.pi * _d) * math.sqrt(math.pi / (2.0 * _mu * r)) * 2.0
            return pref * math.exp(-_mu * r)
        pref = (1.0 / r + (1.0 + _mu * r) / (r * r)) / (4.0 * math.pi * _d)
        return pref * math.exp(-_mu * r)

    return RadialKernel(profile, dprofile, decay=(C * 1.01, alpha),
                        singular_at_origin=singular, tail_bound=tail)


def gaussian_kernel(sigma: float, dim: int) -> RadialKernel:
    """Normalized Gaussian kernel, a smooth non-Green fitting target."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    A = (2.0 * math.pi * sigma * sigma) ** (-0.5 * dim)

    def profile(r):
        r = np.asarray(r, dtype=float)
        return A * np.exp(-r * r / (2.0 * sigma * sigma))

    def dprofile(r):
        r = np.asarray(r, dtype=float)
        return -(r / (sigma * sigma)) * A * np.exp(-r * r / (2.0 * sigma * sigma))

    alpha = dim + 1.0
    rr = np.linspace(0.5, 40.0, 400)
    C = float(((np.abs(profile(rr)) + np.abs(dprofile(rr))) * (1.0 + rr) ** alpha).max())

    def tail(r, _s=sigma, _A=A):
        r = max(r, 0.5)
        return _A * (1.0 + r / (_s * _s)) * math.exp(-r * r / (2.0 * _s * _s))

    return RadialKernel(profile, dprofile, decay=(C * 1.01, alpha), tail_bound=tail)


def adhesion_potential(omega: Callable[[np.ndarray], np.ndarray], dim: int,
                       resolution: int = 8192) -> RadialKernel:
    """Compactly supported potential with radial derivative omega on [0, 1].

    The profile is the continuous representative vanishing at the support
    boundary: K(r) = -int_r^1 omega(s) ds for r <= 1, zero beyond.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    s = np.linspace(0.0, 1.0, resolution + 1)
    w = np.asarray(omega(s), dtype=float) * np.ones_like(s)
    # cumulative integral from r to 1 via Simpson on the dense grid
    total = integrate.simpson(w, x=s)
    cum = integrate.cumulative_simpson(w, x=s, initial=0.0)
    tail_int = total - cum   # int_r^1 omega

    def profile(r):
        r = np.asarray(r, dtype=float)
        inside = np.interp(np.clip(r, 0.0, 1.0), s, -tail_int)
        return np.where(r <= 1.0, inside, 0.0)

    def dprofile(r):
        r = np.asarray(r, dtype=float)
        inside = np.asarray(omega(np.clip(r, 0.0, 1.0)), dtype=float)
        return np.where(r <= 1.0, inside, 0.0)

    return RadialKernel(profile, dprofile, support_radius=1.0)


def _cell_average_origin(k: RadialKernel, grid: Grid) -> float:
    """Cell average of K over the origin cell [-h/2, h/2)^N.

    Reduces to smooth boundary integrals: with F(R) = int_0^R K(r) r^{N-1} dr
    the cube integral is a sum of face/edge terms, so the integrable origin
    singularity never meets the quadrature.
    """
    a = grid.h / 2.0
    dim = grid.dim

    if dim == 1:
        val, _ = integrate.quad(lambda r: float(k.profile(np.array([r]))[0]),
                                0.0, a, epsabs=1e-14, epsrel=1e-12)
        return 2.0 * val / grid.h

    def F(R):
        val, _ = integrate.quad(
            lambda r: float(k.profile(np.array([r]))[0]) * r ** (dim - 1),
            0.0, R, epsabs=1e-14, epsrel=1e-12)
        return val

    if dim == 2:
        def edge(y):
            R = math.hypot(a, y)
            return F(R) * a / (a * a + y * y)
        val, _ = integrate.quad(edge, 0.0, a, epsabs=1e-14, epsrel=1e-12)
        return 8.0 * val / grid.h ** 2

    # dim == 3: one face, 8-fold symmetric quarter, tensor Gauss-Legendre
    nodes, weights = np.polynomial.legendre.leggauss(40)
    x = 0.5 * a * (nodes + 1.0)
    wq = 0.5 * a * weights
    total = 0.0
    for xi, wx in zip(x, wq):
        for yi, wy in zip(x, wq):
            R = math.sqrt(xi * xi + yi * yi + a * a)
            total += wx * wy * F(R) * a / R ** 3
    return 6.0 * 4.0 * total / grid.h ** 3


def periodize(k: RadialKernel, grid: Grid, tolerance: float = 1e-10,
              max_shells: int = 256) -> PeriodizedKernel:
    """Sum the lattice translates of a radial kernel on the offset lattice.

    Shells |l|_inf = s are accumulated until the decay certificate bounds the
    remaining tail below `tolerance` (a compactly supported kernel stops as
    soon as no translate can reach the domain).  For kernels singular at the
    origin the zero-offset cell stores the cell average of the full sum.

    Each shell is summed in batches of translates on the octant
    |x_i| in {0, h, ..., L} only: the sum is even in every coordinate and
    2L-periodic, so reflection fills the rest of the lattice.
    """
    if k.decay is None and k.support_radius is None:
        raise ValueError("kernel needs decay metadata or a declared support radius")
    L = grid.half_length
    dim = grid.dim
    octant = np.arange(grid.n // 2 + 1) * grid.h
    w = np.zeros((octant.size,) * dim)
    if k.singular_at_origin:
        origin_value = _cell_average_origin(k, grid)
        nodes, weights = np.polynomial.legendre.leggauss(_ORIGIN_GAUSS_ORDER)
        cell_nodes = 0.5 * grid.h * nodes
        cell_weights = np.ones(())
        for _ in range(dim):
            cell_weights = np.multiply.outer(cell_weights, weights / 2.0)

    shells = 0
    s = 0
    while True:
        if s > 0:
            if k.support_radius is not None:
                if L * (2 * s - 1) > k.support_radius:
                    break
            elif _tail_estimate(k, grid, s) < tolerance:
                break
        if s > max_shells:
            raise ValueError("lattice sum did not converge within max_shells")
        rows = _shell_offsets(s, dim) + s
        centers = 2.0 * L * np.arange(-s, s + 1)[:, None]
        for r in _batched_radii((octant - centers) ** 2, rows):
            if s == 0 and k.singular_at_origin:
                r.flat[0] = 1.0   # the zero offset; its cell average is stored below
            w += _profile_in_support(k, r).sum(axis=0)
        if k.singular_at_origin and s > 0:
            # cell averages over the origin cell of the smooth translates
            for r in _batched_radii((cell_nodes - centers) ** 2, rows):
                origin_value += float((_profile_in_support(k, r) * cell_weights).sum())
        shells = s
        s += 1

    if k.singular_at_origin:
        w.flat[0] = origin_value
    j = np.arange(grid.n)
    w = w[np.ix_(*[np.minimum(j, grid.n - j)] * dim)]
    return PeriodizedKernel(field=Field(grid, w), truncation_radius_cells=shells)


def _shell_offsets(s: int, dim: int) -> np.ndarray:
    """Integer translates l with |l|_inf == s, one row each.

    Block i holds the translates whose first coordinate of modulus s is l_i,
    so every translate appears once and the inner cube is never built.
    """
    if s == 0:
        return np.zeros((1, dim), dtype=int)
    blocks = []
    for i in range(dim):
        axes = ([np.arange(1 - s, s)] * i + [np.array([-s, s])]
                + [np.arange(-s, s + 1)] * (dim - 1 - i))
        mesh = np.meshgrid(*axes, indexing="ij")
        blocks.append(np.stack([c.ravel() for c in mesh], axis=1))
    return np.concatenate(blocks)


def _batched_radii(sq: np.ndarray, rows: np.ndarray):
    """Yield |x - 2L*l| on the tensor grid of points, for batches of translates.

    ``sq[i, j]`` is the squared distance along one axis from point coordinate
    j to translate coordinate i; ``rows`` holds one translate per row as
    indices into ``sq``.  Each batch has shape (translates,) + (points,)*dim.
    """
    count, dim = rows.shape
    points = sq.shape[1]
    batch = max(1, _BATCH_ELEMENTS // points ** dim)
    for lo in range(0, count, batch):
        idx = rows[lo:lo + batch]
        r2 = 0.0
        for i in range(dim):
            shape = [len(idx)] + [1] * dim
            shape[i + 1] = points
            r2 = r2 + sq[idx[:, i]].reshape(shape)
        yield np.sqrt(r2)


def _profile_in_support(k: RadialKernel, r: np.ndarray) -> np.ndarray:
    vals = np.asarray(k.profile(r), dtype=float)
    if k.support_radius is not None:
        vals = np.where(r > k.support_radius, 0.0, vals)
    return vals


def _tail_estimate(k: RadialKernel, grid: Grid, s: int) -> float:
    """Upper bound on everything beyond shells < s."""
    L = grid.half_length
    dim = grid.dim
    total = 0.0
    t = s
    while True:
        count = (2 * t + 1) ** dim - (2 * t - 1) ** dim
        # worst case over x in Omega: the max-axis distance is at least L(2t-1)
        rmin = max(L * (2 * t - 1), 0.5)
        if k.tail_bound is not None:
            term = count * k.tail_bound(rmin)
        else:
            C, alpha = k.decay
            term = count * C * (1.0 + rmin) ** (-alpha)
        total += term
        if term < 1e-18 * max(total, 1.0) or t > s + 400:
            break
        t += 1
    return total
