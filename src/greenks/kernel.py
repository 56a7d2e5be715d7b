"""Radial free-space kernels and their periodization onto the torus.

A kernel is described by a radial profile K(r) and its decay; the
screened-Poisson Green functions and the adhesion potential built from a
force profile omega are provided as constructors.  ``periodize`` sums the
lattice translates K(x - 2L*l) on the offset lattice of a grid (index 0
holds the zero offset), so that circular convolution with a density field
is the midpoint-rule nonlocal term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .domain import Field, Grid
from .specfun import bessel_k

_DECAY_CHECK_RADII = (0.5, 1.0, 2.0, 5.0, 10.0)
# Elements per batch of translates in the lattice sum: each working array
# of a batch is about 128 KiB of float64 unless one translate needs more.
_BATCH_ELEMENTS = 2 ** 14
_ORIGIN_GAUSS_ORDER = 6
# Pyramid rule of the singular origin cell: Gauss-Legendre points per graded
# panel of the ray parameter t, graded panels, and points per face axis.
_RAY_ORDER = 10
_RAY_PANELS = 40
_FACE_ORDER = 40


@dataclass
class RadialKernel:
    """Free-space radial kernel with decay metadata.

    ``profile(r, out=None)`` evaluates K at the radii ``r``, into ``out`` (an
    array of r's shape, not r itself) when it is given.  ``decay = (C, alpha)``
    asserts |K(r)| <= C (1+r)^(-alpha) away from the origin; ``tail_bound``
    may sharpen that for the lattice-sum truncation (the Green kernels decay
    exponentially).  ``support_radius`` marks compact support instead.
    """

    profile: Callable[..., np.ndarray]
    decay: Optional[tuple] = None          # (C, alpha), alpha > N
    support_radius: Optional[float] = None
    singular_at_origin: bool = False
    tail_bound: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.decay is not None:
            C, alpha = self.decay
            r = np.array(_DECAY_CHECK_RADII)
            bound = C * (1.0 + r) ** (-alpha)
            if np.any(np.abs(self.profile(r)) > bound * (1.0 + 1e-12)):
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
    # the tail certificate that stopped the sum; 0.0 for compact support
    tail_bound: float = 0.0


def _radii_and_out(r, out) -> tuple:
    """``r`` as a float array, and ``out`` or a new array of its shape."""
    r = np.asarray(r, dtype=float)
    return r, (np.empty_like(r) if out is None else out)


def _decay_certificate(profile, dim: int, r_max: float) -> tuple:
    """(C, alpha) with |K(r)| <= C (1+r)^(-alpha), alpha = dim + 1, sampled
    on [0.5, r_max] with a 1 % margin; exponential decay dominates any power."""
    alpha = dim + 1.0
    rr = np.linspace(0.5, r_max, 400)
    return 1.01 * float((np.abs(profile(rr)) * (1.0 + rr) ** alpha).max()), alpha


def greens_free_space(d: float, dim: int) -> RadialKernel:
    """Free-space Green function of -d*Laplace + 1 in `dim` dimensions."""
    if d <= 0:
        raise ValueError("diffusivity d must be positive")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    mu = 1.0 / math.sqrt(d)

    if dim == 1:
        def profile(r, out=None):
            r, out = _radii_and_out(r, out)
            np.exp(np.multiply(r, -mu, out=out), out=out)
            return np.multiply(out, 0.5 / math.sqrt(d), out=out)

        singular = False
    elif dim == 2:
        work = np.empty(0)   # K_0's scratch, grown to the largest argument array

        def profile(r, out=None):
            nonlocal work
            r, out = _radii_and_out(r, out)
            if work.size < 3 * r.size:
                work = np.empty(3 * r.size)
            bessel_k(0, np.multiply(r, mu, out=out), out=out,
                     work=work[:3 * r.size].reshape((3,) + r.shape))
            return np.multiply(out, 1.0 / (2.0 * math.pi * d), out=out)

        singular = True
    else:
        def profile(r, out=None):
            r, out = _radii_and_out(r, out)
            np.exp(np.multiply(r, -mu, out=out), out=out)
            np.divide(out, r, out=out)
            return np.multiply(out, 1.0 / (4.0 * math.pi * d), out=out)

        singular = True

    def tail(r, _mu=mu, _d=d, _dim=dim):
        # crude but safe for r >= 0.5: |K| <= pref * e^{-mu r}; these
        # prefactors set the pinned shell counts
        r = max(r, 0.5)
        if _dim == 1:
            pref = 1.0 / (2.0 * math.sqrt(_d)) + 1.0 / (2.0 * _d)
            return pref * math.exp(-_mu * r)
        if _dim == 2:
            # K_0 <= sqrt(pi/(2 mu r)) e^{-mu r} * (1 + 1/(mu r)) margin
            pref = (1.0 + _mu) / (2.0 * math.pi * _d) * math.sqrt(math.pi / (2.0 * _mu * r)) * 2.0
            return pref * math.exp(-_mu * r)
        pref = (1.0 / r + (1.0 + _mu * r) / (r * r)) / (4.0 * math.pi * _d)
        return pref * math.exp(-_mu * r)

    return RadialKernel(profile, decay=_decay_certificate(profile, dim, 80.0),
                        singular_at_origin=singular, tail_bound=tail)


def gaussian_kernel(sigma: float, dim: int) -> RadialKernel:
    """Normalized Gaussian kernel, a smooth non-Green fitting target."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    A = (2.0 * math.pi * sigma * sigma) ** (-0.5 * dim)

    def profile(r, out=None):
        r, out = _radii_and_out(r, out)
        np.multiply(r, r, out=out)
        np.exp(np.divide(out, -2.0 * sigma * sigma, out=out), out=out)
        return np.multiply(out, A, out=out)

    def tail(r, _s=sigma, _A=A):
        # |K| <= tail; the factor (1 + r/s^2) sets the pinned shell counts
        r = max(r, 0.5)
        return _A * (1.0 + r / (_s * _s)) * math.exp(-r * r / (2.0 * _s * _s))

    return RadialKernel(profile, decay=_decay_certificate(profile, dim, 40.0), tail_bound=tail)


def adhesion_potential(omega: Callable[[np.ndarray], np.ndarray], dim: int,
                       resolution: int = 8192) -> RadialKernel:
    """Compactly supported potential with radial derivative omega on [0, 1].

    The profile is the continuous representative vanishing at the support
    boundary: K(r) = -int_r^1 omega(s) ds for r <= 1, zero beyond, tabulated
    by the cumulative Simpson rule on ``resolution`` >= 2 uniform intervals.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    s = np.linspace(0.0, 1.0, resolution + 1)
    w = np.asarray(omega(s), dtype=float) * np.ones_like(s)
    # Cumulative Simpson rule on the uniform grid, as scipy's equal-interval
    # cumulative_simpson: interval i integrates the parabola through
    # f_i, f_{i+1}, f_{i+2} when i is even and not the last interval, else
    # the one through f_{i-1}, f_i, f_{i+1}.
    left, mid, right = w[:-2], w[1:-1], w[2:]
    pieces = np.empty(resolution)
    pieces[1:] = (-left + 8.0 * mid + 5.0 * right) / (12.0 * resolution)
    pieces[:-1:2] = ((5.0 * left + 8.0 * mid - right) / (12.0 * resolution))[::2]
    cum = np.concatenate(([0.0], np.cumsum(pieces)))
    values = cum - cum[-1]   # -int_s^1 omega, exactly 0 at s = 1

    def profile(r, out=None):
        r, out = _radii_and_out(r, out)
        out[...] = np.interp(np.clip(r, 0.0, 1.0), s, values)
        np.copyto(out, 0.0, where=r > 1.0)
        return out

    return RadialKernel(profile, support_radius=1.0)


def _cell_average_origin(k: RadialKernel, grid: Grid) -> float:
    """Cell average of K over the origin cell [-a, a]^N, a = h/2.

    The cell splits into 2N pyramids with apex at the origin, one per face
    (Duffy, SIAM J. Numer. Anal. 19, 1982).  By symmetry only the quarter
    face x_1 = a, y in [0, a]^(N-1) is integrated; there the point t*(a, y)
    has volume element a t^(N-1) dt dy, so with R(y) = sqrt(a^2 + |y|^2)

        average = 2N 2^(N-1) a / h^N * int_face int_0^1 K(t R(y)) t^(N-1) dt dy.

    The t rule is composite Gauss-Legendre on the graded panels
    [2^(-j-1), 2^(-j)], the last reaching 0, which integrates the log r and
    1/r singularities at an exponential rate; the face rule is tensor
    Gauss-Legendre (in 1D the face is the point R = a).  The R x t nodes are
    evaluated in batches of at most _BATCH_ELEMENTS, one profile call each,
    in two buffers that every batch reuses.
    """
    a = grid.h / 2.0
    dim = grid.dim
    nodes, weights = leggauss(_RAY_ORDER)
    hi = 0.5 ** np.arange(_RAY_PANELS)
    lo = np.append(hi[1:], 0.0)
    half = 0.5 * (hi - lo)[:, None]
    t = (0.5 * (hi + lo)[:, None] + half * nodes).ravel()
    t_weights = (half * weights).ravel() * t ** (dim - 1)

    nodes, weights = leggauss(_FACE_ORDER)
    y2, face_weights = np.zeros(()), np.ones(())
    for _ in range(dim - 1):
        y2 = np.add.outer(y2, (0.5 * a * (nodes + 1.0)) ** 2)
        face_weights = np.multiply.outer(face_weights, 0.5 * a * weights)
    R = np.sqrt(a * a + y2).ravel()
    face_weights = face_weights.ravel()

    total = 0.0
    batch = min(max(1, _BATCH_ELEMENTS // t.size), R.size)
    buffers = np.empty((2, batch, t.size))
    for start in range(0, R.size, batch):
        rows = slice(start, start + batch)
        m = min(batch, R.size - start)
        r = np.multiply.outer(R[rows], t, out=buffers[0, :m])
        rays = k.profile(r, out=buffers[1, :m]) @ t_weights
        total += float(face_weights[rows] @ rays)
    return 2 * dim * 2 ** (dim - 1) * a * total / grid.h ** dim


def periodize(k: RadialKernel, grid: Grid, tolerance: float = 1e-10,
              max_shells: int = 256) -> PeriodizedKernel:
    """Sum the lattice translates of a radial kernel on the offset lattice.

    Shells |l|_inf = s are accumulated until the decay certificate bounds the
    remaining tail below `tolerance` (a compactly supported kernel stops as
    soon as no translate can reach the domain); ``tail_bound`` records the
    certificate that stopped the sum.  For kernels singular at the origin
    the zero-offset cell stores the cell average of the full sum.

    The sum is even in every coordinate and 2L-periodic, so it is evaluated
    on the octant |x_i| in {0, h, ..., L} only and reflection fills the rest
    of the lattice.  Every shell is invariant under permuting the axes of the
    cubic grid, so on the octant each shell is summed, in batches of
    translates, only at the sorted index tuples i_1 <= ... <= i_N and the
    octant is filled from them by permutation.  The Gauss rule for the
    origin cell's smooth translates is folded the same way, each sorted node
    tuple carrying the summed weights of its permutations.  All batches share
    one pair of buffers, for the radii and the profile values.
    """
    if k.decay is None and k.support_radius is None:
        raise ValueError("kernel needs decay metadata or a declared support radius")
    L = grid.half_length
    dim = grid.dim
    octant = np.arange(grid.n // 2 + 1) * grid.h
    points, octant_rank = _sorted_tuples(octant.size, dim)
    w = np.zeros(len(points))
    widest = len(points)
    if k.singular_at_origin:
        origin_value = _cell_average_origin(k, grid)
        nodes, weights = leggauss(_ORIGIN_GAUSS_ORDER)
        cell_nodes = 0.5 * grid.h * nodes
        cell_weights = np.ones(())
        for _ in range(dim):
            cell_weights = np.multiply.outer(cell_weights, weights / 2.0)
        node_tuples, node_rank = _sorted_tuples(nodes.size, dim)
        cell_weights = np.bincount(node_rank, weights=cell_weights.ravel())
        widest = max(widest, len(node_tuples))
    # a batch is whole rows of points, at most _BATCH_ELEMENTS unless one row is more
    buffers = np.empty((2, max(_BATCH_ELEMENTS, widest)))

    shells = 0
    tail = 0.0
    s = 0
    while True:
        if s > 0:
            if k.support_radius is not None:
                if L * (2 * s - 1) > k.support_radius:
                    break
            else:
                tail = _tail_estimate(k, grid, s)
                if tail < tolerance:
                    break
        if s > max_shells:
            raise ValueError("lattice sum did not converge within max_shells")
        rows = _shell_offsets(s, dim) + s
        centers = 2.0 * L * np.arange(-s, s + 1)[:, None]
        for r, vals in _batched_radii((octant - centers) ** 2, rows, points, buffers):
            if s == 0 and k.singular_at_origin:
                r[0, 0] = 1.0   # the zero offset; its cell average is stored below
            w += _profile_in_support(k, r, vals).sum(axis=0)
        if k.singular_at_origin and s > 0:
            # cell averages over the origin cell of the smooth translates
            for r, vals in _batched_radii((cell_nodes - centers) ** 2, rows, node_tuples,
                                          buffers):
                origin_value += float((_profile_in_support(k, r, vals) @ cell_weights).sum())
        shells = s
        s += 1

    if k.singular_at_origin:
        w[0] = origin_value
    w = w[octant_rank].reshape((octant.size,) * dim)
    j = np.arange(grid.n)
    w = w[np.ix_(*[np.minimum(j, grid.n - j)] * dim)]
    return PeriodizedKernel(field=Field(grid, w), truncation_radius_cells=shells,
                            tail_bound=tail)


def _sorted_tuples(m: int, dim: int) -> tuple:
    """Index tuples 0 <= i_1 <= ... <= i_dim < m, one row each in lexicographic
    order (the first is the origin), and for every tuple of the full m^dim
    tensor, in C order, the row of its sorted permutation."""
    tuples = np.array(list(itertools.combinations_with_replacement(range(m), dim)),
                      dtype=np.intp).reshape(-1, dim)
    rank = np.zeros((m,) * dim, dtype=np.intp)
    rank[tuple(tuples.T)] = np.arange(len(tuples))
    return tuples, rank[tuple(np.sort(np.indices(rank.shape).reshape(dim, -1), axis=0))]


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


def _batched_radii(sq: np.ndarray, rows: np.ndarray, points: np.ndarray,
                   buffers: np.ndarray):
    """Yield |x - 2L*l| at the given points, for batches of translates.

    ``sq[i, j]`` is the squared distance along one axis from point coordinate
    j to translate coordinate i; ``rows`` holds one translate and ``points``
    one point per row, both as index tuples into ``sq``.  Each batch has
    shape (translates, points) and is yielded as a pair of views of the two
    rows of ``buffers``: the radii, and scratch that the caller may overwrite.
    """
    count, dim = rows.shape
    # per axis, the squared distances from every translate coordinate to the points
    axes = [sq[:, points[:, i]] for i in range(dim)]
    batch = max(1, _BATCH_ELEMENTS // len(points))
    for lo in range(0, count, batch):
        idx = rows[lo:lo + batch]
        shape = (len(idx), len(points))
        r2, scratch = (b[:shape[0] * shape[1]].reshape(shape) for b in buffers)
        # mode="clip" writes straight into out; the indices are in range anyway
        np.take(axes[0], idx[:, 0], axis=0, out=r2, mode="clip")
        for i in range(1, dim):
            r2 += np.take(axes[i], idx[:, i], axis=0, out=scratch, mode="clip")
        yield np.sqrt(r2, out=r2), scratch


def _profile_in_support(k: RadialKernel, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    vals = k.profile(r, out=out)
    if k.support_radius is not None:
        np.copyto(vals, 0.0, where=r > k.support_radius)
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
