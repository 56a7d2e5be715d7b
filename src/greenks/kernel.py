"""Radial free-space kernels and their periodization onto the torus.

A kernel is described by a radial profile K(r) and a bound on its tail; the
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

_TAIL_CHECK_RADII = (0.5, 1.0, 2.0, 5.0, 10.0)
# the lattice sum stops at the first shell whose tail bound is below this,
# and refuses a kernel that needs more than _MAX_SHELLS shells
_TAIL_TOLERANCE = 1e-10
_MAX_SHELLS = 256
# shells past a candidate stop whose translates the tail bound charges one by
# one, each at its own distance; the shells beyond are charged per shell
_TAIL_WINDOW = 3
# the per-shell series of the tail bound ends this many shells past the stop
_TAIL_SERIES_SHELLS = 400
_ADHESION_RESOLUTION = 8192   # intervals of an adhesion profile's Simpson table
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
    """Free-space radial kernel with the certificate that truncates its lattice sum.

    ``profile(r)`` returns K at the radii ``r`` as a new array of r's shape.
    ``tail_bound(r)`` takes an array of radii the same way; it asserts
    |K(r)| <= tail_bound(r) for r >= 0.5, must be non-increasing on
    [0.5, inf), since the lattice sum evaluates it only at the nearest
    distance of each translate it leaves out, and is checked at a few radii.
    ``support_radius`` marks compact support instead.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: Optional[float] = None
    singular_at_origin: bool = False
    tail_bound: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.tail_bound is not None:
            r = np.array(_TAIL_CHECK_RADII)
            bound = self.tail_bound(r)
            # written so that a NaN profile or bound fails too
            if not np.all(np.abs(self.profile(r)) <= bound * (1.0 + 1e-12)):
                raise ValueError("tail_bound violated at the check radii")


@dataclass
class PeriodizedKernel:
    """Lattice sum of a radial kernel sampled on a grid's offset lattice."""

    field: Field
    truncation_radius_cells: int
    # the tail certificate that stopped the sum; 0.0 for compact support
    tail_bound: float = 0.0


def greens_free_space(d: float, dim: int) -> RadialKernel:
    """Free-space Green function of -d*Laplace + 1 in `dim` dimensions."""
    if not 0 < d < math.inf:
        raise ValueError("diffusivity d must be positive and finite")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    mu = 1.0 / math.sqrt(d)

    if dim == 1:
        def profile(r):
            return np.exp(r * -mu) * (0.5 / math.sqrt(d))

        majorant = profile
        singular = False
    elif dim == 2:
        def profile(r):
            return bessel_k(0, r * mu) * (1.0 / (2.0 * math.pi * d))

        def majorant(r):
            # K_0(x) < K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
            x = r * mu
            return np.sqrt(1.0 / x) * math.sqrt(math.pi / 2.0) * np.exp(-x) * (
                1.0 / (2.0 * math.pi * d))

        singular = True
    else:
        def profile(r):
            return np.exp(r * -mu) / r * (1.0 / (4.0 * math.pi * d))

        majorant = profile
        singular = True

    def tail(r):
        # |K| itself (in 2D the K_{1/2} majorant), with room for the profile
        # and the bound rounding differently, down to the subnormal range
        return majorant(r) * (1.0 + 1e-12) + 1e-300

    return RadialKernel(profile, singular_at_origin=singular, tail_bound=tail)


def gaussian_kernel(sigma: float, dim: int) -> RadialKernel:
    """Normalized Gaussian kernel, a smooth non-Green fitting target."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    A = (2.0 * math.pi * sigma * sigma) ** (-0.5 * dim)

    def profile(r):
        return np.exp(r * r / (-2.0 * sigma * sigma)) * A

    def tail(r):
        # |K| <= tail; max(r, 1) keeps it non-increasing on [0.5, 1) for any sigma
        return A * (1.0 + np.maximum(r, 1.0) / (sigma * sigma)) * np.exp(
            r * r / (-2.0 * sigma * sigma))

    return RadialKernel(profile, tail_bound=tail)


def adhesion_potential(omega: Callable[[np.ndarray], np.ndarray], dim: int) -> RadialKernel:
    """Compactly supported potential with radial derivative omega on [0, 1].

    The profile is the continuous representative vanishing at the support
    boundary: K(r) = -int_r^1 omega(s) ds for r <= 1, zero beyond, tabulated
    by the cumulative Simpson rule on _ADHESION_RESOLUTION uniform intervals.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    resolution = _ADHESION_RESOLUTION
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

    def profile(r):   # np.interp holds values[-1] = 0 beyond r = 1
        return np.interp(r, s, values)

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
    evaluated in batches of at most _BATCH_ELEMENTS, one profile call each.
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
    batch = max(1, _BATCH_ELEMENTS // t.size)
    for start in range(0, R.size, batch):
        rows = slice(start, start + batch)
        rays = k.profile(np.multiply.outer(R[rows], t)) @ t_weights
        total += float(face_weights[rows] @ rays)
    return 2 * dim * 2 ** (dim - 1) * a * total / grid.h ** dim


def periodize(k: RadialKernel, grid: Grid) -> PeriodizedKernel:
    """Sum the lattice translates of a radial kernel on the offset lattice.

    Shells |l|_inf = s are accumulated up to the first shell whose tail
    bound, ``_tail_estimate``, is below _TAIL_TOLERANCE: it charges each
    translate left out at its own distance from the points the sum is
    evaluated at (a compactly supported kernel stops as soon as no translate
    can reach the domain).  That shell is found before any is summed, so a
    sum that would need more than _MAX_SHELLS raises at once; ``tail_bound``
    records the certificate that stopped the sum.  For kernels singular at
    the origin the zero-offset cell stores the cell average of the full sum.

    The sum is even in every coordinate and 2L-periodic, so it is evaluated
    on the octant |x_i| in {0, h, ..., L} only and reflection fills the rest
    of the lattice.  Every shell is invariant under permuting the axes of the
    cubic grid, so on the octant each shell is summed, in batches of
    translates, only at the sorted index tuples i_1 <= ... <= i_N and the
    octant is filled from them by permutation.  The Gauss rule for the
    origin cell's smooth translates is folded the same way, each sorted node
    tuple carrying the summed weights of its permutations.
    """
    if k.tail_bound is None and k.support_radius is None:
        raise ValueError("kernel needs a tail_bound or a declared support radius")
    L = grid.half_length
    dim = grid.dim
    octant = np.arange(grid.n // 2 + 1) * grid.h
    points, octant_rank = _sorted_tuples(octant.size, dim)
    w = np.zeros(len(points))
    if k.singular_at_origin:
        origin_value = _cell_average_origin(k, grid)
        nodes, weights = leggauss(_ORIGIN_GAUSS_ORDER)
        cell_nodes = 0.5 * grid.h * nodes
        cell_weights = np.ones(())
        for _ in range(dim):
            cell_weights = np.multiply.outer(cell_weights, weights / 2.0)
        node_tuples, node_rank = _sorted_tuples(nodes.size, dim)
        cell_weights = np.bincount(node_rank, weights=cell_weights.ravel())

    stop, tail = _stopping_shell(k, grid)
    for s in range(stop):
        rows = _shell_offsets(s, dim) + s
        centers = 2.0 * L * np.arange(-s, s + 1)[:, None]
        for r in _batched_radii((octant - centers) ** 2, rows, points):
            if s == 0 and k.singular_at_origin:
                r[0, 0] = 1.0   # the zero offset; its cell average is stored below
            w += _profile_in_support(k, r).sum(axis=0)
        if k.singular_at_origin and s > 0:
            # cell averages over the origin cell of the smooth translates
            for r in _batched_radii((cell_nodes - centers) ** 2, rows, node_tuples):
                origin_value += float((_profile_in_support(k, r) @ cell_weights).sum())

    if k.singular_at_origin:
        w[0] = origin_value
    w = w[octant_rank].reshape((octant.size,) * dim)
    j = np.arange(grid.n)
    w = w[np.ix_(*[np.minimum(j, grid.n - j)] * dim)]
    return PeriodizedKernel(field=Field(grid, w), truncation_radius_cells=stop - 1,
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


def _batched_radii(sq: np.ndarray, rows: np.ndarray, points: np.ndarray):
    """Yield |x - 2L*l| at the given points, for batches of translates.

    ``sq[i, j]`` is the squared distance along one axis from point coordinate
    j to translate coordinate i; ``rows`` holds one translate and ``points``
    one point per row, both as index tuples into ``sq``.  Each batch is a new
    array of shape (translates, points), whole rows of points and at most
    _BATCH_ELEMENTS elements unless one row is more.
    """
    count, dim = rows.shape
    # per axis, the squared distances from every translate coordinate to the points
    axes = [sq[:, points[:, i]] for i in range(dim)]
    batch = max(1, _BATCH_ELEMENTS // len(points))
    for lo in range(0, count, batch):
        idx = rows[lo:lo + batch]
        r2 = axes[0][idx[:, 0]]
        for i in range(1, dim):
            r2 += axes[i][idx[:, i]]
        yield np.sqrt(r2, out=r2)


def _profile_in_support(k: RadialKernel, r: np.ndarray) -> np.ndarray:
    vals = k.profile(r)
    if k.support_radius is not None:
        np.copyto(vals, 0.0, where=r > k.support_radius)
    return vals


def _stopping_shell(k: RadialKernel, grid: Grid) -> tuple:
    """The first shell the lattice sum leaves out, and its tail certificate.

    A compactly supported kernel stops at the first shell out of its reach,
    with certificate 0.  Otherwise the tail bound holds only from r = 0.5, so
    the nearest translate left out, at L(2s - 1), must be that far.  The
    first shell whose cruder ``_shell_series`` is below _TAIL_TOLERANCE is
    found first, in one vectorized call per candidate, and a kernel whose
    series needs more than _MAX_SHELLS shells is refused.  Since
    ``_tail_estimate`` is at most that series and does not grow with s,
    stepping down while it stays below the tolerance then finds the first
    shell it certifies.
    """
    L = grid.half_length
    if k.support_radius is None:
        first = max(1, math.ceil(0.25 / L + 0.5))
        shells = {}
        for stop in range(first, _MAX_SHELLS + 2):
            if _shell_series(k, grid, stop, stop + _TAIL_SERIES_SHELLS) < _TAIL_TOLERANCE:
                tail = _tail_estimate(k, grid, stop, shells)
                while stop > first:
                    lower = _tail_estimate(k, grid, stop - 1, shells)
                    if not lower < _TAIL_TOLERANCE:
                        break
                    stop, tail = stop - 1, lower
                return stop, tail
    else:
        for stop in range(1, _MAX_SHELLS + 2):
            if L * (2 * stop - 1) > k.support_radius:
                return stop, 0.0
    raise ValueError("lattice sum did not converge within max_shells")


def _shell_series(k: RadialKernel, grid: Grid, first: int, last: int) -> float:
    """Bound on the shells first <= t <= last that charges every translate of
    shell t at the shell's nearest distance L(2t - 1) from the domain."""
    t = np.arange(first, last + 1, dtype=float)
    counts = (2.0 * t + 1.0) ** grid.dim - (2.0 * t - 1.0) ** grid.dim
    return float(counts @ k.tail_bound(grid.half_length * (2.0 * t - 1.0)))


def _tail_estimate(k: RadialKernel, grid: Grid, s: int, shells: dict) -> float:
    """Upper bound on |sum of K(x - 2L*l) over |l|_inf >= s| at the evaluated points.

    Those points lie in the box x_i in [-h/2, L]: the octant, and for a
    singular kernel the Gauss nodes of the origin cell.  Translate l is at
    least L*|d(l)| from the box, with d_i = 2 l_i - 1 for l_i > 0,
    2 |l_i| - h/(2L) for l_i < 0 and 0 for l_i = 0; since ``tail_bound`` is
    non-increasing, the shells s <= t < s + _TAIL_WINDOW are charged one
    translate at a time at that distance.  ``shells`` caches these sums by t.
    The shells beyond are charged by ``_shell_series``, which ends
    _TAIL_SERIES_SHELLS shells past s, so a tail that decays too slowly to
    be negligible there is not bounded.
    """
    L = grid.half_length
    near = 0.0
    for t in range(s, s + _TAIL_WINDOW):
        if t not in shells:
            # per axis, (L d_i)^2 for l_i = -t, ..., t, gathered by index l_i + t
            l = np.arange(-t, t + 1)
            d = np.where(l > 0, 2.0 * l - 1.0, np.where(l < 0, -2.0 * l - grid.h / (2.0 * L), 0.0))
            sq = (L * d) ** 2
            rows = _shell_offsets(t, grid.dim)
            rows += t
            r2 = sq[rows[:, 0]]
            for i in range(1, grid.dim):
                r2 += sq[rows[:, i]]
            shells[t] = float(np.sum(k.tail_bound(np.sqrt(r2, out=r2))))
        near += shells[t]
    return near + _shell_series(k, grid, s + _TAIL_WINDOW, s + _TAIL_SERIES_SHELLS)
