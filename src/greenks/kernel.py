"""Radial free-space kernels and their periodization onto the torus.

A kernel is described by a radial profile K(r) and a bound on its tail; the
screened-Poisson Green functions and the adhesion potential built from a
force profile omega are provided as constructors.  ``periodize`` sums the
lattice translates K(x - 2L*l) on the offset lattice of a grid (index 0
holds the zero offset), so that circular convolution with a density field
is the midpoint-rule nonlocal term.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
# even, so that the origin cell's Gauss nodes pair up as +-xi
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
    A compactly supported kernel's bound vanishes beyond its support, so the
    sum stops, with certificate 0, once no translate left out reaches the domain.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    tail_bound: Callable[[np.ndarray], np.ndarray]
    singular_at_origin: bool = False

    def __post_init__(self):
        r = np.array(_TAIL_CHECK_RADII)
        # written so that a NaN profile or bound fails too
        if not np.all(np.abs(self.profile(r)) <= self.tail_bound(r) * (1.0 + 1e-12)):
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
    try:   # the normalization A and the tail bound's scale A/sigma^2 must be finite
        A = (2.0 * math.pi * sigma * sigma) ** (-0.5 * dim)
        finite = A / (sigma * sigma) < math.inf
    except (ZeroDivisionError, OverflowError):   # sigma^2 or sigma^dim underflows
        finite = False
    if not finite:
        raise ValueError("sigma is too small: the kernel's normalization or tail bound "
                         "is not a finite float")

    def profile(r):
        return np.exp(r * r / (-2.0 * sigma * sigma)) * A

    def tail(r):
        # |K| <= tail; max(r, 1) keeps it non-increasing on [0.5, 1) for any sigma;
        # profile(r) first, so that where it underflows to 0 the product is 0, not inf * 0
        return profile(r) * (1.0 + np.maximum(r, 1.0) / (sigma * sigma))

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
    peak = max(values.max(), -values.min())   # max |values|, without a temporary

    def profile(r):   # np.interp holds values[-1] = 0 beyond r = 1
        return np.interp(r, s, values)

    def tail(r):   # |K| <= peak on the support, 0 beyond it
        return np.where(r <= 1.0, peak, 0.0)

    return RadialKernel(profile, tail_bound=tail)


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
    Gauss-Legendre (in 1D the face is the point R = a), folded by permutation
    since R(y) is invariant under permuting the face axes: 820 face nodes
    instead of 1,600 in 3D.  The R x t nodes are evaluated in batches of at
    most _BATCH_ELEMENTS, one profile call each.
    """
    a = grid.h / 2.0
    dim = grid.dim
    nodes, weights = _gauss_legendre(_RAY_ORDER)
    hi = 0.5 ** np.arange(_RAY_PANELS)
    lo = np.append(hi[1:], 0.0)
    half = 0.5 * (hi - lo)[:, None]
    t = (0.5 * (hi + lo)[:, None] + half * nodes).ravel()
    t_weights = (half * weights).ravel() * t ** (dim - 1)

    nodes, weights = _gauss_legendre(_FACE_ORDER)
    y, face_weights = _folded_rule(0.5 * a * (nodes + 1.0), 0.5 * a * weights, dim - 1)
    R = np.sqrt(a * a + np.sum(y * y, axis=1))

    total = 0.0
    batch = max(1, _BATCH_ELEMENTS // t.size)
    for start in range(0, R.size, batch):
        rows = slice(start, start + batch)
        rays = k.profile(np.multiply.outer(R[rows], t)) @ t_weights
        total += float(face_weights[rows] @ rays)
    return 2 * dim * 2 ** (dim - 1) * a * total / grid.h ** dim


def periodize(k: RadialKernel, grid: Grid) -> PeriodizedKernel:
    """Sum the lattice translates of a radial kernel on the offset lattice.

    The translates summed form one cube |l|_inf < stop, where stop is the
    first shell |l|_inf = s whose tail bound, ``_tail_estimate``, is below
    _TAIL_TOLERANCE: it charges each translate left out at its own distance
    from the box [0, L]^N, which holds every point the sum is evaluated at
    (a compact kernel stops, with certificate 0, once no translate left out
    reaches the box).  That shell is found before anything is summed, so a
    sum that would need more than _MAX_SHELLS raises at once; ``tail_bound``
    records the certificate that stopped the sum.

    The sum is even in every coordinate and 2L-periodic, so it is evaluated
    on the octant x_i in {0, h, ..., L} only and reflection fills the rest
    of the lattice.  The cube is invariant under permuting the axes of the
    cubic grid, so on the octant it is summed only at the sorted index
    tuples i_1 <= ... <= i_N and the octant is filled from them by
    permutation.  Every point takes the whole cube but a singular kernel's
    origin, whose cell average is ``_cell_average_origin`` plus a Gauss rule
    for the other translates: the cube at nodes y in (0, h/2)^N less K(|y|).
    That is even in every axis, so the rule is folded by sign and then by
    permutation: 10 node tuples instead of 56 in 3D and 6 instead of 21 in 2D.
    """
    dim = grid.dim
    octant = np.arange(grid.n // 2 + 1) * grid.h
    points, octant_rank = _sorted_tuples(octant.size, dim)
    stop, tail = _stopping_shell(k, grid)
    centers = 2.0 * grid.half_length * np.arange(1 - stop, stop)
    first = int(k.singular_at_origin)   # the singular origin point is not summed
    w = np.empty(len(points))
    w[first:] = _cube_sum(k, octant[points[first:]], centers)
    if k.singular_at_origin:
        nodes, weights = _gauss_legendre(_ORIGIN_GAUSS_ORDER)
        positive = slice(_ORIGIN_GAUSS_ORDER // 2, None)
        y, cell_weights = _folded_rule(0.5 * grid.h * nodes[positive], weights[positive], dim)
        # the zero translate K(|y|), finite at the nodes, is in the cell average
        smooth = _cube_sum(k, y, centers) - k.profile(np.sqrt(np.sum(y * y, axis=1)))
        w[0] = _cell_average_origin(k, grid) + float(smooth @ cell_weights)
    w = w[octant_rank].reshape((octant.size,) * dim)
    j = np.arange(grid.n)
    w = w[np.ix_(*[np.minimum(j, grid.n - j)] * dim)]
    return PeriodizedKernel(field=Field(grid, w), truncation_radius_cells=stop - 1,
                            tail_bound=tail)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(m: int) -> tuple:
    """Nodes, ascending, and weights of the m-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_m from the guesses cos(pi (j - 1/4)/(m + 1/2)),
    with P_m and P_m' from the three-term recurrence (Hale and Townsend,
    SIAM J. Sci. Comput. 35, 2013); the rule is then made exactly symmetric.
    The arrays are cached and read-only.
    """
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre(m, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 4.0 * np.finfo(float).eps:
            break
    dp = _legendre(m, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre(m: int, x: np.ndarray) -> tuple:
    """P_m(x) and P_m'(x) for |x| < 1 by the three-term recurrence."""
    previous, p = np.ones_like(x), x
    for j in range(2, m + 1):
        previous, p = p, ((2 * j - 1) * x * p - (j - 1) * previous) / j
    return p, m * (x * p - previous) / (x * x - 1.0)


def _folded_rule(nodes: np.ndarray, weights: np.ndarray, dim: int) -> tuple:
    """The tensor rule of ``nodes`` and ``weights`` per axis in ``dim``
    dimensions, for an integrand invariant under permuting the axes: one row
    of node coordinates per sorted index tuple, each with the summed weight
    of its permutations."""
    if dim == 0:
        return np.zeros((1, 0)), np.ones(1)
    tuples, rank = _sorted_tuples(nodes.size, dim)
    tensor = np.ones(())
    for _ in range(dim):
        tensor = np.multiply.outer(tensor, weights)
    return nodes[tuples], np.bincount(rank, weights=tensor.ravel())


def _sorted_tuples(m: int, dim: int) -> tuple:
    """Index tuples 0 <= i_1 <= ... <= i_dim < m, one row each in lexicographic
    order (the first is the origin), and for every tuple of the full m^dim
    tensor, in C order, the row of its sorted permutation."""
    tuples = np.array(list(itertools.combinations_with_replacement(range(m), dim)),
                      dtype=np.intp).reshape(-1, dim)
    rank = np.zeros((m,) * dim, dtype=np.intp)
    rank[tuple(tuples.T)] = np.arange(len(tuples))
    return tuples, rank[tuple(np.sort(np.indices(rank.shape).reshape(dim, -1), axis=0))]


def _cube_sum(k: RadialKernel, x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Sum of K(|x - c|) over the whole cube of translates c, at each row of ``x``.

    ``centers`` holds the translate coordinates along one axis; no point
    leaves one out, so no row of ``x`` may be a singularity of K.  Per axis,
    the table (x_i - c)^2 has one row per coordinate; each batch of
    translates is one broadcast add of those tables, so that the trailing
    axes of the cube are whole in every batch and each working array has at
    most _BATCH_ELEMENTS elements unless one translate needs more.
    """
    count, dim = x.shape
    m = centers.size
    tables = [np.subtract.outer(centers, x[:, i]) ** 2 for i in range(dim)]
    whole = 0   # trailing axes that every batch spans
    while whole < dim - 1 and m ** (whole + 1) * count <= _BATCH_ELEMENTS:
        whole += 1
    cut = dim - 1 - whole   # the axis batches are cut along, `rows` at a time
    rows = max(1, _BATCH_ELEMENTS // (m ** whole * count))
    trailing = [tables[i].reshape((m,) + (1,) * (dim - 1 - i) + (count,))
                for i in range(cut + 1, dim)]
    total = np.zeros(count)
    for lead in itertools.product(range(m), repeat=cut):
        base = sum(tables[i][l] for i, l in enumerate(lead))
        for lo in range(0, m, rows):
            # the shape grows one axis per add, so only the last is full size
            r = tables[cut][lo:lo + rows].reshape((-1,) + (1,) * whole + (count,)) + base
            for p in trailing:
                r = r + p
            np.sqrt(r, out=r)
            total += k.profile(r).reshape(-1, count).sum(axis=0)
    return total


def _stopping_shell(k: RadialKernel, grid: Grid) -> tuple:
    """The first shell the lattice sum leaves out, and its tail certificate.

    The tail bound holds only from r = 0.5, so the nearest translate left
    out, at L(2s - 1), must be that far.  The first shell whose cruder
    ``_shell_series`` is below _TAIL_TOLERANCE is found first, from one
    tail_bound call over every candidate, and a kernel whose series needs
    more than _MAX_SHELLS shells is refused, before its series is built if
    the first candidate is already beyond them.  Since ``_tail_estimate`` is
    at most that series and does not grow with s, stepping down while it
    stays below the tolerance then finds the first shell it certifies.
    """
    if 0.25 / grid.half_length + 0.5 > _MAX_SHELLS + 1:
        raise ValueError("lattice sum did not converge within max_shells")
    first = max(1, math.ceil(0.25 / grid.half_length + 0.5))
    series = _shell_series(k, grid, first)
    stops = np.arange(first, _MAX_SHELLS + 2)
    below = np.flatnonzero(series(stops, stops + _TAIL_SERIES_SHELLS) < _TAIL_TOLERANCE)
    if not below.size:
        raise ValueError("lattice sum did not converge within max_shells")
    stop = first + int(below[0])
    shells = {}
    tail = _tail_estimate(k, grid, stop, shells, series)
    while stop > first:
        lower = _tail_estimate(k, grid, stop - 1, shells, series)
        if not lower < _TAIL_TOLERANCE:
            break
        stop, tail = stop - 1, lower
    return stop, tail


def _shell_series(k: RadialKernel, grid: Grid, first: int) -> Callable:
    """``series(a, b)``: the bound on the shells a <= t <= b, for
    first <= a and b <= _MAX_SHELLS + 1 + _TAIL_SERIES_SHELLS, that charges
    every translate of shell t at the shell's nearest distance L(2t - 1)
    from the domain.

    One tail_bound call covers every shell.  A window is the difference of
    the sums from its two ends to the last shell, accumulated from the last
    shell on, so a window whose tail beyond is smaller keeps its relative
    accuracy.
    """
    t = np.arange(first, _MAX_SHELLS + 2 + _TAIL_SERIES_SHELLS, dtype=float)
    counts = (2.0 * t + 1.0) ** grid.dim - (2.0 * t - 1.0) ** grid.dim
    terms = counts * k.tail_bound(grid.half_length * (2.0 * t - 1.0))
    # beyond[j]: the shells t >= first + j
    beyond = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
    return lambda a, b: beyond[a - first] - beyond[b + 1 - first]


def _tail_estimate(k: RadialKernel, grid: Grid, s: int, shells: dict,
                   series: Callable) -> float:
    """Upper bound on |sum of K(x - 2L*l) over |l|_inf >= s| at the evaluated points.

    Those points lie in the box [0, L]^N: the octant, and for a singular
    kernel the origin cell's Gauss nodes in (0, h/2)^N.  Translate l is at
    least L*|d(l)| from the box, with d_i = 2 l_i - 1 for l_i > 0,
    2 |l_i| for l_i < 0 and 0 for l_i = 0; since ``tail_bound`` is
    non-increasing, the shells s <= t < s + _TAIL_WINDOW are charged one
    translate at a time at that distance.  ``shells`` caches these sums by t.
    The shells beyond are charged by ``series`` from ``_shell_series``,
    which ends _TAIL_SERIES_SHELLS shells past s, so a tail that decays too
    slowly to be negligible there is not bounded.
    """
    L = grid.half_length
    near = 0.0
    for t in range(s, s + _TAIL_WINDOW):
        if t not in shells:
            # per axis, (L d_i)^2 for l_i = -t, ..., t; shell t is the blocks
            # |l_j| < t before axis i, |l_i| = t, any l_j after it
            l = np.arange(-t, t + 1)
            d = np.where(l > 0, 2.0 * l - 1.0, -2.0 * l)
            sq = (L * d) ** 2
            blocks = [functools.reduce(np.add.outer, [sq[1:-1]] * i + [sq[[0, -1]]]
                                       + [sq] * (grid.dim - 1 - i)).ravel()
                      for i in range(grid.dim)]
            shells[t] = float(np.sum(k.tail_bound(np.sqrt(np.concatenate(blocks)))))
        near += shells[t]
    return near + float(series(s + _TAIL_WINDOW, s + _TAIL_SERIES_SHELLS))
