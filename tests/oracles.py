"""Independent oracles used across the test suite.

These deliberately avoid the library's own evaluation paths: the Bessel
oracle integrates the defining integral with adaptive quadrature, the
convolution oracle sums the circular convolution directly, the lattice
sum oracle adds one translate of a radial kernel at a time on the full
offset lattice, the fit oracle solves the H1 least-squares problem on
the stacked real-space values and centred differences, the elliptic
solve and basis combination oracles use complex FFTs over the full
frequency lattice instead of the grid's real-FFT pair, and the centred
gradient takes np.roll instead of the grid's shifts.
"""

import math

import numpy as np
from scipy import integrate


def bessel_k_quadrature(nu: float, r: float) -> float:
    """Adaptive quadrature of M_nu(r) = int_0^inf e^{-r cosh s} cosh(nu s) ds.

    The integrand is truncated where e^{-r cosh s} drops below 1e-30 relative
    to the peak, which bounds the discarded tail far beyond the 1e-10 target.
    """
    nu = abs(float(nu))
    # e^{-r cosh s} < 1e-30 once cosh s > (69 + 30)/r; the cosh(nu s) growth
    # (nu <= 3/2 here) is swallowed by the extra margin
    s_max = math.acosh(max(99.0 / r, 2.0))
    val, err = integrate.quad(
        lambda s: math.exp(-r * math.cosh(s)) * math.cosh(nu * s),
        0.0, s_max, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def direct_convolution(a: np.ndarray, b: np.ndarray, cell_volume: float) -> np.ndarray:
    """Direct circular convolution: out[m] = h^N sum_y a[y] b[m - y].

    One python-level loop per lattice offset; each term is a whole-array
    shift, so the arithmetic is the plain O(n^{2N}) summation in a fixed
    order.
    """
    out = np.zeros_like(a, dtype=float)
    axes = tuple(range(a.ndim))
    for idx in np.ndindex(a.shape):
        # roll(b, idx)[m] = b[m - idx]
        out += a[idx] * np.roll(b, idx, axis=axes)
    return out * cell_volume


def centred_gradient_roll(a: np.ndarray, h: float) -> list:
    """(a[i+1] - a[i-1]) / 2h along every axis, with np.roll's periodic wrap."""
    return [(np.roll(a, -1, axis=ax) - np.roll(a, 1, axis=ax)) / (2.0 * h)
            for ax in range(a.ndim)]


def h1_fit_reference(target: np.ndarray, fields: list, h: float,
                     regularization: float) -> tuple:
    """Minimize ||target - sum a_j fields_j||_H1^2 + regularization ||a||^2 in real space.

    Each column stacks a field and its centred differences along every axis,
    weighted by sqrt(h^N), so column inner products are discrete H1 inner
    products: an (N+1) n^N-row design, solved by SVD.  Returns the
    coefficients and the H1 norm of the residual.
    """
    dim = target.ndim

    def column(f):
        parts = [f] + [(np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * h)
                       for ax in range(dim)]
        return np.concatenate([p.ravel() for p in parts]) * np.sqrt(h ** dim)

    A = np.column_stack([column(f) for f in fields])
    b = column(target)
    M = len(fields)
    a = np.linalg.lstsq(np.vstack([A, np.sqrt(regularization) * np.eye(M)]),
                        np.concatenate([b, np.zeros(M)]), rcond=None)[0]
    return a, float(np.linalg.norm(b - A @ a))


def full_lattice_resolvent(d: float, grid) -> np.ndarray:
    """1/(1 + d|k|^2) on the full fftn lattice, from the grid's frequencies."""
    mesh = np.meshgrid(*grid.frequencies(), indexing="ij")
    return 1.0 / (1.0 + d * sum(c * c for c in mesh))


def elliptic_solve_complex(d: float, u: np.ndarray, grid) -> np.ndarray:
    """(-d Laplace_h + I)^-1 u by a complex FFT over the full lattice."""
    return np.fft.ifftn(full_lattice_resolvent(d, grid) * np.fft.fftn(u)).real


def combination_complex(grid, diffusivities, coefficients) -> np.ndarray:
    """sum_j a_j w_j from one complex inverse FFT of sum_j a_j/(1 + d_j|k|^2), over h^N."""
    symbol = sum(a * full_lattice_resolvent(d, grid)
                 for a, d in zip(coefficients, diffusivities))
    return np.fft.ifftn(symbol).real / grid.cell_volume


def lattice_sum_direct(kernel, grid, shells: int, gauss_order: int = 6) -> np.ndarray:
    """Plain lattice sum of K(|x - 2L*l|) over |l|_inf <= shells, at every offset.

    One python-level loop per translate over the whole offset lattice, with
    no symmetry used.
    For a kernel singular at the origin, the zero-offset cell holds a cell
    average instead: the central term by `singular_cell_average`, every other
    translate by a tensor Gauss-Legendre rule of `gauss_order` points per axis.
    """
    dim, L, h = grid.dim, grid.half_length, grid.h
    x = np.arange(grid.n) * h
    x = np.where(x >= L, x - 2.0 * L, x)
    mesh = np.meshgrid(*([x] * dim), indexing="ij")
    nodes, weights = np.polynomial.legendre.leggauss(gauss_order)
    qmesh = np.meshgrid(*([0.5 * h * nodes] * dim), indexing="ij")
    qweights = np.ones(qmesh[0].shape)
    for w in np.meshgrid(*([weights / 2.0] * dim), indexing="ij"):
        qweights = qweights * w

    out = np.zeros(grid.shape)
    origin = 0.0
    for l in np.ndindex(*([2 * shells + 1] * dim)):
        shift = [2.0 * L * (c - shells) for c in l]
        r = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, shift)))
        if kernel.singular_at_origin:
            central = all(c == shells for c in l)
            if central:
                r[(0,) * dim] = 1.0    # overwritten below
            else:
                rq = np.sqrt(sum((q - c) ** 2 for q, c in zip(qmesh, shift)))
                origin += float((kernel.profile(rq) * qweights).sum())
        out += kernel.profile(r)
    if kernel.singular_at_origin:
        out[(0,) * dim] = origin + singular_cell_average(kernel.profile, dim, h)
    return out


def singular_cell_average(profile, dim: int, h: float, order: int = 24) -> float:
    """Average over the cell [-h/2, h/2]^dim of a radial profile singular at 0.

    The cell splits into 2*dim pyramids with apex at the origin, one per face.
    On the face x_1 = a = h/2, the point t*(a, y) has volume element
    a t^(dim-1) dt dy, which makes an r^(1-dim) or log singularity integrable
    in t; the t integral is adaptive and the face integral Gauss-Legendre on
    the quarter face [0, a]^(dim-1), which symmetry allows.
    """
    a = h / 2.0
    if dim == 1:
        val, _ = integrate.quad(lambda t: float(profile(np.array([t]))[0]), 0.0, a,
                                epsabs=1e-15, epsrel=1e-13, limit=200)
        return 2.0 * val / h

    def ray(R):
        val, _ = integrate.quad(
            lambda t: float(profile(np.array([t * R]))[0]) * t ** (dim - 1),
            0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)
        return a * val

    nodes, weights = np.polynomial.legendre.leggauss(order)
    y, wy = 0.5 * a * (nodes + 1.0), 0.5 * a * weights
    if dim == 2:
        face = sum(w * ray(math.hypot(a, yi)) for yi, w in zip(y, wy))
    else:
        face = sum(w1 * w2 * ray(math.sqrt(a * a + y1 * y1 + y2 * y2))
                   for y1, w1 in zip(y, wy) for y2, w2 in zip(y, wy))
    return 2 * dim * 2 ** (dim - 1) * face / h ** dim
