import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from greenks import kernel
from greenks.domain import Grid, norm_l1
from greenks.greens import GreensBasis, lattice_sum_green
from greenks.kernel import (RadialKernel, adhesion_potential, gaussian_kernel,
                            greens_free_space, periodize)
from greenks.specfun import bessel_k
from oracles import lattice_sum_direct, singular_cell_average

ONES = lambda r: np.ones_like(np.asarray(r, dtype=float))


# --- free-space Green kernels --------------------------------------------

def test_green_1d_closed_form():
    k = greens_free_space(1.0, 1)
    assert k.profile(np.array([1.0]))[0] == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)
    assert math.exp(-1.0) / 2.0 == pytest.approx(0.18393972, rel=1e-7)


def test_green_1d_value_at_origin():
    k = greens_free_space(4.0, 1)
    assert k.profile(np.array([0.0]))[0] == pytest.approx(0.25, rel=1e-14)


def test_green_3d_closed_form():
    k = greens_free_space(1.0, 3)
    for r in (0.5, 1.0, 2.0):
        assert k.profile(np.array([r]))[0] == pytest.approx(
            math.exp(-r) / (4.0 * math.pi * r), rel=1e-13)


@pytest.mark.parametrize("dim,d", [(1, 1.0), (2, 1.0), (2, 0.7), (3, 1.3)])
def test_green_matches_bessel_formula(dim, d):
    # k(r) = (2 pi)^{-N/2} d^{-N/4 - 1/2} r^{1 - N/2} K_{N/2-1}(r / sqrt d)
    k = greens_free_space(d, dim)
    nu = dim / 2.0 - 1.0
    for r in (0.5, 1.0, 2.0):
        ref = ((2.0 * math.pi) ** (-dim / 2.0) * d ** (-dim / 4.0 - 0.5)
               * r ** (1.0 - dim / 2.0) * bessel_k(nu, r / math.sqrt(d)))
        assert k.profile(np.array([r]))[0] == pytest.approx(ref, rel=1e-12)


def test_green_rejects_bad_arguments():
    with pytest.raises(ValueError):
        greens_free_space(0.0, 1)
    with pytest.raises(ValueError):
        greens_free_space(1.0, 4)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_kernel_parameters_are_rejected(value, dim):
    # a NaN d or sigma makes the tail bound NaN, which never stops the lattice sum
    with pytest.raises(ValueError, match="finite"):
        greens_free_space(value, dim)
    with pytest.raises(ValueError, match="finite"):
        gaussian_kernel(value, dim)


def test_decay_metadata_is_validated():
    # a profile above its own tail_bound at a check radius
    with pytest.raises(ValueError, match="tail_bound"):
        RadialKernel(profile=ONES, tail_bound=lambda r: 0.1 * (1.0 + r) ** -3.0)


@pytest.mark.parametrize("profile,bound", [
    (lambda r: np.full_like(r, math.nan), lambda r: 1.0),
    (ONES, lambda r: math.nan),
])
def test_nan_profile_or_tail_bound_fails_the_check(profile, bound):
    with pytest.raises(ValueError, match="tail_bound"):
        RadialKernel(profile=profile, tail_bound=bound)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind,scale", [*(("green", d) for d in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)),
                                        *(("gaussian", sigma) for sigma in (0.05, 0.3, 3.0))])
def test_tail_bound_bounds_the_profile(kind, scale, dim):
    # the certificate that stops the lattice sum, and so sets the shell counts;
    # it is evaluated only at each left-out translate's nearest distance
    k = (greens_free_space if kind == "green" else gaussian_kernel)(scale, dim)
    r = np.linspace(0.5, 80.0, 2000)
    assert np.all(np.abs(k.profile(r)) <= [k.tail_bound(x) for x in r])
    assert np.all(np.diff(k.tail_bound(r)) <= 0.0)


# --- adhesion potential ---------------------------------------------------

def test_adhesion_constant_omega():
    k = adhesion_potential(ONES, 1)
    r = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
    expected = np.array([-1.0, -0.75, -0.5, 0.0, 0.0])
    assert np.abs(k.profile(r) - expected).max() < 1e-10


def test_adhesion_zero_omega():
    k = adhesion_potential(lambda r: np.zeros_like(np.asarray(r, dtype=float)), 1)
    assert np.abs(k.profile(np.linspace(0, 2, 40))).max() == 0.0


def test_adhesion_hump_omega():
    k = adhesion_potential(lambda r: np.asarray(r) * (1.0 - np.asarray(r)), 2)
    for r in (0.0, 0.3, 0.8, 1.0):
        expected = (r ** 2 / 2.0 - r ** 3 / 3.0) - 1.0 / 6.0 if r <= 1.0 else 0.0
        assert k.profile(np.array([r]))[0] == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("resolution", [8192, 64, 10, 7, 2])
@pytest.mark.parametrize("name", ["const", "hump", "cos"])
def test_adhesion_profile_matches_scipy_simpson(name, resolution, monkeypatch):
    omega = {"const": ONES,
             "hump": lambda r: np.asarray(r) * (1.0 - np.asarray(r)),
             "cos": lambda r: np.cos(7.0 * np.asarray(r))}[name]
    s = np.linspace(0.0, 1.0, resolution + 1)
    w = omega(s) * np.ones_like(s)
    cum = integrate.cumulative_simpson(w, x=s, initial=0.0)
    monkeypatch.setattr(kernel, "_ADHESION_RESOLUTION", resolution)
    k = adhesion_potential(omega, 2)
    # the rule itself: scipy's cumulative Simpson, shifted to vanish at s = 1
    assert np.abs(k.profile(s) - (cum - cum[-1])).max() <= 1e-14
    # against scipy's separate total, up to the a-priori rounding bound of a
    # running sum of `resolution` terms (the hump at 8192 differs by 1.7e-14)
    bound = max(1e-14, resolution * np.finfo(float).eps * np.abs(w).mean())
    assert np.abs(-k.profile(s) - (integrate.simpson(w, x=s) - cum)).max() <= bound
    assert k.profile(np.array([1.0]))[0] == 0.0


# --- periodization --------------------------------------------------------

def test_periodize_compact_support_single_term():
    # support radius 1 < L = 2: the lattice sum has only the central term
    g = Grid(1, 2.0, 64)
    k = adhesion_potential(ONES, 1)
    pk = periodize(k, g)
    r = np.abs(g.axis_offsets())
    expected = np.where(r <= 1.0, r - 1.0, 0.0)
    assert np.abs(pk.field.values - expected).max() < 1e-10
    assert pk.truncation_radius_cells == 0


def test_periodize_small_d_matches_raw_sampling():
    # sqrt(d) = 0.05: away from the wrap-around, the nearest image sits at
    # distance >= 1.5 and contributes ~1e-12, so the lattice sum is the
    # plain sample there
    g = Grid(1, 1.0, 64)
    k = greens_free_space(0.0025, 1)
    pk = periodize(k, g)
    x = g.axis_offsets()
    raw = k.profile(np.abs(x))
    mask = np.abs(x) <= 0.5
    assert np.abs(pk.field.values - raw)[mask].max() < 1e-8


def test_periodized_integral_matches_whole_space():
    # int_R (r - 1) over [-1, 1] = -1 for the omega = 1 adhesion potential
    g = Grid(1, 2.0, 256)
    pk = periodize(adhesion_potential(ONES, 1), g)
    assert pk.field.integral() == pytest.approx(-1.0, abs=5e-4)


def test_green_integral_one_on_fine_grid():
    # integrating (-d Lap + 1) w = delta gives exactly 1; the midpoint rule
    # carries an h^2/12 kink term, so the fine grid is needed for 1e-6
    g = Grid(1, 1.0, 1024)
    pk = periodize(greens_free_space(1.0, 1), g)
    assert abs(pk.field.integral() - 1.0) < 1e-6


def test_green_integral_tolerance_at_n128():
    # spec tolerance 2e-6 on n >= 128; the midpoint quadrature of the kink
    # contributes h^2/12 = 2.0e-5 at n = 128, so this documents a known
    # defect of the stated tolerance (see the decisions ledger)
    g = Grid(1, 1.0, 128)
    pk = periodize(greens_free_space(1.0, 1), g)
    assert abs(pk.field.integral() - 1.0) < 2e-6


def test_green_integral_error_follows_h2_over_12():
    errs = []
    for n in (64, 128, 256):
        g = Grid(1, 1.0, n)
        pk = periodize(greens_free_space(1.0, 1), g)
        errs.append(abs(pk.field.integral() - 1.0))
    for n, e in zip((64, 128, 256), errs):
        h = 2.0 / n
        assert e == pytest.approx(h * h / 12.0, rel=1e-2)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 8)])
def test_periodized_kernel_is_even(dim, n):
    g = Grid(dim, 1.0, n)
    pk = periodize(greens_free_space(0.5, dim), g)
    v = pk.field.values
    flipped = v
    for ax in range(dim):
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    assert np.abs(v - flipped).max() < 1e-12


@pytest.mark.parametrize("kernel,grid", [
    (greens_free_space(1.0, 1), Grid(1, 0.5, 32)),
    (gaussian_kernel(0.3, 1), Grid(1, 0.5, 32)),
    (adhesion_potential(ONES, 1), Grid(1, 0.4, 32)),
    (greens_free_space(1.0, 2), Grid(2, 1.0, 16)),
    (greens_free_space(1.0, 3), Grid(3, 2.0, 8)),
    (gaussian_kernel(0.3, 2), Grid(2, 0.5, 16)),
    (gaussian_kernel(0.3, 3), Grid(3, 0.5, 8)),
    (adhesion_potential(ONES, 2), Grid(2, 0.4, 16)),
    (adhesion_potential(ONES, 3), Grid(3, 0.4, 8)),
], ids=["green-1d", "gaussian-1d", "adhesion-1d", "green-2d", "green-3d",
        "gaussian-2d", "gaussian-3d", "adhesion-2d", "adhesion-3d"])
def test_periodize_matches_direct_lattice_sum(kernel, grid):
    # L is small against each kernel's reach, so neighbouring images overlap
    pk = periodize(kernel, grid)
    ref = lattice_sum_direct(kernel, grid, pk.truncation_radius_cells)
    assert np.all(np.abs(pk.field.values - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
def test_periodized_kernel_equals_its_axis_transposes(dim, n):
    # every octant point takes the value summed at its sorted index tuple,
    # so permuting the axes of the cubic grid reproduces the field exactly
    v = periodize(greens_free_space(0.5, dim), Grid(dim, 1.0, n)).field.values
    for axes in itertools.permutations(range(dim)):
        assert np.array_equal(v, v.transpose(axes))


# h = 2L/n runs over 1, 1/8 and 1/64
ORIGIN_GRIDS = [(4.0, 8), (0.5, 8), (0.5, 64)]


# -log r on [0, 1]: a 1D kernel singular at the origin, bounded by log 2 on
# [0.5, 1] and zero beyond
LOG_KERNEL = RadialKernel(profile=lambda r: -np.log(np.minimum(r, 1.0)),
                          tail_bound=lambda r: np.where(r <= 1.0, math.log(2.0), 0.0),
                          singular_at_origin=True)


@pytest.mark.parametrize("dim,d", [(1, None)] + [(dim, d) for dim in (2, 3)
                                                 for d in (1e-3, 1e-2, 1.0, 10.0)])
def test_cell_average_origin_matches_oracle(dim, d):
    k = LOG_KERNEL if dim == 1 else greens_free_space(d, dim)
    for L, n in ORIGIN_GRIDS:
        g = Grid(dim, L, n)
        ref = singular_cell_average(k.profile, dim, g.h)
        assert kernel._cell_average_origin(k, g) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("m", [1, 6, 10, 40])
def test_gauss_legendre_matches_numpy(m):
    from numpy.polynomial.legendre import leggauss
    nodes, weights = kernel._gauss_legendre(m)
    ref_nodes, ref_weights = leggauss(m)
    assert np.all(np.abs(nodes - ref_nodes) <= 1e-15)
    assert np.all(np.abs(weights - ref_weights) <= 1e-14)


@pytest.mark.parametrize("batch", [1, 37, 3000])
def test_periodize_is_batch_invariant(monkeypatch, batch):
    # 3000 leaves a remainder batch in the lattice sum and the origin rule.
    # Batching changes only the order of the float64 sums (a cube of 1,331
    # positive translates per cell in 3D): one translate per batch moves a
    # cell by 6.3e-15 relative, so the bound is 1e-13, far below (m - 1) eps.
    cases = [(greens_free_space(1.0, 2), Grid(2, 1.0, 16)),
             (greens_free_space(1.0, 3), Grid(3, 2.0, 8))]
    default = [periodize(k, g).field.values for k, g in cases]
    monkeypatch.setattr(kernel, "_BATCH_ELEMENTS", batch)
    for (k, g), ref in zip(cases, default):
        values = periodize(k, g).field.values
        assert np.all(np.abs(values - ref) <= 1e-13 * np.abs(ref))


# Green lattice sums for d = 1, as pinned by the benchmark's green-lattice
# workload: (dim, L, n) -> origin cell, integral, weighted checksum, shells.
LATTICE_PINS = {
    (2, 1.0, 16): (0.6377158524608284, 0.99938661413043, 0.1331878539564604, 11),
    (3, 2.0, 8): (0.3109622272318816, 0.9913443790277665, 0.008161169664938135, 5),
}


@pytest.mark.parametrize("key", sorted(LATTICE_PINS), ids=lambda k: f"{k[0]}d-n{k[2]}")
def test_green_lattice_sum_pins(key):
    origin, integral, checksum, shells = LATTICE_PINS[key]
    pk = lattice_sum_green(1.0, Grid(*key))
    values = pk.field.values
    weights = np.random.default_rng(0).random(values.size)
    assert abs(values.flat[0] - origin) <= 1e-9
    assert abs(pk.field.integral() - integral) <= 1e-9
    assert abs(np.dot(weights, values.ravel()) / values.size - checksum) <= 1e-9
    assert pk.truncation_radius_cells == shells


def periodize_at(tolerance, k, g, monkeypatch):
    monkeypatch.setattr(kernel, "_TAIL_TOLERANCE", tolerance)
    return periodize(k, g)


def test_truncation_radius_is_converged(monkeypatch):
    g = Grid(1, 1.0, 64)
    k = greens_free_space(1.0, 1)
    loose = periodize_at(1e-6, k, g, monkeypatch)
    tight = periodize_at(1e-12, k, g, monkeypatch)
    assert np.abs(loose.field.values - tight.field.values).max() < 1e-6


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
def test_tail_bound_records_the_stopping_certificate(dim, n, monkeypatch):
    g = Grid(dim, 1.0, n)
    k = greens_free_space(1.0, dim)
    loose = periodize_at(1e-6, k, g, monkeypatch)
    tight = periodize_at(1e-12, k, g, monkeypatch)
    assert 0.0 < loose.tail_bound < 1e-6
    assert 0.0 < tight.tail_bound < 1e-12
    assert loose.tail_bound > tight.tail_bound


@pytest.mark.parametrize("kind,scale,dim,L,n", [
    *(("green", d, 1, 1.0, 16) for d in (0.1, 1.0, 10.0)),
    # the certificate of the box [0, L]^N stops these one shell before a box
    # reaching x_i = -h/2 would
    ("green", 0.1, 1, 0.5, 16), ("gaussian", 1.0, 1, 0.2, 8),
    ("green", 0.1, 2, 1.0, 8), ("green", 1.0, 2, 1.0, 8), ("green", 10.0, 2, 2.0, 8),
    ("green", 0.1, 3, 1.0, 8), ("green", 1.0, 3, 2.0, 8), ("green", 10.0, 3, 4.0, 8),
    ("gaussian", 0.05, 1, 0.25, 16), ("gaussian", 0.3, 2, 0.5, 8), ("gaussian", 0.3, 3, 0.5, 8),
    # a bound that holds only from r = 0.5, as RadialKernel allows: with L = 0.25
    # the first shell is 0.25 away, so the sum must not stop there
    ("from-0.5", 0.05, 1, 0.25, 16),
])
def test_tail_bound_bounds_what_the_sum_leaves_out(kind, scale, dim, L, n):
    # three more shells of the direct sum are all but the whole tail: at every
    # cell, the origin cell's average included, they stay within the certificate;
    # the two sums add the same translates in different orders, hence the rounding
    kernel = (greens_free_space if kind == "green" else gaussian_kernel)(scale, dim)
    if kind == "from-0.5":
        bound = kernel.tail_bound
        kernel = RadialKernel(kernel.profile, tail_bound=lambda r: bound(np.maximum(r, 0.5)))
    grid = Grid(dim, L, n)
    pk = periodize(kernel, grid)
    ref = lattice_sum_direct(kernel, grid, pk.truncation_radius_cells + 3)
    rounding = 1e-14 * np.abs(ref).max()
    assert 0.0 < pk.tail_bound < 1e-10
    assert np.all(np.abs(pk.field.values - ref) <= pk.tail_bound + rounding)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_window_charges_every_translate_of_a_shell_once(dim):
    # the window shells, summed by broadcasting, against one translate at a time
    grid = Grid(dim, 1.0, 8)
    k = greens_free_space(1.0, dim)
    shells = {}
    kernel._tail_estimate(k, grid, 1, shells, lambda a, b: 0.0)
    L = grid.half_length
    for t, got in shells.items():
        ref = 0.0
        for l in itertools.product(range(-t, t + 1), repeat=dim):
            if max(map(abs, l)) == t:
                d = [2 * li - 1 if li > 0 else -2 * li for li in l]
                ref += float(k.tail_bound(np.array([L * math.hypot(*d)]))[0])
        assert got == pytest.approx(ref, rel=1e-13)


# the first shell left out is the first whose nearest translate, at L(2s - 1),
# lies beyond the support radius 1
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("L,shells", [(0.2, 3), (0.45, 1), (1.0, 1), (3.0, 0)])
def test_adhesion_stops_where_no_translate_reaches(dim, L, shells):
    pk = periodize(adhesion_potential(ONES, dim), Grid(dim, L, 8))
    assert pk.truncation_radius_cells == shells
    assert pk.tail_bound == 0.0


def test_tail_bound_is_zero_without_a_tail_certificate():
    assert periodize(adhesion_potential(ONES, 2), Grid(2, 0.4, 16)).tail_bound == 0.0
    basis = GreensBasis.build(Grid(1, 1.0, 32), [1.0, 2.0])
    assert basis.as_kernel([1.0, 0.5]).tail_bound == 0.0


def test_periodize_needs_decay_metadata():
    # the tail bound is a required field: no kernel reaches periodize without one
    with pytest.raises(TypeError):
        RadialKernel(profile=ONES)


def test_periodize_rejects_unconverged_sum():
    # sqrt(d) = 100 on L = 1: the tail certificate needs about 1,200 shells
    with pytest.raises(ValueError, match="max_shells"):
        periodize(greens_free_space(1e4, 1), Grid(1, 1.0, 8))
    # the tail bound holds from r = 0.5, about 0.25/L shells out: on these L that
    # first shell is refused before the per-shell series, an arange from it, is built
    for L in (1e-20, 1e-200, 1e-320):
        with pytest.raises(ValueError, match="max_shells"):
            periodize(adhesion_potential(ONES, 1), Grid(1, L, 8))
    # the smallest L whose first shell is _MAX_SHELLS + 1 is still summed
    grid = Grid(1, 0.25 / (kernel._MAX_SHELLS + 0.5), 8)
    pk = periodize(greens_free_space(1e-12, 1), grid)
    assert pk.truncation_radius_cells == kernel._MAX_SHELLS


# --- gaussian -------------------------------------------------------------

def test_gaussian_kernel_normalization():
    g = Grid(1, 1.0, 256)
    pk = periodize(gaussian_kernel(0.2, 1), g)
    assert pk.field.integral() == pytest.approx(1.0, abs=1e-6)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 1)
    # positive, but too small for the normalization A or the tail bound's scale
    # A/sigma^2 to be a finite float
    for sigma, dim in ((1e-300, 1), (1e-120, 3), (1e-160, 1), (1e-100, 2)):
        with pytest.raises(ValueError, match="too small"):
            gaussian_kernel(sigma, dim)
