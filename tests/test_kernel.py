import itertools
import math

import numpy as np
import pytest

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
    assert k.value_at_origin() == pytest.approx(0.25, rel=1e-14)


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


def test_decay_metadata_is_validated():
    with pytest.raises(ValueError):
        RadialKernel(profile=ONES, derivative_profile=ONES, decay=(0.1, 3.0))


# --- adhesion potential ---------------------------------------------------

def test_adhesion_constant_omega():
    k = adhesion_potential(ONES, 1)
    r = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
    expected = np.array([-1.0, -0.75, -0.5, 0.0, 0.0])
    assert np.abs(k.profile(r) - expected).max() < 1e-10
    assert k.derivative_profile(np.array([0.5]))[0] == pytest.approx(1.0)
    assert k.derivative_profile(np.array([1.5]))[0] == 0.0


def test_adhesion_zero_omega():
    k = adhesion_potential(lambda r: np.zeros_like(np.asarray(r, dtype=float)), 1)
    assert np.abs(k.profile(np.linspace(0, 2, 40))).max() == 0.0


def test_adhesion_hump_omega():
    k = adhesion_potential(lambda r: np.asarray(r) * (1.0 - np.asarray(r)), 2)
    for r in (0.0, 0.3, 0.8, 1.0):
        expected = (r ** 2 / 2.0 - r ** 3 / 3.0) - 1.0 / 6.0 if r <= 1.0 else 0.0
        assert k.profile(np.array([r]))[0] == pytest.approx(expected, abs=1e-8)


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


# -log r: a 1D kernel singular at the origin, with support radius 1
LOG_KERNEL = RadialKernel(profile=lambda r: -np.log(r), derivative_profile=lambda r: -1.0 / r,
                          support_radius=1.0, singular_at_origin=True)


@pytest.mark.parametrize("dim,d", [(1, None)] + [(dim, d) for dim in (2, 3)
                                                 for d in (1e-3, 1e-2, 1.0, 10.0)])
def test_cell_average_origin_matches_oracle(dim, d):
    k = LOG_KERNEL if dim == 1 else greens_free_space(d, dim)
    for L, n in ORIGIN_GRIDS:
        g = Grid(dim, L, n)
        ref = singular_cell_average(k.profile, dim, g.h)
        assert kernel._cell_average_origin(k, g) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("batch", [1, 37, 3000])
def test_periodize_is_batch_invariant(monkeypatch, batch):
    # 3000 leaves a remainder batch in the lattice sum and the origin rule.
    # Batching changes only the order of the float64 sums (2,197 positive
    # translates per cell in 3D): one translate per batch moves a cell by
    # 1.3e-14 relative, so the bound is 1e-13, far below (m - 1) eps.
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
    (2, 1.0, 16): (0.6377158524608284, 0.99938661413043, 0.1331878539564604, 13),
    (3, 2.0, 8): (0.3109622272318816, 0.9913443790277665, 0.008161169664938135, 6),
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


def test_truncation_radius_is_converged():
    g = Grid(1, 1.0, 64)
    k = greens_free_space(1.0, 1)
    loose = periodize(k, g, tolerance=1e-6)
    tight = periodize(k, g, tolerance=1e-12)
    assert np.abs(loose.field.values - tight.field.values).max() < 1e-6


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
def test_tail_bound_records_the_stopping_certificate(dim, n):
    g = Grid(dim, 1.0, n)
    k = greens_free_space(1.0, dim)
    loose = periodize(k, g, tolerance=1e-6)
    tight = periodize(k, g, tolerance=1e-12)
    assert 0.0 < loose.tail_bound < 1e-6
    assert 0.0 < tight.tail_bound < 1e-12
    assert loose.tail_bound > tight.tail_bound


def test_tail_bound_is_zero_without_a_decay_certificate():
    assert periodize(adhesion_potential(ONES, 2), Grid(2, 0.4, 16)).tail_bound == 0.0
    basis = GreensBasis.build(Grid(1, 1.0, 32), [1.0, 2.0])
    assert basis.as_kernel([1.0, 0.5]).tail_bound == 0.0


def test_periodize_needs_decay_metadata():
    bare = RadialKernel(profile=ONES, derivative_profile=ONES)
    with pytest.raises(ValueError):
        periodize(bare, Grid(1, 1.0, 16))


def test_periodize_rejects_unconverged_sum():
    # sqrt(d) = 10 on L = 1: the tail stays above 1e-10 past two shells
    with pytest.raises(ValueError, match="max_shells"):
        periodize(greens_free_space(100.0, 1), Grid(1, 1.0, 16), max_shells=2)


# --- gaussian -------------------------------------------------------------

def test_gaussian_kernel_normalization():
    g = Grid(1, 1.0, 256)
    pk = periodize(gaussian_kernel(0.2, 1), g)
    assert pk.field.integral() == pytest.approx(1.0, abs=1e-6)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 1)
