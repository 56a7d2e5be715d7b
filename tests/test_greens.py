import math

import numpy as np
import pytest

from greenks.domain import Field, Grid, inner_l2, periodic_convolve
from greenks.greens import (GreensBasis, elliptic_solve, greens_periodic_spectral,
                            lattice_sum_green)
from oracles import combination_complex, elliptic_solve_complex


def rng_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


# --- elliptic solve -------------------------------------------------------

def test_constants_are_fixed_points():
    g = Grid(1, 1.0, 32)
    v = elliptic_solve(2.0, Field.constant(g, 3.0))
    assert np.abs(v.values - 3.0).max() < 1e-13


def test_single_mode_symbol():
    g = Grid(1, 1.0, 64)
    d = 0.8
    u = Field(g, np.cos(math.pi * g.axis_centers() / g.half_length))
    v = elliptic_solve(d, u)
    factor = 1.0 / (1.0 + d * math.pi ** 2 / g.half_length ** 2)
    assert np.abs(v.values - factor * u.values).max() < 1e-13


def test_delta_solve_is_green_field():
    g = Grid(2, 1.0, 16)
    w = greens_periodic_spectral(0.6, g)
    v = elliptic_solve(0.6, Field.delta(g))
    assert np.abs(w.values - v.values).max() < 1e-12


def test_mean_preservation():
    g = Grid(1, 1.0, 64)
    u = rng_field(g, 4)
    assert abs(elliptic_solve(1.3, u).mean() - u.mean()) < 1e-13


def test_numerical_maximum_principle():
    g = Grid(1, 1.0, 32)
    rng = np.random.default_rng(7)
    u = Field(g, rng.random(g.shape))
    v = elliptic_solve(1.0, u)
    assert float(v.values.min()) >= -1e-10 * float(u.values.max())


def test_self_adjointness():
    g = Grid(1, 1.0, 32)
    a, b = rng_field(g, 1), rng_field(g, 2)
    lhs = inner_l2(elliptic_solve(0.9, a), b)
    rhs = inner_l2(a, elliptic_solve(0.9, b))
    assert abs(lhs - rhs) < 1e-12


def test_convolution_identity():
    g = Grid(1, 1.0, 64)
    u = rng_field(g, 5)
    w = greens_periodic_spectral(1.1, g)
    direct = elliptic_solve(1.1, u)
    conv = periodic_convolve(w, u)
    assert np.abs(direct.values - conv.values).max() < 1e-12


def test_rejects_nonpositive_diffusivity():
    g = Grid(1, 1.0, 16)
    with pytest.raises(ValueError):
        elliptic_solve(-1.0, Field.constant(g, 1.0))
    with pytest.raises(ValueError):
        greens_periodic_spectral(0.0, g)


# --- Green fields ---------------------------------------------------------

def test_green_field_integral_is_one():
    # zero-frequency multiplier is 1, so the discrete quadrature is exact
    g = Grid(1, 1.0, 64)
    w = greens_periodic_spectral(1.0, g)
    assert w.integral() == pytest.approx(1.0, abs=1e-13)


def test_large_domain_matches_free_space():
    # e^{-|x|}/2 away from the kinks at the origin and the wrap-around
    g = Grid(1, 10.0, 1024)
    w = greens_periodic_spectral(1.0, g)
    x = g.axis_offsets()
    exact = np.exp(-np.abs(x)) / 2.0
    mask = (np.abs(x) > 0.2) & (np.abs(x) < 9.0)
    assert np.abs(w.values - exact)[mask].max() < 1e-4


@pytest.mark.parametrize("d, grid", [
    (1.0, Grid(1, 1.0, 128)),
    (1.0, Grid(2, 1.0, 64)),
    (1.0, Grid(3, 1.0, 16)),
    (1.0, Grid(3, 2.0, 8)),
    (0.1, Grid(3, 1.0, 16)),
    (10.0, Grid(2, 1.0, 128)),
], ids=["1d-n128", "2d-n64", "3d-n16", "3d-L2-n8", "3d-n16-d0.1", "2d-n128-d10"])
def test_refined_field_matches_lattice_sum(d, grid):
    # two independent constructions of the continuum periodic Green field
    ws = greens_periodic_spectral(d, grid, refinement=32)
    wl = lattice_sum_green(d, grid)
    assert np.abs(ws.values - wl.field.values).max() < 1e-9
    assert np.array_equal(ws.values, greens_periodic_spectral(d, grid, refinement=8192).values)


def test_refinement_argument_validation():
    g = Grid(1, 1.0, 16)
    with pytest.raises(ValueError):
        greens_periodic_spectral(1.0, g, refinement=3)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_elliptic_solve_matches_the_complex_fft_oracle(dim):
    g = Grid(dim, 1.5, 16 if dim < 3 else 8)
    u = rng_field(g, dim)
    for d in (0.3, 2.0):
        ref = elliptic_solve_complex(d, u.values, g)
        assert np.abs(elliptic_solve(d, u).values - ref).max() <= 1e-14 * np.abs(ref).max()


# --- basis ----------------------------------------------------------------

def test_basis_discrete_equation_residual():
    # (-d_j Lap_h + I) w_j = delta_h within 1e-10 in max norm
    g = Grid(1, 1.0, 64)
    delta = Field.delta(g).values
    k = g.frequencies()[0]
    for d in (1.5, 1.25):
        w = greens_periodic_spectral(d, g)
        back = np.fft.ifft(np.fft.fft(w.values) * (1.0 + d * k * k)).real
        assert np.abs(back - delta).max() < 1e-10 * np.abs(delta).max()


def test_basis_validation():
    g = Grid(1, 1.0, 16)
    with pytest.raises(ValueError):
        GreensBasis.build(g, [1.0, 1.0])
    for d in (-0.5, math.inf, math.nan):   # rejected before any field is built
        with pytest.raises(ValueError, match="positive and finite"):
            GreensBasis.build(g, [1.0, d])
    with pytest.raises(ValueError, match="at least one diffusivity"):
        GreensBasis.build(g, [])


def test_combination_and_kernel_wrapper():
    g = Grid(1, 1.0, 32)
    basis = GreensBasis.build(g, [1.0, 0.5])
    combo = basis.combination([2.0, -1.0])
    ref = 2.0 * greens_periodic_spectral(1.0, g).values - greens_periodic_spectral(0.5, g).values
    assert np.abs(combo.values - ref).max() < 1e-14
    pk = basis.as_kernel([2.0, -1.0])
    assert np.abs(pk.field.values - ref).max() < 1e-14
    with pytest.raises(ValueError):
        basis.combination([1.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_combination_matches_the_complex_fft_oracle(dim):
    g = Grid(dim, 1.5, 16 if dim < 3 else 8)
    d, a = [2.0, 1.5, 1.25], [3.0, -5.0, 2.5]
    ref = combination_complex(g, d, a)
    combo = GreensBasis.build(g, d).combination(a).values
    assert np.abs(combo - ref).max() <= 1e-14 * np.abs(ref).max()
