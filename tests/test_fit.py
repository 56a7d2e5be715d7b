import os

import numpy as np
import pytest

from greenks import config as cfgmod
from greenks.domain import Grid, inner_h1, norm_w11
from greenks.fit import (DiffusivitySequence, default_diffusivities,
                         fit_coefficients, fit_to_tolerance)
from greenks.greens import GreensBasis
from greenks.kernel import adhesion_potential, gaussian_kernel, periodize

ONES = lambda r: np.ones_like(np.asarray(r, dtype=float))

# frozen regression values for the periodized Gaussian target
# (sigma = 0.3, L = 1, N = 1, n = 128, d_star = 1, regularization 0)
GAUSS_W11_RESIDUALS = [3.087620, 1.280864, 0.2272942, 0.03907394, 0.03900050]


# --- diffusivity sequences ------------------------------------------------

def test_default_sequence_m3():
    seq = default_diffusivities(3, 1.0)
    assert seq.values == pytest.approx([1.5, 4.0 / 3.0, 1.25], rel=1e-14)
    assert seq.accumulation_point == 1.0


def test_default_sequence_m1():
    assert default_diffusivities(1, 2.0).values == pytest.approx([3.0])


def test_default_sequence_distinct():
    for M in (1, 5, 16, 64):
        vals = default_diffusivities(M, 0.7).values
        assert len(set(vals)) == M


def test_sequence_validation():
    with pytest.raises(ValueError):
        default_diffusivities(0, 1.0)
    with pytest.raises(ValueError):
        default_diffusivities(3, -1.0)
    with pytest.raises(ValueError):
        DiffusivitySequence([1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        DiffusivitySequence([1.1, 1.5], 1.0)   # not approaching monotonically


# --- fit ------------------------------------------------------------------

def test_exact_recovery_of_span_member():
    grid = Grid(1, 2.0, 128)
    basis = GreensBasis.build(grid, default_diffusivities(3, 1.0).values)
    target = np.array([0.0, 3.0, 0.0])
    W = basis.as_kernel(target)
    res = fit_coefficients(W, basis, 0.0)
    assert res.gram_condition_estimate < 1e12
    assert res.residual_w11 < 1e-8
    assert np.abs(res.coefficients - target).max() < 1e-6


def test_zero_target_gives_zero_fit():
    grid = Grid(1, 1.0, 64)
    basis = GreensBasis.build(grid, default_diffusivities(2, 1.0).values)
    W = basis.as_kernel([0.0, 0.0])
    res = fit_coefficients(W, basis, 0.0)
    assert np.abs(res.coefficients).max() < 1e-12
    assert res.residual_w11 < 1e-12


def test_gaussian_target_monotone_and_frozen():
    grid = Grid(1, 1.0, 128)
    W = periodize(gaussian_kernel(0.3, 1), grid)
    residuals = []
    for M in (1, 2, 4, 8, 16):
        basis = GreensBasis.build(grid, default_diffusivities(M, 1.0).values)
        residuals.append(fit_coefficients(W, basis, 0.0).residual_w11)
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a * (1.0 + 1e-12)
    assert residuals == pytest.approx(GAUSS_W11_RESIDUALS, rel=1e-4)


def test_first_order_optimality():
    # residual orthogonal to every basis element in the H1 inner product
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(3, 0.5).values)
    res = fit_coefficients(W, basis, 0.0)
    resid_field = W.field - basis.combination(res.coefficients)
    from greenks.domain import norm_h1
    scale = norm_h1(resid_field) * max(norm_h1(f) for f in basis.fields)
    for f in basis.fields:
        assert abs(inner_h1(resid_field, f)) <= 1e-8 * scale


def test_reconstruction_consistency():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(4, 0.5).values)
    res = fit_coefficients(W, basis, 1e-8)
    recomputed = norm_w11(W.field - basis.combination(res.coefficients))
    assert abs(recomputed - res.residual_w11) < 1e-12


def test_singular_flag_on_clustered_basis():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(16, 0.5).values)
    res = fit_coefficients(W, basis, 0.0)
    assert res.singular
    assert np.isfinite(res.residual_w11)


def test_h1_residual_rises_over_nested_bases_only_when_singular():
    # configs/study_kernel.cfg, M = 1..32 (nested bases): the H1 residual is the
    # minimized norm, so only truncated singular values can raise it
    cfg = cfgmod.load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                          "study_kernel.cfg"))
    W = cfgmod.require_kernel(cfgmod.build_problem(cfg)[1], "fit")
    d_star, reg = cfgmod.study_fit_settings(cfg)
    fits = [fit_coefficients(W, GreensBasis.build(W.field.grid,
                                                  default_diffusivities(M, d_star).values), reg)
            for M in range(1, 33)]
    assert sum(not f.singular for f in fits) >= 2
    for smaller, larger in zip(fits, fits[1:]):
        assert larger.residual_h1 <= smaller.residual_h1 * (1.0 + 1e-12) or larger.singular


def test_regularization_shrinks_coefficients():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(8, 0.5).values)
    free = fit_coefficients(W, basis, 0.0)
    tamed = fit_coefficients(W, basis, 1e-6)
    assert np.abs(tamed.coefficients).max() < np.abs(free.coefficients).max()
    with pytest.raises(ValueError):
        fit_coefficients(W, basis, -1.0)


def test_fit_grid_mismatch():
    W = periodize(adhesion_potential(ONES, 1), Grid(1, 1.0, 64))
    basis = GreensBasis.build(Grid(1, 1.0, 32), [1.0])
    with pytest.raises(ValueError):
        fit_coefficients(W, basis, 0.0)


# --- fit_to_tolerance -----------------------------------------------------

def test_tolerance_met_at_m1_for_basis_member():
    grid = Grid(1, 1.0, 64)
    basis = GreensBasis.build(grid, [1.5])   # d_1 of the default sequence
    W = basis.as_kernel([1.0])
    res = fit_to_tolerance(W, 1e-6, 8, 1.0)
    assert len(res.coefficients) == 1
    assert res.converged


def test_huge_tolerance_returns_immediately():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    res = fit_to_tolerance(W, 10.0 * norm_w11(W.field), 8, 1.0)
    assert len(res.coefficients) == 1
    assert res.converged


def test_adhesion_five_percent_is_out_of_reach():
    # frozen regression outcome: the accumulating d_j sequence saturates
    # around a 9% W11 residual, so the 5% request exhausts M_max and the
    # best-effort result comes back explicitly flagged
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    eps = 0.05 * norm_w11(W.field)
    res = fit_to_tolerance(W, eps, 64, 0.5)
    assert not res.converged
    assert len(res.coefficients) == 16
    assert res.residual_w11 == pytest.approx(0.28112, rel=1e-3)


def test_fit_to_tolerance_validation():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    with pytest.raises(ValueError):
        fit_to_tolerance(W, -1.0, 8, 1.0)
    with pytest.raises(ValueError):
        fit_to_tolerance(W, 1.0, 0, 1.0)


def test_result_csv_summary():
    grid = Grid(1, 1.0, 64)
    basis = GreensBasis.build(grid, default_diffusivities(2, 1.0).values)
    res = fit_coefficients(basis.as_kernel([1.0, 2.0]), basis, 0.0)
    text = res.to_csv()
    lines = text.splitlines()
    assert lines[0] == "j,d_j,a_j"
    assert len(lines) == 4   # header + 2 rows + summary
    assert lines[-1].startswith("# M=2 ")
