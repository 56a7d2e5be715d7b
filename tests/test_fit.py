import dataclasses
import math
import os

import numpy as np
import pytest

from greenks import config as cfgmod
from greenks.harness import basis_fits
from greenks.domain import Field, Grid, inner_h1, norm_h1, norm_w11
from greenks.fit import FitResult, default_diffusivities, fit_coefficients, fit_to_tolerance
from greenks.greens import GreensBasis, greens_periodic_spectral
from greenks.kernel import PeriodizedKernel, adhesion_potential, gaussian_kernel, periodize
from oracles import h1_fit_reference

ONES = lambda r: np.ones_like(np.asarray(r, dtype=float))

# frozen regression values for the periodized Gaussian target
# (sigma = 0.3, L = 1, N = 1, n = 128, d_star = 1, regularization 0)
GAUSS_W11_RESIDUALS = [3.087620, 1.280864, 0.2272942, 0.03907394, 0.03900050]


# --- diffusivity sequences ------------------------------------------------

def test_default_sequence_m3():
    assert default_diffusivities(3, 1.0) == pytest.approx([1.5, 4.0 / 3.0, 1.25], rel=1e-14)


def test_default_sequence_m1():
    assert default_diffusivities(1, 2.0) == pytest.approx([3.0])


def test_default_sequence_distinct():
    for M in (1, 5, 16, 64):
        vals = default_diffusivities(M, 0.7)
        assert len(set(vals)) == M


def test_sequence_validation():
    with pytest.raises(ValueError):
        default_diffusivities(0, 1.0)
    with pytest.raises(ValueError):
        default_diffusivities(3, -1.0)


# --- fit ------------------------------------------------------------------

def test_exact_recovery_of_span_member():
    grid = Grid(1, 2.0, 128)
    basis = GreensBasis.build(grid, default_diffusivities(3, 1.0))
    target = np.array([0.0, 3.0, 0.0])
    W = basis.as_kernel(target)
    res = fit_coefficients(W, basis, 0.0)
    assert res.gram_condition_estimate < 1e12
    assert res.residual_w11 < 1e-8
    assert np.abs(res.coefficients - target).max() < 1e-6


def test_zero_target_gives_zero_fit():
    grid = Grid(1, 1.0, 64)
    basis = GreensBasis.build(grid, default_diffusivities(2, 1.0))
    W = basis.as_kernel([0.0, 0.0])
    res = fit_coefficients(W, basis, 0.0)
    assert np.abs(res.coefficients).max() < 1e-12
    assert res.residual_w11 < 1e-12


def test_gaussian_target_monotone_and_frozen():
    grid = Grid(1, 1.0, 128)
    W = periodize(gaussian_kernel(0.3, 1), grid)
    residuals = []
    for M in (1, 2, 4, 8, 16):
        basis = GreensBasis.build(grid, default_diffusivities(M, 1.0))
        residuals.append(fit_coefficients(W, basis, 0.0).residual_w11)
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a * (1.0 + 1e-12)
    assert residuals == pytest.approx(GAUSS_W11_RESIDUALS, rel=1e-4)


def test_first_order_optimality():
    # residual orthogonal to every basis element in the H1 inner product
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(3, 0.5))
    res = fit_coefficients(W, basis, 0.0)
    resid_field = W.field - basis.combination(res.coefficients)
    fields = [greens_periodic_spectral(d, grid) for d in basis.diffusivities]
    scale = norm_h1(resid_field) * max(norm_h1(f) for f in fields)
    for f in fields:
        assert abs(inner_h1(resid_field, f)) <= 1e-8 * scale


def test_reconstruction_consistency():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(4, 0.5))
    res = fit_coefficients(W, basis, 1e-8)
    recomputed = norm_w11(W.field - basis.combination(res.coefficients))
    assert abs(recomputed - res.residual_w11) < 1e-12


def test_singular_flag_on_clustered_basis():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(16, 0.5))
    res = fit_coefficients(W, basis, 0.0)
    assert res.singular
    assert np.isfinite(res.residual_w11)


def test_h1_residual_rises_over_nested_bases_only_when_singular():
    # configs/study_kernel.cfg, M = 1..32 (nested bases): the H1 residual is the
    # minimized norm, so only truncated singular values can raise it
    cfg = cfgmod.load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                          "study_kernel.cfg"))
    W = cfgmod.require_kernel(cfgmod.build_problem(cfg)[1], "fit")
    fits = list(basis_fits(cfg, W, range(1, 33)))
    assert sum(not f.singular for f in fits) >= 2
    for smaller, larger in zip(fits, fits[1:]):
        assert larger.residual_h1 <= smaller.residual_h1 * (1.0 + 1e-12) or larger.singular


def test_regularization_shrinks_coefficients():
    grid = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), grid)
    basis = GreensBasis.build(grid, default_diffusivities(8, 0.5))
    free = fit_coefficients(W, basis, 0.0)
    tamed = fit_coefficients(W, basis, 1e-6)
    assert np.abs(tamed.coefficients).max() < np.abs(free.coefficients).max()
    for reg in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            fit_coefficients(W, basis, reg)


def _shifted_gaussian(grid):
    # not even about the origin, so its transform is not real
    return PeriodizedKernel(Field(
        grid, np.exp(-sum((c - 0.2) ** 2 for c in grid.meshgrid()) / 0.18)), 0)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("reg", [0.0, 1e-6])
@pytest.mark.parametrize("target", ["gaussian", "shifted"])
def test_fit_matches_real_space_oracle(dim, n, reg, target):
    # the per-mode fit against the (N+1) n^N-row real-space H1 design
    grid = Grid(dim, 1.0, n)
    W = (periodize(gaussian_kernel(0.3, dim), grid) if target == "gaussian"
         else _shifted_gaussian(grid))
    for M in (1, 2, 3):
        d = default_diffusivities(M, 0.5)
        res = fit_coefficients(W, GreensBasis.build(grid, d), reg)
        assert not res.singular
        coefficients, residual_h1 = h1_fit_reference(
            W.field.values, [greens_periodic_spectral(dj, grid).values for dj in d],
            grid.h, reg)
        assert res.coefficients == pytest.approx(coefficients, rel=1e-8)
        assert res.residual_h1 == pytest.approx(residual_h1, rel=1e-8)


def test_fit_grid_mismatch():
    W = periodize(adhesion_potential(ONES, 1), Grid(1, 1.0, 64))
    basis = GreensBasis.build(Grid(1, 1.0, 32), [1.0])
    with pytest.raises(ValueError):
        fit_coefficients(W, basis, 0.0)


# --- fit_to_tolerance -----------------------------------------------------

def test_tolerance_met_at_m1_for_basis_member():
    # every default size spans the target; the first fit under epsilon is returned
    W = GreensBasis.build(Grid(1, 1.0, 64), [1.5]).as_kernel([1.0])   # d_1 of d_star = 1
    fits = list(basis_fits(cfgmod.parse_config_text(""), W))
    res = fit_to_tolerance(fits, 1e-6)
    assert res is fits[0]
    assert res.converged


def test_huge_tolerance_returns_immediately():
    W = periodize(adhesion_potential(ONES, 1), Grid(1, 1.0, 64))

    def first_fit_only():
        yield next(basis_fits(cfgmod.parse_config_text(""), W))
        raise AssertionError("read past the fit that meets the tolerance")

    res = fit_to_tolerance(first_fit_only(), 10.0 * norm_w11(W.field))
    assert len(res.coefficients) == 1
    assert res.converged


def test_adhesion_five_percent_is_out_of_reach():
    # frozen regression outcome: the accumulating d_j sequence saturates
    # around a 9% W11 residual, so the 5% request exhausts the sizes and the
    # best-effort result comes back explicitly flagged.  Which M gives the
    # best fit is decided by rounding (these fits are singular), so the test
    # checks the contract instead: the first smallest W11 residual of the sizes
    W = periodize(adhesion_potential(ONES, 1), Grid(1, 1.0, 64))
    cfg = cfgmod.parse_config_text("study.M = 1, 2, 4, 8, 16, 32, 64\nstudy.d_star = 0.5\n")
    fits = list(basis_fits(cfg, W))
    res = fit_to_tolerance(fits, 0.05 * norm_w11(W.field))
    best = min(fits, key=lambda f: f.residual_w11)
    assert not res.converged
    assert res.to_csv() == dataclasses.replace(best, converged=False).to_csv()
    assert res.residual_w11 == pytest.approx(0.28112, rel=1e-3)


def test_fit_to_tolerance_flags_a_copy():
    # the best fit comes back flagged, and the caller's own fits stay converged
    W = periodize(adhesion_potential(ONES, 1), Grid(1, 1.0, 64))
    fits = list(basis_fits(cfgmod.parse_config_text("study.M = 1, 2\n"), W))
    res = fit_to_tolerance(iter(fits), 1e-30)
    assert not res.converged
    assert [f.converged for f in fits] == [True, True]


def test_fit_to_tolerance_validation():
    W = periodize(adhesion_potential(ONES, 1), Grid(1, 1.0, 64))
    fits = list(basis_fits(cfgmod.parse_config_text("study.M = 1\n"), W))
    for eps in (-1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            fit_to_tolerance(fits, eps)
    with pytest.raises(ValueError, match="no fits"):
        fit_to_tolerance([], 1.0)


def test_result_csv_summary():
    grid = Grid(1, 1.0, 64)
    basis = GreensBasis.build(grid, default_diffusivities(2, 1.0))
    res = fit_coefficients(basis.as_kernel([1.0, 2.0]), basis, 0.0)
    text = res.to_csv()
    lines = text.splitlines()
    assert lines[0] == "j,d_j,a_j"
    assert len(lines) == 4   # header + 2 rows + summary
    assert lines[-1].startswith("# M=2 ")


def test_result_csv_text():
    # the footer is parsed by CI: "converged=False" stays Python's spelling
    res = FitResult(np.array([1.5, -2.0 / 3.0]), [0.75, 2.0 / 3.0], 0.1, 0.2, 1.0 / 3.0,
                    12345.678901, 1e-8, converged=False, singular=True)
    assert res.to_csv() == (
        "j,d_j,a_j\n1,0.75,1.5\n2,0.66666666666666663,-0.66666666666666663\n"
        "# M=2 residual_w11=0.10000000000000001 residual_l2=0.20000000000000001 "
        "residual_h1=0.33333333333333331 condition=12345.7 regularization=1e-08 "
        "converged=False singular=True\n")


def test_result_csv_rejects_unequal_lengths():
    # a diffusivity without a coefficient raises instead of being dropped
    res = FitResult(np.array([1.5]), [0.75, 2.0 / 3.0], 0.1, 0.2, 0.3, 1.0, 0.0)
    with pytest.raises(ValueError):
        res.to_csv()
