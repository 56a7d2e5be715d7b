import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenks.domain import (Field, Grid, GridMismatchError, InsufficientDataError,
                            SpaceTimeSeries, csv_table, field_csv_string, gradient, inner_l2,
                            norm_l1, norm_l2, norm_l2_spacetime, norm_w11,
                            periodic_convolve, read_field_csv, write_field_csv)
from oracles import direct_convolution


def rng_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


# --- grid -----------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 1.0, 16)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 16)
    for half_length in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Grid(1, half_length, 16)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 15)   # odd
    with pytest.raises(ValueError):
        Grid(1, 1.0, 6)    # below 8


def test_cell_centers_and_spacing():
    g = Grid(1, 1.0, 8)
    assert g.h == pytest.approx(0.25)
    x = g.axis_centers()
    assert x[0] == pytest.approx(-1.0 + 0.5 * g.h)
    assert x[-1] == pytest.approx(1.0 - 0.5 * g.h)


# --- convolution ----------------------------------------------------------

def test_convolution_delta_identity():
    g = Grid(1, 1.0, 16)
    b = rng_field(g, 3)
    out = periodic_convolve(Field.delta(g), b)
    assert np.abs(out.values - b.values).max() < 1e-12


def test_convolution_of_constants():
    g = Grid(2, 1.5, 8)
    out = periodic_convolve(Field.constant(g, 2.0), Field.constant(g, 3.0))
    assert np.abs(out.values - 2.0 * 3.0 * (2.0 * g.half_length) ** 2).max() < 1e-12


def test_convolution_indicator_against_direct():
    g = Grid(1, 1.0, 8)
    ind = Field(g, (g.axis_centers() < 0).astype(float))
    out = periodic_convolve(ind, ind)
    ref = direct_convolution(ind.values, ind.values, g.cell_volume)
    assert np.abs(out.values - ref).max() < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
def test_convolution_direct_oracle(dim, n):
    g = Grid(dim, 1.0, n)
    a, b = rng_field(g, 1), rng_field(g, 2)
    out = periodic_convolve(a, b)
    ref = direct_convolution(a.values, b.values, g.cell_volume)
    scale = np.abs(ref).max()
    assert np.abs(out.values - ref).max() <= 1e-12 * scale


def test_convolution_commutes_and_is_linear():
    g = Grid(1, 1.0, 32)
    a, b, c = rng_field(g, 1), rng_field(g, 2), rng_field(g, 3)
    ab = periodic_convolve(a, b)
    ba = periodic_convolve(b, a)
    assert np.abs(ab.values - ba.values).max() < 1e-12
    lin = periodic_convolve(a, b + 2.0 * c)
    ref = periodic_convolve(a, b) + 2.0 * periodic_convolve(a, c)
    assert np.abs(lin.values - ref.values).max() < 1e-12


def test_convolution_grid_mismatch():
    with pytest.raises(GridMismatchError):
        periodic_convolve(rng_field(Grid(1, 1.0, 16)), rng_field(Grid(1, 1.0, 32)))


# --- the grid's array operators --------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_shift_and_gradient_match_roll(dim):
    g = Grid(dim, 1.0, 8)
    a = np.random.default_rng(dim).random(g.shape)
    # a stacked ensemble (S, *shape) takes the same path; along the first grid axis
    # each step gathers from a cached index table, along the others it slices
    stack = np.random.default_rng(dim + 10).random((3,) + g.shape)
    for ax in range(dim):
        for step in (1, -1, 2):
            assert np.array_equal(g.shift(a, ax, step), np.roll(a, -step, axis=ax))
            assert np.array_equal(g.shift(stack, ax, step), np.roll(stack, -step, axis=ax + 1))
    for mine, ref in zip(g.gradient(a), gradient(Field(g, a))):
        assert np.array_equal(mine, ref.values)
    for comp, ax in zip(g.gradient(stack), range(dim)):
        assert all(np.array_equal(comp[m], g.gradient(stack[m])[ax]) for m in range(3))


# the pair calls numpy's pocketfft gufuncs itself; n = 24 = 2^3 * 3 runs
# pocketfft's radix-3 pass
REAL_FFT_PAIR_SIZES = {1: (8, 24, 256), 2: (8, 24, 128), 3: (8, 24)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_real_fft_pair_is_rfftn_bit_for_bit(dim):
    for n in REAL_FFT_PAIR_SIZES[dim]:
        _check_real_fft_pair(Grid(dim, 1.0, n), np.random.default_rng(dim * n))


def _check_real_fft_pair(g, rng):
    for shape in (g.shape, (3,) + g.shape):
        a, b = rng.standard_normal((2,) + shape)
        a_hat = g.rfft(a)
        assert np.array_equal(a_hat, np.fft.rfftn(a, axes=g.axes))
        assert np.array_equal(g.irfft(a_hat), np.fft.irfftn(a_hat, s=g.shape, axes=g.axes))
        # overwrite runs the leading-axis passes in place, with the same bits; without
        # it irfft leaves a_hat as it was
        kept = a_hat.copy()
        assert np.array_equal(g.irfft(a_hat.copy(), overwrite=True), g.irfft(a_hat))
        assert np.array_equal(a_hat, kept)
        # a real spectrum, as GreensBasis.combination passes, is left as it was too
        symbol = rng.standard_normal(a_hat.shape)
        kept = symbol.copy()
        assert np.array_equal(g.irfft(symbol), np.fft.irfftn(symbol, s=g.shape, axes=g.axes))
        assert np.array_equal(symbol, kept)
        # one preallocated out serves two inputs in turn, as StepPlan.u_hat does
        spectrum = np.empty_like(a_hat)
        for c in (a, b):
            assert g.rfft(c, out=spectrum) is spectrum
            assert np.array_equal(spectrum, np.fft.rfftn(c, axes=g.axes))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_resolvent_is_the_half_of_the_full_lattice_symbol(dim):
    g = Grid(dim, 1.5, 8)
    mesh = np.meshgrid(*g.frequencies(), indexing="ij")
    k2 = sum(c * c for c in mesh)[..., :g.n // 2 + 1]
    assert np.array_equal(g.k2, k2) and g.k2 is g.k2   # built once per grid
    assert not g.k2.flags.writeable
    assert np.array_equal(g.resolvent(0.7), 1.0 / (1.0 + 0.7 * k2))


# |irfft(D_i rfft(a)) - gradient(a)_i| measured at most 1.53 eps max|a|/h on
# these cases and 2.15 over 200 random fields at n <= 32 in 1D-3D
DERIVATIVE_SYMBOL_FACTOR = 8.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_derivative_symbols_reproduce_the_gradient(dim):
    g = Grid(dim, 1.5, 8 if dim == 3 else 16)
    assert g.derivative_symbols is g.derivative_symbols   # built once per grid
    half = g.k2.shape
    for ax, d in enumerate(g.derivative_symbols):
        assert not d.flags.writeable
        assert np.broadcast_shapes(d.shape, half) == half and d.size == half[ax]
        assert d.ravel()[g.n // 2] == 0.0   # the Nyquist entry, exactly
        assert np.all(d.real == 0.0)
    rng = np.random.default_rng(40 + dim)
    for shape in (g.shape, (3,) + g.shape):   # one field and a stacked ensemble
        a = rng.standard_normal(shape)
        a_hat = g.rfft(a)
        bound = DERIVATIVE_SYMBOL_FACTOR * np.finfo(float).eps * np.abs(a).max() / g.h
        for d, grad in zip(g.derivative_symbols, g.gradient(a)):
            assert np.abs(g.irfft(d * a_hat) - grad).max() <= bound


# --- gradient -------------------------------------------------------------

def test_gradient_annihilates_constants():
    for dim in (1, 2, 3):
        g = Grid(dim, 1.0, 8)
        comps = gradient(Field.constant(g, 3.7))
        assert len(comps) == dim
        for comp in comps:
            assert np.abs(comp.values).max() == 0.0


def test_gradient_convergence_order():
    errs = []
    for n in (32, 64):
        g = Grid(1, 1.0, n)
        f = Field(g, np.sin(math.pi * g.axis_centers()))
        exact = math.pi * np.cos(math.pi * g.axis_centers())
        errs.append(np.abs(gradient(f)[0].values - exact).max())
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_gradient_fourier_mode_eigenvalue():
    # centered difference maps cos(w x) to -sin(w x) sin(w h)/h exactly
    g = Grid(1, 1.0, 8)
    x = g.axis_centers()
    for k in (1, 2, 3):
        w = math.pi * k / g.half_length
        d = gradient(Field(g, np.cos(w * x)))[0]
        expected = -np.sin(w * x) * math.sin(w * g.h) / g.h
        assert np.abs(d.values - expected).max() < 1e-13


def test_integration_by_parts():
    g = Grid(1, 1.0, 32)
    a, b = rng_field(g, 5), rng_field(g, 6)
    lhs = inner_l2(gradient(a)[0], b)
    rhs = -inner_l2(a, gradient(b)[0])
    assert abs(lhs - rhs) < 1e-12


# --- norms ----------------------------------------------------------------

def test_norms_of_constant():
    g = Grid(1, 1.0, 64)
    one = Field.constant(g, 1.0)
    assert norm_l1(one) == pytest.approx(2.0, rel=1e-14)
    assert norm_l2(one) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert norm_w11(one) == pytest.approx(2.0, rel=1e-14)


def test_norms_of_zero():
    g = Grid(2, 1.0, 8)
    z = Field.constant(g, 0.0)
    assert norm_l1(z) == 0.0 and norm_l2(z) == 0.0 and norm_w11(z) == 0.0


def test_sawtooth_l1():
    g = Grid(1, 1.0, 64)
    saw = Field(g, g.axis_centers())
    assert abs(norm_l1(saw) - 1.0) < 2.0 * g.h


@given(st.integers(0, 2 ** 31 - 1), st.floats(-10, 10))
@settings(max_examples=30, deadline=None)
def test_norm_homogeneity_and_triangle(seed, c):
    g = Grid(1, 1.0, 16)
    a = rng_field(g, seed)
    b = rng_field(g, seed + 1)
    for norm in (norm_l1, norm_l2, norm_w11):
        assert norm(c * a) == pytest.approx(abs(c) * norm(a), rel=1e-12, abs=1e-12)
        assert norm(a + b) <= norm(a) + norm(b) + 1e-12


# --- space-time norm ------------------------------------------------------

def test_spacetime_constant_in_time():
    g = Grid(1, 1.0, 16)
    a = rng_field(g, 9)
    T = 0.7
    s = SpaceTimeSeries(g, [0.0, T / 2, T], [a, a.copy(), a.copy()])
    assert norm_l2_spacetime(s) == pytest.approx(norm_l2(a) * math.sqrt(T), rel=1e-12)


def test_spacetime_zero_series():
    g = Grid(1, 1.0, 16)
    z = Field.constant(g, 0.0)
    s = SpaceTimeSeries(g, [0.0, 1.0], [z, z.copy()])
    assert norm_l2_spacetime(s) == 0.0


def test_spacetime_linear_ramp():
    g = Grid(1, 1.0, 16)
    a = rng_field(g, 11)
    times = [i / 10 for i in range(11)]
    s = SpaceTimeSeries(g, times, [t * a for t in times])
    # int_0^1 t^2 dt = 1/3; composite trapezoid overshoots by h^2/6 * f''/2
    assert norm_l2_spacetime(s) == pytest.approx(norm_l2(a) / math.sqrt(3.0), rel=3e-3)


def test_spacetime_needs_two_snapshots():
    g = Grid(1, 1.0, 16)
    with pytest.raises(InsufficientDataError):
        norm_l2_spacetime(SpaceTimeSeries(g, [0.0], [Field.constant(g, 1.0)]))


def test_series_time_validation():
    g = Grid(1, 1.0, 16)
    z = Field.constant(g, 0.0)
    with pytest.raises(ValueError):
        SpaceTimeSeries(g, [0.5, 1.0], [z, z.copy()])
    with pytest.raises(ValueError):
        SpaceTimeSeries(g, [0.0, 0.0], [z, z.copy()])


# --- CSV ------------------------------------------------------------------

def test_csv_round_trip_bit_exact():
    g = Grid(2, 1.25, 8)
    f = rng_field(g, 21)
    text = field_csv_string(f)
    back = read_field_csv(io.StringIO(text))
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_csv_header_format():
    g = Grid(1, 1.0, 8)
    text = field_csv_string(Field.constant(g, 0.5))
    assert text.splitlines()[0] == "# grid: N=1 L=1.0 n=8"


def per_cell_csv(field):
    """Reference writer: formats every cell on its own."""
    g = field.grid
    out = [f"# grid: N={g.dim} L={g.half_length!r} n={g.n}\n"]
    coords = [c.ravel() for c in g.meshgrid()]
    vals = field.values.ravel()
    for i in range(vals.size):
        cols = [str(i)] + [f"{c[i]:.17g}" for c in coords] + [f"{vals[i]:.17g}"]
        out.append(",".join(cols) + "\n")
    return "".join(out)


@pytest.mark.parametrize("to_path", [False, True])
@pytest.mark.parametrize("grid", [Grid(1, 1.0, 8), Grid(1, 0.3, 4098), Grid(2, 1.0, 46),
                                  Grid(2, 2.5, 64), Grid(3, 0.7, 16)])
def test_csv_bytes_match_the_per_cell_writer(grid, to_path, tmp_path):
    # 46^2 = 2116 and 4098 cells leave a partial last chunk of 512 rows, 4096 cells do not
    f = rng_field(grid, 5)
    special = [-0.0, 5e-324, 1e-300, -1e-300, -2.5, 0.1, 1.0 / 3.0, -7e22]
    f.values.flat[:len(special)] = special
    if to_path:   # the writer opens and closes a path itself, as for the CLI's snapshots
        write_field_csv(str(tmp_path / "snap.csv"), f)
        text = (tmp_path / "snap.csv").read_text()
    else:
        text = field_csv_string(f)
    # lists of lines, which pytest compares quickly on failure; keepends keeps them lossless
    got = text.splitlines(keepends=True)
    assert got == per_cell_csv(f).splitlines(keepends=True)


def test_csv_row_templates_are_per_grid():
    # the writer caches each grid's index and coordinate text; reusing it must not
    # mix grids of equal n, or two fields on one grid
    grids = [Grid(2, 1.0, 46), Grid(2, 2.5, 46), Grid(2, 1.0, 46)]
    for seed, grid in enumerate([g for g in grids for _ in range(2)]):
        f = rng_field(grid, seed)
        got = field_csv_string(f).splitlines(keepends=True)
        assert got == per_cell_csv(f).splitlines(keepends=True)


def snapshot_without(text, drop=(), extra=()):
    header, *rows = text.splitlines(keepends=True)
    return header + "".join(r for i, r in enumerate(rows) if i not in drop) + "".join(extra)


@pytest.mark.parametrize("damage", ["truncated", "header only", "missing", "duplicate",
                                    "out of range", "negative", "fractional", "short row"])
def test_csv_rejects_incomplete_snapshots(damage):
    g = Grid(1, 1.0, 64)
    text = field_csv_string(rng_field(g, 3))
    rows = text.splitlines(keepends=True)[1:]
    bad = {"truncated": snapshot_without(text, drop=range(19, 64)),
           "header only": snapshot_without(text, drop=range(64)),
           "missing": snapshot_without(text, drop=[40]),
           "duplicate": snapshot_without(text, drop=[40], extra=[rows[39]]),
           "out of range": snapshot_without(text, drop=[40], extra=["64" + rows[40][2:]]),
           "negative": snapshot_without(text, drop=[0], extra=["-1" + rows[0][1:]]),
           "fractional": snapshot_without(text, drop=[1], extra=["0.5" + rows[1][1:]]),
           "short row": snapshot_without(text, drop=[63], extra=["63,0.5\n"])}[damage]
    with pytest.raises(ValueError):
        read_field_csv(io.StringIO(bad))


def test_csv_reads_rows_in_any_order():
    g = Grid(2, 1.0, 8)
    f = rng_field(g, 4)
    header, *rows = field_csv_string(f).splitlines(keepends=True)
    back = read_field_csv(io.StringIO(header + "".join(rows[::-1]) + "\n"))
    assert np.array_equal(back.values, f.values)


def test_csv_rejects_missing_header():
    with pytest.raises(ValueError):
        read_field_csv(io.StringIO("0,0.0,1.0\n"))


def test_csv_table_cells_and_comments():
    text = csv_table({"n": [1, 20], "x": [0.1, -0.0], "flag": [True, False]}, ["a = 1", "b"])
    assert text == "n,x,flag\n1,0.10000000000000001,true\n20,-0,false\n# a = 1\n# b\n"


def test_csv_table_round_trips_random_doubles():
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2 ** 63, size=2000, dtype=np.uint64)
    bits |= rng.integers(0, 2, size=bits.size, dtype=np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], rng.standard_normal(500),
                             [5e-324, -0.0, 1e308, np.inf, -np.inf]])
    lines = csv_table({"v": values}).splitlines()
    assert lines[0] == "v"
    back = np.array([float(c) for c in lines[1:]])
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def test_csv_table_rejects_unequal_columns():
    with pytest.raises(ValueError):
        csv_table({"a": [1.0, 2.0], "b": [1.0]})
    with pytest.raises(ValueError):
        csv_table({"a": [], "b": [True]})


def test_field_rejects_nonfinite():
    g = Grid(1, 1.0, 8)
    vals = np.zeros(g.shape)
    vals[0] = np.inf
    with pytest.raises(ValueError):
        Field(g, vals)
