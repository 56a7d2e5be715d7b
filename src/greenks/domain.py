"""Periodic grids, fields, spectral convolution and the norms used everywhere else.

All fields live on a uniform cell-centered lattice over [-L, L)^N with
periodic wrap-around.  Convolution is index-based circular convolution
scaled by the cell volume, so convolving with a kernel sampled on the
offset lattice (index 0 <-> spatial offset 0) is the midpoint-rule
approximation of the continuum convolution at the cell centers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import warnings
from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class InsufficientDataError(ValueError):
    """A space-time norm needs at least two snapshots."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^N, N in {1, 2, 3}.

    Cell centers sit at x_i = -L + (i + 1/2) h with h = 2L/n; indices wrap
    modulo n per axis.  The grid's discrete operators act on the trailing
    ``dim`` axes of an array, so a field and an ensemble ``(S, *shape)`` share them.
    """

    dim: int
    half_length: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0 < self.half_length < np.inf:
            raise ValueError("half_length must be positive and finite")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    # cached_property writes the instance __dict__, which a frozen dataclass allows
    @functools.cached_property
    def h(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @functools.cached_property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return -self.half_length + (np.arange(self.n) + 0.5) * self.h

    def axis_offsets(self) -> np.ndarray:
        """Offset-lattice coordinates m*h wrapped into [-L, L)."""
        x = np.arange(self.n) * self.h
        return np.where(x >= self.half_length, x - 2.0 * self.half_length, x)

    def meshgrid(self) -> tuple:
        """Cell-center coordinate arrays, one per axis."""
        return np.meshgrid(*([self.axis_centers()] * self.dim), indexing="ij")

    def frequencies(self) -> list:
        """Continuous angular frequencies pi*k/L per axis, FFT ordering."""
        return [np.fft.fftfreq(self.n, d=self.h) * 2.0 * np.pi
                for _ in range(self.dim)]

    @functools.cached_property
    def axes(self) -> tuple:
        """The grid axes of an array: its trailing ``dim``."""
        return tuple(range(-self.dim, 0))

    @functools.cached_property
    def _neighbours(self) -> dict:
        return {step: np.roll(np.arange(self.n), -step) for step in (1, -1, 2)}

    def shift(self, a: np.ndarray, ax: int, step: int) -> np.ndarray:
        """a[i + step] along grid axis ``ax`` with periodic wrap, step = 1, -1 or 2."""
        axis = ax - self.dim   # counted from the end
        if ax == 0:   # a gather is the cheapest copy along the first grid axis only
            return a.take(self._neighbours[step], axis=axis)
        k, tail = step % self.n, (slice(None),) * (-1 - axis)
        return np.concatenate((a[(Ellipsis, slice(k, None)) + tail],
                               a[(Ellipsis, slice(0, k)) + tail]), axis=axis)

    def gradient(self, a: np.ndarray) -> list:
        """Centered second-order periodic differences, one array per grid axis."""
        return [(self.shift(a, ax, 1) - self.shift(a, ax, -1)) / (2.0 * self.h)
                for ax in range(self.dim)]

    # rfftn and irfftn over the grid axes, one axis at a time in their order,
    # through the pocketfft gufuncs that np.fft's wrappers end in, with the factor
    # (1 forward, 1/n inverse) and axes that np.fft._raw_fft passes, so bit for bit.
    # At 1D n=256 the wrapper costs more than the transform: on an Intel Xeon with
    # numpy 2.4, np.fft.rfft(a, out=o) takes 4.3 us and np.fft.irfft 5.6 us, their
    # gufuncs 2.6 and 2.7 us (the latter with its new output array).  The module is
    # private, but np.fft has run on it since numpy 2.0; the bit-for-bit test and
    # the numpy 2.0 CI leg pin it.  It is looked up at call time, so importing
    # greenks does not load numpy.fft.  A stepper reuses rfft's ``out``, and with
    # ``overwrite`` the leading-axis passes of irfft run in place in a_hat
    def rfft(self, a: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        pfu = np.fft._pocketfft_umath
        if out is None:
            out = np.empty(a.shape[:-1] + (self.n // 2 + 1,), complex)
        a_hat = pfu.rfft_n_even(a, 1, axes=[(-1,), (), (-1,)], out=out)
        for ax in self.axes[-2::-1]:
            a_hat = pfu.fft(a_hat, 1, axes=[(ax,), (), (ax,)], out=a_hat)
        return a_hat

    def irfft(self, a_hat: np.ndarray, overwrite: bool = False) -> np.ndarray:
        pfu, fct = np.fft._pocketfft_umath, 1.0 / self.n
        for ax in self.axes[:-1]:
            # without overwrite the first pass writes a new complex array, which
            # also takes a real a_hat; the later passes run in place in it
            dest = a_hat if overwrite else np.empty(a_hat.shape, complex)
            a_hat, overwrite = pfu.ifft(a_hat, fct, axes=[(ax,), (), (ax,)], out=dest), True
        out = np.empty(a_hat.shape[:-1] + (self.n,))   # n cannot be read off a_hat
        return pfu.irfft(a_hat, fct, axes=[(-1,), (), (-1,)], out=out)

    @functools.cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the rfft half lattice, read-only since every caller shares it."""
        k2 = self.frequencies()[0] ** 2
        k2 = sum(np.ix_(*[k2] * (self.dim - 1), k2[:self.n // 2 + 1]))
        k2.flags.writeable = False
        return k2

    @functools.cached_property
    def derivative_symbols(self) -> tuple:
        """The symbols i sin(k h)/h of the centred differences on the rfft half
        lattice, one per grid axis, shaped to broadcast along that axis; read-only
        like ``k2``.  Each Nyquist entry is exactly 0, which sin(pi) is not."""
        d = 1j * np.sin(self.frequencies()[0] * self.h) / self.h
        d[self.n // 2] = 0.0
        d.flags.writeable = False
        return tuple((d[:self.n // 2 + 1] if ax == self.dim - 1 else d)
                     .reshape((-1,) + (1,) * (self.dim - 1 - ax)) for ax in range(self.dim))

    def resolvent(self, d: float) -> np.ndarray:
        """The symbol 1/(1 + d|k|^2) of (-d Laplace + I)^-1 on the rfft half lattice."""
        return 1.0 / (1.0 + d * self.k2)


@dataclass
class Field:
    """Real-valued grid function, one value per cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def delta(cls, grid: Grid) -> "Field":
        """Discrete delta: 1/h^N at index 0, zero elsewhere."""
        v = np.zeros(grid.shape)
        v[(0,) * grid.dim] = 1.0 / grid.cell_volume
        return cls(grid, v)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def _check(self, other: "Field"):
        if self.grid != other.grid:
            raise GridMismatchError("fields on different grids")

    def __add__(self, other):
        self._check(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c):
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def mean(self) -> float:
        return float(self.values.mean())

    def integral(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume


@dataclass
class SpaceTimeSeries:
    """Snapshots of a field at strictly increasing times starting at 0."""

    grid: Grid
    times: list
    snapshots: list

    def __post_init__(self):
        if len(self.times) != len(self.snapshots):
            raise ValueError("times and snapshots length mismatch")
        t = np.asarray(self.times, dtype=float)
        if len(t) and (t[0] != 0.0 or np.any(np.diff(t) <= 0)):
            raise ValueError("times must start at 0 and strictly increase")
        for s in self.snapshots:
            if s.grid != self.grid:
                raise GridMismatchError("snapshot on a different grid")


def periodic_convolve(a: Field, b: Field) -> Field:
    """Circular convolution scaled by h^N (midpoint rule for W*u)."""
    if a.grid != b.grid:
        raise GridMismatchError("convolution operands on different grids")
    g = a.grid
    return Field(g, g.irfft(g.rfft(a.values) * g.rfft(b.values)) * g.cell_volume)


def gradient(a: Field) -> list:
    """Centered second-order periodic differences, one field per axis."""
    return [Field(a.grid, d) for d in a.grid.gradient(a.values)]


def norm_l1(a: Field) -> float:
    return float(np.abs(a.values).sum()) * a.grid.cell_volume


def norm_l2(a: Field) -> float:
    return float(np.sqrt((a.values ** 2).sum() * a.grid.cell_volume))


def norm_w11(a: Field) -> float:
    """L1 of the value plus L1 of every centered-difference gradient component."""
    return norm_l1(a) + sum(norm_l1(g) for g in gradient(a))


def inner_l2(a: Field, b: Field) -> float:
    a._check(b)
    return float((a.values * b.values).sum() * a.grid.cell_volume)


def inner_h1(a: Field, b: Field) -> float:
    """Discrete H1 inner product: <a,b>_L2 + <grad a, grad b>_L2."""
    s = inner_l2(a, b)
    for ga, gb in zip(gradient(a), gradient(b)):
        s += inner_l2(ga, gb)
    return s


def norm_h1(a: Field) -> float:
    return float(np.sqrt(max(inner_h1(a, a), 0.0)))


def norm_l2_spacetime(series: SpaceTimeSeries) -> float:
    """Trapezoidal rule in time over squared spatial L2 norms."""
    if len(series.times) < 2:
        raise InsufficientDataError("need at least 2 snapshots")
    sq = np.array([norm_l2(s) ** 2 for s in series.snapshots])
    return float(np.sqrt(np.trapezoid(sq, np.asarray(series.times))))


# --- CSV: the snapshot format and the tables -------------------------------
#
# Snapshot header: "# grid: N=<dim> L=<L> n=<n>", then one row per cell in
# row-major order: flat index, coordinates, value.  17 significant digits
# give a bit-exact round trip.  Every other CSV file is a csv_table.

_CSV_CHUNK = 512    # cells formatted per write; bounds the temporary strings


@functools.lru_cache(maxsize=4)
def _row_templates(grid: Grid) -> tuple:
    """Per chunk, its rows with index and coordinates filled in and a %.17g slot per value,
    streamed from the product of the axis centres, each formatted once."""
    centres = ["{:.17g}".format(c) for c in grid.axis_centers().tolist()]
    rows = map("{},{},%.17g\n".format, itertools.count(),
               map(",".join, itertools.product(centres, repeat=grid.dim)))
    return tuple(iter(lambda: "".join(itertools.islice(rows, _CSV_CHUNK)), ""))


def _opened(f, mode: str):   # a path is opened and closed, an open file used as it is
    return open(f, mode) if isinstance(f, str) else contextlib.nullcontext(f)


def write_field_csv(f, field: Field):
    g = field.grid
    with _opened(f, "w") as f:
        f.write(f"# grid: N={g.dim} L={g.half_length!r} n={g.n}\n")
        values = field.values.ravel()
        for start, template in zip(range(0, values.size, _CSV_CHUNK), _row_templates(g)):
            f.write(template % tuple(values[start:start + _CSV_CHUNK].tolist()))


def read_field_csv(f) -> Field:
    """Read a snapshot; every flat index 0 .. n^N - 1 must appear exactly once."""
    with _opened(f, "r") as f:
        header = f.readline().strip()
        if not header.startswith("# grid:"):
            raise ValueError("missing grid header")
        parts = dict(p.split("=") for p in header[len("# grid:"):].split())
        grid = Grid(dim=int(parts["N"]), half_length=float(parts["L"]), n=int(parts["n"]))
        with warnings.catch_warnings():
            # a snapshot without rows fails the index check below instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            index, vals = np.loadtxt(f, delimiter=",", usecols=(0, grid.dim + 1), ndmin=2).T
    size = grid.n ** grid.dim
    if index.size != size or not np.array_equal(np.sort(index), np.arange(size)):
        raise ValueError(f"snapshot rows must hold each index 0..{size - 1} exactly once")
    out = np.empty(size)
    out[index.astype(np.intp)] = vals
    return Field(grid, out.reshape(grid.shape))


def field_csv_string(field: Field) -> str:
    buf = io.StringIO()
    write_field_csv(buf, field)
    return buf.getvalue()


def csv_table(columns: dict, comments=()) -> str:
    """A header of the column names, one row per index of the equal-length
    columns, then each comment as a ``# `` line.  A float cell is written as
    %.17g (a bit-exact round trip), an int as its digits, a bool as true or
    false.  Columns of unequal length raise ``ValueError``."""
    cells = [[_csv_cell(v) for v in values] for values in columns.values()]
    rows = map(",".join, zip(*cells, strict=True))
    return "\n".join([",".join(columns), *rows, *(f"# {c}" for c in comments)]) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v) if isinstance(v, int) else "%.17g" % v
