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
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class InsufficientDataError(ValueError):
    """A space-time norm needs at least two snapshots."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^N, N in {1, 2, 3}.

    Cell centers sit at x_i = -L + (i + 1/2) h with h = 2L/n; indices wrap
    modulo n per axis.
    """

    dim: int
    half_length: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def volume(self) -> float:
        return (2.0 * self.half_length) ** self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return -self.half_length + (np.arange(self.n) + 0.5) * self.h

    def axis_offsets(self) -> np.ndarray:
        """Offset-lattice coordinates m*h wrapped into [-L, L)."""
        x = np.arange(self.n) * self.h
        return np.where(x >= self.half_length, x - 2.0 * self.half_length, x)

    def meshgrid(self, offsets: bool = False) -> tuple:
        ax = self.axis_offsets() if offsets else self.axis_centers()
        return np.meshgrid(*([ax] * self.dim), indexing="ij")

    def frequencies(self) -> list:
        """Continuous angular frequencies pi*k/L per axis, FFT ordering."""
        return [np.fft.fftfreq(self.n, d=self.h) * 2.0 * np.pi
                for _ in range(self.dim)]


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
    def from_function(cls, grid: Grid, f) -> "Field":
        """Sample f(x) (or f(x, y) / f(x, y, z)) at the cell centers."""
        return cls(grid, f(*grid.meshgrid()))

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

    def __neg__(self):
        return Field(self.grid, -self.values)

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
    fa = np.fft.fftn(a.values)
    fb = np.fft.fftn(b.values)
    out = np.fft.ifftn(fa * fb).real * a.grid.cell_volume
    return Field(a.grid, out)


def gradient(a: Field) -> list:
    """Centered second-order periodic differences, one field per axis."""
    h = a.grid.h
    out = []
    for ax in range(a.grid.dim):
        d = (np.roll(a.values, -1, axis=ax) - np.roll(a.values, 1, axis=ax)) / (2.0 * h)
        out.append(Field(a.grid, d))
    return out


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


# --- CSV snapshot format -------------------------------------------------
#
# Header: "# grid: N=<dim> L=<L> n=<n>", then one row per cell in row-major
# order: flat index, coordinates, value.  17 significant digits give a
# bit-exact round trip.

_CSV_CHUNK = 512    # cells formatted per write; bounds the temporary strings


@functools.lru_cache(maxsize=4)
def _row_templates(grid: Grid, offsets: bool) -> tuple:
    """Per chunk, its rows with index and coordinates filled in and a %.17g slot per value."""
    coords = [c.ravel().tolist() for c in grid.meshgrid(offsets=offsets)]
    row = "{}" + ",{:.17g}" * len(coords) + ",%.17g\n"
    size = len(coords[0])
    return tuple("".join(map(row.format, range(start, min(start + _CSV_CHUNK, size)),
                             *(c[start:start + _CSV_CHUNK] for c in coords)))
                 for start in range(0, size, _CSV_CHUNK))


def _opened(f, mode: str):   # a path is opened and closed, an open file used as it is
    return open(f, mode) if isinstance(f, str) else contextlib.nullcontext(f)


def write_field_csv(f, field: Field, offsets: bool = False):
    g = field.grid
    with _opened(f, "w") as f:
        f.write(f"# grid: N={g.dim} L={g.half_length!r} n={g.n}\n")
        values = field.values.ravel()
        for start, template in zip(range(0, values.size, _CSV_CHUNK), _row_templates(g, offsets)):
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


def field_csv_string(field: Field, offsets: bool = False) -> str:
    buf = io.StringIO()
    write_field_csv(buf, field, offsets=offsets)
    return buf.getvalue()
