"""Finite-volume solvers for the nonlocal and Keller-Segel-type systems.

One explicit conservative update, which divides no field, advances the density:
upwinded advective fluxes with the saturation factor evaluated at the upwind cell,
and a centered two-point flux for the nonlinear diffusion.  Chemical fields are
either in instantaneous equilibrium (spectral elliptic solve each step) or
relaxed with a backward-Euler spectral step, unconditionally stable in the
relaxation parameter.  ``run_ensemble`` advances several drift layers from
one datum in lockstep, as one array with a leading member axis; ``run`` is
its one-member case.  It builds a :class:`StepPlan` once, with drift symbols
and a spectral workspace, so a drift component is one product and one inverse
transform, then steps on plain arrays.  The stepper keeps only its decisions: dt, the
bound check on the ensemble-wide min/max and dt halving.  An observer fills one
row per state later, over stacked blocks of states: the mass, per-member min/max,
the phi sum read off beta(u) u, and the energy sums of the step that leaves it.
``Field`` objects are made for snapshots and the end states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# elliptic_solve, gradient, inner_l2 and periodic_convolve are unused here, but
# perfbench/tracer.py wraps them by attribute as names of greenks.pde.
from .domain import (Field, Grid, GridMismatchError, SpaceTimeSeries, csv_table,
                     gradient, inner_l2, periodic_convolve)
from .greens import elliptic_solve
from .kernel import PeriodizedKernel

_BOUND_SLACK = 1e-6        # allowed excursion outside [0, 1]
_MASS_TOL = 1e-10          # relative mass drift treated as a solver failure
_MAX_DT_HALVINGS = 20
_MIN_DT_FRACTION = 1e-10   # a step below this fraction of t_end is a stall
_MAX_STEPS = 50_000_000
_BLOCK_ELEMENTS = 2 ** 12   # elements of u per block of accepted steps that _observe sums
# a run holds every snapshot, one state per member, until it ends and writes each
# as a CSV file, so this bounds both; shipped and benchmark configs write at most 6
_MAX_SNAPSHOTS = 1000


class InputValidationError(ValueError):
    """Initial data or configuration violates the model assumptions."""


class NumericalAbortError(RuntimeError):
    """The time loop could not continue (rejected steps, non-finite values, a stall)."""


def volume_filling_g(s: np.ndarray) -> np.ndarray:
    # s(1 - s) is positive exactly on (0, 1)
    s = np.asarray(s, dtype=float)
    return np.maximum(s * (1.0 - s), 0.0)


def linear_saturating_g(s: np.ndarray) -> np.ndarray:
    """g(s) = s on [0, 1), 0 outside; keeps |g| <= s but not u <= 1 structurally."""
    s = np.asarray(s, dtype=float)
    return np.where((s > 0.0) & (s < 1.0), s, 0.0)


@dataclass(frozen=True)
class ModelFunctions:
    """beta(u) = u^gamma + eta*u (linear at gamma = 1) and the saturation ``g``.

    The parameters are checked exactly: 1 <= gamma < inf, eta finite, and eta >= 0,
    or eta > -1 at gamma = 1, so that beta is strictly increasing with beta(0) = 0
    and beta' = gamma|u|^(gamma-1) + eta is nondecreasing; ``g`` is one of the two
    above, each vanishing outside [0, 1] with |g(s)| <= s.  Frozen, so that no
    parameter changes after this check; ``dataclasses.replace`` builds a
    validated copy.
    """

    gamma: float
    eta: float = 0.0
    g: Callable[[np.ndarray], np.ndarray] = volume_filling_g

    def __post_init__(self):
        if not 1.0 <= self.gamma < math.inf:   # also rejects NaN
            raise ValueError("gamma must be >= 1 and finite")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if not (self.eta >= 0.0 or (self.gamma == 1.0 and self.eta > -1.0)):
            raise ValueError("beta must be strictly increasing on [0, 1]: "
                             "eta >= 0, or eta > -1 at gamma = 1")
        if self.g not in (volume_filling_g, linear_saturating_g):
            raise ValueError("g must be volume_filling_g or linear_saturating_g")

    def beta(self, u: np.ndarray) -> np.ndarray:
        b = np.abs(u) ** self.gamma * np.sign(u)
        return b + self.eta * u if self.eta else b

    def beta_prime(self, u: np.ndarray) -> np.ndarray:
        bp = self.gamma * np.abs(u) ** (self.gamma - 1.0)
        return bp + self.eta if self.eta else bp

    def phi(self, u: np.ndarray) -> np.ndarray:
        """The antiderivative of beta.  |u|^gamma |u|, not |u|^(gamma+1): at the
        shipped gamma = 2 numpy squares without its general pow."""
        a = np.abs(u)
        p = a ** self.gamma * a / (self.gamma + 1.0)
        return p + 0.5 * self.eta * u * u if self.eta else p


porous_medium_model = ModelFunctions   # the name every caller builds a model by


@dataclass
class ChemicalSpec:
    """Chemical layer: diffusivities, sensitivities and relaxation time.

    xi = 0 selects the parabolic-elliptic system, xi in (0, 1] the relaxed
    parabolic-parabolic one.
    """

    diffusivities: list
    sensitivities: list
    xi: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.diffusivities, dtype=float)
        a = np.asarray(self.sensitivities, dtype=float)
        if d.shape != a.shape:
            raise ValueError("diffusivities and sensitivities length mismatch")
        if d.size == 0:
            raise ValueError("need at least one chemical")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(a))):
            raise ValueError("diffusivities and sensitivities must be finite")
        if np.any(d <= 0):
            raise ValueError("diffusivities must be positive")
        if not (self.xi == 0.0 or 0.0 < self.xi <= 1.0):   # also rejects NaN
            raise ValueError("xi must be 0 or in (0, 1]")


@dataclass
class RunConfig:
    grid: Grid
    t_end: float
    dt: Optional[float] = None              # None = automatic CFL step
    snapshot_every: Optional[float] = None  # None = min(0.05, t_end)
    cfl_safety: float = 0.4

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be positive and finite")
        if self.snapshot_every is None:
            self.snapshot_every = min(0.05, self.t_end)
        # the range checks below also reject NaN and infinity
        if self.dt is not None and not (0 < self.dt <= self.t_end):
            raise ValueError("dt must lie in (0, t_end]")
        if self.dt is not None and self.t_end / self.dt > _MAX_STEPS:   # the loop's budget
            raise ValueError(f"dt gives more than {_MAX_STEPS} steps up to t_end")
        if not (0 < self.snapshot_every <= self.t_end):
            raise ValueError("snapshot_every must lie in (0, t_end]")
        if _snapshot_count(self.t_end, self.snapshot_every) > _MAX_SNAPSHOTS:
            raise ValueError(f"snapshot_every gives more than {_MAX_SNAPSHOTS} snapshots")
        if not (0 < self.cfl_safety < 1):
            raise ValueError("cfl_safety must lie in (0, 1)")


@dataclass
class Diagnostics:
    """One value per state in each column, t = 0 first; in the CSV ``times`` is ``time``."""

    times: np.ndarray
    mass: np.ndarray
    min_u: np.ndarray
    max_u: np.ndarray
    phi: np.ndarray
    grad_beta_accum: np.ndarray
    drift_accum: np.ndarray

    def to_csv(self) -> str:
        return csv_table({("time" if k == "times" else k): v for k, v in vars(self).items()})


@dataclass
class SolverState:
    time: float
    u: Field
    diagnostics: Diagnostics


# --- the plan -------------------------------------------------------------

@dataclass
class StepPlan:
    """What every step of a run reuses, built once per run by :meth:`build`.

    A plan holds S members stacked on a leading axis (S = 1 for :func:`run`);
    the grid's operators act on the trailing ``grid.dim`` axes, so a stacked
    ``(S, *grid.shape)`` array and a single ``grid.shape`` one take the same
    path.  ``symbols`` are real-FFT multipliers: either per grid axis one
    ``(S, nk...)`` stack of D_i h^N rfft(W) (nonlocal) or D_i sum_j a_j / (1 +
    d_j|k|^2) (parabolic-elliptic), D_i the centred difference's symbol, or one
    1 / (1 + d_j|k|^2) per chemical, shared by the members (parabolic-parabolic,
    whose chemicals stay in Fourier space).  ``u_hat`` and ``work`` are the
    spectral workspace for rfft(u) and each drift component's symbol product and
    inverse passes, so each call overwrites what the one before left there.
    """

    grid: Grid
    model: ModelFunctions
    symbols: list
    sensitivities: list    # a_j of the relaxed chemicals (see _per_member); empty otherwise
    xi: object             # relaxation time (see _per_member); 0 unless relaxed
    u_hat: np.ndarray      # (S, *half lattice) complex, rfft(u) of the state being stepped
    work: np.ndarray       # (S, *half lattice) complex, one drift component on its way back

    @classmethod
    def build(cls, model: ModelFunctions, chems: list, grid: Grid) -> "StepPlan":
        """``chems`` holds one PeriodizedKernel or ChemicalSpec per member, as
        for :func:`run_ensemble`."""
        if not chems:
            raise ValueError("an ensemble needs at least one member")
        member = (len(chems),) + (1,) * grid.dim   # shape of one value per member
        relaxed = [isinstance(c, ChemicalSpec) and c.xi > 0 for c in chems]
        if any(relaxed):
            if not all(relaxed):
                raise ValueError("relaxed and non-relaxed members cannot share an ensemble")
            d = [float(dj) for dj in chems[0].diffusivities]
            if any([float(dj) for dj in c.diffusivities] != d for c in chems):
                raise ValueError("relaxed members must share their diffusivities")
            symbols = [grid.resolvent(dj) for dj in d]
            sensitivities = [_per_member(a, member) for a in
                             np.array([c.sensitivities for c in chems], dtype=float).T]
            xi = _per_member([c.xi for c in chems], member)
        else:
            stacked = np.stack([_symbol(c, grid) for c in chems])
            symbols, sensitivities, xi = [d * stacked for d in grid.derivative_symbols], [], 0.0
        work = np.empty(member[:1] + grid.k2.shape, complex)   # k2 has the half lattice's shape
        return cls(grid, model, symbols, sensitivities, xi, np.empty_like(work), work)


def _symbol(chem, grid: Grid) -> np.ndarray:
    """The rfft multiplier of one nonlocal or parabolic-elliptic drift layer."""
    if isinstance(chem, PeriodizedKernel):
        if chem.field.grid != grid:
            raise GridMismatchError("kernel and initial datum on different grids")
        return grid.cell_volume * grid.rfft(chem.field.values)
    return sum(float(a) * grid.resolvent(float(d))
               for d, a in zip(chem.diffusivities, chem.sensitivities))


def _per_member(values, member: tuple):
    """One value per member, shaped ``member`` to broadcast over stacked
    arrays, or a float when every member has the same value (an array in
    that case too read ``coincidence-1d`` 1.8 % slower, 4 of 5 pairs)."""
    values = np.asarray(values, dtype=float)
    return float(values[0]) if np.all(values == values[0]) else values.reshape(member)


# --- drift and single updates ---------------------------------------------

def drift_velocity_chemo(plan: StepPlan, u_hat: np.ndarray, v_hat: Optional[list] = None) -> list:
    """Drift velocity grad c, one array per grid axis, in all three systems.

    c is W*u or sum_j a_j w_j*u, from ``u_hat`` = rfft(u), or in the relaxed
    system sum_j a_j v_j, from the chemicals ``v_hat``.  Only the real output
    of each component's inverse transform is a new array.
    """
    grid = plan.grid
    if plan.sensitivities:   # relaxed: D_i times rfft(c)
        terms = [a * vh for a, vh in zip(plan.sensitivities, v_hat)]
        symbols, spectrum = grid.derivative_symbols, sum(terms[1:], terms[0])
    else:                    # D_i is in the plan's symbols
        symbols, spectrum = plan.symbols, u_hat
    return [grid.irfft(np.multiply(s, spectrum, out=plan.work), overwrite=True) for s in symbols]


def step_u(plan: StepPlan, u: np.ndarray, velocity: list, dt: float,
           beta_vals: np.ndarray, g_vals: np.ndarray) -> np.ndarray:
    """One conservative explicit update of the density values.

    ``beta_vals`` and ``g_vals`` are beta(u) and g(u), shared by every axis and dt
    halving.  beta(u)/h is taken once and the flux differences, h times the
    divergence, are scaled by dt/h: exact rescales when h is a power of two.
    """
    grid = plan.grid
    beta_h, div = np.multiply(beta_vals, 1.0 / grid.h), None
    for ax, vel in enumerate(velocity):
        # every shift is a fresh copy, so each face quantity is built in place on one
        v_face = grid.shift(vel, ax, 1)
        v_face += vel
        v_face *= 0.5
        # g is pointwise, so upwinding g(u) equals g of the upwinded u
        flux = grid.shift(g_vals, ax, 1)
        np.copyto(flux, g_vals, where=v_face > 0.0)
        flux *= v_face
        diffusive = grid.shift(beta_h, ax, 1)
        flux -= np.subtract(diffusive, beta_h, out=diffusive)
        flux -= grid.shift(flux, ax, -1)
        div = flux if div is None else np.add(div, flux, out=div)
    return np.subtract(u, np.multiply(div, dt / grid.h, out=div), out=div)


def step_v_parabolic(plan: StepPlan, v_hat: list, u_hat: np.ndarray, dt: float) -> list:
    """Backward-Euler step of the relaxed chemicals in real-FFT space:
    (I + lam(-d_j Lap + I)) v_new = v_old + lam u with lam = dt/xi."""
    if not plan.sensitivities:
        raise ValueError("xi must be positive for the relaxed chemical step")
    lam = dt / plan.xi
    source = lam * u_hat
    return [(vh + source) / (1.0 + lam / s) for vh, s in zip(v_hat, plan.symbols)]


def stable_dt(plan: StepPlan, u_max: float, velocity: list, cfl_safety: float) -> float:
    """CFL step for a state whose largest density value is ``u_max``.

    On a stacked plan ``u_max`` is the largest value of any member and the
    velocities hold every member, so the step suits them all.  beta' is
    nondecreasing, so its maximum on [0, top] is beta'(top).
    """
    h, N = plan.grid.h, plan.grid.dim
    top = min(max(u_max, 0.0), 1.0) or 1.0
    # beta' of a one-element array takes the array loops that the 64 samples took
    max_bp = float(plan.model.beta_prime(np.array([top]))[0])
    speeds = [float(np.maximum.reduce(np.abs(v), None)) for v in velocity]
    if not math.isfinite(sum(speeds)):   # the sum keeps a NaN that max() may drop
        finite = np.all([np.isfinite(v).all(axis=plan.grid.axes) for v in velocity], axis=0)
        raise NumericalAbortError(f"non-finite drift velocity in member {np.argmax(~finite)}")
    dt_diff = h * h / (2.0 * N * max_bp + 1e-300)
    dt_adv = h / (2.0 * N * max(speeds) + 1e-300)
    return cfl_safety * min(dt_diff, dt_adv)


# --- the time loop -------------------------------------------------------

def _snapshot_count(t_end: float, every: float) -> int:
    """The number of snapshot times: the multiples of ``every`` short of t_end, and
    t_end.  The ratio is capped first, so a tiny ``every`` costs nothing."""
    k = math.floor(min(t_end / every, _MAX_SNAPSHOTS) + 1e-12)
    return k + 1 + (k * every < t_end - 1e-12 * t_end)


def _snapshot_times(config: RunConfig) -> np.ndarray:
    every, t_end = config.snapshot_every, config.t_end
    return np.append(np.arange(_snapshot_count(t_end, every) - 1) * every, t_end)


def _observe(plan: StepPlan, rows: np.ndarray, pending: list) -> None:
    """Fill ``rows``, one per state (u, beta(u), g(u), *velocity) in ``pending``, stacked to
    (K, S, *grid) arrays (a view when K = 1): sum, min, max, phi sum (phi' = beta, so (gamma+1) phi
    = beta(u) u + eta (gamma-1) u^2/2) and, for the step leaving u, |g(u) grad c|^2 and |grad b|^2
    of b = beta(u) as sum (b[i+2] - b[i])^2 / 4h^2; the end state's (u, beta(u)) fills 0-3 alone."""
    u, beta_u, *drift = [np.concatenate(a).reshape(-1, *a[0].shape) if a[1:] else
                         a[0][np.newaxis] for a in zip(*pending)]
    for col, reduce in enumerate((np.add.reduce, np.minimum.reduce, np.maximum.reduce)):
        reduce(u, plan.grid.axes, out=rows[:, col])
    gamma, eta = plan.model.gamma, plan.model.eta
    flat = [a.reshape(*a.shape[:2], -1) for a in (u, beta_u)]
    rows[:, 3] = np.vecdot(*flat) / (gamma + 1.0)
    if eta * (gamma - 1.0):
        rows[:, 3] += eta * (gamma - 1.0) / (2.0 * (gamma + 1.0)) * np.vecdot(flat[0], flat[0])
    if drift:   # g(u) and the velocity of the step leaving u
        spans = (plan.grid.shift(beta_u, ax, 2) - beta_u for ax in range(plan.grid.dim))
        for col, arrays in ((4, spans), (5, (drift[0] * c for c in drift[1:]))):
            squares = [np.vecdot(f, f) for f in (a.reshape(*a.shape[:2], -1) for a in arrays)]
            rows[:, col] = sum(squares[1:], squares[0])   # no 0 + pass
        rows[:, 4] *= 0.25 / (plan.grid.h * plan.grid.h)


def run(model: ModelFunctions, chem, u0: Field, config: RunConfig):
    """Advance one of the three systems and collect snapshots + diagnostics.

    ``chem`` is either a PeriodizedKernel (nonlocal drift) or a ChemicalSpec
    (parabolic-elliptic for xi = 0, parabolic-parabolic otherwise); relaxed
    chemicals start in equilibrium, w_j * u_0.  Returns (SpaceTimeSeries,
    SolverState); it is the one-member case of :func:`run_ensemble`.
    """
    return run_ensemble(model, [chem], u0, config)[0]


def run_ensemble(model: ModelFunctions, chems: list, u0: Field, config: RunConfig) -> list:
    """Advance several drift layers from one datum in lockstep, as one stacked array.

    Each entry of ``chems`` is one member, given as ``chem`` is to :func:`run`.
    Nonlocal and parabolic-elliptic members mix freely.  Relaxed members may
    differ in xi and the sensitivities but must share their diffusivities, and
    cannot be mixed with the others.  Every member takes the same steps: dt is
    the CFL step for the largest density and the fastest drift of any member,
    and a bound violation in any member halves it for all.  A member that
    turns non-finite, or whose mass drifts (checked on every state once the
    loop ends), aborts the ensemble with its index named.  Returns one
    (SpaceTimeSeries, SolverState) per member.
    """
    if config.grid != u0.grid:
        raise GridMismatchError("run config and initial datum on different grids")
    if float(u0.values.min()) < 0.0 or float(u0.values.max()) > 1.0:
        raise InputValidationError("initial density must satisfy 0 <= u_0 <= 1")
    grid, t_end, cv = u0.grid, config.t_end, u0.grid.cell_volume
    fixed_dt, cfl_safety, beta, g = config.dt, config.cfl_safety, model.beta, model.g
    if fixed_dt is None:   # mass is conserved, so no state's max u is below mean(u0)
        lowest = min(float(u0.values.mean()) * (1.0 - _MASS_TOL), 1.0)
        longest = cfl_safety * grid.h ** 2 / (   # no CFL step is longer: beta' is nondecreasing
            2.0 * grid.dim * float(model.beta_prime(np.array([lowest]))[0]) + 1e-300)
        if t_end > _MAX_STEPS * longest:   # not t_end / longest: longest may underflow to 0
            raise InputValidationError(f"t_end = {t_end:g} needs more than {_MAX_STEPS} "
                                       f"automatic time steps (each at most {longest:.3g})")
    nyquist = math.pi / grid.h   # a fixed dt skips the budget; |k|^2 bounds 1/h^2 too
    if not math.isfinite(grid.dim * nyquist * nyquist):
        raise InputValidationError(f"half_length = {grid.half_length:g} is too small: "
                                   f"|k|^2 overflows on cells of width {grid.h:.3g}")
    plan = StepPlan.build(model, list(chems), grid)
    axes, members, relaxed = grid.axes, len(chems), bool(plan.sensitivities)
    u = np.repeat(u0.values[np.newaxis], members, axis=0)
    v_hat = velocity = None
    if relaxed:   # the chemicals start in equilibrium, w_j * u_0
        u_hat = grid.rfft(u, out=plan.u_hat)
        v_hat = [s * u_hat for s in plan.symbols]
        velocity = drift_velocity_chemo(plan, u_hat, v_hat)

    t, u_max = 0.0, float(u.max())   # u_max: the largest value of the current states
    # per state its time, the dt that reached it and a row of diagnostics (see _observe)
    times, dts = [t], [0.0]
    pending, block = [], max(1, _BLOCK_ELEMENTS // u.size)
    record = np.empty((1024, 6, members))   # the rows, grown by doubling
    snap_times, floor = _snapshot_times(config).tolist(), _MIN_DT_FRACTION * t_end
    snapshots = [u.copy()]
    while t < t_end:
        if len(times) > _MAX_STEPS:   # one row per step taken, plus t = 0
            raise NumericalAbortError("step budget exhausted")
        if len(times) == len(record):
            record = np.concatenate((record, np.empty_like(record)))
        u_hat = grid.rfft(u, out=plan.u_hat)
        if not relaxed:   # the chemical layer (if any) is slaved to u
            velocity = drift_velocity_chemo(plan, u_hat)
        dt = fixed_dt or stable_dt(plan, u_max, velocity, cfl_safety)   # dt > 0 if set
        if dt < floor:
            raise NumericalAbortError(f"time step collapsed to {dt:.3g} at t={t:.6g}")
        # a leftover below the collapse floor is taken now; the last step ends at t_end
        remainder = t_end - t
        if dt >= remainder - floor:
            dt = remainder
        beta_u, g_u = beta(u), g(u)
        for _ in range(_MAX_DT_HALVINGS):
            v_hat_new, vel_new = v_hat, velocity
            if relaxed:
                v_hat_new = step_v_parabolic(plan, v_hat, u_hat, dt)
                vel_new = drift_velocity_chemo(plan, u_hat, v_hat_new)
            u_new = step_u(plan, u, vel_new, dt, beta_u, g_u)
            lo = float(np.minimum.reduce(u_new, None))   # both keep a NaN, which fails
            u_max = float(np.maximum.reduce(u_new, None))   # both bounds
            if lo >= -_BOUND_SLACK and u_max <= 1.0 + _BOUND_SLACK:
                break
            finite = np.isfinite(u_new).all(axis=axes)
            if not finite.all():
                raise NumericalAbortError(
                    f"non-finite density in member {np.argmax(~finite)} at t={t:.6g}")
            dt *= 0.5
        else:
            raise NumericalAbortError(
                f"step at t={t:.6g} rejected after {_MAX_DT_HALVINGS} dt halvings")
        if t + dt == t:
            raise NumericalAbortError(f"time stalled at t={t:.6g} with step {dt:.3g}")

        prev_t, prev_u = t, u
        t = t_end if dt == remainder else t + dt
        times.append(t)
        dts.append(dt)
        pending.append((u, beta_u, g_u, *vel_new))   # none of these is written again
        if len(pending) == block and t < t_end:   # the last step's block is observed below
            _observe(plan, record[len(times) - 1 - block:len(times) - 1], pending)
            pending = []
        u, v_hat, velocity = u_new, v_hat_new, vel_new

        # emit snapshots crossed by this step (linear interpolation in time)
        while len(snapshots) < len(snap_times) and snap_times[len(snapshots)] <= t + 1e-14:
            theta = min((snap_times[len(snapshots)] - prev_t) / (t - prev_t), 1.0)
            snapshots.append((1 - theta) * prev_u + theta * u)
    _observe(plan, record[len(times) - 1 - len(pending):len(times) - 1], pending)
    _observe(plan, record[len(times) - 1:len(times)], [(u, beta(u))])

    times = np.array(times)
    # state k and the step dt_{k+1} that leaves it go into accumulator row k + 1
    record[1:len(times), 4:], record[0, 4:] = record[:len(times) - 1, 4:], 0.0
    sums, lows, highs, phis, grad_sq, drift_sq = record[:len(times)].transpose(1, 0, 2)
    mass, weights = sums * cv, (np.array(dts) * cv)[:, np.newaxis]
    lost = np.abs(mass - mass[0]) > _MASS_TOL * np.maximum(np.abs(mass[0]), 1.0)
    if lost.any():
        k, member = np.argwhere(lost)[0]
        raise NumericalAbortError(
            f"mass conservation lost in member {member} at t={times[k]:.6g}")
    columns = (mass, lows, highs, phis * cv, np.cumsum(grad_sq * weights, axis=0),
               np.cumsum(drift_sq * weights, axis=0))
    return [(SpaceTimeSeries(grid, list(snap_times), [Field(grid, a[m]) for a in snapshots]),
             SolverState(time=t, u=Field(grid, u[m]),
                         diagnostics=Diagnostics(times.copy(), *(c[:, m] for c in columns))))
            for m in range(members)]
