"""Finite-volume solvers for the nonlocal and Keller-Segel-type systems.

One explicit conservative update advances the density: upwinded advective
fluxes with the saturation factor evaluated at the upwind cell, and a
centered two-point flux for the nonlinear diffusion.  Chemical fields are
either in instantaneous equilibrium (spectral elliptic solve each step) or
relaxed with a backward-Euler spectral step, unconditionally stable in the
relaxation parameter.  ``run_ensemble`` advances several drift layers from
one datum in lockstep, as one array with a leading member axis; ``run`` is
its one-member case.  It builds a :class:`StepPlan` once, then steps on plain
arrays; ``Field`` objects are made for snapshots and the end states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy import fft

# elliptic_solve, gradient, inner_l2 and periodic_convolve are unused here but
# stay importable from this module: perfbench/tracer.py wraps names of
# greenks.pde by attribute.
from .domain import (Field, Grid, GridMismatchError, SpaceTimeSeries, gradient,
                     inner_l2, periodic_convolve)
from .greens import _multiplier, elliptic_solve
from .kernel import PeriodizedKernel

_BOUND_SLACK = 1e-6        # allowed excursion outside [0, 1]
_MASS_TOL = 1e-10          # relative mass drift treated as a solver failure
_MAX_DT_HALVINGS = 20
_MIN_DT_FRACTION = 1e-10   # a step below this fraction of t_end is a stall
_MAX_STEPS = 50_000_000
_UNIT_SPAN = np.linspace(0.0, 1.0, 64)   # stable_dt samples beta' at max(u) * these


class InputValidationError(ValueError):
    """Initial data or configuration violates the model assumptions."""


class NumericalAbortError(RuntimeError):
    """The time loop could not continue (rejected steps, non-finite values, a stall)."""


@dataclass
class ModelFunctions:
    """Nonlinearities of the density equation.

    ``beta`` must be strictly increasing with beta(0) = 0 (degenerate slope
    at 0 is fine); ``g`` vanishes outside [0, 1] and is bounded by L_g * s
    there.  ``eta`` adds the linear regularization eta*s to beta.
    """

    beta: Callable[[np.ndarray], np.ndarray]
    beta_prime: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]   # antiderivative of beta
    g: Callable[[np.ndarray], np.ndarray]
    L_g: float = 1.0
    eta: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")
        s = np.linspace(0.0, 1.0, 1001)
        b = np.asarray(self.beta(s), dtype=float)
        if abs(b[0]) > 1e-14:
            raise ValueError("beta(0) must be 0")
        if np.any(np.diff(b) <= 0):
            raise ValueError("beta must be strictly increasing on [0, 1]")
        bp = np.asarray(self.beta_prime(s[1:]), dtype=float)
        if np.any(bp <= 0):
            raise ValueError("beta' must be positive on (0, 1]")
        gs = np.asarray(self.g(s), dtype=float) * np.ones_like(s)
        if abs(gs[-1]) > 1e-14 or np.any(np.abs(gs[1:]) > self.L_g * s[1:] * (1 + 1e-12)):
            raise ValueError("g must vanish at 1 and satisfy |g(s)| <= L_g s")
        for probe in (-0.5, 1.5):
            if abs(float(np.asarray(self.g(np.array([probe])), dtype=float)[0])) > 1e-14:
                raise ValueError("g must vanish outside [0, 1]")

    def beta_eff(self, u: np.ndarray) -> np.ndarray:
        b = np.asarray(self.beta(u), dtype=float)
        return b + self.eta * u if self.eta else b

    def beta_prime_eff(self, u: np.ndarray) -> np.ndarray:
        bp = np.asarray(self.beta_prime(u), dtype=float)
        return bp + self.eta if self.eta else bp

    def phi_eff(self, u: np.ndarray) -> np.ndarray:
        p = np.asarray(self.phi(u), dtype=float)
        return p + 0.5 * self.eta * u * u if self.eta else p


def porous_medium_model(gamma: float, eta: float = 0.0) -> ModelFunctions:
    """beta(u) = u^gamma with the volume-filling g(u) = u(1-u)."""
    if not gamma >= 1:
        raise ValueError("gamma must be >= 1")
    if gamma == 1:
        return linear_model(eta=eta)
    return ModelFunctions(
        beta=lambda u: np.abs(u) ** gamma * np.sign(u),
        beta_prime=lambda u: gamma * np.abs(u) ** (gamma - 1.0),
        # |u|^gamma |u|, not |u|^(gamma+1): at the shipped gamma = 2 numpy squares
        # without its general pow; any other gamma pays one more multiply
        phi=lambda u: np.abs(u) ** gamma * np.abs(u) / (gamma + 1.0),
        g=volume_filling_g, eta=eta, name=f"power(gamma={gamma})")


def linear_model(eta: float = 0.0) -> ModelFunctions:
    return ModelFunctions(
        beta=lambda u: np.asarray(u, dtype=float),
        beta_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        phi=lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
        g=volume_filling_g, eta=eta, name="linear")


def volume_filling_g(s: np.ndarray) -> np.ndarray:
    # s(1 - s) is positive exactly on (0, 1)
    s = np.asarray(s, dtype=float)
    return np.maximum(s * (1.0 - s), 0.0)


def linear_saturating_g(s: np.ndarray) -> np.ndarray:
    """g(s) = s on [0, 1), 0 outside; keeps |g| <= s but not u <= 1 structurally."""
    s = np.asarray(s, dtype=float)
    return np.where((s > 0.0) & (s < 1.0), s, 0.0)


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
        if not (0 < self.snapshot_every <= self.t_end):
            raise ValueError("snapshot_every must lie in (0, t_end]")
        if not (0 < self.cfl_safety < 1):
            raise ValueError("cfl_safety must lie in (0, 1)")


@dataclass
class Diagnostics:
    """One value per state of a run in each column, t = 0 first."""

    times: np.ndarray
    mass: np.ndarray
    min_u: np.ndarray
    max_u: np.ndarray
    phi: np.ndarray
    grad_beta_accum: np.ndarray
    drift_accum: np.ndarray

    def to_csv(self) -> str:
        rows = map(("{:.17g}," * 6 + "{:.17g}").format, *vars(self).values())
        return "\n".join(["time,mass,min_u,max_u,phi,grad_beta_accum,drift_accum", *rows]) + "\n"


@dataclass
class SolverState:
    time: float
    u: Field
    diagnostics: Diagnostics


# --- the plan -------------------------------------------------------------

@dataclass
class StepPlan:
    """What every step of a run reuses, built once per run by :meth:`build`.

    A plan holds S members stacked on a leading axis (S = 1 for :func:`run`).
    Every array operation below acts on the trailing ``grid.dim`` axes, so a
    stacked ``(S, *grid.shape)`` array and a single ``grid.shape`` one take
    the same path.  ``symbols`` are real-FFT multipliers: either one
    ``(S, nk...)`` stack of per-member symbols, h^N rfft(W) (nonlocal) or the
    combined sum_j a_j / (1 + d_j|k|^2) (parabolic-elliptic), or one
    1 / (1 + d_j|k|^2) per chemical, shared by the members (parabolic-parabolic,
    whose chemicals stay in Fourier space).
    """

    grid: Grid
    model: ModelFunctions
    symbols: list
    sensitivities: list    # a_j of the relaxed chemicals (see _per_member); empty otherwise
    xi: object             # relaxation time (see _per_member); 0 unless relaxed
    ahead: np.ndarray      # index i + 1 (mod n) along one axis
    behind: np.ndarray     # index i - 1 (mod n)
    axes: tuple            # the grid axes of an array: its trailing grid.dim

    @classmethod
    def build(cls, model: ModelFunctions, chem, grid: Grid) -> "StepPlan":
        """``chem`` is a PeriodizedKernel or a ChemicalSpec, as for :func:`run`,
        or a list of them, one per member, as for :func:`run_ensemble`."""
        chems = chem if isinstance(chem, list) else [chem]
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
            symbols = [_half_multiplier(dj, grid) for dj in d]
            sensitivities = [_per_member(a, member) for a in
                             np.array([c.sensitivities for c in chems], dtype=float).T]
            xi = _per_member([c.xi for c in chems], member)
        else:
            symbols, sensitivities, xi = [np.stack([_symbol(c, grid) for c in chems])], [], 0.0
        idx = np.arange(grid.n)
        return cls(grid, model, symbols, sensitivities, xi, np.roll(idx, -1), np.roll(idx, 1),
                   tuple(range(-grid.dim, 0)))

    @property
    def relaxed(self) -> bool:
        return bool(self.sensitivities)

    # the transforms over the grid axes, one axis at a time in the order of
    # rfftn and irfftn, whose n-dimensional wrappers cost more than the axes
    def rfft(self, a: np.ndarray) -> np.ndarray:
        a_hat = fft.rfft(a)
        for ax in self.axes[-2::-1]:
            a_hat = fft.fft(a_hat, axis=ax)
        return a_hat

    def irfft(self, a_hat: np.ndarray) -> np.ndarray:
        for ax in self.axes[:-1]:
            a_hat = fft.ifft(a_hat, axis=ax)
        return fft.irfft(a_hat, self.grid.n)

    def shift(self, a: np.ndarray, ax: int, step: int) -> np.ndarray:
        """a[i + step] along grid axis ``ax`` with periodic wrap, step = 1 or -1."""
        axis = ax - self.grid.dim   # counted from the end
        if ax == 0:   # a gather is the cheapest copy along the first grid axis only
            return a.take(self.ahead if step == 1 else self.behind, axis=axis)
        k, tail = step % self.grid.n, (slice(None),) * (-1 - axis)
        return np.concatenate((a[(Ellipsis, slice(k, None)) + tail],
                               a[(Ellipsis, slice(0, k)) + tail]), axis=axis)

    def gradient(self, a: np.ndarray) -> list:
        """Centered second-order periodic differences, one array per grid axis."""
        two_h = 2.0 * self.grid.h
        return [(self.shift(a, ax, 1) - self.shift(a, ax, -1)) / two_h
                for ax in range(self.grid.dim)]


def _symbol(chem, grid: Grid) -> np.ndarray:
    """The rfft multiplier of one nonlocal or parabolic-elliptic drift layer."""
    if isinstance(chem, PeriodizedKernel):
        if chem.field.grid != grid:
            raise GridMismatchError("kernel and initial datum on different grids")
        return grid.cell_volume * fft.rfftn(chem.field.values)
    return sum(float(a) * _half_multiplier(float(d), grid)
               for d, a in zip(chem.diffusivities, chem.sensitivities))


def _per_member(values, member: tuple):
    """One value per member, shaped ``member`` to broadcast over stacked
    arrays, or a float when every member has the same value."""
    values = np.asarray(values, dtype=float)
    return float(values[0]) if np.all(values == values[0]) else values.reshape(member)


def _half_multiplier(d: float, grid: Grid) -> np.ndarray:
    """1 / (1 + d|k|^2) on the rfft half of the lattice."""
    return _multiplier(d, grid)[..., :grid.n // 2 + 1]


# --- drift and single updates ---------------------------------------------

def drift_velocity_chemo(plan: StepPlan, u_hat: np.ndarray, v_hat: Optional[list] = None) -> list:
    """Drift velocity grad c, one array per grid axis, in all three systems.

    c is W*u or sum_j a_j w_j*u, from ``u_hat`` = rfft(u), or in the relaxed
    system sum_j a_j v_j, from the chemicals ``v_hat``.
    """
    if plan.relaxed:
        c_hat = sum(a * vh for a, vh in zip(plan.sensitivities, v_hat))
    else:
        c_hat = plan.symbols[0] * u_hat
    return plan.gradient(plan.irfft(c_hat))


def step_u(plan: StepPlan, u: np.ndarray, velocity: list, dt: float,
           beta_vals: np.ndarray, g_vals: np.ndarray) -> np.ndarray:
    """One conservative explicit update of the density values.

    ``beta_vals`` and ``g_vals`` are beta_eff(u) and g(u), which
    ``run_ensemble`` evaluates once per state and shares with every axis and
    dt halving.
    """
    h = plan.grid.h
    div = None
    for ax, vel in enumerate(velocity):
        # every shift is a fresh copy, so each face quantity is built in place on one
        v_face = plan.shift(vel, ax, 1)
        v_face += vel
        v_face *= 0.5
        # g is pointwise, so upwinding g(u) equals g of the upwinded u
        flux = plan.shift(g_vals, ax, 1)
        np.copyto(flux, g_vals, where=v_face > 0.0)
        flux *= v_face
        diffusive = plan.shift(beta_vals, ax, 1)
        flux -= np.divide(np.subtract(diffusive, beta_vals, out=diffusive), h, out=diffusive)
        term = plan.shift(flux, ax, -1)
        np.divide(np.subtract(flux, term, out=term), h, out=term)
        div = term if div is None else np.add(div, term, out=div)
    return np.subtract(u, np.multiply(div, dt, out=div), out=div)


def step_v_parabolic(plan: StepPlan, v_hat: list, u_hat: np.ndarray, dt: float) -> list:
    """Backward-Euler step of the relaxed chemicals in real-FFT space:
    (I + lam(-d_j Lap + I)) v_new = v_old + lam u with lam = dt/xi."""
    if not plan.relaxed:
        raise ValueError("xi must be positive for the relaxed chemical step")
    lam = dt / plan.xi
    source = lam * u_hat
    return [(vh + source) / (1.0 + lam / s) for vh, s in zip(v_hat, plan.symbols)]


def stable_dt(plan: StepPlan, u_max: float, velocity: list, cfl_safety: float) -> float:
    """CFL step for a state whose largest density value is ``u_max``.

    On a stacked plan ``u_max`` is the largest value of any member and the
    velocities hold every member, so the step suits them all.
    """
    h, N = plan.grid.h, plan.grid.dim
    top = min(max(u_max, 0.0), 1.0) or 1.0
    max_bp = float(plan.model.beta_prime_eff(top * _UNIT_SPAN).max())
    speeds = [float(np.abs(v).max()) for v in velocity]
    if not math.isfinite(sum(speeds)):   # the sum keeps a NaN that max() may drop
        finite = np.all([np.isfinite(v).all(axis=plan.axes) for v in velocity], axis=0)
        raise NumericalAbortError(f"non-finite drift velocity in member {np.argmax(~finite)}")
    dt_diff = h * h / (2.0 * N * max_bp + 1e-300)
    dt_adv = h / (2.0 * N * max(speeds) + 1e-300)
    return cfl_safety * min(dt_diff, dt_adv)


# --- the time loop -------------------------------------------------------

def _snapshot_times(config: RunConfig) -> np.ndarray:
    every, t_end = config.snapshot_every, config.t_end
    k = int(math.floor(t_end / every + 1e-12))
    return np.array([i * every for i in range(k + 1) if i * every < t_end - 1e-12 * t_end]
                    + [t_end])


def _sum_squares(arrays: list) -> np.ndarray:
    """Per member, the sum of squares over the grid axes of stacked arrays, all added."""
    total = None
    for a in arrays:
        flat = a.reshape(len(a), -1)
        square = np.vecdot(flat, flat)
        total = square if total is None else total + square
    return total


def run(model: ModelFunctions, chem, u0: Field, config: RunConfig,
        v0: Optional[list] = None):
    """Advance one of the three systems and collect snapshots + diagnostics.

    ``chem`` is either a PeriodizedKernel (nonlocal drift) or a ChemicalSpec
    (parabolic-elliptic for xi = 0, parabolic-parabolic otherwise).  ``v0``
    sets the relaxed chemicals at t = 0 (default: equilibrium w_j * u_0).
    Returns (SpaceTimeSeries, SolverState); it is the one-member case of
    :func:`run_ensemble`.
    """
    return run_ensemble(model, [chem], u0, config, v0)[0]


def run_ensemble(model: ModelFunctions, chems: list, u0: Field, config: RunConfig,
                 v0: Optional[list] = None) -> list:
    """Advance several drift layers from one datum in lockstep, as one stacked array.

    Each entry of ``chems`` is one member, given as ``chem`` is to :func:`run`.
    Nonlocal and parabolic-elliptic members mix freely.  Relaxed members may
    differ in xi and the sensitivities but must share their diffusivities, and
    cannot be mixed with the others.  Every member takes the same steps: dt is
    the CFL step for the largest density and the fastest drift of any member,
    and a bound violation in any member halves it for all.  A member that
    turns non-finite, or whose mass drifts (checked on every state once the
    loop ends), aborts the ensemble with its index named.  ``v0`` sets the
    relaxed chemicals of every member at t = 0.  Returns one
    (SpaceTimeSeries, SolverState) per member.
    """
    if float(u0.values.min()) < 0.0 or float(u0.values.max()) > 1.0:
        raise InputValidationError("initial density must satisfy 0 <= u_0 <= 1")
    grid, t_end, cv = u0.grid, config.t_end, u0.grid.cell_volume
    plan = StepPlan.build(model, list(chems), grid)
    axes, members = plan.axes, len(chems)
    u = np.repeat(u0.values[np.newaxis], members, axis=0)
    v_hat = velocity = None
    if plan.relaxed:
        if v0 is not None and (len(v0) != len(plan.symbols) or any(f.grid != grid for f in v0)):
            raise GridMismatchError("v0 needs one field per chemical, on the grid of u0")
        u_hat = plan.rfft(u)
        v_hat = ([s * u_hat for s in plan.symbols] if v0 is None
                 else [plan.rfft(f.values) for f in v0])
        velocity = drift_velocity_chemo(plan, u_hat, v_hat)

    t, u_max = 0.0, float(u.max())   # u_max: the largest value of the current states
    # per state, its time, the step that reached it and a row of one value per
    # member each of sum(u), min(u), max(u), sum(phi(u)) and, on the state
    # before the step, the squared norms of grad beta(u) and of the drift g(u) grad c
    times, dts = [t], [0.0]
    record = np.zeros((1024, 6, members))   # the rows, grown by doubling
    record[0, :4] = (u.sum(axis=axes), u.min(axis=axes), u.max(axis=axes),
                     model.phi_eff(u).sum(axis=axes))
    snap_times = _snapshot_times(config).tolist()
    snapshots = [u.copy()]
    while t < t_end - 1e-14 * t_end:
        if len(times) > _MAX_STEPS:   # one row per step taken, plus t = 0
            raise NumericalAbortError("step budget exhausted")
        if len(times) == len(record):
            record = np.concatenate((record, np.empty_like(record)))
        row = record[len(times)]
        u_hat = plan.rfft(u)
        if not plan.relaxed:   # the chemical layer (if any) is slaved to u
            velocity = drift_velocity_chemo(plan, u_hat)
        dt = config.dt or stable_dt(plan, u_max, velocity, config.cfl_safety)   # dt > 0 if set
        if dt < _MIN_DT_FRACTION * t_end:
            raise NumericalAbortError(f"time step collapsed to {dt:.3g} at t={t:.6g}")
        dt = min(dt, t_end - t)
        beta_u, g_u = model.beta_eff(u), model.g(u)
        for _ in range(_MAX_DT_HALVINGS):
            v_hat_new, vel_new = v_hat, velocity
            if plan.relaxed:
                v_hat_new = step_v_parabolic(plan, v_hat, u_hat, dt)
                vel_new = drift_velocity_chemo(plan, u_hat, v_hat_new)
            u_new = step_u(plan, u, vel_new, dt, beta_u, g_u)
            lo = np.minimum.reduce(u_new, axes, out=row[1])
            hi = np.maximum.reduce(u_new, axes, out=row[2])
            u_max = float(hi.max())
            # a member with a NaN has it in lo and hi, and hi.max() keeps it
            if min(lo.tolist()) >= -_BOUND_SLACK and u_max <= 1.0 + _BOUND_SLACK:
                break
            finite = np.isfinite(lo) & np.isfinite(hi)   # NaN fails both bounds
            if not finite.all():
                raise NumericalAbortError(
                    f"non-finite density in member {np.argmax(~finite)} at t={t:.6g}")
            dt *= 0.5
        else:
            raise NumericalAbortError(
                f"step at t={t:.6g} rejected after {_MAX_DT_HALVINGS} dt halvings")
        if t + dt == t:
            raise NumericalAbortError(f"time stalled at t={t:.6g} with step {dt:.3g}")

        np.add.reduce(u_new, axes, out=row[0])
        np.add.reduce(model.phi_eff(u_new), axes, out=row[3])
        row[4] = _sum_squares(plan.gradient(beta_u))
        row[5] = _sum_squares([g_u * c for c in vel_new])
        prev_t, prev_u = t, u
        t += dt
        times.append(t)
        dts.append(dt)
        u, v_hat, velocity = u_new, v_hat_new, vel_new

        # emit snapshots crossed by this step (linear interpolation in time)
        while len(snapshots) < len(snap_times) and snap_times[len(snapshots)] <= t + 1e-14:
            theta = min((snap_times[len(snapshots)] - prev_t) / (t - prev_t), 1.0)
            snapshots.append((1 - theta) * prev_u + theta * u)
    snapshots += [u.copy() for _ in snap_times[len(snapshots):]]

    times = np.array(times)
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
