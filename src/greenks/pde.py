"""Finite-volume solvers for the nonlocal and Keller-Segel-type systems.

One explicit conservative update advances the density: upwinded advective
fluxes with the saturation factor evaluated at the upwind cell, and a
centered two-point flux for the nonlinear diffusion.  Chemical fields are
either in instantaneous equilibrium (spectral elliptic solve each step) or
relaxed with a backward-Euler spectral step, unconditionally stable in the
relaxation parameter.  ``run`` builds a :class:`StepPlan` once, then steps
on plain arrays; ``Field`` objects are made for snapshots and the end state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
from numpy import fft

# elliptic_solve, gradient, inner_l2, norm_l1 and periodic_convolve are unused
# here but stay importable from this module: perfbench/tracer.py wraps names of
# greenks.pde by attribute.
from .domain import (Field, Grid, GridMismatchError, SpaceTimeSeries, gradient,
                     inner_l2, norm_l1, periodic_convolve)
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
    times: list = dc_field(default_factory=list)
    mass: list = dc_field(default_factory=list)
    min_u: list = dc_field(default_factory=list)
    max_u: list = dc_field(default_factory=list)
    phi: list = dc_field(default_factory=list)
    grad_beta_accum: list = dc_field(default_factory=list)
    drift_accum: list = dc_field(default_factory=list)

    def append(self, *row):
        """Add one row, values in column order."""
        for column, value in zip(vars(self).values(), row):
            column.append(value)

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

    ``symbols`` are real-FFT multipliers: h^N rfft(W) (nonlocal), the combined
    sum_j a_j / (1 + d_j|k|^2) (parabolic-elliptic), or one 1 / (1 + d_j|k|^2)
    per chemical (parabolic-parabolic, whose chemicals stay in Fourier space).
    """

    grid: Grid
    model: ModelFunctions
    symbols: list
    sensitivities: list    # a_j of the relaxed chemicals, empty otherwise
    xi: float              # relaxation time, 0 unless relaxed
    ahead: np.ndarray      # index i + 1 (mod n) along one axis
    behind: np.ndarray     # index i - 1 (mod n)

    @classmethod
    def build(cls, model: ModelFunctions, chem, grid: Grid) -> "StepPlan":
        """``chem`` is a PeriodizedKernel or a ChemicalSpec, as for :func:`run`."""
        sensitivities, xi = [], 0.0
        if isinstance(chem, PeriodizedKernel):
            if chem.field.grid != grid:
                raise GridMismatchError("kernel and initial datum on different grids")
            symbols = [grid.cell_volume * fft.rfftn(chem.field.values)]
        else:
            half = (Ellipsis, slice(0, grid.n // 2 + 1))   # rfft half of the lattice
            symbols = [_multiplier(float(d), grid)[half] for d in chem.diffusivities]
            if chem.xi > 0:
                sensitivities, xi = [float(a) for a in chem.sensitivities], float(chem.xi)
            else:
                symbols = [sum(float(a) * s for a, s in zip(chem.sensitivities, symbols))]
        idx = np.arange(grid.n)
        return cls(grid, model, symbols, sensitivities, xi, np.roll(idx, -1), np.roll(idx, 1))

    @property
    def relaxed(self) -> bool:
        return self.xi > 0.0

    # in 1D the plain transforms skip the n-dimensional wrappers' overhead
    def rfft(self, a: np.ndarray) -> np.ndarray:
        return fft.rfft(a) if self.grid.dim == 1 else fft.rfftn(a)

    def irfft(self, a_hat: np.ndarray) -> np.ndarray:
        if self.grid.dim == 1:
            return fft.irfft(a_hat, self.grid.n)
        return fft.irfftn(a_hat, self.grid.shape, tuple(range(self.grid.dim)))

    def shift(self, a: np.ndarray, ax: int, step: int) -> np.ndarray:
        """a[i + step] along axis ``ax`` with periodic wrap, step = 1 or -1."""
        if ax == 0:   # a gather is the cheapest copy along the leading axis only
            return a.take(self.ahead if step == 1 else self.behind, axis=0)
        k, lead = step % self.grid.n, (slice(None),) * ax
        return np.concatenate((a[lead + (slice(k, None),)], a[lead + (slice(0, k),)]), axis=ax)

    def gradient(self, a: np.ndarray) -> list:
        """Centered second-order periodic differences, one array per axis."""
        two_h = 2.0 * self.grid.h
        return [(self.shift(a, ax, 1) - self.shift(a, ax, -1)) / two_h for ax in range(a.ndim)]


# --- drift and single updates ---------------------------------------------

def drift_velocity_chemo(plan: StepPlan, u_hat: np.ndarray, v_hat: Optional[list] = None) -> list:
    """Drift velocity grad c, one array per axis, in all three systems.

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

    ``beta_vals`` and ``g_vals`` are beta_eff(u) and g(u), which ``run``
    evaluates once per state and shares with every axis and dt halving.
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
    """CFL step for a state whose largest density value is ``u_max``."""
    h, N = plan.grid.h, plan.grid.dim
    top = min(max(u_max, 0.0), 1.0) or 1.0
    max_bp = float(plan.model.beta_prime_eff(top * _UNIT_SPAN).max())
    speeds = [float(np.abs(v).max()) for v in velocity]
    if not math.isfinite(sum(speeds)):   # the sum keeps a NaN that max() may drop
        raise NumericalAbortError("non-finite drift velocity")
    dt_diff = h * h / (2.0 * N * max_bp + 1e-300)
    dt_adv = h / (2.0 * N * max(speeds) + 1e-300)
    return cfl_safety * min(dt_diff, dt_adv)


# --- the time loop -------------------------------------------------------

def _snapshot_times(config: RunConfig) -> np.ndarray:
    every, t_end = config.snapshot_every, config.t_end
    k = int(math.floor(t_end / every + 1e-12))
    return np.array([i * every for i in range(k + 1) if i * every < t_end - 1e-12 * t_end]
                    + [t_end])


def run(model: ModelFunctions, chem, u0: Field, config: RunConfig,
        v0: Optional[list] = None):
    """Advance one of the three systems and collect snapshots + diagnostics.

    ``chem`` is either a PeriodizedKernel (nonlocal drift) or a ChemicalSpec
    (parabolic-elliptic for xi = 0, parabolic-parabolic otherwise).  ``v0``
    sets the relaxed chemicals at t = 0 (default: equilibrium w_j * u_0).
    Returns (SpaceTimeSeries, SolverState).
    """
    if float(u0.values.min()) < 0.0 or float(u0.values.max()) > 1.0:
        raise InputValidationError("initial density must satisfy 0 <= u_0 <= 1")
    grid, t_end, cv = u0.grid, config.t_end, u0.grid.cell_volume
    plan = StepPlan.build(model, chem, grid)
    u = u0.values.copy()
    v_hat = velocity = None
    if plan.relaxed:
        if v0 is not None and (len(v0) != len(plan.symbols) or any(f.grid != grid for f in v0)):
            raise GridMismatchError("v0 needs one field per chemical, on the grid of u0")
        u_hat = plan.rfft(u)
        v_hat = ([s * u_hat for s in plan.symbols] if v0 is None
                 else [plan.rfft(f.values) for f in v0])
        velocity = drift_velocity_chemo(plan, u_hat, v_hat)

    t = grad_beta_accum = drift_accum = 0.0
    mass0, hi = float(u.sum()) * cv, float(u.max())   # hi: max of the current state
    diag = Diagnostics()
    diag.append(t, mass0, float(u.min()), hi, float(model.phi_eff(u).sum()) * cv, 0.0, 0.0)
    snap_times = _snapshot_times(config)
    snapshots = [Field(grid, u.copy())]
    next_snap = 1
    while t < t_end - 1e-14 * t_end:
        if len(diag.times) > _MAX_STEPS:   # one row per step taken, plus t = 0
            raise NumericalAbortError("step budget exhausted")
        u_hat = plan.rfft(u)
        if not plan.relaxed:   # the chemical layer (if any) is slaved to u
            velocity = drift_velocity_chemo(plan, u_hat)
        dt = config.dt or stable_dt(plan, hi, velocity, config.cfl_safety)   # dt > 0 if set
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
            lo, hi = float(u_new.min()), float(u_new.max())
            if lo >= -_BOUND_SLACK and hi <= 1.0 + _BOUND_SLACK:
                break
            if not (math.isfinite(lo) and math.isfinite(hi)):   # NaN fails both bounds
                raise NumericalAbortError(f"non-finite density at t={t:.6g}")
            dt *= 0.5
        else:
            raise NumericalAbortError(
                f"step at t={t:.6g} rejected after {_MAX_DT_HALVINGS} dt halvings")
        if t + dt == t:
            raise NumericalAbortError(f"time stalled at t={t:.6g} with step {dt:.3g}")

        # energy bookkeeping on the pre-step state
        grad_beta_accum += sum(float(np.vdot(c, c)) * cv for c in plan.gradient(beta_u)) * dt
        drift_accum += sum(float(np.vdot(w, w)) * cv for w in (g_u * c for c in vel_new)) * dt

        prev_t, prev_u = t, u
        t += dt
        u, v_hat, velocity = u_new, v_hat_new, vel_new
        mass = float(u.sum()) * cv
        if abs(mass - mass0) > _MASS_TOL * max(abs(mass0), 1.0):
            raise NumericalAbortError("mass conservation lost")
        diag.append(t, mass, lo, hi, float(model.phi_eff(u).sum()) * cv,
                    grad_beta_accum, drift_accum)

        # emit snapshots crossed by this step (linear interpolation in time)
        while next_snap < len(snap_times) and snap_times[next_snap] <= t + 1e-14:
            theta = min((snap_times[next_snap] - prev_t) / (t - prev_t), 1.0)
            snapshots.append(Field(grid, (1 - theta) * prev_u + theta * u))
            next_snap += 1

    snapshots += [Field(grid, u.copy()) for _ in snap_times[next_snap:]]
    return (SpaceTimeSeries(grid=grid, times=snap_times.tolist(), snapshots=snapshots),
            SolverState(time=t, u=Field(grid, u), diagnostics=diag))

