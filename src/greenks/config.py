"""Key-value run configuration files.

Format: one ``key = value`` pair per line, ``#`` comments, lists as
comma-separated values.  ``_DEFAULTS`` holds every key with its default and
``_CHOICES`` the values of the enumerated keys; the README's key table
documents both.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .domain import Field, Grid
from .kernel import (PeriodizedKernel, adhesion_potential, gaussian_kernel,
                     greens_free_space, periodize)
from .pde import (ChemicalSpec, InputValidationError, ModelFunctions, RunConfig,
                  linear_saturating_g, volume_filling_g)

_DEFAULTS = {
    "grid.dim": "1",
    "grid.half_length": "1.0",
    "grid.n": "128",
    "model.beta": "power",
    "model.gamma": "2.0",
    "model.eta": "0.0",
    "model.g": "volume_filling",
    "chem.xi": "0.0",
    "chem.d": "1.0",
    "chem.a": "1.0",
    "kernel.type": "none",
    "kernel.d": "1.0",
    "kernel.omega": "const",
    "kernel.sigma": "0.3",
    "kernel.scale": "1.0",
    "init.type": "bump",
    "init.amplitude": "0.8",
    "init.width": "0.4",
    "init.center": "0.0",
    "init.background": "0.0",
    "run.t_end": "0.25",
    "run.dt": "auto",
    "run.snapshot_every": "auto",
    "run.cfl_safety": "0.4",
    "study.xi": "1e-1, 1e-2, 1e-3, 1e-4",
    "study.M": "1, 2, 4, 8, 16",
    "study.d_star": "1.0",
    "study.regularization": "0.0",
    "seed": "0",
}


# the force profiles omega(r) of kernel.type = adhesion, by kernel.omega
_OMEGA = {
    "const": lambda r: np.ones_like(np.asarray(r, dtype=float)),
    "hump": lambda r: np.asarray(r, dtype=float) * (1.0 - np.asarray(r, dtype=float)),
}

# the values each enumerated key accepts
_CHOICES = {
    "model.beta": ("power", "linear"),
    "model.g": ("volume_filling", "linear"),
    "kernel.type": ("none", "greens", "adhesion", "gaussian"),
    "kernel.omega": tuple(_OMEGA),
    "init.type": ("bump", "two_bumps", "constant", "noise"),
}


class ConfigError(ValueError):
    pass


def _choice(cfg: dict, key: str) -> str:
    if cfg[key] not in _CHOICES[key]:
        raise ConfigError(f"unknown {key} {cfg[key]!r}")
    return cfg[key]


def _config_values(fn):
    """Report a bare ValueError from ``fn`` (a config value the parsers or the
    dataclass validators reject) as ConfigError; InputValidationError passes."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, InputValidationError):
            raise
        except ValueError as e:
            raise ConfigError(str(e)) from e
    return checked


def parse_config_text(text: str) -> dict:
    cfg = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


@_config_values
def load_config(path: str) -> dict:
    with open(path) as f:
        return parse_config_text(f.read())


def _floats(value: str) -> list:
    return [float(p) for p in value.split(",") if p.strip()]


def _number_or_auto(value: str) -> Optional[float]:
    value = value.strip().lower()
    return None if value in ("auto", "") else float(value)


def build_grid(cfg: dict) -> Grid:
    return Grid(dim=int(cfg["grid.dim"]),
                half_length=float(cfg["grid.half_length"]),
                n=int(cfg["grid.n"]))


def build_kernel(cfg: dict, grid: Grid) -> Optional[PeriodizedKernel]:
    kind = _choice(cfg, "kernel.type")
    if kind == "none":
        return None
    scale = float(cfg["kernel.scale"])
    if not math.isfinite(scale):
        raise ConfigError("kernel.scale must be finite")
    if kind == "greens":
        base = greens_free_space(float(cfg["kernel.d"]), grid.dim)
    elif kind == "adhesion":
        base = adhesion_potential(_OMEGA[_choice(cfg, "kernel.omega")], grid.dim)
    else:
        base = gaussian_kernel(float(cfg["kernel.sigma"]), grid.dim)
    pk = periodize(base, grid)
    # the certificate bounds the scaled tail, so it scales by |scale| with the field
    return PeriodizedKernel(scale * pk.field, pk.truncation_radius_cells,
                            abs(scale) * pk.tail_bound)


def _initial_datum(cfg: dict, grid: Grid) -> Field:
    kind = _choice(cfg, "init.type")
    amp = float(cfg["init.amplitude"])
    width = float(cfg["init.width"])
    center = float(cfg["init.center"])
    background = float(cfg["init.background"])
    if not 0.0 < width < math.inf:
        raise ConfigError("init.width must be positive and finite")
    if not math.isfinite(center):
        raise ConfigError("init.center must be finite")
    mesh = grid.meshgrid()

    if kind == "constant":
        vals = np.full(grid.shape, amp)
    elif kind in ("bump", "two_bumps"):
        def bump_at(c):
            r2 = sum((m - c) ** 2 for m in mesh)
            prof = np.cos(0.5 * math.pi * np.sqrt(r2) / width) ** 2
            return np.where(r2 < width * width, prof, 0.0)
        vals = background + amp * bump_at(center)
        if kind == "two_bumps":
            vals = background + 0.5 * amp * (bump_at(center - 2 * width)
                                             + bump_at(center + 2 * width))
    else:
        rng = np.random.default_rng(int(cfg["seed"]))
        vals = np.clip(background + amp * rng.random(grid.shape), 0.0, 1.0)

    if vals.min() < 0.0 or vals.max() > 1.0:
        raise InputValidationError("initial density must satisfy 0 <= u_0 <= 1")
    return Field(grid, vals)


def _model(cfg: dict) -> ModelFunctions:
    gamma = 1.0 if _choice(cfg, "model.beta") == "linear" else float(cfg["model.gamma"])
    g = linear_saturating_g if _choice(cfg, "model.g") == "linear" else volume_filling_g
    return ModelFunctions(gamma, float(cfg["model.eta"]), g)


@_config_values
def build_problem(cfg: dict) -> tuple:
    """``(model, chem, u0, run_config)``, in the argument order of ``pde.run``.

    ``chem`` is the periodized kernel when ``kernel.type != none`` and the
    ``ChemicalSpec`` of the ``chem.*`` keys otherwise.
    """
    grid = build_grid(cfg)
    model = _model(cfg)
    u0 = _initial_datum(cfg, grid)
    run_config = RunConfig(grid=grid,
                           t_end=float(cfg["run.t_end"]),
                           dt=_number_or_auto(cfg["run.dt"]),
                           snapshot_every=_number_or_auto(cfg["run.snapshot_every"]),
                           cfl_safety=float(cfg["run.cfl_safety"]))
    chem = build_kernel(cfg, grid)
    if chem is None:
        chem = ChemicalSpec(diffusivities=_floats(cfg["chem.d"]),
                            sensitivities=_floats(cfg["chem.a"]),
                            xi=float(cfg["chem.xi"]))
    return model, chem, u0, run_config


def require_kernel(chem, command: str) -> PeriodizedKernel:
    """The ``chem`` of ``build_problem`` for a command that fits a kernel."""
    if not isinstance(chem, PeriodizedKernel):
        raise ConfigError(f"{command} needs kernel.type != none")
    return chem


@_config_values
def study_list(cfg: dict, key: str, values=None) -> list:
    """The study axis ``key``, from ``values`` if given, else from the config:
    ``study.xi`` in (0, 1] and strictly decreasing, or ``study.M`` positive
    and strictly increasing."""
    decreasing = key == "study.xi"
    if values is None:
        values = [p for p in cfg[key].split(",") if p.strip()]
    values = [(float if decreasing else int)(v) for v in values]
    steps = [a - b if decreasing else b - a for a, b in zip(values, values[1:])]
    if not (values and all(v > 0 for v in values + steps)
            and (not decreasing or values[0] <= 1.0)):
        order = "decreasing in (0, 1]" if decreasing else "increasing and positive"
        raise ConfigError(f"{key} must be strictly {order}")
    return values


def study_m_list(cfg: dict) -> list:
    return study_list(cfg, "study.M")


@_config_values
def study_fit_settings(cfg: dict) -> tuple:
    """``(d_star, regularization)`` of the Green-basis kernel fits."""
    d_star = float(cfg["study.d_star"])
    regularization = float(cfg["study.regularization"])
    if not 0.0 < d_star < math.inf:
        raise ConfigError("study.d_star must be positive and finite")
    if not 0.0 <= regularization < math.inf:
        raise ConfigError("study.regularization must be non-negative and finite")
    return d_star, regularization


def config_echo(cfg: dict) -> str:
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
