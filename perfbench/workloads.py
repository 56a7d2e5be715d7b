"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Each workload has three parts:

* ``prepare(seed, tiny, workdir)`` builds the inputs.  It runs inside the
  set-up phase (``setup_s``) and hands greenks only generated inputs: a
  ``Field``, a parsed config or a config file.
* ``execute(inputs)`` is the timed section (``wall_s``): from the first call
  into greenks until the result is ready.
* ``check(inputs, result, full)`` runs after the timed section.  It returns,
  for every operation attempted, the list of problems found (empty = passed).
  An operation is one checked sub-run: a mode, a study point, a CLI run or a
  lattice sum.

``tiny`` shrinks every workload for the benchmark's own smoke tests; the
checks are the same.  Tolerances come from the acceptance criteria of the
program and are never loosened here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from greenks import cli, greens, harness, pde
from greenks import config as cfgmod
from greenks.domain import Field, Grid, field_csv_string, read_field_csv

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# bounds the solver promises on every step (pde._MASS_TOL, pde._BOUND_SLACK)
MASS_TOL = 1e-10
BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    prepare: Callable
    execute: Callable
    check: Callable


# --- seeded initial data ---------------------------------------------------

BUMP_AMPLITUDE = 0.8
BUMP_AMPLITUDE_SPREAD = 0.005   # amplitude in 0.8 +- 0.005
BUMP_CENTER_SPREAD = 0.05       # centre in +-0.05 (per axis)
BUMP_WIDTH = 0.4


def seeded_bump(seed: int) -> tuple:
    """Bump amplitude and centre drawn from the workload seed.

    The range is narrow so that step counts, and with them the work done,
    barely move between seeds; every check holds for any datum in it.
    """
    rng = np.random.default_rng(seed)
    amplitude = BUMP_AMPLITUDE + rng.uniform(-BUMP_AMPLITUDE_SPREAD, BUMP_AMPLITUDE_SPREAD)
    center = rng.uniform(-BUMP_CENTER_SPREAD, BUMP_CENTER_SPREAD)
    return float(amplitude), float(center)


def _bump_1d(grid: Grid, amplitude: float, center: float) -> Field:
    x = grid.axis_centers() - center
    prof = np.where(np.abs(x) < BUMP_WIDTH, np.cos(0.5 * math.pi * x / BUMP_WIDTH) ** 2, 0.0)
    return Field(grid, amplitude * prof)


def _diagnostics_problems(times, mass, min_u, max_u, t_end) -> list:
    """Mass drift and bounds on every step, and the final time reached."""
    problems = []
    mass0 = mass[0]
    drift = max(abs(m - mass0) for m in mass) / max(abs(mass0), 1.0)
    if not drift <= MASS_TOL:
        problems.append(f"mass drift {drift:.3e} > {MASS_TOL:g}")
    if not min(min_u) >= -BOUND_SLACK:
        problems.append(f"min u {min(min_u):.3e} < {-BOUND_SLACK:g}")
    if not max(max_u) <= 1.0 + BOUND_SLACK:
        problems.append(f"max u {max(max_u):.9f} > 1 + {BOUND_SLACK:g}")
    if not abs(times[-1] - t_end) <= 1e-12 * t_end:
        problems.append(f"final time {times[-1]!r} != t_end {t_end!r}")
    return problems


# --- coincidence-1d --------------------------------------------------------
# Criterion-4 problem: the three systems on one Green field (d = 1, a = 2).

COINCIDENCE_D = 1.0
COINCIDENCE_A = 2.0
COINCIDENCE_XI = 1e-2
COINCIDENCE_TOL = 1e-8          # criterion 4: nonlocal vs parabolic-elliptic L2(Q_T)
ENERGY_SLACK = 0.05             # criterion 10
MODES = ("nonlocal", "parabolic-elliptic", "parabolic-parabolic")


def prepare_coincidence(seed: int, tiny: bool, workdir: str) -> dict:
    n, t_end = (64, 0.005) if tiny else (256, 0.02)
    grid = Grid(1, 1.0, n)
    amplitude, center = seeded_bump(seed)
    return {
        "model": pde.porous_medium_model(2.0),
        "u0": _bump_1d(grid, amplitude, center),
        "run_config": pde.RunConfig(grid, t_end=t_end, snapshot_every=t_end / 5),
        "ops": MODES,
        "about": f"1D n={n} t_end={t_end:g} bump amplitude={amplitude:.6f} centre={center:+.6f}",
    }


def execute_coincidence(inputs: dict) -> dict:
    grid = inputs["u0"].grid
    kernel = greens.GreensBasis.build(grid, [COINCIDENCE_D]).as_kernel([COINCIDENCE_A])
    chems = {
        "nonlocal": kernel,
        "parabolic-elliptic": pde.ChemicalSpec([COINCIDENCE_D], [COINCIDENCE_A], 0.0),
        "parabolic-parabolic": pde.ChemicalSpec([COINCIDENCE_D], [COINCIDENCE_A], COINCIDENCE_XI),
    }
    return {mode: pde.run(inputs["model"], chem, inputs["u0"], inputs["run_config"])
            for mode, chem in chems.items()}


def check_coincidence(inputs: dict, result: dict, full: bool) -> dict:
    t_end = inputs["run_config"].t_end
    problems = {}
    for mode in MODES:
        d = result[mode][1].diagnostics
        found = _diagnostics_problems(d.times, d.mass, d.min_u, d.max_u, t_end)
        bound = 2.0 * d.phi[0] + d.drift_accum[-1] + ENERGY_SLACK
        if not d.grad_beta_accum[-1] <= bound:
            found.append(f"energy inequality: {d.grad_beta_accum[-1]:.6g} > {bound:.6g}")
        problems[mode] = found
    diff = harness.compare_runs(result["nonlocal"][0], result["parabolic-elliptic"][0])
    if not diff < COINCIDENCE_TOL:
        problems["parabolic-elliptic"].append(
            f"nonlocal vs parabolic-elliptic L2(Q_T) {diff:.3e} >= {COINCIDENCE_TOL:g}")
    return problems


# --- kernel-study-1d -------------------------------------------------------
# Criterion 8 on configs/study_kernel.cfg; fixed inputs, the seed is ignored.

# tests/test_acceptance.py KERNEL_STUDY_BASELINE, for M = 1, 2, 4, 8, 16
KERNEL_STUDY_M = [1, 2, 4, 8, 16]
KERNEL_STUDY_BASELINE = [2.358811e-03, 1.087316e-03, 6.499736e-05,
                         1.504635e-05, 1.498826e-05]
KERNEL_STUDY_MARGIN = 1.05


def prepare_kernel_study(seed: int, tiny: bool, workdir: str) -> dict:
    cfg = cfgmod.load_config(os.path.join(ROOT, "configs", "study_kernel.cfg"))
    m_list = cfgmod.study_m_list(cfg)
    if m_list != KERNEL_STUDY_M:
        raise ValueError(f"study.M is {m_list}, the pinned baseline needs {KERNEL_STUDY_M}")
    if tiny:
        m_list = m_list[:2]
    return {"cfg": cfg, "m_list": m_list, "ops": tuple(f"M={m}" for m in m_list),
            "about": f"configs/study_kernel.cfg M={m_list}; fixed inputs, seed ignored"}


def execute_kernel_study(inputs: dict):
    return harness.study_kernel(inputs["cfg"], M_list=inputs["m_list"])


def check_kernel_study(inputs: dict, report, full: bool) -> dict:
    problems = {}
    errors = list(report.errors)
    if len(errors) != len(inputs["ops"]):
        return {op: [f"{len(errors)} errors reported"] for op in inputs["ops"]}
    for i, (op, err, base) in enumerate(zip(inputs["ops"], errors, KERNEL_STUDY_BASELINE)):
        found = []
        if not err <= KERNEL_STUDY_MARGIN * base:
            found.append(f"error {err:.6e} > {KERNEL_STUDY_MARGIN} x baseline {base:.6e}")
        if i > 0 and not err <= errors[i - 1] * (1.0 + 1e-12):
            found.append(f"error {err:.6e} increased from {errors[i - 1]:.6e}")
        problems[op] = found
    return problems


# --- pe-2d-cli -------------------------------------------------------------
# `greenks run` in-process on a generated 2D parabolic-elliptic config.

PE2D_SNAPSHOTS = 5


def prepare_pe2d(seed: int, tiny: bool, workdir: str) -> dict:
    n, t_end = (32, 0.002) if tiny else (128, 0.01)
    amplitude, center = seeded_bump(seed)
    with open(os.path.join(BENCH_DIR, "pe2d.cfg")) as f:
        text = f.read().format(n=n, amplitude=amplitude, center=center, t_end=t_end,
                               snapshot_every=t_end / (PE2D_SNAPSHOTS - 1))
    cfg_path = os.path.join(workdir, "pe2d.cfg")
    with open(cfg_path, "w") as f:
        f.write(text)
    return {"cfg_path": cfg_path, "outdir": os.path.join(workdir, "out"), "t_end": t_end,
            "ops": ("greenks run",),
            "about": f"2D n={n} t_end={t_end:g} bump amplitude={amplitude:.6f} "
                     f"centre={center:+.6f}"}


def execute_pe2d(inputs: dict) -> int:
    return cli.main(["run", inputs["cfg_path"], "--output", inputs["outdir"]])


def _read_diagnostics(path: str) -> dict:
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def check_pe2d(inputs: dict, exit_code: int, full: bool) -> dict:
    if exit_code != 0:
        return {"greenks run": [f"exit code {exit_code}"]}
    outdir = inputs["outdir"]
    d = _read_diagnostics(os.path.join(outdir, "diagnostics.csv"))
    found = _diagnostics_problems(d["time"], d["mass"], d["min_u"], d["max_u"], inputs["t_end"])
    snaps = sorted(os.listdir(os.path.join(outdir, "snapshots")))
    with open(os.path.join(outdir, "times.csv")) as f:
        n_times = sum(1 for line in f) - 1
    if len(snaps) != PE2D_SNAPSHOTS or n_times != PE2D_SNAPSHOTS:
        found.append(f"{len(snaps)} snapshot files and {n_times} times, "
                     f"expected {PE2D_SNAPSHOTS}")
        return {"greenks run": found}
    path = os.path.join(outdir, "snapshots", snaps[-1])
    with open(path) as f:
        text = f.read()
    final = read_field_csv(path)
    if field_csv_string(final) != text:
        found.append("final snapshot does not round-trip through read_field_csv")
    if not abs(final.integral() - d["mass"][-1]) <= 1e-12 * abs(d["mass"][-1]):
        found.append("final snapshot mass differs from diagnostics.csv")
    return {"greenks run": found}


# --- green-lattice ---------------------------------------------------------
# Bessel lattice sums of the d = 1 Green function; fixed inputs, seed ignored.
# Pinned values were measured on the seed build.  The lattice sum truncates
# its tail at 1e-10 per cell, so a correct reimplementation may move a value
# by about that much: PIN_TOL leaves a factor of ten.

LATTICE_D = 1.0
PIN_TOL = 1e-9
SPECTRAL_TOL = 1e-6             # criterion 2
SPECTRAL_REFINEMENT = 32

# (dim, half_length, n) -> pinned values; integral_tol is the midpoint-rule
# distance of the discrete integral from 1 at that resolution, rounded up.
LATTICE_PINS = {
    (2, 1.0, 64): {"origin": 0.8579008756734418, "integral": 0.9999612786622235,
                   "checksum": 0.12425671215802285, "integral_tol": 1e-4,
                   "spectral_check": True},
    (3, 1.0, 16): {"origin": 1.5094898808695119, "integral": 0.9994335611988102,
                   "checksum": 0.062208682574342554, "integral_tol": 1e-3,
                   "spectral_check": False},
    (2, 1.0, 16): {"origin": 0.6377158524608284, "integral": 0.99938661413043,
                   "checksum": 0.1331878539564604, "integral_tol": 1e-3,
                   "spectral_check": True},
    (3, 2.0, 8): {"origin": 0.3109622272318816, "integral": 0.9913443790277665,
                  "checksum": 0.008161169664938135, "integral_tol": 1e-2,
                  "spectral_check": False},
}
LATTICE_GRIDS = {False: [(2, 1.0, 64), (3, 1.0, 16)], True: [(2, 1.0, 16), (3, 2.0, 8)]}


def lattice_checksum(values: np.ndarray) -> float:
    """Weighted mean of the field with fixed pseudo-random weights in [0, 1)."""
    weights = np.random.default_rng(0).random(values.size)
    return float(np.dot(weights, values.ravel()) / values.size)


def prepare_lattice(seed: int, tiny: bool, workdir: str) -> dict:
    keys = LATTICE_GRIDS[tiny]
    return {"grids": [Grid(*k) for k in keys], "keys": keys,
            "ops": tuple(f"Grid{k}" for k in keys),
            "about": f"lattice_sum_green({LATTICE_D}) on {keys}; fixed inputs, seed ignored"}


def execute_lattice(inputs: dict) -> list:
    return [greens.lattice_sum_green(LATTICE_D, g) for g in inputs["grids"]]


def lattice_values(pk) -> dict:
    values = pk.field.values
    return {"origin": float(values.flat[0]), "integral": pk.field.integral(),
            "checksum": lattice_checksum(values)}


def check_lattice(inputs: dict, kernels: list, full: bool) -> dict:
    problems = {}
    for op, key, grid, pk in zip(inputs["ops"], inputs["keys"], inputs["grids"], kernels):
        pin = LATTICE_PINS[key]
        found = []
        got = lattice_values(pk)
        if not abs(got["integral"] - 1.0) <= pin["integral_tol"]:
            found.append(f"integral {got['integral']!r} not within {pin['integral_tol']:g} of 1")
        for name in ("origin", "integral", "checksum"):
            if not abs(got[name] - pin[name]) <= PIN_TOL:
                found.append(f"{name} {got[name]!r} != pinned {pin[name]!r}")
        if full and pin["spectral_check"]:
            ref = greens.greens_periodic_spectral(LATTICE_D, grid,
                                                  refinement=SPECTRAL_REFINEMENT)
            err = float(np.abs(ref.values - pk.field.values).max())
            if not err < SPECTRAL_TOL:
                found.append(f"spectral cross-check {err:.3e} >= {SPECTRAL_TOL:g}")
        problems[op] = found
    return problems


WORKLOADS = {
    "coincidence-1d": Workload(prepare_coincidence, execute_coincidence, check_coincidence),
    "kernel-study-1d": Workload(prepare_kernel_study, execute_kernel_study,
                                check_kernel_study),
    "pe-2d-cli": Workload(prepare_pe2d, execute_pe2d, check_pe2d),
    "green-lattice": Workload(prepare_lattice, execute_lattice, check_lattice),
}
