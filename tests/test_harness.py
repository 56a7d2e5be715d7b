import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import greenks
from greenks import config as cfgmod
from greenks.cli import main
from greenks.domain import Field, Grid, SpaceTimeSeries, norm_l2
from greenks.harness import (ComparisonError, ExperimentReport, compare_runs,
                             study_kernel, study_xi)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def series_of(grid, times, fields):
    return SpaceTimeSeries(grid, times, fields)


# --- compare_runs ---------------------------------------------------------

def test_compare_identical_runs():
    g = Grid(1, 1.0, 16)
    rng = np.random.default_rng(0)
    snaps = [Field(g, rng.random(g.shape)) for _ in range(3)]
    s = series_of(g, [0.0, 0.5, 1.0], snaps)
    t = series_of(g, [0.0, 0.5, 1.0], [f.copy() for f in snaps])
    assert compare_runs(s, t) == 0.0


def test_compare_single_offset_snapshot():
    # offsetting the middle of three uniform snapshots by c integrates the
    # square c^2 |Omega| with trapezoid weight T/2
    g = Grid(1, 1.0, 16)
    c, T = 0.3, 1.0
    base = Field.constant(g, 0.5)
    a = series_of(g, [0.0, T / 2, T], [base, base.copy(), base.copy()])
    b = series_of(g, [0.0, T / 2, T],
                  [base.copy(), Field.constant(g, 0.5 + c), base.copy()])
    expected = c * math.sqrt(g.volume * T / 2.0)
    assert compare_runs(a, b) == pytest.approx(expected, rel=1e-12)


def test_compare_rejects_mismatches():
    g = Grid(1, 1.0, 16)
    z = Field.constant(g, 0.0)
    s = series_of(g, [0.0, 1.0], [z, z.copy()])
    g2 = Grid(1, 1.0, 32)
    z2 = Field.constant(g2, 0.0)
    with pytest.raises(ComparisonError):
        compare_runs(s, series_of(g2, [0.0, 1.0], [z2, z2.copy()]))
    with pytest.raises(ComparisonError):
        compare_runs(s, series_of(g, [0.0, 0.5, 1.0], [z, z.copy(), z.copy()]))
    with pytest.raises(ComparisonError):
        compare_runs(s, series_of(g, [0.0, 0.9], [z.copy(), z.copy()]))


# --- reports --------------------------------------------------------------

def test_report_flag_consistency_enforced():
    with pytest.raises(ValueError):
        ExperimentReport("x", [1.0, 2.0], [1.0, 2.0], "", monotone_flag=True)
    with pytest.raises(ValueError):
        ExperimentReport("x", [1.0], [1.0, 2.0], "", monotone_flag=False)


def test_report_csv_shape():
    rep = ExperimentReport("demo", [2.0, 1.0], [0.5, 0.25], "k = v",
                           monotone_flag=True)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "param,error,monotone"
    assert lines[1].endswith(",true")
    assert lines[-1] == "# k = v"


# --- studies --------------------------------------------------------------

def base_cfg(**overrides):
    cfg = cfgmod.parse_config_text("")
    cfg.update({"grid.n": "32", "run.t_end": "0.05", "run.snapshot_every": "0.025"})
    cfg.update({k: str(v) for k, v in overrides.items()})
    return cfg


def test_study_xi_constant_datum_is_exact():
    cfg = base_cfg(**{"init.type": "constant", "init.amplitude": "0.4"})
    rep = study_xi(cfg, xi_list=[1e-1, 1e-2])
    assert all(e < 1e-12 for e in rep.errors)
    assert rep.monotone_flag


def test_study_xi_single_point():
    cfg = base_cfg()
    rep = study_xi(cfg, xi_list=[1e-2])
    assert len(rep.errors) == 1
    assert rep.monotone_flag


def test_study_xi_rejects_bad_lists():
    cfg = base_cfg()
    with pytest.raises(ValueError):
        study_xi(cfg, xi_list=[1e-2, 1e-1])
    with pytest.raises(ValueError):
        study_xi(cfg, xi_list=[1e-1, -1e-2])


def test_study_kernel_zero_datum():
    cfg = base_cfg(**{"kernel.type": "adhesion", "init.type": "constant",
                      "init.amplitude": "0.0"})
    rep = study_kernel(cfg, M_list=[1, 2])
    assert all(e == 0.0 for e in rep.errors)


def test_study_kernel_span_member_target():
    # target already in the basis span: the PE run with the fitted
    # coefficients is the same discrete flow as the nonlocal one
    from greenks.greens import GreensBasis
    from greenks.fit import default_diffusivities
    cfg = base_cfg()
    grid = cfgmod.build_grid(cfg)
    seq = default_diffusivities(2, float(cfg["study.d_star"]))
    basis = GreensBasis.build(grid, seq.values)
    W = basis.as_kernel([1.5, -0.5])
    rep = study_kernel(cfg, W_target=W, M_list=[2])
    assert rep.errors[0] < 5e-8


def test_study_kernel_asserts_the_drift_bound():
    # a slack of -1 leaves no room: any nonzero drift difference violates it
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(AssertionError, match="Young bound"):
        study_kernel(cfg, M_list=[1], young_slack=-1.0)


def test_study_kernel_rejects_nonincreasing_m():
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(ValueError):
        study_kernel(cfg, M_list=[4, 2])


# --- config parsing -------------------------------------------------------

def test_config_unknown_key():
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.parse_config_text("no.such.key = 1")


def test_config_comments_and_defaults():
    cfg = cfgmod.parse_config_text("# comment only\ngrid.n = 64  # trailing\n")
    assert cfg["grid.n"] == "64"
    assert cfg["model.beta"] == "power"


def test_initial_datum_validation():
    cfg = cfgmod.parse_config_text("init.type = constant\ninit.amplitude = 1.4\n")
    grid = cfgmod.build_grid(cfg)
    from greenks.pde import InputValidationError
    with pytest.raises(InputValidationError):
        cfgmod.build_initial_datum(cfg, grid)


def test_shipped_configs_parse():
    for name in os.listdir(CONFIG_DIR):
        cfg = cfgmod.load_config(os.path.join(CONFIG_DIR, name))
        grid = cfgmod.build_grid(cfg)
        cfgmod.build_model(cfg)
        cfgmod.build_initial_datum(cfg, grid)
        cfgmod.build_run_config(cfg, grid)


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def readme_key_table():
    """{key: (default, backticked names in the meaning column)} from the README."""
    rows = {}
    with open(README) as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`"):
                rows[cells[0].strip("`")] = (cells[1].strip("`"),
                                             set(re.findall(r"`([^`]+)`", cells[2])))
    return rows


def test_readme_key_table_matches_config():
    rows = readme_key_table()
    assert set(rows) == set(cfgmod._DEFAULTS)
    for key, (default, names) in rows.items():
        assert default == cfgmod._DEFAULTS[key], key
        if key in cfgmod._CHOICES:
            assert names == set(cfgmod._CHOICES[key]), key
        else:   # other names are keys, or the "auto" of the two optional steps
            assert names <= set(cfgmod._DEFAULTS) | {"auto"}, key


@pytest.mark.parametrize("key", sorted(cfgmod._CHOICES))
def test_every_enumerated_value_builds(key):
    def build(value):
        cfg = base_cfg(**{"grid.n": "16", "kernel.type": "adhesion", key: value})
        grid = cfgmod.build_grid(cfg)
        cfgmod.build_model(cfg)
        cfgmod.build_kernel(cfg, grid)
        cfgmod.build_initial_datum(cfg, grid)

    for value in cfgmod._CHOICES[key]:
        build(value)
    with pytest.raises(cfgmod.ConfigError):
        build("no_such_value")


# --- CLI ------------------------------------------------------------------

def test_cli_selftest_passes():
    assert main(["selftest"]) == 0


def test_cli_unknown_subcommand():
    assert main(["frobnicate"]) == 1


def test_cli_run_and_compare(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 32\nrun.t_end = 0.05\nrun.snapshot_every = 0.025\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out), "--plot"]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "config.txt").exists()
    assert (out / "snapshots" / "snap_00000.csv").exists()
    assert (out / "diagnostics.svg").exists()
    assert main(["compare", str(out), str(out)]) == 0


def test_cli_compare_rejects_a_truncated_snapshot(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 64\nrun.t_end = 0.02\nrun.snapshot_every = 0.01\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    snap = out / "snapshots" / "snap_00001.csv"
    snap.write_text("".join(snap.read_text().splitlines(keepends=True)[:20]))   # 19 rows
    assert main(["compare", str(out), str(out)]) == 1
    assert "exactly once" in capsys.readouterr().err


def test_cli_compare_rejects_a_header_only_snapshot(tmp_path):
    # in a fresh interpreter, so that stderr holds everything the command prints
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 8\nrun.t_end = 0.02\nrun.snapshot_every = 0.01\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    snap = out / "snapshots" / "snap_00001.csv"
    snap.write_text(snap.read_text().splitlines(keepends=True)[0])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(greenks.__file__)))
    proc = subprocess.run([sys.executable, "-m", "greenks.cli", "compare", str(out), str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "exactly once" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 32\nrun.t_end = 0.05\nrun.snapshot_every = 0.025\n"
                   "init.type = noise\nseed = 42\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "-o", str(out_a)]) == 0
    assert main(["run", str(cfg), "-o", str(out_b)]) == 0
    for rel in ("diagnostics.csv", os.path.join("snapshots", "snap_00002.csv")):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_cli_invalid_initial_datum(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("init.type = constant\ninit.amplitude = 1.5\n")
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
    assert "0 <= u_0 <= 1" in capsys.readouterr().err


def test_cli_fit_kernel(tmp_path):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("grid.n = 32\nkernel.type = adhesion\nstudy.M = 1, 2, 4\n"
                   "study.d_star = 0.5\n")
    out = tmp_path / "out"
    assert main(["fit-kernel", str(cfg), "-o", str(out)]) == 0
    assert (out / "fit.csv").read_text().startswith("j,d_j,a_j")


def test_cli_fit_kernel_requires_kernel(tmp_path):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("grid.n = 32\n")
    assert main(["fit-kernel", str(cfg), "-o", str(tmp_path / "out")]) == 1


def test_cli_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg"), "-o", str(tmp_path)]) == 1


# --- CLI exit classes of bad input -------------------------------------------

def run_cli(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["run", str(cfg), "-o", str(tmp_path / "out")])


@pytest.mark.parametrize("setting", [
    "chem.d = nan", "chem.d = inf", "chem.a = nan", "chem.a = -inf", "chem.xi = nan",
    "run.t_end = nan", "run.t_end = inf", "run.dt = nan", "run.snapshot_every = nan",
    "kernel.type = gaussian\nkernel.scale = nan", "model.eta = nan", "model.gamma = nan",
])
def test_cli_rejects_non_finite_parameter(tmp_path, setting):
    assert run_cli(tmp_path, f"grid.n = 32\nrun.t_end = 0.01\n{setting}\n") == 1


# the overflow is the point; inf - inf in the drift then warns of the NaN it makes
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_cli_drift_overflow_is_numerical_abort(tmp_path, capsys):
    # finite, but a * rfft(u) overflows inside the loop
    assert run_cli(tmp_path, "grid.n = 32\nrun.t_end = 0.01\nchem.a = 1e308\n") == 2
    assert "non-finite drift velocity" in capsys.readouterr().err


def test_cli_collapsing_time_step_aborts_quickly(tmp_path, capsys):
    t0 = time.perf_counter()
    code = run_cli(tmp_path, "kernel.type = gaussian\nkernel.scale = -1e300\n"
                             "run.t_end = 0.01\n")
    assert code == 2 and time.perf_counter() - t0 < 5.0
    assert "time step collapsed" in capsys.readouterr().err


def test_cli_default_snapshot_interval_clamps_to_t_end(tmp_path):
    assert run_cli(tmp_path, "grid.n = 32\nrun.t_end = 0.01\n") == 0
    times = (tmp_path / "out" / "times.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[1]) for line in times] == [0.0, 0.01]


def test_cli_explicit_snapshot_interval_out_of_range(tmp_path, capsys):
    text = "grid.n = 32\nrun.t_end = 0.01\nrun.snapshot_every = 0.05\n"
    assert run_cli(tmp_path, text) == 1
    assert "snapshot_every" in capsys.readouterr().err
