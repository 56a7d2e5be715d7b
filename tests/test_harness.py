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
from greenks.kernel import PeriodizedKernel
from greenks.pde import InputValidationError

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
    # the flag is derived from the errors, so it cannot disagree with them
    rep = ExperimentReport("x", [1.0, 2.0], [1.0, 2.0], "")
    assert not rep.monotone_flag
    rep.errors[1] = 0.5
    assert rep.monotone_flag
    assert ExperimentReport("x", [1.0, 2.0], [1.0, 1.0 + 1e-13], "").monotone_flag
    with pytest.raises(ValueError):
        ExperimentReport("x", [1.0], [1.0, 2.0], "")


def test_report_csv_shape():
    rep = ExperimentReport("demo", [2.0, 1.0], [0.5, 0.25], "k = v")
    lines = rep.to_csv().splitlines()
    assert lines[0] == "param,error,monotone"
    assert lines[1].endswith(",true")
    assert lines[-1] == "# k = v"


def test_report_columns_follow_monotone():
    rep = ExperimentReport("demo", [1.0, 2.0], [0.5, 0.25], "k = v",
                           columns={"residual": [0.125, float("inf")], "singular": [False, True]})
    lines = rep.to_csv().splitlines()
    assert lines[0] == "param,error,monotone,residual,singular"
    assert lines[1:3] == ["1,0.5,true,0.125,false", "2,0.25,true,inf,true"]
    with pytest.raises(ValueError):
        ExperimentReport("demo", [1.0, 2.0], [0.5, 0.25], "", columns={"residual": [0.1]})


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


def test_study_kernel_csv_records_each_fit():
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    rep = study_kernel(cfg, M_list=[1, 2, 4])
    lines = rep.to_csv().splitlines()
    assert lines[0] == ("param,error,monotone,residual_w11,residual_h1,gram_condition,"
                        "singular,drift_defect")
    for line, fit, defect in zip(lines[1:4], rep.extra["fits"], rep.columns["drift_defect"]):
        cells = line.split(",")
        assert [float(c) for c in cells[3:6]] == [fit.residual_w11, fit.residual_h1,
                                                 fit.gram_condition_estimate]
        assert cells[6] == str(fit.singular).lower()
        assert float(cells[7]) == defect > 0.0


def test_study_kernel_with_a_target_skips_the_config_kernel(monkeypatch):
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    W = cfgmod.build_kernel(cfg, cfgmod.build_grid(cfg))
    calls, periodize = [], cfgmod.periodize

    def counting_periodize(*args, **kwargs):
        calls.append(args)
        return periodize(*args, **kwargs)

    monkeypatch.setattr(cfgmod, "periodize", counting_periodize)
    with_target = study_kernel(cfg, W_target=W, M_list=[1])
    assert calls == []
    assert study_kernel(cfg, M_list=[1]).errors == with_target.errors
    assert len(calls) == 1


def test_study_kernel_asserts_the_drift_bound():
    # a slack of -1 leaves no room: any nonzero drift difference violates it
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(AssertionError, match="Young bound"):
        study_kernel(cfg, M_list=[1], young_slack=-1.0)


def test_study_kernel_rejects_nonincreasing_m():
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(ValueError):
        study_kernel(cfg, M_list=[4, 2])


def test_study_xi_rejects_a_kernel_config(tmp_path, capsys):
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(cfgmod.ConfigError, match="kernel.type = none"):
        study_xi(cfg, xi_list=[1e-2])
    path = tmp_path / "xi.cfg"
    path.write_text("grid.n = 32\nkernel.type = adhesion\n")
    assert main(["study-xi", str(path), "-o", str(tmp_path / "out")]) == 1
    assert "kernel.type = none" in capsys.readouterr().err


# --- config parsing -------------------------------------------------------

def test_config_unknown_key():
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.parse_config_text("no.such.key = 1")


def test_config_comments_and_defaults():
    cfg = cfgmod.parse_config_text("# comment only\ngrid.n = 64  # trailing\n")
    assert cfg["grid.n"] == "64"
    assert cfg["model.beta"] == "power"


def test_initial_datum_validation():
    # a bad datum is an InputValidationError, not turned into a ConfigError
    cfg = cfgmod.parse_config_text("init.type = constant\ninit.amplitude = 1.4\n")
    with pytest.raises(InputValidationError):
        cfgmod.build_problem(cfg)


def test_shipped_configs_parse():
    names = sorted(os.listdir(CONFIG_DIR))
    assert {"study_kernel.cfg", "study_xi.cfg"} <= set(names)
    for name in names:
        cfg = cfgmod.load_config(os.path.join(CONFIG_DIR, name))
        model, chem, u0, run_config = cfgmod.build_problem(cfg)
        assert isinstance(chem, PeriodizedKernel) == (cfg["kernel.type"] != "none"), name
        assert u0.grid == run_config.grid == cfgmod.build_grid(cfg)


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
        cfgmod.build_problem(base_cfg(**{"grid.n": "16", "kernel.type": "adhesion", key: value}))

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


def test_cli_import_leaves_out_heavy_scipy_modules():
    # in a fresh interpreter: pytest and tests/oracles.py load scipy, which
    # greenks itself does not use at all
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(greenks.__file__)))
    code = ("import sys, greenks, greenks.cli; print(' '.join(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


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


def test_cli_directory_as_config_is_one_error_line(tmp_path):
    # in a fresh interpreter, so that stderr holds everything the command prints
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(greenks.__file__)))
    proc = subprocess.run([sys.executable, "-m", "greenks.cli", "run", str(tmp_path),
                           "-o", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


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


def test_cli_internal_value_error_is_not_a_user_error(tmp_path, monkeypatch):
    # only the named input-error classes map to exit 1; a bare ValueError
    # from inside the program propagates
    def broken(*args):
        raise ValueError("internal bug")
    monkeypatch.setattr("greenks.cli.run_solver", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run_cli(tmp_path, "grid.n = 32\nrun.t_end = 0.01\n")


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1, err


@pytest.mark.parametrize("command", ["fit-kernel", "study-kernel"])
@pytest.mark.parametrize("setting", [
    "study.d_star = -1", "study.M = 4, 2", "study.regularization = -1", "study.M = 1, x",
])
def test_cli_rejects_bad_study_setting(tmp_path, capsys, command, setting):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"grid.n = 32\nrun.t_end = 0.01\nkernel.type = adhesion\n{setting}\n")
    assert main([command, str(cfg), "-o", str(tmp_path / "out")]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("epsilon", ["-1", "0", "nan", "abc"])
def test_cli_rejects_bad_epsilon(tmp_path, capsys, epsilon):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("grid.n = 32\nkernel.type = adhesion\n")
    assert main(["fit-kernel", str(cfg), "--epsilon", epsilon, "-o", str(tmp_path)]) == 1
    assert_one_error_line(capsys)


def test_cli_fit_kernel_of_a_zero_kernel_needs_epsilon(tmp_path, capsys):
    # the default epsilon, 5% of the kernel norm, is 0 for a zero kernel
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("grid.n = 32\nkernel.type = adhesion\nkernel.scale = 0\n")
    assert main(["fit-kernel", str(cfg), "-o", str(tmp_path)]) == 1
    assert_one_error_line(capsys)
    assert main(["fit-kernel", str(cfg), "--epsilon", "0.1", "-o", str(tmp_path)]) == 0


@pytest.mark.parametrize("times", ["index,time\n0,abc\n", "index,time\n0\n", "index,time\n"])
def test_cli_compare_rejects_a_malformed_times_file(tmp_path, capsys, times):
    assert run_cli(tmp_path, "grid.n = 8\nrun.t_end = 0.02\n") == 0
    capsys.readouterr()
    (tmp_path / "out" / "times.csv").write_text(times)
    assert main(["compare", str(tmp_path / "out"), str(tmp_path / "out")]) == 1
    assert_one_error_line(capsys)


def test_cli_rejects_an_undecodable_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"grid.n = \xff\n")
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
    assert_one_error_line(capsys)
