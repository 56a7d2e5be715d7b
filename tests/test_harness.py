import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import greenks
from greenks import config as cfgmod, harness, pde
from greenks.cli import _save_series as save_series, main
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
    expected = c * math.sqrt(2.0 * g.half_length * T / 2.0)
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
    with pytest.raises(ValueError):   # it would replace the parameter axis in the CSV
        ExperimentReport("demo", [1.0, 2.0], [0.5, 0.25], "", columns={"param": [3.0, 4.0]})


def test_report_csv_text():
    rep = ExperimentReport("demo", [1e-1, 1e-2], [0.5, 0.75], "grid.n = 8\nseed = 0",
                           columns={"residual": [1.0 / 3.0, math.inf], "singular": [False, True]})
    assert rep.to_csv() == (
        "param,error,monotone,residual,singular\n"
        "0.10000000000000001,0.5,false,0.33333333333333331,false\n"
        "0.01,0.75,false,inf,true\n"
        "# grid.n = 8\n# seed = 0\n")


# --- studies --------------------------------------------------------------

def base_cfg(**overrides):
    cfg = cfgmod.parse_config_text("")
    cfg.update({"grid.n": "32", "run.t_end": "0.05", "run.snapshot_every": "0.025"})
    cfg.update({k: str(v) for k, v in overrides.items()})
    return cfg


def test_study_xi_constant_datum_is_exact():
    cfg = base_cfg(**{"init.type": "constant", "init.amplitude": "0.4",
                      "study.xi": "1e-1, 1e-2"})
    rep = study_xi(cfg)
    assert all(e < 1e-12 for e in rep.errors)
    assert rep.monotone_flag


def test_study_xi_single_point():
    rep = study_xi(base_cfg(**{"study.xi": "1e-2"}))
    assert len(rep.errors) == 1
    assert rep.monotone_flag


def test_study_xi_rejects_bad_lists():
    with pytest.raises(ValueError):
        study_xi(base_cfg(**{"study.xi": "1e-2, 1e-1"}))
    with pytest.raises(ValueError):
        study_xi(base_cfg(**{"study.xi": "1e-1, -1e-2"}))


def test_study_kernel_zero_datum():
    cfg = base_cfg(**{"kernel.type": "adhesion", "init.type": "constant",
                      "init.amplitude": "0.0"})
    rep = study_kernel(cfg, M_list=[1, 2])
    assert all(e == 0.0 for e in rep.errors)


def test_study_kernel_span_member_target(monkeypatch):
    # target already in the basis span: the PE run with the fitted
    # coefficients is the same discrete flow as the nonlocal one
    from greenks.greens import GreensBasis
    from greenks.fit import default_diffusivities
    cfg = base_cfg()
    grid = cfgmod.build_grid(cfg)
    basis = GreensBasis.build(grid, default_diffusivities(2, float(cfg["study.d_star"])))
    W = basis.as_kernel([1.5, -0.5])
    monkeypatch.setattr(cfgmod, "build_kernel", lambda cfg, grid: W)
    rep = study_kernel(cfg, M_list=[2])
    assert rep.errors[0] < 5e-8


def test_study_kernel_csv_records_each_fit():
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    rep = study_kernel(cfg, M_list=[1, 2, 4])
    W = cfgmod.build_kernel(cfg, cfgmod.build_grid(cfg))
    fits = list(harness.basis_fits(cfg, W, [1, 2, 4]))
    lines = rep.to_csv().splitlines()
    assert lines[0] == ("param,error,monotone,residual_w11,residual_h1,gram_condition,"
                        "singular,drift_defect")
    for line, fit, defect in zip(lines[1:4], fits, rep.columns["drift_defect"]):
        cells = line.split(",")
        assert cells[0] == str(len(fit.coefficients))
        assert [float(c) for c in cells[3:6]] == [fit.residual_w11, fit.residual_h1,
                                                 fit.gram_condition_estimate]
        assert cells[6] == str(fit.singular).lower()
        assert float(cells[7]) == defect > 0.0


def test_study_kernel_asserts_the_drift_bound(monkeypatch):
    # a slack of -1 leaves no room: any nonzero drift difference violates it
    monkeypatch.setattr(harness, "_YOUNG_SLACK", -1.0)
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(pde.NumericalAbortError, match="Young bound"):
        study_kernel(cfg, M_list=[1])


def test_cli_young_bound_violation_is_one_numerical_abort_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_YOUNG_SLACK", -1.0)
    path = tmp_path / "young.cfg"
    path.write_text("grid.n = 32\nkernel.type = adhesion\nrun.t_end = 0.05\nstudy.M = 1\n")
    assert main(["study-kernel", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical abort:") and "Young" in err[0], err


def test_study_kernel_rejects_nonincreasing_m():
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(ValueError):
        study_kernel(cfg, M_list=[4, 2])


def test_study_xi_rejects_a_kernel_config(tmp_path, capsys):
    cfg = base_cfg(**{"kernel.type": "adhesion"})
    with pytest.raises(cfgmod.ConfigError, match="kernel.type = none"):
        study_xi(cfg)
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


def test_linear_beta_is_the_power_model_at_gamma_one():
    # under model.beta = linear, model.gamma is ignored
    model = cfgmod.build_problem(base_cfg(**{"model.beta": "linear", "model.gamma": "3.0",
                                             "model.eta": "0.25"}))[0]
    reference = pde.porous_medium_model(1.0, eta=0.25)
    u = np.linspace(0.0, 1.0, 101)
    for name in ("beta", "beta_prime", "phi"):
        assert np.array_equal(getattr(model, name)(u), getattr(reference, name)(u)), name
    assert np.array_equal(model.beta(u), u + 0.25 * u)


def test_shipped_configs_parse():
    names = sorted(os.listdir(CONFIG_DIR))
    assert {"study_kernel.cfg", "study_xi.cfg"} <= set(names)
    for name in names:
        cfg = cfgmod.load_config(os.path.join(CONFIG_DIR, name))
        model, chem, u0, run_config = cfgmod.build_problem(cfg)
        assert isinstance(chem, PeriodizedKernel) == (cfg["kernel.type"] != "none"), name
        assert u0.grid == run_config.grid == cfgmod.build_grid(cfg)


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def readme_key_table(text):
    """{key: (default, backticked names in the meaning column)} of the rows
    under the ``| Key | Default | Meaning |`` header, up to the first line
    that is not a table row."""
    lines = text.splitlines()
    rows = {}
    for line in lines[lines.index("| Key | Default | Meaning |") + 2:]:   # past the rule
        if not line.startswith("|"):
            break
        key, default, meaning = (c.strip() for c in line.strip().strip("|").split("|"))
        rows[key.strip("`")] = (default.strip("`"), set(re.findall(r"`([^`]+)`", meaning)))
    return rows


def test_readme_key_table_reads_only_the_table():
    # a prose line that wraps to begin with a backticked |x_i| splits into three
    # cells on "|", the first a lone backtick; it is not a row
    prose = "`|x_i|` wraps to the start of a line\n"
    text = (prose + "| Key | Default | Meaning |\n| --- | --- | --- |\n"
            "| `grid.n` | `128` | cells per axis, see `grid.dim` |\n\n" + prose)
    assert readme_key_table(text) == {"grid.n": ("128", {"grid.dim"})}


def test_readme_key_table_matches_config():
    with open(README) as f:
        rows = readme_key_table(f.read())
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
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "config.txt").exists()
    assert (out / "snapshots" / "snap_00000.csv").exists()
    assert main(["compare", str(out), str(out)]) == 0


@pytest.mark.parametrize("command,plot", [
    ("run", "diagnostics.svg"), ("study-xi", "study-xi.svg"),
    ("study-kernel", "study-kernel.svg"), ("fit-kernel", None)])
def test_cli_plot(tmp_path, capsys, command, plot):
    # fit-kernel draws nothing, so --plot is a usage error there
    kernel = "kernel.type = adhesion\n" if command in ("study-kernel", "fit-kernel") else ""
    cfg = tmp_path / "plot.cfg"
    cfg.write_text("grid.n = 32\nrun.t_end = 0.02\nrun.snapshot_every = 0.01\n"
                   "study.xi = 1e-1, 1e-2\nstudy.M = 1, 2\n" + kernel)
    out = tmp_path / "out"
    code = main([command, str(cfg), "-o", str(out), "--plot"])
    if plot is None:
        assert code == 1
        assert "unrecognized arguments: --plot" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        assert (out / plot).read_text().startswith("<svg")


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


def test_cli_fit_kernel(tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("grid.n = 32\nkernel.type = adhesion\nstudy.M = 1, 2, 4\n"
                   "study.d_star = 0.5\n")
    out = tmp_path / "out"
    assert main(["fit-kernel", str(cfg), "-o", str(out)]) == 0
    text = (out / "fit.csv").read_text()
    assert text.startswith("j,d_j,a_j")
    # the footer and the stdout line both end with the fit's singular flag
    flag = text.rstrip().rsplit(" ", 1)[1]
    assert flag in ("singular=True", "singular=False")
    assert capsys.readouterr().out.rstrip().endswith(flag)


def test_cli_fit_kernel_tries_the_study_sizes(tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("grid.n = 32\nkernel.type = adhesion\nstudy.M = 3, 5\n")
    out = tmp_path / "out"
    assert main(["fit-kernel", str(cfg), "--epsilon", "1e9", "-o", str(out)]) == 0
    assert (out / "fit.csv").read_text().splitlines()[-1].startswith("# M=3 ")
    assert capsys.readouterr().out.startswith("fit: M=3 ")
    # no size meets this tolerance: the better of M = 3 and 5, flagged
    assert main(["fit-kernel", str(cfg), "--epsilon", "1e-12", "-o", str(out)]) == 0
    config = cfgmod.load_config(str(cfg))
    W = cfgmod.build_kernel(config, cfgmod.build_grid(config))
    best = min(harness.basis_fits(config, W), key=lambda f: f.residual_w11)
    best.converged = False
    assert (out / "fit.csv").read_text() == best.to_csv()


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


def test_cli_eta_that_breaks_monotone_beta_is_one_error_line(tmp_path):
    # beta + eta u = u^2 - u/2 decreases near 0: a config error, not a numerical abort
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 32\nrun.t_end = 0.01\nmodel.eta = -0.5\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(greenks.__file__)))
    proc = subprocess.run([sys.executable, "-m", "greenks.cli", "run", str(cfg),
                           "-o", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "strictly increasing" in proc.stderr


def test_cli_nan_kernel_d_in_3d_is_one_error_line_at_once(tmp_path):
    # a NaN tail bound would never stop the 3D lattice sum: the kernel is rejected first
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.dim = 3\ngrid.n = 16\nrun.t_end = 0.01\n"
                   "kernel.type = greens\nkernel.d = nan\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(greenks.__file__)))
    proc = subprocess.run([sys.executable, "-m", "greenks.cli", "run", str(cfg),
                           "-o", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_cli_slow_3d_tail_is_one_error_line_at_once(tmp_path):
    # tail rate 1/sqrt(d) = 0.01 needs more than _MAX_SHELLS shells: the lattice
    # sum must refuse before summing any, not after all (2s+1)^3 translates
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.dim = 3\ngrid.n = 8\nrun.t_end = 0.01\n"
                   "kernel.type = greens\nkernel.d = 1e4\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(greenks.__file__)))
    proc = subprocess.run([sys.executable, "-m", "greenks.cli", "run", str(cfg),
                           "-o", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == "error: lattice sum did not converge within max_shells\n"


# --- CLI exit classes of bad input -------------------------------------------

def run_cli(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["run", str(cfg), "-o", str(tmp_path / "out")])


@pytest.mark.parametrize("setting", [
    "chem.d = nan", "chem.d = inf", "chem.a = nan", "chem.a = -inf", "chem.xi = nan",
    "run.t_end = nan", "run.t_end = inf", "run.dt = nan", "run.snapshot_every = nan",
    "kernel.type = gaussian\nkernel.scale = nan", "model.eta = nan", "model.gamma = nan",
    "grid.half_length = nan", "grid.half_length = inf", "kernel.type = greens\nkernel.d = nan",
    "kernel.type = greens\nkernel.d = inf", "kernel.type = gaussian\nkernel.sigma = nan",
])
def test_cli_rejects_non_finite_parameter(tmp_path, setting):
    assert run_cli(tmp_path, f"grid.n = 32\nrun.t_end = 0.01\n{setting}\n") == 1


def test_cli_small_negative_eta_is_a_config_error_and_a_large_gamma_runs(tmp_path, capsys):
    # u^2 - 1e-4 u falls below 0 on (0, 1e-4), between the samples a check at
    # k/1000 would read: the rule on gamma and eta refuses it exactly
    with pytest.raises(cfgmod.ConfigError, match="strictly increasing"):
        cfgmod.build_problem(base_cfg(**{"model.eta": "-0.0001"}))
    assert run_cli(tmp_path, "grid.n = 32\nrun.t_end = 0.01\nmodel.eta = -0.0001\n") == 1
    assert_one_error_line(capsys)
    # u^150 underflows to 0 at small u, which leaves beta a valid model
    assert run_cli(tmp_path, "grid.n = 32\nrun.t_end = 0.01\nmodel.gamma = 150\n") == 0


@pytest.mark.parametrize("setting", [
    "init.width = -0.4", "init.width = 0", "init.width = nan", "init.width = inf",
    "init.center = nan", "init.center = -inf",
])
def test_cli_rejects_a_bump_without_a_positive_width_or_finite_center(tmp_path, capsys,
                                                                      setting):
    # the bump needs a positive, finite radius and a finite centre
    assert run_cli(tmp_path, f"grid.n = 32\nrun.t_end = 0.01\n{setting}\n") == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("setting", ["grid.dim = 1\nkernel.sigma = 1e-300",
                                     "grid.dim = 3\ngrid.n = 8\nkernel.sigma = 1e-120",
                                     "grid.dim = 1\nkernel.sigma = 1e-160"])
def test_cli_rejects_a_sigma_too_small_to_normalize(tmp_path, capsys, setting):
    # the Gaussian's normalization A = (2 pi sigma^2)^(-N/2) or, at 1e-160,
    # its tail bound's scale A/sigma^2 is not a finite float: one error line,
    # no numpy warnings
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"kernel.type = gaussian\n{setting}\n")
    assert main(["fit-kernel", str(cfg), "-o", str(tmp_path / "out")]) == 1
    assert_one_error_line(capsys)


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


@pytest.mark.parametrize("dt", ["1e-11", "1e-13"])
def test_cli_fixed_dt_beyond_the_step_budget_is_one_error_line_at_once(tmp_path, capsys, dt):
    # 1e9 fixed steps once ran until a timeout ended them, and 1e-13 aborted as a
    # collapsed step (exit 2): a dt the loop cannot finish is a config error
    t0 = time.perf_counter()
    assert run_cli(tmp_path, f"grid.n = 32\nrun.t_end = 0.01\nrun.dt = {dt}\n") == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: dt ") and err.count("\n") == 1


def test_cli_automatic_dt_beyond_the_step_budget_is_one_error_line_at_once(tmp_path, capsys):
    # an automatic dt on t_end = 1e6 once stepped until a timeout ended it: the
    # step budget is bounded before the first step; on L = 1e-200 the longest
    # automatic step, a multiple of h^2, underflows to 0, and the budget once
    # divided t_end by it
    for text in ("grid.n = 32\nrun.t_end = 1e6\nrun.snapshot_every = 1e6\n",
                 "grid.dim = 2\ngrid.n = 16\ngrid.half_length = 1e-200\nrun.t_end = 0.01\n"):
        t0 = time.perf_counter()
        assert run_cli(tmp_path, text) == 1
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: t_end ") and err.count("\n") == 1


@pytest.mark.parametrize("half_length", ["1e-200", "1e-160"])
def test_cli_fixed_dt_on_a_grid_too_fine_for_floats_is_one_error_line(tmp_path, capsys,
                                                                      half_length):
    # a fixed dt skips the automatic step budget: on L = 1e-200, h^2 underflows
    # to 0 and the energy bookkeeping once divided by it; on L = 1e-160, h^2 is
    # subnormal; on both |k|^2 overflows, which the plan would warn of first
    text = (f"grid.dim = 2\ngrid.n = 16\ngrid.half_length = {half_length}\n"
            "run.t_end = 0.01\nrun.dt = 0.001\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, text) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: half_length = {half_length} ") and err.count("\n") == 1


def test_cli_run_reports_its_steps_and_dt_range(tmp_path, capsys):
    assert run_cli(tmp_path, "grid.n = 32\nrun.t_end = 0.01\n") == 0
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
    steps = np.diff([float(row.split(",")[0]) for row in rows])
    line = capsys.readouterr().out
    assert f" {len(rows) - 1} steps with dt in [{steps.min():.3g}, {steps.max():.3g}]," in line


def test_cli_default_snapshot_interval_clamps_to_t_end(tmp_path):
    assert run_cli(tmp_path, "grid.n = 32\nrun.t_end = 0.01\n") == 0
    times = (tmp_path / "out" / "times.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[1]) for line in times] == [0.0, 0.01]


def test_times_csv_text(tmp_path):
    g = Grid(1, 1.0, 8)
    series = SpaceTimeSeries(g, [0.0, 0.1, 1.0 / 3.0], [Field.constant(g, 0.5)] * 3)
    save_series(str(tmp_path), series)
    assert (tmp_path / "times.csv").read_text() == (
        "index,time\n0,0\n1,0.10000000000000001\n2,0.33333333333333331\n")
    assert sorted(os.listdir(tmp_path / "snapshots")) == [f"snap_0000{i}.csv" for i in range(3)]


def test_cli_explicit_snapshot_interval_out_of_range(tmp_path, capsys):
    text = "grid.n = 32\nrun.t_end = 0.01\nrun.snapshot_every = 0.05\n"
    assert run_cli(tmp_path, text) == 1
    assert "snapshot_every" in capsys.readouterr().err


def test_cli_rejects_more_snapshots_than_the_limit(tmp_path, capsys, monkeypatch):
    # a config error before any snapshot time is built, not hours of stepping
    monkeypatch.setattr(pde, "_snapshot_times", lambda config: pytest.fail("times built"))
    assert run_cli(tmp_path, "grid.n = 32\nrun.snapshot_every = 1e-12\n") == 1
    assert "snapshot_every" in capsys.readouterr().err


def test_cli_internal_value_error_is_not_a_user_error(tmp_path, monkeypatch):
    # only the named input-error classes map to exit 1 and NumericalAbortError
    # to exit 2; a bare ValueError or AssertionError from inside the program
    # propagates
    for error in (ValueError, AssertionError):
        def broken(*args):
            raise error("internal bug")
        monkeypatch.setattr("greenks.cli.run_solver", broken)
        with pytest.raises(error, match="internal bug"):
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
