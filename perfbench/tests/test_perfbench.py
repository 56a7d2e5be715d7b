"""Tests of the benchmark itself (not of greenks).

    python3 -m pytest perfbench/tests

Smoke runs use the shrunken ``--tiny`` inputs, so the whole file takes about
a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _child(workload, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", workload,
         "--seed", "3", "--tiny", "--t-spawn", repr(time.perf_counter()), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_root_span(workload):
    layers = _child(workload, "--trace")["layers"]
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.wall_s"] > 0
    # the runner adds trace.wall_ratio and prints pde.dt_halvings undeclared
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers) == declared - {"trace.wall_ratio"} | {"pde.dt_halvings"}


def test_untraced_child_never_imports_tracer():
    assert _child("coincidence-1d")["tracer_imported"] is False
    assert _child("coincidence-1d", "--trace")["tracer_imported"] is True


def test_wrappers_are_removed_after_the_traced_run():
    import importlib

    def current():
        out = {}
        for module, attr, _ in tracer.WRAPS:
            owner = importlib.import_module(f"greenks.{module}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                out[(module, cls_name, attr)] = owner.__dict__[attr]
            else:
                out[(module, attr)] = getattr(owner, attr)
        return out

    before = current()
    t = tracer.Tracer()
    t.install()
    wrapped = current()
    assert all(wrapped[k] is not before[k] for k in before)
    from greenks import pde
    from greenks.domain import Grid
    from greenks.greens import GreensBasis
    t.run_root(GreensBasis.build, Grid(1, 1.0, 16), [1.0])
    t.uninstall()
    assert all(v is before[k] for k, v in current().items())
    assert t.metrics()["greens.GreensBasis.build.self_s"] > 0
    assert pde.run is before[("pde", "run")]


def test_self_times_of_nested_spans(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracer, "perf_counter", lambda: now[0])

    def work(seconds):
        now[0] += seconds

    t = tracer.Tracer()
    step = t.wrap(lambda: work(1.0), "pde.step_u")
    dt = t.wrap(lambda: (work(2.0), step()), "pde.stable_dt")
    t.run_root(lambda: (dt(), dt(), work(4.0)))
    assert t.self_times() == {"pde.step_u": 2.0, "pde.stable_dt": 4.0, tracer.ROOT_SPAN: 4.0}
    metrics = t.metrics()
    assert metrics["trace.wall_s"] == 10.0
    assert metrics["pde.stable_dt.self_s"] == 4.0 and metrics["workload.self_s"] == 4.0


def test_untraced_child_records_probe_slowdown():
    rec = _child("pe-2d-cli")
    assert rec["wall_slowdown"] > 0 and rec["setup_slowdown"] > 0
    assert rec["wall_s"] == pytest.approx(rec["raw_wall_s"] / rec["wall_slowdown"], rel=0.1)


def test_probe_check_runs_every_workload():
    proc = subprocess.run([sys.executable, "perfbench/probe_check.py", "--rounds", "2", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    for name in WORKLOADS:
        assert f"wall_slowdown   {name} " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("coincidence-1d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
