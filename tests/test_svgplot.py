import os
import resource
import subprocess
import sys

import pytest

import greenks
from greenks.svgplot import line_chart

# mass and max_u read 0.59999999999999998 and phi 0.60000000000000009: a y range
# a few ulps wide
FLAT_RUN = ("grid.dim = 1\ngrid.half_length = 0.5\ngrid.n = 64\nmodel.beta = linear\n"
            "model.eta = 2.3333333333333335\ninit.type = constant\ninit.amplitude = 0.6\n"
            "run.t_end = 0.001\n")


def run_capped(args):
    """Run Python in a fresh interpreter, so that a hang ends at the timeout.
    A tick loop that never advanced appended without bound, so the child's
    address space is capped too."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(greenks.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=30, preexec_fn=cap)


def test_flat_series_within_rounding_is_drawn():
    # y spans one ulp of 1.0; a tick step below half an ulp once never advanced
    proc = run_capped(["-c", "from greenks.svgplot import line_chart; print(line_chart("
                             "{'y': ([0.0, 1.0], [1.0, 1.0 + 2 ** -52])}).count('<line '))"])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 2   # ticks on both axes besides the legend line


@pytest.mark.parametrize("level", [1e20, -1e20, 2.0 ** 53])
def test_flat_series_at_a_large_magnitude_is_drawn(level):
    # a flat axis [lo, lo + 1] collapsed to [lo, lo] here, and its ticks took log10(0)
    svg = line_chart({"y": ([0.0, 1.0], [level, level])})
    assert svg.count("<line ") > 2


def test_cli_plots_a_flat_run(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(FLAT_RUN)
    proc = run_capped(["-m", "greenks.cli", "run", str(cfg), "--plot", "-o", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "diagnostics.svg").read_text().startswith("<svg")


def test_ticks_use_the_data_mapping():
    # a point at a tick value is drawn where the tick is, on linear and log axes
    for logy, y in ((False, [0.0, 1.0]), (True, [1e-2, 1.0])):
        svg = line_chart({"s": ([0.0, 1.0], y)}, logy=logy)
        points = svg.split('points="')[1].split('"')[0].split()
        tick_ys = {float(line.split('y1="')[1].split('"')[0])
                   for line in svg.splitlines() if line.startswith('<line x1="65"')}
        for point in points:
            y = float(point.split(",")[1])
            assert min(abs(y - t) for t in tick_ys) <= 0.051   # ticks at .1f, points at .2f
