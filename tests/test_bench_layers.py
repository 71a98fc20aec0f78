"""`scripts/bench_layers.py` runs against the package as it stands: one
repeat prints a finite figure for every layer."""

import json
import math
import os
import pathlib
import subprocess
import sys

import wedgebm

ROOT = pathlib.Path(wedgebm.__file__).resolve().parents[2]


def test_bench_layers_prints_a_finite_figure_for_every_layer():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_layers.py"),
         "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    figures = json.loads(proc.stdout)
    assert "montecarlo.reduce_us_per_path" in figures
    assert all(math.isfinite(value) and value > 0
               for value in figures.values()), figures
