"""Smoke test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Not part of the repository's test suite (pytest collects `tests/` only).
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload; the exact-mode fold row keeps its n, which the
    overflow check needs."""
    small = tuple(dataclasses.replace(row, n=40) for row in wl.PUBLISHED_ROWS)
    monkeypatch.setattr(wl.PublishedRows, "rows", small + (wl.FOLD_ROW,))
    monkeypatch.setattr(wl.PublishedRows, "workers_row", small[4])
    euler = tuple(dataclasses.replace(row, n=2) for row in wl.EULER_ROWS)
    monkeypatch.setattr(wl.EulerRows, "rows", euler)
    monkeypatch.setattr(wl.EulerRows, "workers_row", euler[1])
    monkeypatch.setattr(wl, "SERIES_GRID", 3)
    monkeypatch.setattr(wl, "IMAGE_GRID", 4)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    code, result = _main(["--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", trace])
    assert code == 0 and result["correct"] and result["failed"] == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", ["published_rows", "euler_rows"])
def test_every_gated_row_has_a_finite_standard_error(tiny, workload):
    w = wl.WORKLOADS[workload]
    rounds = [w.round(w.build(3), 0)]
    failures, reports = w.check(rounds)
    assert failures == []
    assert {r["row"] for r in reports} == {row.name for row in w.rows
                                          if row.exact is not None}
    for report in reports:
        assert math.isfinite(report["se"]) and report["se"] > 0, report


def test_a_row_of_one_path_fails_the_gate():
    row = wl.EULER_ROWS[1]
    record = {"estimate": row.exact, "half_width": math.inf, "n_used": 1}
    failure, report = wl._gate(row, [record, record])
    assert failure is not None and "not finite" in failure


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: spec[:2] for name, spec in tracer.LAYER_METRICS.items()}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_rows_are_byte_identical_and_wrappers_restored(tiny, workload):
    w = wl.WORKLOADS[workload]
    inputs = w.build(7)
    before = {(id(o), a): v for o, a, v in _bindings()}
    plain = [op["sha256"] for op in w.round(inputs, 0)]
    t = tracer.Tracer()
    with t:
        assert {(id(o), a): v for o, a, v in _bindings()} != before
        traced = [op["sha256"] for op in w.round(inputs, 0, t)]
    assert traced == plain
    assert t.restored()
    assert {(id(o), a): v for o, a, v in _bindings()} == before
    assert len(t.span_name) > 0


def _bindings():
    for module in tracer.MODULES:
        for attr, value in vars(module).items():
            yield module, attr, value
    for table in (tracer.SPAN_METHODS, tracer.TIMED_METHODS,
                  tracer.COUNTED_METHODS):
        for owner, attr in table:
            yield owner, attr, vars(owner)[attr]


def test_seed_zero_density_grid_matches_the_density_command(tiny):
    inputs = wl.DensityGrid().build(0)
    ops = {op["grid"]: op["sha256"] for op in wl.DensityGrid().round(inputs, 0)}
    for grid in inputs["grids"]:
        start = ("--start", "1.5,0.3") if grid.wedge.opening == 0.9 else ("--x", "1.5,0.3")
        argv = ["density", "--alpha", repr(grid.wedge.opening), *start,
                "--t", repr(grid.t), "--grid", str(grid.size),
                "--mode", "killed" if grid.killed else "reflected"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert wl.cli.run_cli(argv) == 0
        assert wl.digest(out.getvalue().encode()) == ops[grid.label], grid.label


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "density_grid",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("given, used", [(0, 0), (999_999, 999_999),
                                         (1_234_567, 234_567),
                                         (2 ** 63 + 5, (2 ** 63 + 5) % 10 ** 6),
                                         (-1, 999_999)])
def test_any_integer_seed_is_accepted(given, used):
    args = run.parse_args(["--workload", "density_grid", "--seed", str(given)])
    assert args.seed == used
