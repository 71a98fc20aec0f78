import math
import os
import pathlib
import subprocess
import sys

import pytest

import wedgebm
from wedgebm.cli import run_cli

T1 = ["--alpha", "0.9", "--start", "1.5,0.3", "--T", "1"]


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run_cli(argv + ["--out", str(out)])
    return code, out.read_bytes()


def parse_csv(data):
    lines = data.decode().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# byte stability
# ---------------------------------------------------------------------------

def test_estimate_byte_stable_across_runs_and_workers(tmp_path):
    argv = ["estimate"] + T1 + ["--n", "300", "--seed", "5"]
    code_a, a = run_to_file(tmp_path, "a.csv", argv)
    code_b, b = run_to_file(tmp_path, "b.csv", argv)
    code_c, c = run_to_file(tmp_path, "c.csv", argv + ["--workers", "3"])
    assert code_a == code_b == code_c == 0
    assert a == b == c


def test_sample_output_byte_stable(tmp_path):
    argv = ["sample-reflected"] + T1 + ["--n", "40", "--seed", "2",
                                        "--eps", "0.03"]
    _, a = run_to_file(tmp_path, "a.csv", argv)
    _, b = run_to_file(tmp_path, "b.csv", argv)
    assert a == b


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

def test_estimate_schema_and_echoed_config(tmp_path):
    argv = ["estimate"] + T1 + ["--n", "200", "--seed", "4",
                                "--func", "coord_1"]
    code, data = run_to_file(tmp_path, "e.csv", argv)
    assert code == 0
    header, rows = parse_csv(data)
    assert header == ["mode", "func", "alpha", "start_r", "start_theta", "T",
                      "eps", "fold_cap", "steps", "n", "seed", "estimate",
                      "half_width", "n_faults", "mean_folds", "mean_weight",
                      "ess"]
    assert len(rows) == 1
    row = rows[0]
    assert row["mode"] == "stopped" and row["func"] == "coord_1"
    assert float(row["alpha"]) == 0.9
    assert row["n"] == "200" and row["seed"] == "4"
    assert float(row["half_width"]) > 0


def test_sample_stopped_schema(tmp_path):
    code, data = run_to_file(tmp_path, "s.csv",
                             ["sample-stopped"] + T1 + ["--n", "25",
                                                        "--seed", "1"])
    assert code == 0
    header, rows = parse_csv(data)
    assert header == ["index", "x", "y", "elapsed", "hit_boundary", "folds",
                      "weight", "fault"]
    assert len(rows) == 25
    assert [r["index"] for r in rows] == [str(i) for i in range(25)]
    for r in rows:
        assert r["hit_boundary"] in ("0", "1")
        assert r["weight"] == "1"
        assert 0.0 < float(r["elapsed"]) <= 1.0


def test_sample_stopped_marks_pass_cap_faults(tmp_path):
    # a faulted path prints its partial state: elapsed short of T and off
    # both rays, which only the fault column tells from an endpoint
    code, data = run_to_file(tmp_path, "s.csv", [
        "sample-stopped"] + T1 + ["--n", "50", "--fold-cap", "1", "--seed", "7"])
    assert code == 0
    faulted = [r for r in parse_csv(data)[1] if r["fault"] == "1"]
    # of this stream: 16 before survivor-first passes, 17 before the lanes
    assert len(faulted) == 15
    for r in faulted:
        assert float(r["elapsed"]) < 1.0 and r["hit_boundary"] == "0"


def test_sample_reflected_schema_has_fault_column(tmp_path):
    code, data = run_to_file(tmp_path, "s.csv",
                             ["sample-reflected"] + T1 + ["--n", "20",
                                                          "--seed", "1"])
    assert code == 0
    header, rows = parse_csv(data)
    assert header[-1] == "fault"
    assert all(r["fault"] in ("0", "1") for r in rows)
    assert all(r["elapsed"] == "1" for r in rows if r["fault"] == "0")


def test_density_grid_row_count_and_positivity(tmp_path):
    code, data = run_to_file(tmp_path, "d.csv",
                             ["density", "--alpha", "1.0472", "--x", "1.5,0.3",
                              "--t", "0.7", "--grid", "5"])
    assert code == 0
    header, rows = parse_csv(data)
    assert header == ["r", "theta", "value"]
    assert len(rows) == 25
    assert all(float(r["value"]) >= 0.0 for r in rows)
    assert max(float(r["value"]) for r in rows) > 0.0


def test_density_series_wedge_and_killed_mode(tmp_path):
    # non pi/m opening goes through the series representation
    code, data = run_to_file(tmp_path, "d.csv",
                             ["density"] + T1 + ["--mode", "killed",
                                                 "--grid", "3"])
    assert code == 0
    _, rows = parse_csv(data)
    assert len(rows) == 9
    assert all(float(r["value"]) >= 0.0 for r in rows)


def test_density_killed_below_reflected(tmp_path):
    base = ["density", "--alpha", "0.9", "--x", "1.2,0.6", "--t", "0.5",
            "--grid", "4", "--rmax", "3.0"]
    _, killed = run_to_file(tmp_path, "k.csv", base + ["--mode", "killed"])
    _, refl = run_to_file(tmp_path, "r.csv", base + ["--mode", "reflected"])
    _, krows = parse_csv(killed)
    _, rrows = parse_csv(refl)
    for kr, rr in zip(krows, rrows):
        assert (kr["r"], kr["theta"]) == (rr["r"], rr["theta"])
        assert float(kr["value"]) <= float(rr["value"]) + 1e-12


def test_folds_histogram_schema(tmp_path):
    code, data = run_to_file(tmp_path, "f.csv",
                             ["folds"] + T1 + ["--n", "150", "--seed", "3",
                                               "--eps", "0.05"])
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "folds,count"
    assert lines[-1].startswith("overflow,")
    body = [line.split(",") for line in lines[1:-1]]
    assert sum(int(c) for _f, c in body) + int(lines[-1].split(",")[1]) == 150
    folds = [int(f) for f, _c in body]
    assert folds == sorted(folds)


def test_folds_eps_sweep_schema_and_monotone(tmp_path):
    code, data = run_to_file(tmp_path, "f.csv",
                             ["folds"] + T1 + ["--n", "200", "--seed", "3",
                                               "--eps-sweep", "0.02,0.1"])
    assert code == 0
    header, rows = parse_csv(data)
    assert header == ["eps", "mean_folds", "n"]
    assert [r["eps"] for r in rows] == ["0.02", "0.1"]
    assert float(rows[0]["mean_folds"]) > float(rows[1]["mean_folds"])


# ---------------------------------------------------------------------------
# presets and config files
# ---------------------------------------------------------------------------

def test_estimate_preset_fills_geometry(tmp_path):
    code, data = run_to_file(tmp_path, "p.csv",
                             ["estimate", "--table1-stopped", "--n", "200",
                              "--seed", "1"])
    assert code == 0
    _, rows = parse_csv(data)
    row = rows[0]
    assert row["mode"] == "stopped" and row["func"] == "radius_sq"
    assert float(row["alpha"]) == 0.9
    assert float(row["start_r"]) == 1.5 and float(row["start_theta"]) == 0.3
    assert row["n"] == "200"  # command line overrides the preset's n


def test_estimate_preset_infinite_horizon(tmp_path):
    code, data = run_to_file(tmp_path, "p.csv",
                             ["estimate", "--table1-tau", "--n", "150",
                              "--seed", "1"])
    assert code == 0
    _, rows = parse_csv(data)
    assert rows[0]["T"] == "inf"
    assert float(rows[0]["estimate"]) > 0


def test_ito_preset_with_overrides(tmp_path):
    code, data = run_to_file(tmp_path, "i.csv",
                             ["ito", "--table3-stopped", "--n", "20",
                              "--steps", "10", "--seed", "1"])
    assert code == 0
    _, rows = parse_csv(data)
    row = rows[0]
    assert row["mode"] == "euler_stopped"
    assert row["steps"] == "10" and row["n"] == "20"


def test_two_presets_rejected(capsys):
    assert run_cli(["estimate", "--table1-stopped", "--table2-stopped"]) == 2
    assert "preset" in capsys.readouterr().err


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# geometry\n"
                   "alpha = 0.9\n"
                   "start = 1.5,0.3\n"
                   "T = 1\n"
                   "n = 250\n"
                   "seed = 9\n")
    code, data = run_to_file(tmp_path, "c.csv",
                             ["estimate", "--config", str(cfg), "--n", "120"])
    assert code == 0
    _, rows = parse_csv(data)
    assert rows[0]["n"] == "120"
    assert rows[0]["seed"] == "9"
    assert float(rows[0]["alpha"]) == 0.9


def test_config_file_truthy_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("table1_stopped = true\nn = 150\n")
    code, data = run_to_file(tmp_path, "c.csv",
                             ["estimate", "--config", str(cfg), "--seed", "2"])
    assert code == 0
    _, rows = parse_csv(data)
    assert float(rows[0]["alpha"]) == 0.9
    assert rows[0]["n"] == "150"


# ---------------------------------------------------------------------------
# correlated input
# ---------------------------------------------------------------------------

CORR = ["--sigma1", "1.0", "--sigma2", "1.0", "--rho", "0.0",
        "--slope", "1.26", "--region", "and_pos", "--x", "1.43,0.42"]


def test_estimate_correlated_setup_runs(tmp_path):
    code, data = run_to_file(tmp_path, "corr.csv",
                             ["estimate", "--T", "1", "--n", "150",
                              "--seed", "6"] + CORR)
    assert code == 0
    _, rows = parse_csv(data)
    assert float(rows[0]["alpha"]) == pytest.approx(math.atan(1.26))


def test_sample_correlated_endpoints_inside_region(tmp_path):
    code, data = run_to_file(tmp_path, "corr.csv",
                             ["sample-stopped", "--T", "1", "--n", "60",
                              "--seed", "6"] + CORR)
    assert code == 0
    _, rows = parse_csv(data)
    for r in rows:
        x, y = float(r["x"]), float(r["y"])
        assert y >= -1e-9 and y <= 1.26 * x + 1e-9


# ---------------------------------------------------------------------------
# exit codes and usage errors
# ---------------------------------------------------------------------------

def test_exit_code_fault_abort(capsys):
    code = run_cli(["estimate"] + T1 + ["--mode", "reflected", "--eps", "0",
                                        "--fold-cap", "5", "--n", "400",
                                        "--seed", "123"])
    assert code == 1
    assert "fault" in capsys.readouterr().err


def test_exit_code_usage_errors(capsys):
    assert run_cli(["estimate", "--start", "1.5,0.3", "--T", "1"]) == 2
    assert run_cli(["estimate", "--alpha", "0.9", "--T", "1"]) == 2
    # start angle outside the wedge
    assert run_cli(["estimate", "--alpha", "0.5", "--start", "1.0,0.9"]) == 2
    # incomplete correlated input
    assert run_cli(["estimate", "--T", "1", "--sigma1", "1.0",
                    "--x", "1.0,0.5"]) == 2
    # --alpha conflicts with a correlated setup
    assert run_cli(["estimate", "--alpha", "0.9", "--T", "1"] + CORR) == 2
    # ito needs --steps
    assert run_cli(["ito"] + T1 + ["--n", "10"]) == 2
    # ito refuses plain --drift
    assert run_cli(["ito"] + T1 + ["--n", "10", "--steps", "5",
                                   "--drift", "0.1,0.0"]) == 2
    # folds refuses drift
    assert run_cli(["folds"] + T1 + ["--n", "10", "--drift", "0.1,0.0"]) == 2
    # so does density, whose kernels are driftless
    assert run_cli(["density", "--alpha", "1.0472", "--x", "1.5,0.3",
                    "--t", "0.7", "--grid", "2", "--drift", "5,5"]) == 2
    # and takes no sample size or seed, which it would ignore
    assert run_cli(["density", "--alpha", "1.0472", "--x", "1.5,0.3",
                    "--t", "0.7", "--grid", "2", "--seed", "3"]) == 2
    # a radial extent of zero has no grid cells to evaluate
    assert run_cli(["density", "--alpha", "0.9", "--start", "1.5,0.3",
                    "--t", "1", "--rmax", "0", "--grid", "2"]) == 2
    # NaN epsilon is not the exact mode
    assert run_cli(["estimate"] + T1 + ["--n", "5", "--mode", "reflected",
                                        "--eps", "nan"]) == 2
    assert run_cli(["ito"] + T1 + ["--n", "2", "--steps", "5", "--mode",
                                   "euler_reflected", "--eps", "nan"]) == 2
    # ... nor where the epsilon goes unused, and neither is a negative one
    assert run_cli(["estimate"] + T1 + ["--n", "5", "--eps", "nan"]) == 2
    assert run_cli(["estimate"] + T1 + ["--n", "5", "--eps", "-1"]) == 2
    assert run_cli(["ito"] + T1 + ["--n", "2", "--steps", "5", "--mode",
                                   "euler_stopped", "--eps", "nan"]) == 2
    # a worker count below 1 is refused, not replaced
    assert run_cli(["estimate"] + T1 + ["--n", "5", "--workers", "0"]) == 2
    assert run_cli(["estimate"] + T1 + ["--n", "5", "--workers", "-3"]) == 2
    # so is a recursion cap that allows no pass
    assert run_cli(["estimate"] + T1 + ["--n", "5", "--fold-cap", "0"]) == 2
    assert run_cli(["sample-reflected", "--alpha", "0.9", "--start", "0,0",
                    "--T", "1", "--n", "5", "--fold-cap", "-1"]) == 2
    # sample-* needs at least one path, like estimate
    assert run_cli(["sample-stopped"] + T1 + ["--n", "0"]) == 2
    # unknown flag (argparse exit)
    assert run_cli(["estimate"] + T1 + ["--bogus"]) == 2
    capsys.readouterr()


NARROW = ["--alpha", repr(math.pi / 2e6), "--start", f"1,{math.pi / 4e6!r}",
          "--T", "1"]

# argv -> a fragment of the one-line message; FILE is an existing config file
USAGE_ERRORS = {
    "x-one-number": (["estimate", "--alpha", "0.9", "--x", "1"],
                     "expected two comma-separated numbers"),
    "start-one-number": (["estimate", "--alpha", "0.9", "--start", "1.5"],
                         "expected two comma-separated numbers"),
    "T-not-a-number": (["estimate"] + T1[:4] + ["--T", "abc"], "bad time"),
    "T-zero": (["estimate"] + T1[:4] + ["--T", "0"], "T must be positive"),
    "eps-sweep-bad-entry": (["folds"] + T1 + ["--eps-sweep", "0.1,x"],
                            "bad number list"),
    "config-missing-file": (["estimate", "--config=/nonexistent.cfg"],
                            "cannot read config file"),
    "config-bare": (["estimate", "--config"], "--config needs a file path"),
    "config-no-subcommand": (["--config", "FILE"], "requires a subcommand"),
    "correlated-without-x": (["estimate", "--T", "1", "--sigma1", "1",
                              "--sigma2", "1", "--rho", "0", "--slope", "1.26",
                              "--region", "and_pos"], "takes the start as --x"),
    "slope-zero": (["estimate", "--T", "1", "--sigma1", "1", "--sigma2", "1",
                    "--rho", "0", "--slope", "0", "--region", "and_pos", "--x",
                    "1,0.5"], "slope 0"),
    "density-infinite-T": (["density"] + T1[:4] + ["--T", "inf"],
                           "needs a finite T"),
    "density-grid-zero": (["density"] + T1 + ["--grid", "0"],
                          "--grid must be at least 1"),
    "start-angle-nan": (["estimate", "--alpha", "0.9", "--start", "1.5,nan"],
                        "angle must be finite"),
    "seed-negative": (["estimate"] + T1 + ["--n", "5", "--seed", "-1"],
                      "seed must be nonnegative"),
    "mu-nan": (["ito", "--table3-stopped", "--steps", "5", "--n", "2",
                "--mu", "nan,0"], "mu must be a finite 2-vector"),
    "kappa-inf": (["ito", "--table3-stopped", "--steps", "5", "--n", "2",
                   "--kappa", "0,inf"], "kappa must be a finite 2-vector"),
    # grids whose cells round to length 0 used to fail inside a cell
    "grid-cells-of-length-0": (["ito"] + T1[:4] + [
        "--T", "5e-324", "--steps", "3", "--n", "2"],
        "got T=5e-324, steps=3"),
    "grid-subnormal-cells": (["ito"] + T1[:4] + [
        "--T", "1e-320", "--steps", "100000", "--n", "2", "--mode",
        "euler_reflected"], "got T=1e-320, steps=100000"),
    "grid-too-many-steps": (["ito"] + T1 + ["--steps", str(2 ** 60), "--n",
                                            "2"],
                            f"got T=1.0, steps={2 ** 60}"),
    # an --eps that a stopped mode would ignore
    "eps-sample-stopped": (["sample-stopped"] + T1 + ["--n", "3", "--eps",
                                                      "0.5"],
                           "unrecognized arguments: --eps"),
    "eps-estimate-stopped": (["estimate"] + T1 + ["--n", "3", "--mode",
                                                  "stopped", "--eps", "0.5"],
                             "--eps is the corner threshold"),
    "eps-ito-euler-stopped": (["ito"] + T1 + ["--n", "3", "--steps", "3",
                                              "--mode", "euler_stopped",
                                              "--eps", "5"],
                              "--eps is the corner threshold"),
    # |b|^2 of a finite drift overflows, so every Girsanov factor is 0
    "weights-all-0": (["estimate"] + T1 + ["--n", "5", "--drift", "1e200,0"],
                      "weights of all 5 kept paths are 0"),
    "weights-all-0-euler": (["ito"] + T1 + ["--n", "2", "--steps", "3", "--mu",
                                            "1e308,0", "--kappa", "0,0"],
                            "weights of all 2 kept paths are 0"),
    # the squared deviations of |x|^2 overflow, not its mean
    "estimate-spread-overflows": (["estimate"] + T1[:4] + [
        "--n", "3", "--T", "1e160", "--mode", "reflected"],
        "the estimate of radius_sq overflows"),
    # an opening pi/(2 10^6): its 2m image angles would be a 4e6-float list
    "opening-too-narrow-estimate": (["estimate"] + NARROW + ["--n", "1"],
                                    "is too narrow"),
    "opening-too-narrow-ito": (["ito"] + NARROW + ["--n", "1", "--steps", "2"],
                               "is too narrow"),
    "opening-too-narrow-density": (["density"] + NARROW + ["--grid", "1"],
                                   "m must be an integer in [1, 1000000]"),
}


def test_a_preset_eps_lets_a_stopped_mode_override(tmp_path):
    # the reflected presets fill in their eps; --mode stopped then runs, and
    # the row echoes the preset's eps
    for argv in (["estimate", "--table1-reflected", "--mode", "stopped",
                  "--n", "5"],
                 ["ito", "--table3-reflected", "--mode", "euler_stopped",
                  "--n", "2", "--steps", "20"]):
        code, data = run_to_file(tmp_path, "row.csv", argv)
        assert code == 0
        assert parse_csv(data)[1][0]["mode"] == argv[3]


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_is_one_line_and_exit_2(case, tmp_path, capsys):
    argv, fragment = USAGE_ERRORS[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\n")
    argv = [str(cfg) if tok == "FILE" else tok for tok in argv]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # argparse prints its usage lines first; the message is the one other line
    message = [line for line in err.splitlines()
               if not line.startswith(("usage:", " "))]
    assert len(message) == 1
    assert "error" in message[0] and fragment in message[0]


def test_one_path_estimate_has_an_infinite_half_width(tmp_path):
    code, data = run_to_file(tmp_path, "one.csv",
                             ["estimate", "--table1-stopped", "--n", "1"])
    assert code == 0
    _, rows = parse_csv(data)
    assert rows[0]["n"] == "1" and rows[0]["half_width"] == "inf"


@pytest.mark.parametrize("argv", [
    ["density", "--grid", "2"],
    ["folds", "--n", "10"],
    ["ito", "--n", "10", "--steps", "5"]])
def test_commands_that_weight_no_path_take_no_drift_flag(argv, capsys):
    # only estimate and sample-* register --drift; a zero drift elsewhere is
    # an unknown flag like any other
    assert run_cli(argv + T1 + ["--drift", "0,0"]) == 2
    assert "unrecognized arguments: --drift" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [",", ""])
def test_empty_eps_sweep_is_a_usage_error(sweep, capsys):
    assert run_cli(["folds"] + T1 + ["--n", "10", "--eps-sweep", sweep]) == 2
    assert "empty number list" in capsys.readouterr().err


# a start 1e-13 off a ray of the 0.9 wedge, from either side, and the same
# start exactly on that ray
NEAR_RAY = {
    "lower-inside": ("--x", "1.5,1e-13", "1.5,0"),
    "lower-outside": ("--x", "1.5,-1e-13", "1.5,0"),
    "upper-inside": ("--start", "1.5,0.8999999999999", "1.5,0.9"),
    "upper-outside": ("--start", "1.5,0.9000000000001", "1.5,0.9"),
}


@pytest.mark.parametrize("where", sorted(NEAR_RAY))
@pytest.mark.parametrize("command", ["sample-stopped", "sample-reflected",
                                     "density"])
def test_start_within_angle_tol_of_a_ray_is_snapped_onto_it(tmp_path, command,
                                                           where):
    flag, near, on = NEAR_RAY[where]
    argv = [command, "--alpha", "0.9", "--T", "1"]
    argv += ["--grid", "2"] if command == "density" else ["--n", "3"]
    code, data = run_to_file(tmp_path, "near.csv", argv + [flag, near])
    assert code == 0
    assert data == run_to_file(tmp_path, "on.csv", argv + ["--start", on])[1]
    if command == "sample-stopped":
        for r in parse_csv(data)[1]:
            assert (r["elapsed"], r["hit_boundary"]) == ("0", "1")


# a correlated region bounded by y = 2 x, for a start given as --x
SLANTED = ["--sigma2", "0.8", "--rho", "0.4", "--slope", "2.0", "--region",
           "and_pos"]

BOUNDARY_STARTS = {
    # decorrelation maps this start 2.2e-16 inside the mapped ray
    "mapped-inside": (["--sigma1", "0.7560092608038578", "--sigma2",
                       "0.36107135996785794", "--rho", "-0.8505992572365259",
                       "--slope", "-3.7410169050855", "--region", "and_neg",
                       "--x=-4.547975539878555,17.01405337860103"],
                      ("-4.54797553988", "17.0140533786")),
    # 1e-13 below the x-axis: WedgeSpec.place puts it on the lower ray
    "hair-outside": (["--sigma1", "1.2", "--x", "1.0,-1e-13"] + SLANTED,
                     ("1", "0")),
}


def test_correlated_start_on_the_boundary_line_stops_at_once(tmp_path):
    for corr, xy in BOUNDARY_STARTS.values():
        code, data = run_to_file(tmp_path, "corr.csv", [
            "sample-stopped", "--T", "1", "--n", "3"] + corr)
        assert code == 0
        for r in parse_csv(data)[1]:
            assert (r["x"], r["y"], r["elapsed"], r["hit_boundary"]) == \
                xy + ("0", "1")


BAD_SETUPS = {
    # a NaN slope passed the sign check of the _NEG cases and was reported
    # as a start outside the region
    "slope": ["--sigma1", "1", "--sigma2", "1", "--rho", "0", "--slope", "nan",
              "--region", "and_neg", "--x", "1,1"],
    # an infinite scale was reported as a bad wedge of the standard frame
    "sigma1": ["--sigma1", "inf", "--x", "1.0,0.5"] + SLANTED,
}


@pytest.mark.parametrize("name", sorted(BAD_SETUPS))
def test_bad_correlated_input_is_named_in_the_error(name, capsys):
    assert run_cli(["sample-stopped", "--n", "1"] + BAD_SETUPS[name]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")
    assert "outside region" not in err and "alpha_minus" not in err


def test_vertical_boundary_line_still_runs(tmp_path):
    code, data = run_to_file(tmp_path, "vertical.csv", [
        "sample-stopped", "--n", "2", "--sigma1", "1", "--sigma2", "1",
        "--rho", "0", "--slope", "inf", "--region", "and_pos", "--x", "0.1,1"])
    assert code == 0
    assert len(parse_csv(data)[1]) == 2


@pytest.mark.parametrize("angle", ["0", "0.5", "2", "3"])
def test_stopped_apex_start_prints_the_apex_unsigned(tmp_path, angle):
    # the apex belongs to both rays; its angle must not give x or y a sign
    # (at angle 2 it was reported on the upper ray 3, and 0 * cos 3 = -0)
    code, data = run_to_file(tmp_path, "apex.csv", [
        "sample-stopped", "--alpha", "3", "--start", "0," + angle, "--T", "1",
        "--n", "1"])
    assert code == 0
    assert data == (b"index,x,y,elapsed,hit_boundary,folds,weight,fault\n"
                    b"0,0,0,0,1,0,1,0\n")


@pytest.mark.parametrize("command", ["estimate", "density"])
def test_start_beyond_angle_tol_of_a_ray_is_a_usage_error(command, capsys):
    assert run_cli([command, "--alpha", "0.9", "--start", "1.5,0.9000000005",
                    "--T", "1"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["1e160", "1e200"])
def test_start_radius_too_large_for_exit_law_is_a_clean_error(radius):
    # past radius ~1e154 the default test function |x|^2 overflows, and so
    # does an exit time drawn from that radius. The exit-time sampler's
    # overflow once escaped as an AssertionError traceback; a pass now keeps
    # its survivor first, and the estimate names the overflow
    src = str(pathlib.Path(wedgebm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wedgebm.cli", "estimate", "--alpha", "0.9",
         "--start", f"{radius},0.3", "--T", "1", "--n", "2"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "overflows" in proc.stderr


# (mode, func) -> (exit code, estimate or error message) from radius 1.7e308,
# where |x|^2 and the squares of sin^2 theta = y^2 / |x|^2 overflow, and so
# did 4 r in the image sums: every survivor trial was refused, and the
# stopped paths ended on the lower ray (sin^2 theta 0)
HUGE_START = {
    ("stopped", "coord_1"): (2, "error: the estimate of coord_1 overflows"),
    ("stopped", "constant_1"): (0, "1"),
    ("stopped", "sin_sq_theta"): (0, "0.0873321925452"),
    ("reflected", "coord_1"): (2, "error: the estimate of coord_1 overflows"),
    # the driving endpoint overflows to -inf, and 0 (-inf) made every
    # zero-drift weight NaN: "the estimate of constant_1 overflows"
    ("reflected", "constant_1"): (0, "1"),
    ("reflected", "sin_sq_theta"): (0, "0.0873321925452"),
}


@pytest.mark.parametrize("mode, func", sorted(HUGE_START))
def test_an_estimate_from_radius_1_7e308(mode, func, tmp_path, capsys):
    code, want = HUGE_START[mode, func]
    argv = ["estimate", "--alpha", "0.9", "--start", "1.7e308,0.3", "--T",
            "1", "--n", "5", "--seed", "1", "--mode", mode, "--func", func]
    out = tmp_path / "huge.csv"
    assert run_cli(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(want + ": its values at these endpoints")
    else:
        [row] = parse_csv(out.read_bytes())[1]
        assert (row["estimate"], row["mean_weight"], row["n_faults"]) == \
            (want, "1", "0")


@pytest.mark.parametrize("mode", ["stopped", "reflected"])
def test_sin_sq_theta_past_the_overflow_of_its_squares(mode, tmp_path):
    # x^2 overflows past |x| ~1.3e154, and the estimate of values that all
    # lie in [0, 1] was refused as out of range
    code, data = run_to_file(tmp_path, "far.csv", [
        "estimate", "--alpha", "0.9", "--start", "1e200,0.3", "--T", "1",
        "--n", "5", "--mode", mode, "--func", "sin_sq_theta"])
    assert code == 0
    [row] = parse_csv(data)[1]
    assert row["estimate"] == "0.0873321925452"  # sin^2 0.3


@pytest.mark.parametrize("command", ["sample-stopped", "sample-reflected"])
def test_a_sample_from_radius_1_7e308_keeps_its_survivor(command, tmp_path):
    # 4 r overflowed in the image sums, whose nearest term was then 0 times
    # inf: every survivor trial was refused, and the stopped paths ended on
    # the lower ray at elapsed 0, the reflected ones ~1e308 away in 18 folds
    code, data = run_to_file(tmp_path, "far.csv", [
        command, "--alpha", "0.9", "--start", "1.7e308,0.3", "--T", "1",
        "--n", "3", "--seed", "1"])
    assert code == 0
    rows = parse_csv(data)[1]
    assert [(row["x"], row["y"], row["elapsed"], row["hit_boundary"],
             row["folds"]) for row in rows] == [
        ("1.62407203151e+308", "5.02384351324e+307", "1", "0", "1")] * 3


def test_density_at_a_radius_past_the_overflow_of_4_r_r0(tmp_path):
    # an image-sum grid at radius 1e160 printed nan and exited 0
    code, data = run_to_file(tmp_path, "far.csv", [
        "density", "--alpha", "1.0471975511965976", "--start", "1e160,0.3",
        "--grid", "1", "--rmax", "2e160"])
    assert code == 0
    _, rows = parse_csv(data)
    assert [row["value"] for row in rows] == ["0"]


def test_density_series_cap_is_a_clean_error():
    # at t = 1e-12 the Bessel series finds no certified cutoff below its cap
    src = str(pathlib.Path(wedgebm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wedgebm.cli", "density", "--alpha", "0.9",
         "--start", "1.5,0.3", "--t", "1e-12", "--grid", "2"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: no certified cutoff")


NON_FINITE_DRIFTS = {
    "plain": ["estimate"] + T1 + ["--n", "5", "--drift", "inf,0"],
    # finite as given, it overflows through the decorrelating map
    "decorrelated": ["estimate", "--n", "5", "--drift", "1e306,0", "--sigma1",
                     "1e-3", "--x", "1.0,0.5"] + SLANTED,
    # mu (x - kappa) overflows in the first Euler cell
    "euler-cell": ["ito"] + T1 + ["--n", "5", "--steps", "5", "--mu", "1e300,0",
                                  "--kappa", "1e300,0"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_DRIFTS))
def test_non_finite_drift_is_a_clean_error(case, capsys):
    assert run_cli(NON_FINITE_DRIFTS[case]) == 2
    assert "drift must be a finite 2-vector" in capsys.readouterr().err


def test_ito_fold_cap_applies_to_each_euler_stopped_cell(tmp_path, capsys):
    argv = ["ito"] + T1 + ["--mode", "euler_stopped", "--n", "30", "--steps",
                           "20", "--seed", "3", "--mu", "0.1,0.2", "--kappa",
                           "0.7,0.5"]
    code, data = run_to_file(tmp_path, "capped.csv", argv + ["--fold-cap", "1"])
    assert code == 0
    _, rows = parse_csv(data)
    assert rows[0]["fold_cap"] == "1"
    assert int(rows[0]["n_faults"]) > 0
    assert (f"warning: {rows[0]['n_faults']} faulted paths excluded"
            in capsys.readouterr().err)
    _, uncapped = run_to_file(tmp_path, "uncapped.csv", argv)
    assert parse_csv(uncapped)[1][0]["n_faults"] == "0"


def test_missing_config_file(capsys):
    assert run_cli(["estimate", "--config", "/nonexistent/path.cfg"]) == 2
    assert "config" in capsys.readouterr().err


def test_stdout_emission(capsys):
    code = run_cli(["estimate"] + T1 + ["--n", "50", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("mode,func,alpha")
    assert out.endswith("\n")
