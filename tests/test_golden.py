"""Golden digests of CLI output.

Each case is a command line at a small sample size and the sha256 of the
CSV it writes. The digests pin the seeded output bytes across commits: a
change to the code that alters any of them is a stream change and has to
be declared, with the digests recorded again.

To print the digests of the current code:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import math
import sys

import pytest

from wedgebm.cli import ESTIMATE_PRESETS, ITO_PRESETS, run_cli
from wedgebm.geometry import CorrelatedSetup, PolarPoint, RegionCase, WedgeSpec
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, map_paths
from wedgebm.samplers import DEFAULT_EPSILON, DEFAULT_FOLD_CAP

T1 = ["--alpha", "0.9", "--start", "1.5,0.3", "--T", "1"]
CORR = ["--sigma1", "1.2", "--sigma2", "0.8", "--rho", "0.4",
        "--slope", "2.0", "--region", "and_pos", "--x", "1.0,0.5", "--T", "1"]
PI_OVER_3 = "1.0471975511965976"  # an image-sum opening
APEX_START = ["sample-reflected", "--alpha", "0.9", "--start", "0,0", "--T",
              "1", "--n", "30"]
APEX_FLOOR = ["sample-reflected", "--alpha", "0.9", "--start", "1e-151,0.3",
              "--T", "1", "--n", "30"]
CORNER = ["sample-reflected", "--alpha", "0.9", "--start", "0.05,0.3", "--T",
          "1", "--n", "30", "--eps", "0.1"]
DRIFT = ["--drift", "0.3,-0.2"]

CASES = {
    "estimate_table1_stopped": ["estimate", "--table1-stopped", "--n", "200"],
    "estimate_table1_coord1": ["estimate", "--table1-coord1", "--n", "200"],
    "estimate_table1_exit": ["estimate", "--table1-exit", "--n", "200"],
    "estimate_table1_tau": ["estimate", "--table1-tau", "--n", "200"],
    "estimate_table1_reflected": ["estimate", "--table1-reflected", "--n",
                                  "200"],
    "estimate_table2_stopped": ["estimate", "--table2-stopped", "--n", "200"],
    "estimate_table2_reflected": ["estimate", "--table2-reflected", "--n",
                                  "200"],
    "estimate_drift_reflected": ["estimate"] + T1 + [
        "--mode", "reflected", "--func", "constant_1", "--eps", "0.03",
        "--drift", "0.3,-0.2", "--n", "200"],
    "estimate_correlated": ["estimate", "--n", "100", "--drift", "0.2,0.1"]
    + CORR,
    "ito_table3_stopped": ["ito", "--table3-stopped", "--steps", "20", "--n",
                           "20"],
    "ito_table3_reflected": ["ito", "--table3-reflected", "--steps", "20",
                             "--n", "10"],
    "sample_stopped": ["sample-stopped"] + T1 + ["--n", "30"],
    "sample_reflected": ["sample-reflected"] + T1 + ["--n", "30", "--eps",
                                                     "0.03"],
    "sample_stopped_drift": ["sample-stopped"] + T1 + [
        "--n", "30", "--drift", "0.3,-0.2"],
    "sample_reflected_drift": ["sample-reflected"] + T1 + [
        "--n", "30", "--eps", "0.03", "--drift", "0.3,-0.2"],
    "sample_stopped_correlated": ["sample-stopped", "--n", "30"] + CORR,
    "sample_reflected_correlated": ["sample-reflected", "--n", "30",
                                    "--drift", "0.2,0.1"] + CORR,
    "sample_reflected_faults": ["sample-reflected"] + T1 + [
        "--n", "30", "--eps", "0", "--fold-cap", "5"],
    # an exact pi/m opening: the sub-wedge reuses alpha itself
    "sample_reflected_pi_over_3": ["sample-reflected", "--alpha", PI_OVER_3,
                                   "--start", "1.5,0.3", "--T", "1", "--n",
                                   "30", "--eps", "0.03"],
    # an opening above pi: every pass runs in a half-plane (m = 1)
    "sample_stopped_alpha_4": ["sample-stopped", "--alpha", "4.0", "--start",
                               "1.5,2.0", "--T", "1", "--n", "30"],
    # the reflected endings: an apex start (folds 0), a start below the apex
    # floor (folds 1) and a first-pass corner draw, all one corner draw; with
    # drift the weight column also pins that draw's driving step
    "sample_reflected_apex_start": APEX_START,
    "sample_reflected_apex_floor": APEX_FLOOR,
    "sample_reflected_corner": CORNER,
    "sample_reflected_apex_start_drift": APEX_START + DRIFT,
    "sample_reflected_apex_floor_drift": APEX_FLOOR + DRIFT,
    "sample_reflected_corner_drift": CORNER + DRIFT,
    "folds_histogram": ["folds"] + T1 + ["--n", "200", "--eps", "0",
                                         "--fold-cap", "40"],
    "folds_eps_sweep": ["folds"] + T1 + ["--n", "100", "--eps-sweep",
                                         "0.02,0.1"],
    "density_images_reflected": ["density", "--alpha", PI_OVER_3, "--x",
                                 "1.5,0.3", "--t", "0.7", "--grid", "4"],
    "density_images_killed": ["density", "--alpha", PI_OVER_3, "--x",
                              "1.5,0.3", "--t", "0.7", "--grid", "4",
                              "--mode", "killed"],
    "density_series_reflected": ["density"] + T1 + ["--grid", "3"],
    "density_series_killed": ["density"] + T1 + ["--grid", "3", "--mode",
                                                 "killed"],
}
SEED = ["--seed", "7"]  # for every command but density, which draws nothing

# the density cases were recorded before the path-engine refactor, and
# density_series_reflected again when the Bessel terms moved to scipy's ive:
# its cell (0.9167, 0.15) sits on a %.12g tie, 0.3683041484075001 before and
# 0.3683041484075000 after (mpmath: 0.36830414840750840). It was recorded a
# third time when each series term became ive(nu, z) e^{-(r-r0)^2/2t}, with
# no log round trip: that cell now prints 0.368304148408 (0.3683041484075083)
# and (4.5833, 0.75) prints 0.000958816614182 (0.0009588166141815516, was
# ...814829; mpmath 0.00095881661418155845), each the %.12g of the mpmath
# value. Every case that
# draws a survivor (all sampling cases but the T = inf exit rows and the fold
# counts, where the survivor and corner draws are terminal) was recorded
# again when the survivor proposal became the folded free Gaussian endpoint.
# The apex, apex-floor and corner cases were recorded before the reflected
# recursion always tracked its driving endpoint, and pin that it did not move.
# Every case with a reflected path that reaches the apex or the corner (four
# sample-reflected cases, the three ending cases and their drift variants,
# and the table-1 and drift reflected estimates) was recorded again when
# those endings became one free Gaussian step. The four sample-stopped cases
# were recorded again when sample-stopped gained the fault column of
# sample-reflected; with that column stripped, each CSV is byte for byte the
# one before. Every case that runs a recursion pass (all but the density
# cases and the six apex, apex-floor and corner cases, which end in one
# corner draw before any pass) was recorded again when the passes became
# survivor-first, with the conditional half-plane exit draw: a pass now
# draws one survivor proposal before any exit, and the exit draws differ.
# The two ito cases were recorded again when the Euler cells became blocked:
# each cell draws its own triple of uniforms from the path's stream, and a
# cell that falls back to the recursion draws the rest from a side stream.
# Every case of an exact mode, 26 in all (the nine estimate cases, the two
# folds cases and the fifteen sample-stopped and sample-reflected cases: all
# but the density and ito ones), was recorded again when the exact
# recursions became numpy lanes, each path drawing from its own Philox-4x64
# stream (README, CLI) in place of its PCG64 sub-stream.
DIGESTS = {
    "density_images_killed":
        "20e1fc928f8ccfb52c36b01f3cae8d7d5ce0a753378acb5631447eaa07c2ac95",
    "density_images_reflected":
        "4cee6e6f45e03f63e68311fe1563f069513274dbe1b5530d66b3e51fd5702770",
    "density_series_killed":
        "af5993bc6fdfbd4b6083702d596d745e817ddf9421bb2d19188ba306678c54bf",
    "density_series_reflected":
        "9cdc8073545c9f6ad5cae3ff248add55eee55c814c5e9435e47be56cc289f5d7",
    "estimate_correlated":
        "72f7b741f619f8b00b9dcc89732bccb54acefe36fc2bb3e9a8123e81e86d9981",
    "estimate_drift_reflected":
        "7cd0382c03c208eb90fa9d61d0e9d8287fdd32d2a0961b18bb4daee176a7a094",
    "estimate_table1_coord1":
        "158c1b3acc402196e49d57a49720a44cff89241c55a15d1c3f53c53e04622b9a",
    "estimate_table1_exit":
        "5320b0139e2be5b5167c4782b3798d384d397005d668f35789d628c31719e1e4",
    "estimate_table1_reflected":
        "8b994bbf40e29ef02758f244a237812db423f7e772bf9b83d9d16859d1809aa2",
    "estimate_table1_stopped":
        "e611b5d5828990a37963a51c3e4796c7e5b190a87eaa64a1657b2e8e9364ae82",
    "estimate_table1_tau":
        "59bc78070e272c9c9de4af1493fa7f016a55babe05d058258b2deacf5d3bbad0",
    "estimate_table2_reflected":
        "7a204d9c4eb112b9abfde8654e4463c7b19ecb1271dd7e8489690d7810c092d8",
    "estimate_table2_stopped":
        "89f7622324f7ff2ba94f4ff5d56c2b398acb988ade7b0e9953ffdc6378b8aec3",
    "folds_eps_sweep":
        "a886ea11eef1765ab96f72229f8f7881dc41f0aaf065cb57882bf7a5e37c4a53",
    "folds_histogram":
        "ab491acaa59455046ef5d3973d25d089e99a51a0bbc4f271ef87983ffb9ce06b",
    "ito_table3_reflected":
        "27912acd146425c7d9f12fd2d2bb44a58c3323dc89b9686cc444c6e2166703dc",
    "ito_table3_stopped":
        "3be927d0c074a4d5e6609771c95ef733057688a63790de93d5381dbfb6f018a9",
    "sample_reflected":
        "bf2c86038958bc78ed7a30900ecc836885d9008178c5ab32d78e8a7deed7d93e",
    "sample_reflected_apex_floor":
        "5518d1f07dfa3c04b364f9b44b9ce196022106b7d56f288337f357ccd3b2b5cb",
    "sample_reflected_apex_floor_drift":
        "67fb3f91eddc922f0856ed75e26f2ac4587a4ec46ab6e60fafe6be496080ee3f",
    "sample_reflected_apex_start":
        "51d96740c7e6ea9a0c9181c6436f3f888350abc59e99aeb2fb6e59b1a30a8ab2",
    "sample_reflected_apex_start_drift":
        "8d5efc9feac6d4b896b223a1f6c80d089438ff34089ebb930b7d705241a7bb16",
    "sample_reflected_corner":
        "3f01008a3a2a68613edb70c11e201c93e6e89b3194e4b0a8e1f90df3eefbe28e",
    "sample_reflected_corner_drift":
        "358776dd16d98663bbb1f5785d31609458fb64088db3d2197a52841ec7bba094",
    "sample_reflected_correlated":
        "4f7f1756de39fd031a3ecde3971f9511644bf4abf27673c954ac4776cc118859",
    "sample_reflected_drift":
        "8a6d4b18419d3e3b4be4021aa2273e1ea008aedb0f599e10471c91776075b9bf",
    "sample_reflected_faults":
        "f0fad2944e55e976e8e2c62af6a5d26a7cc87eddfed68b75e0cb60f1823f2222",
    "sample_reflected_pi_over_3":
        "a976e210a6b0bf0daec29bd0e4c6f5b1852f8de51dfd576260c53087fee009cf",
    "sample_stopped":
        "27cea26e47f3753eb9ab1050ccb81fcbad10c7dc67797f835b031253bae7e313",
    "sample_stopped_alpha_4":
        "abfb1d1dd2e0bd5ea0d9f80ec68831f22a497517f6b0d51d5757fff6d201c07e",
    "sample_stopped_correlated":
        "ed4bd5a47b656d7bf890ff155db17d2f9437989a7703d22644dc0c8d72da28e2",
    "sample_stopped_drift":
        "288fc67304448c25d76e12d13161febf829f5af3cbe3fd489780669ec779049f",
}

# a correlated setup's reflected Euler run, in the setup's own coordinates
# with diffusion setup.sigma: the standard frame of sigma decorrelates.
# Recorded again when the passes became survivor-first, when the Euler
# cells became blocked, when `RngStream` became a Philox stream, and when
# the uniforms became ((x >> 12) + 0.5) 2^-52
EULER_CORRELATED_DIGEST = (
    "b6f0df9e81057330a06a1bbf676db7f8506f6ad9f6beccc2994be8467feea57d")

# the repr of every float of a few paths of each `ito --table3-*` preset at
# its own 5000 steps, where most cells are plain cells of long runs
EULER_TABLE3_DIGEST = (
    "e12a5685b05971ddc193901dc3527259bda4c420fbb7cb0651270ffaa51f8397")

# the repr of every float of small lane runs of the exact modes: the
# Table 1 and Table 2 reflected rows, the exact fold row (eps 0, fold cap
# 150, where some paths fault), the Table 1 exit row (T = inf) and the
# Table 1 reflected row under constant drift, which pins the weight. The
# CSV cases print 12 digits and cannot see a change of the last bits
LANES_DIGEST = (
    "55e72f00f967b17f2bf8acdaeb9cc04a6c75c4b376d7634ab81e3b548b03e1c9")

# the repr of every float of the lane runs LANES_DIGEST leaves out: the
# Table 1 and Table 2 stopped rows at T = 1, and stopped and reflected
# batches at opening 4.0 (every pass in a half-plane, m = 1) and at pi/3
# (the sub-wedge is the wedge itself)
LANES_STOPPED_DIGEST = (
    "d267acccc6dc3e589adba9433db70934f6d4c0436ab973a7307a553dde7d42e1")


def euler_correlated_digest():
    """sha256 of the repr of every PathSample field, fault flag and
    input-frame endpoint of five correlated reflected Euler paths."""
    setup = CorrelatedSetup(sigma1=1.2, sigma2=0.8, rho=0.4, slope=2.0,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.5))
    config = EstimatorConfig(mode=Mode.EULER_REFLECTED,
                             func=TestFunction.RADIUS_SQ, horizon=1.0,
                             n_samples=5, seed=7, setup=setup, steps=40,
                             mu=(0.5, 0.3), kappa=(0.2, 0.1), epsilon=0.03)
    rows = map_paths(config, lambda _i, sample, faulted, xy:
                     (vars(sample), faulted, xy))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def preset_config(preset, n, **overrides):
    """The EstimatorConfig of a CLI preset (a dict of its flags) at n paths
    and seed 7, with any flag overridden."""
    flags = dict(preset, **overrides)
    return EstimatorConfig(
        mode=Mode(flags["mode"]), func=TestFunction(flags["func"]),
        horizon=flags["T"], n_samples=n, seed=7,
        wedge=WedgeSpec(0.0, flags["alpha"]),
        start=PolarPoint(*flags["start"]),
        drift=flags.get("drift", (0.0, 0.0)),
        epsilon=flags.get("eps", DEFAULT_EPSILON),
        fold_cap=flags.get("fold_cap", DEFAULT_FOLD_CAP),
        steps=flags.get("steps", 0), mu=flags.get("mu", (0.0, 0.0)),
        kappa=flags.get("kappa", (0.0, 0.0)))


def repr_digest(configs):
    """sha256 of the repr of every PathSample field, fault flag and
    input-frame endpoint of the paths of each config, through map_paths."""
    rows = [map_paths(config, lambda _i, sample, faulted, xy:
                      (vars(sample), faulted, xy)) for config in configs]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def euler_table3_digest():
    return repr_digest([preset_config(ITO_PRESETS[name], 4)
                        for name in ("table3_stopped", "table3_reflected")])


def lanes_digest():
    table1 = ESTIMATE_PRESETS["table1_reflected"]
    return repr_digest([
        preset_config(table1, 200),
        preset_config(ESTIMATE_PRESETS["table2_reflected"], 200),
        preset_config(table1, 300, eps=0.0, fold_cap=150),
        preset_config(ESTIMATE_PRESETS["table1_exit"], 200),
        preset_config(table1, 200, drift=(0.3, -0.2)),
    ])


def lanes_stopped_digest():
    stopped = ESTIMATE_PRESETS["table1_stopped"]
    reflected = ESTIMATE_PRESETS["table1_reflected"]
    return repr_digest([
        preset_config(stopped, 200),
        preset_config(ESTIMATE_PRESETS["table2_stopped"], 200),
        preset_config(stopped, 200, alpha=4.0, start=(1.5, 2.0)),
        preset_config(reflected, 200, alpha=4.0, start=(1.5, 2.0)),
        preset_config(stopped, 200, alpha=math.pi / 3),
        preset_config(reflected, 200, alpha=math.pi / 3),
    ])


def digest(argv, out_path):
    seed = [] if argv[0] == "density" else SEED
    code = run_cli(argv + seed + ["--out", str(out_path)])
    assert code == 0, argv
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(name, tmp_path):
    assert digest(CASES[name], tmp_path / "out.csv") == DIGESTS[name]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


def test_euler_correlated_setup_matches_golden_digest():
    assert euler_correlated_digest() == EULER_CORRELATED_DIGEST


def test_euler_table3_presets_match_golden_digest():
    assert euler_table3_digest() == EULER_TABLE3_DIGEST


def test_lane_runs_match_golden_digest():
    assert lanes_digest() == LANES_DIGEST


def test_stopped_and_half_plane_lane_runs_match_golden_digest():
    assert lanes_stopped_digest() == LANES_STOPPED_DIGEST


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        for name in sorted(CASES):
            sys.stdout.write(f'    "{name}":\n        "{digest(CASES[name], out)}",\n')
    print(f'EULER_CORRELATED_DIGEST = "{euler_correlated_digest()}"')
    print(f'EULER_TABLE3_DIGEST = "{euler_table3_digest()}"')
    print(f'LANES_DIGEST = "{lanes_digest()}"')
    print(f'LANES_STOPPED_DIGEST = "{lanes_stopped_digest()}"')
