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

from wedgebm.cli import run_cli
from wedgebm.drift import CoefficientField, euler_reflected
from wedgebm.geometry import CorrelatedSetup, PolarPoint, RegionCase, WedgeSpec
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, map_paths
from wedgebm.rng import RngStream

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
        "fd39424472d3c5757feb544703f3eb09a7171d24f28fb8737b9429b58f72f4c1",
    "estimate_drift_reflected":
        "2196b7bb712c1c0f93e9fda057cbfddf0cc2f610b9258357c65542ca9b93cbb5",
    "estimate_table1_coord1":
        "07894abba7cb6a7022faabb236454b26f2853d970bc23d20dd81e2cc59d00c0e",
    "estimate_table1_exit":
        "d33f108341ef9c93b5ee7554f8709906369fa0d4092ebad90a7804efbf0991b4",
    "estimate_table1_reflected":
        "9cbecd4fcb6564eb7cea24f40c2414bd11bef97cce1e92ac95dde3d499440b7e",
    "estimate_table1_stopped":
        "8cb6416d3eaca5abf0476818b417793ce7c9e61811a1fde2761436d6f1d669af",
    "estimate_table1_tau":
        "1cedd4dbbe4b19290e534e3e6b037e97fc3dc98c707e6f83d0ee8f0d9fa34b5f",
    "estimate_table2_reflected":
        "3cafb132cdd548cfaa47519096a87ebdf71f0f0b82745a73312c4c3c9c73b097",
    "estimate_table2_stopped":
        "98455dcab2e9450b74c1796a9a0108362f73ca4d9ba878d0a01ab957616e937a",
    "folds_eps_sweep":
        "980f4435bb82d453204c7d8ebfb33ff70d32ecd985c68486e091df52b25cd2ae",
    "folds_histogram":
        "c3cf115ee12d40296d3eab031e8146e9c84fd69bad2ca142b5d7922392e4e21f",
    "ito_table3_reflected":
        "4e684ba39cb7f5f9c57664434d257e27cd3d8a5493b1267529a4d270d4bd325c",
    "ito_table3_stopped":
        "d50580905ebfb21d1aea0434c0bcc924d31f453215d90ff3cc92309760e8be5b",
    "sample_reflected":
        "3d006abeea6bf1f82dc61ae4274d6214fc3f039c0780f0d2ff8ab27a9e5b1eb2",
    "sample_reflected_apex_floor":
        "ed6d55e906987b661f2f0772ce0a4b9cc5a785ccb0d454e3fd138b532f118977",
    "sample_reflected_apex_floor_drift":
        "d580df3cc5e3ab5d8626b72eaad15190990b6d66457d3e286d5aa2d400acb71b",
    "sample_reflected_apex_start":
        "da593aa0905b365ddf8439264c43db772de92f11a15b3e2afde802cb03868fc7",
    "sample_reflected_apex_start_drift":
        "78b7ad4f10345467832197d99203f23b6de475b518d14183f8d356002dddd5a4",
    "sample_reflected_corner":
        "c5defb0d18ebee77f43201e7cd46fce0f02cf14c743c168404942d6550a18050",
    "sample_reflected_corner_drift":
        "34126c094d4e0bd7ec356dff0313cf62a3b438a7bf1f1e8b9c8598f0b5fb17aa",
    "sample_reflected_correlated":
        "4fd7e1af454412604c860720a8bf75420c7d4637109660463f8d26b2f965e032",
    "sample_reflected_drift":
        "808c5ea144b441a329f83319ec7ccd31559a375c0bc5577c2b2a6d8920a53646",
    "sample_reflected_faults":
        "32420d1232313f75c83b3501a805adb0ff0b826fc89246cbd9565aacc54f3585",
    "sample_reflected_pi_over_3":
        "8a8291d7782f14a09bbfad1cd5d16d89226b9344b5e5681dfe4466d2dc98538e",
    "sample_stopped":
        "05add527c7cb4c068e0477a4a1be23af0212ac49b4b3714a846c146f48b1cb9a",
    "sample_stopped_alpha_4":
        "98d619595072e73e913a201f71fd8d65147394487cefc825e6300f460d45ca03",
    "sample_stopped_correlated":
        "26f4d384ad18094cf54c6d389ae3190b66826b39069b3cc0e7cceae32fdd8fa4",
    "sample_stopped_drift":
        "5ac282a153d0c92c2cdc8861db3e64a84d710ea9c7978ad154fc3f44eadd9ddd",
}

# recorded again when the survivor proposal became the folded free Gaussian
# endpoint, when the passes became survivor-first (every Euler cell ends in a
# survivor draw), and when the Euler cells became blocked
EULER_STATE_DEPENDENT_DIGEST = (
    "ca8001a4111b86e279b0db40d06bc3966e6caac50bd6ce2befee0ddc8aced6b6")

# a correlated setup's reflected Euler run, in the setup's own coordinates
# with diffusion setup.sigma: each cell's standard frame decorrelates.
# Recorded again when the passes became survivor-first, and when the Euler
# cells became blocked
EULER_CORRELATED_DIGEST = (
    "b88485bcc0b8a0e14f036d19a51abfd84d167b4789ef78d3edb4643206b452d3")


# the frozen diffusion changes with the state, so every Euler cell has its
# own frame and its own sub-wedge opening
def _state_dependent_field():
    def b(x, _t):
        return (-0.5 * x[0], 0.2 - 0.3 * x[1])

    def s(x, _t):
        return ((1.0 + 0.3 * math.tanh(x[0]), 0.2 * math.sin(x[1])),
                (-0.1, 0.8 + 0.2 * math.cos(x[0])))

    return CoefficientField(drift=b, diffusion=s)


def euler_state_dependent_digest():
    """sha256 of the repr of every PathSample field of five Euler paths."""
    coeffs = _state_dependent_field()
    wedge = WedgeSpec(0.0, 0.9)
    root = RngStream(7)
    h = hashlib.sha256()
    for i in range(5):
        sample = euler_reflected(coeffs, PolarPoint(1.5, 0.3), 1.0, 40, wedge,
                                 root.derive(i), epsilon=0.03)
        h.update(repr(vars(sample)).encode())
    return h.hexdigest()


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


def test_euler_state_dependent_diffusion_matches_golden_digest():
    assert euler_state_dependent_digest() == EULER_STATE_DEPENDENT_DIGEST


def test_euler_correlated_setup_matches_golden_digest():
    assert euler_correlated_digest() == EULER_CORRELATED_DIGEST


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        for name in sorted(CASES):
            sys.stdout.write(f'    "{name}":\n        "{digest(CASES[name], out)}",\n')
    print(f'EULER_STATE_DEPENDENT_DIGEST = "{euler_state_dependent_digest()}"')
    print(f'EULER_CORRELATED_DIGEST = "{euler_correlated_digest()}"')
