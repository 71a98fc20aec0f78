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
# one before.
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
        "0e98a13d34763953f263ccf9aa2a8bd98f9eb131d2587e0bc93ab50340d313a5",
    "estimate_drift_reflected":
        "5c6aad395c181c859dadf174642bf2273f8d99fdcdaa8c9a8408c5c0f7ae7aca",
    "estimate_table1_coord1":
        "1cede1c528130b855f732eea3fa64a69abd21fed6ec85f837683e067d2590d03",
    "estimate_table1_exit":
        "b84ac3b1ba9acca4384dd1e79970e266a76e906d7e7be9f2736176e4f7a347db",
    "estimate_table1_reflected":
        "b6052146ae04127a4960ba928bccc8c5c1dd5e30846a765f9957554ba5cb3620",
    "estimate_table1_stopped":
        "ba6af5326d4e39c9e9671f82b7e0bbb46e18b21186226cde88c43b39489f03bf",
    "estimate_table1_tau":
        "f93ef2e7241a521283cbc69206868686817a6603116455a4d6bbfa16ed51adb9",
    "estimate_table2_reflected":
        "5b1da3180075376198d29a876b50d7c4b73e1145552d1ec09dee912e659eab9d",
    "estimate_table2_stopped":
        "3f65a823a52b0a6b89f06795918668248647dedf0e1e1f289ff7099879c0ecba",
    "folds_eps_sweep":
        "a886ea11eef1765ab96f72229f8f7881dc41f0aaf065cb57882bf7a5e37c4a53",
    "folds_histogram":
        "fe8f46334930ae6843b4dd2edb2fa72d587614bd96baf6daddedabff9a86c7ef",
    "ito_table3_reflected":
        "ef83e9bcca0429ce9871545a4c9e4a1b407545986ff0bc5a8b1aa720cf9918ab",
    "ito_table3_stopped":
        "b6e88c2dc7b3ba674a975b5636d726d77b97016010ad159c633233fae2f7679e",
    "sample_reflected":
        "450886abbfb26f58decc43d39931327da3c537cebb03161bbe0e40b45795236c",
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
        "761a6b1afc162064103fe2bce91cf5777aa83e618a2019b4ec547701671a3e93",
    "sample_reflected_drift":
        "9d6f55186167e5d1e797f31d75e6b216ba62d246b6e6c568e2aa9e6f4d613283",
    "sample_reflected_faults":
        "8efe59bce9a3ef1bfd0f216fd7289bfea9419e0e5b0abb3b8c1ef820ad0b6c17",
    "sample_reflected_pi_over_3":
        "ac9eb6850ae08283cb82bbfa828da404f8ad2883d7c64ce94b160fe6ff878259",
    "sample_stopped":
        "f9161f876dd9952ff166f35c2e8a932decb2bac585f28ba6ba16b4f56496bc52",
    "sample_stopped_alpha_4":
        "fcb2c5619df12455ef41ed149afc13e919500b4fc4cf82fad74f33e69b51a943",
    "sample_stopped_correlated":
        "e1fb87adc80d3ee5397a377cc168a945f565c961821838b5dee5d9e2eeec7dc9",
    "sample_stopped_drift":
        "2520fda3a331ead36cd120516c48e7b1a06e99418a4a2d113fc4061d72a749b3",
}

# recorded again when the survivor proposal became the folded free Gaussian
# endpoint; every Euler cell ends in a survivor draw
EULER_STATE_DEPENDENT_DIGEST = (
    "614df598a51eb7144426420e925d7adcb16d7978f84a7cf0c07f748ced42f739")

# a correlated setup's reflected Euler run, in the setup's own coordinates
# with diffusion setup.sigma: each cell's standard frame decorrelates
EULER_CORRELATED_DIGEST = (
    "7c5a105e5efe8016acb0bb8ef953f462ac8300e9ce622b48ff132eee95f4f6a6")


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
