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
from wedgebm.drift import CoefficientField, TimeGrid, euler_reflected
from wedgebm.geometry import PolarPoint, WedgeSpec
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
    # the three reflected endings: an apex start (folds 0), a start below
    # the apex floor (folds 1) and a first-pass corner draw; with drift the
    # weight column also pins the driving endpoint each ending draws
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
# 0.3683041484075000 after (mpmath: 0.36830414840750840). Every case that
# draws a survivor (all sampling cases but the T = inf exit rows and the fold
# counts, where the survivor and corner draws are terminal) was recorded
# again when the survivor proposal became the folded free Gaussian endpoint.
# The apex, apex-floor and corner cases were recorded before the reflected
# recursion always tracked its driving endpoint, and pin that it did not move.
DIGESTS = {
    "density_images_killed":
        "20e1fc928f8ccfb52c36b01f3cae8d7d5ce0a753378acb5631447eaa07c2ac95",
    "density_images_reflected":
        "4cee6e6f45e03f63e68311fe1563f069513274dbe1b5530d66b3e51fd5702770",
    "density_series_killed":
        "af5993bc6fdfbd4b6083702d596d745e817ddf9421bb2d19188ba306678c54bf",
    "density_series_reflected":
        "8970ea8770a4f113a764be5b32116085882535400b0854210ee40e349176d0fd",
    "estimate_correlated":
        "0e98a13d34763953f263ccf9aa2a8bd98f9eb131d2587e0bc93ab50340d313a5",
    "estimate_drift_reflected":
        "3c25de836e6ff7f1aab276c6584c35a24f6af28c8e4519d57f324adbcfbe377d",
    "estimate_table1_coord1":
        "1cede1c528130b855f732eea3fa64a69abd21fed6ec85f837683e067d2590d03",
    "estimate_table1_exit":
        "b84ac3b1ba9acca4384dd1e79970e266a76e906d7e7be9f2736176e4f7a347db",
    "estimate_table1_reflected":
        "b0070f9bd805a91bc1b8126c5c7202d714cdd7a82db8efa9fcb1ee8d8d916992",
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
        "057ba823866fcc6976de3f7a9b96fe2c07ffedb66c8a62cbfce9f9b2e771207a",
    "sample_reflected_apex_floor":
        "e776d433d87911cbe0bb31b10c298eb51a5a152833d7cc1328541597cac337b4",
    "sample_reflected_apex_floor_drift":
        "de9b403830dda8d4dd66f06b503038199d4a00bea608ada10cadac13ea28a9a7",
    "sample_reflected_apex_start":
        "07194227523dc637138e4fb5a7754ec65221cd45ad5872747e3fa94f17adec77",
    "sample_reflected_apex_start_drift":
        "64def71b45bf15de8ce362380c159f271cd3f34e03ea854f39b3e3f9f00388fd",
    "sample_reflected_corner":
        "3e528552b6a1a9e738d8c9eda2dab8b59fa13c5c262c6640a3f8bf9fb919c610",
    "sample_reflected_corner_drift":
        "4eae1ff9ccbc30fa30f26eedf519071e66705853a1ca87ac13e6a86a72b2cc0d",
    "sample_reflected_correlated":
        "2b7a1b61bcfa6ae8a7fc8b5fa0f88ab0cd0f3236b3e881f40c0f7e301cce6239",
    "sample_reflected_drift":
        "3142f513a64afddc5fb1a9bf09514241dd4e7de2f94cf6f27714bb829c6faa53",
    "sample_reflected_faults":
        "8efe59bce9a3ef1bfd0f216fd7289bfea9419e0e5b0abb3b8c1ef820ad0b6c17",
    "sample_reflected_pi_over_3":
        "d53306aa11cecd8f90b9b13507f32c37414215ccad17372843d447e8be556662",
    "sample_stopped":
        "38cf5541edc725314f3f9bfd516a3412580a38dbdc7a250ece339e70ef5c7f64",
    "sample_stopped_alpha_4":
        "fbf90889f0dc65c77342a3e8d0ff6278c936c8f8d1d708a9a1ff2db6aeaa96c8",
    "sample_stopped_correlated":
        "7aea103d892302fe16f75f38e3016a47443db55d8181364a307e93e27d6bcbb9",
    "sample_stopped_drift":
        "ce6eb5f4b8a8ec6cca8ded35f319fb6e1caf5c130813154b3f001a96051c765c",
}

# recorded again when the survivor proposal became the folded free Gaussian
# endpoint; every Euler cell ends in a survivor draw
EULER_STATE_DEPENDENT_DIGEST = (
    "614df598a51eb7144426420e925d7adcb16d7978f84a7cf0c07f748ced42f739")


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
    grid = TimeGrid.uniform(1.0, 40)
    wedge = WedgeSpec(0.0, 0.9)
    root = RngStream(7)
    h = hashlib.sha256()
    for i in range(5):
        sample = euler_reflected(coeffs, PolarPoint(1.5, 0.3), grid, wedge,
                                 root.derive(i), epsilon=0.03)
        h.update(repr(vars(sample)).encode())
    return h.hexdigest()


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


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        for name in sorted(CASES):
            sys.stdout.write(f'    "{name}":\n        "{digest(CASES[name], out)}",\n')
    print(f'EULER_STATE_DEPENDENT_DIGEST = "{euler_state_dependent_digest()}"')
