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

# recorded from the code before the path-engine refactor; the pi/3 and
# alpha = 4 sampling cases were recorded before the pass plan;
# density_series_reflected was recorded again when the Bessel terms moved to
# scipy's ive: its cell (0.9167, 0.15) sits on a %.12g tie, 0.3683041484075001
# before and 0.3683041484075000 after (mpmath: 0.36830414840750840)
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
        "b6c996be05ed3d7da899a345b6ab73c634f140554c35a25be3dff57f6743e29d",
    "estimate_drift_reflected":
        "970b0a277f55052bf91fd10795bff05157e1d885ea3dd2ebd6ab4ae228ab49d6",
    "estimate_table1_coord1":
        "d6638b0fc22ff7677018aa80168c98df2c7f289cd27a69d4d2057e8f0046308f",
    "estimate_table1_exit":
        "b84ac3b1ba9acca4384dd1e79970e266a76e906d7e7be9f2736176e4f7a347db",
    "estimate_table1_reflected":
        "f348d530f3057ddcc20f9e1c0d862f005611e91fd333eb7343754f46454b12b1",
    "estimate_table1_stopped":
        "88e45122c9c69bd857e47e90dc7581ad665b241dbeb2e9ce837de7a4d74c6cd1",
    "estimate_table1_tau":
        "f93ef2e7241a521283cbc69206868686817a6603116455a4d6bbfa16ed51adb9",
    "estimate_table2_reflected":
        "10f6d7abe7bc9de211dfd1f3ebf7414cf6d895587ee46286706cb9678e896555",
    "estimate_table2_stopped":
        "5c8036480f53493e96886b7d48f8ca48a2d91e179ef2c970e1692c608f5e25ec",
    "folds_eps_sweep":
        "a886ea11eef1765ab96f72229f8f7881dc41f0aaf065cb57882bf7a5e37c4a53",
    "folds_histogram":
        "fe8f46334930ae6843b4dd2edb2fa72d587614bd96baf6daddedabff9a86c7ef",
    "ito_table3_reflected":
        "b64e11b70ec2466ae09d2e308aef60750ccd2b9ba55d495e8ff35e4597b45b34",
    "ito_table3_stopped":
        "52548d17ad7b20b200c87409f83d70e7e4db2cfeb9270c6d3de2c33a702044f0",
    "sample_reflected":
        "631a89208af3e0ac3d4f72a356be98c8475d5dbc407a03af880d1193c4ef8c63",
    "sample_reflected_correlated":
        "133294ccb8e57de74297d07fdbc1f3e2ec9f9367be6344773fb6718ec384af02",
    "sample_reflected_drift":
        "539a58986e6bb6f643451c2831bad12877522f3d6e144b1a44e58115ade374f8",
    "sample_reflected_faults":
        "5bc1606e8bcaef08ed4dca42922b68f3d9939e07ef89e846ec623f8f1e7d2188",
    "sample_reflected_pi_over_3":
        "3ea035761245388776eb6d1f5e5739f46eb1d9282bd59e8e48820b0fcef307a2",
    "sample_stopped":
        "85786341dc9e797faf15e815eeab01d5d0f0b71000721751366a16090953b156",
    "sample_stopped_alpha_4":
        "5e0ca6f498ac9ebb8ac66c0b99d780ab3632625a514642bd39d59214fcf960a2",
    "sample_stopped_correlated":
        "221fa0a4605e77107fc62347b9e514949db2eed01b5d62a71c0a943cf1d163d5",
    "sample_stopped_drift":
        "1e0a90f9430cdb91344755b778e47cc1dc7547a73f63a9f9dd93ca48213f5cc2",
}

# recorded from the code before the pass plan (sub-wedge, m and images built
# once per opening, the Euler cell frame reused while sigma is unchanged)
EULER_STATE_DEPENDENT_DIGEST = (
    "e121ec1ab43ac1ded94f7d65d06f87498ec014337be1564eeed61330a41f6d30")


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
