"""The quick oracle scripts of `scripts/oracles/` still say what their
committed `.out` files say.

Each script is re-run and must exit 0 and print, verbatim, the lines of its
`.out` that the tests and `perfbench/workloads.py` quote (or, where nothing
is quoted, the oracle's own verdict). Lines at the rounding level, such as
`diff = 5.55e-15`, move with the numpy and scipy versions and are not
compared. `bessel_reference.py` is left out: it takes minutes, and its
values are frozen in `tests/test_bessel.py`.
"""

import pathlib
import subprocess
import sys

import pytest

ORACLES = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "oracles"

# script -> the lines of its .out that must come out again
QUOTED = {
    # the verdict: the n = 0 radial kernel is a probability density
    "corner_reference": [
        "  r_n=0.05 t'=0.5: integral = 1",
        "  r_n=0.3 t'=1.2: integral = 1",
        "  r_n=1.0 t'=0.2: integral = 1",
    ],
    # the openings of tests/test_geometry.py
    "decorrelation_reference": [
        "  AND_POS s1=2.0 s2=1.0 rho=0.3 a=0.7: alpha'=1.16108383097 "
        "(den=+0.58) mismatches=0",
        "  AND_POS s1=1.0 s2=0.5 rho=0.8 a=2.0: alpha'=2.3127435948 "
        "(den=-1.1) mismatches=0",
    ],
    # E_TAU_09 of tests/test_samplers.py
    "exit_law_reference": [
        "  alpha=0.9 r0=1.5 theta0=0.3: E[tau] = 0.603983776203428",
    ],
    # the spot values of tests/test_densities.py
    "one_dim_reference": [
        "one_dim(killed, x0=1.0, w=0.7, t=0.9) = 0.31558140738478757",
        "one_dim(reflected, x0=1.0, w=0.7, t=0.9) = 0.48444455823530314",
        "one_dim(killed, x0=0.5, w=1.2, t=2.0) = 0.1126034986991271",
        "one_dim(reflected, x0=0.5, w=1.2, t=2.0) = 0.38653835737317782",
    ],
    # the published-row targets of perfbench/workloads.py, the reflected
    # row's 4.25 by its closed form and by quadrature
    "table_targets_reference": [
        "E[tau]            = 0.6039837762",
        "E[|W_tau|^2]      = 3.457967552",
        "E[|W_{tau and 1}|^2] = 3.030957057",
        "E[W . e1]         = 1.433004734",
        "E[|X_1|^2]        = 4.25  (closed form)",
        "quadrature check  = 4.25 (mass 1)",
        "E[sin^2 theta(X_1)]  = 0.1189747047",
        "E[sin^2 theta stopped] = 0.1953364483",
    ],
}


@pytest.mark.slow
def test_quick_oracles_reproduce_their_quoted_lines():
    for name, lines in QUOTED.items():
        committed = (ORACLES / f"{name}.out").read_text().splitlines()
        assert all(line in committed for line in lines), name
        run = subprocess.run([sys.executable, str(ORACLES / f"{name}.py")],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, (name, run.stderr)
        fresh = run.stdout.splitlines()
        assert [line for line in lines if line not in fresh] == [], name
