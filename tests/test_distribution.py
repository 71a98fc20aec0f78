"""The whole endpoint law of both recursions against the series densities.

Endpoints are binned on an (r, theta) grid. Each cell's probability is a
12 x 12 Gauss-Legendre quadrature of `reflected_density_series` or
`killed_density_series` (both w.r.t. dr dtheta); the stopped recursion adds
one cell for "hit by T", whose probability is 1 minus the killed mass. A
chi-square test at a fixed seed compares the counts with these
probabilities. The densities do not depend on the random stream, so this
checks any sampler change in law, where the golden digests pin bytes. Each
case runs both the scalar recursions and their numpy lanes (`lanes`),
which the exact modes of `estimate` and `sample-*` run. On
`RngStream(seed).derive(i)` the scalar recursions draw the lanes' paths
(tests/test_lanes.py checks that path for path), so the two tests of a
case agree unless one of the two implementations drifts. The driftless
Euler schemes, whose cells chain the recursions, are checked the same way.

Path counts and the p threshold were fixed before the first run.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from wedgebm.densities import killed_density_series, reflected_density_series
from wedgebm.drift import euler_paths, linear_field
from wedgebm.geometry import PolarPoint, WedgeSpec
from wedgebm.lanes import reflected_paths, stopped_paths
from wedgebm.rng import RngStream
from wedgebm.samplers import (DEFAULT_FOLD_CAP, algorithm_reflected,
                              algorithm_stopped)

from columns import pairs

N_PATHS = 4000
P_MIN = 1e-3
NODES, WEIGHTS = np.polynomial.legendre.leggauss(12)
EPSILON = 0.03

# (opening, start (r, theta), T): the two published geometries, a narrow
# wedge and one wider than pi
GEOMETRIES = {
    "alpha_0.9": (0.9, (1.5, 0.3), 1.0),
    "alpha_0.58": (0.58, (3.0, 0.4), 1.0),
    "alpha_0.2": (0.2, (1.0, 0.1), 0.05),
    "alpha_4.0": (4.0, (1.5, 2.0), 1.0),
}
SEEDS = {"alpha_0.9": 1601, "alpha_0.58": 1602, "alpha_0.2": 1603,
         "alpha_4.0": 1604}


def _edges(alpha, r0, t):
    sd = math.sqrt(t)
    r_edges = np.linspace(max(0.0, r0 - 3.0 * sd), r0 + 3.0 * sd, 9)
    r_edges[0], r_edges[-1] = 0.0, r0 + 10.0 * sd
    return r_edges, np.linspace(0.0, alpha, 7)


def _gauss_legendre(lo, hi):
    half = 0.5 * (hi - lo)
    return lo + half * (NODES + 1.0), half * WEIGHTS


def _cell_probabilities(density, wedge, start, t, r_edges, th_edges):
    probs = np.zeros((len(r_edges) - 1, len(th_edges) - 1))
    for i in range(len(r_edges) - 1):
        rs, wr = _gauss_legendre(r_edges[i], r_edges[i + 1])
        for j in range(len(th_edges) - 1):
            ths, wth = _gauss_legendre(th_edges[j], th_edges[j + 1])
            probs[i, j] = sum(
                a * b * density(wedge, PolarPoint(r, th), start, t)
                for r, a in zip(rs, wr) for th, b in zip(ths, wth))
    return probs


def _chi_square_p(counts, probs, n):
    expected = n * probs
    keep = expected >= 5.0  # pool the sparse cells, if any, into one
    obs, exp = counts[keep], expected[keep]
    if not keep.all():
        obs = np.append(obs, counts[~keep].sum())
        exp = np.append(exp, expected[~keep].sum())
    stat = ((obs - exp) ** 2 / exp).sum()
    return chi2.sf(stat, len(obs) - 1)


def _p_value(samples, stopped, wedge, start, t):
    """Chi-square p of the endpoints of `samples` against the series density
    of `wedge`, with a "hit by t" cell for the stopped recursion."""
    alpha = wedge.opening
    r_edges, th_edges = _edges(alpha, start.r, t)
    density = killed_density_series if stopped else reflected_density_series
    probs = _cell_probabilities(density, wedge, start, t, r_edges, th_edges)
    if stopped:
        assert 0.0 < probs.sum() < 1.0
    else:
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    counts = np.zeros_like(probs)
    hits = 0
    for sample in samples:
        if sample.hit_boundary:
            hits += 1
            continue
        end = sample.endpoint
        assert end.r < r_edges[-1] and 0.0 <= end.theta <= alpha
        ri = min(np.searchsorted(r_edges, end.r, side="right") - 1, len(r_edges) - 2)
        ti = min(np.searchsorted(th_edges, end.theta, side="right") - 1,
                 len(th_edges) - 2)
        counts[ri, ti] += 1
    assert hits == 0 or stopped
    counts, probs = counts.ravel(), probs.ravel()
    if stopped:
        counts = np.append(counts, hits)
        probs = np.append(probs, 1.0 - probs.sum())
    return _chi_square_p(counts, probs, len(samples))


@pytest.mark.parametrize("recursion", ["stopped", "reflected"])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_endpoint_law_matches_series_density(name, recursion):
    alpha, (r0, th0), t = GEOMETRIES[name]
    wedge, start = WedgeSpec(0.0, alpha), PolarPoint(r0, th0)
    root = RngStream(SEEDS[name])
    if recursion == "stopped":
        samples = [algorithm_stopped(start, t, wedge, root.derive(i))
                   for i in range(N_PATHS)]
    else:
        samples = [algorithm_reflected(start, t, wedge, root.derive(i),
                                       epsilon=EPSILON)
                   for i in range(N_PATHS)]
    assert _p_value(samples, recursion == "stopped", wedge, start, t) > P_MIN


@pytest.mark.parametrize("recursion", ["stopped", "reflected"])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_lane_endpoint_law_matches_series_density(name, recursion):
    alpha, (r0, th0), t = GEOMETRIES[name]
    wedge, start = WedgeSpec(0.0, alpha), PolarPoint(r0, th0)
    paths = range(N_PATHS)
    if recursion == "stopped":
        rows = stopped_paths(start, t, wedge, SEEDS[name], paths,
                             DEFAULT_FOLD_CAP)
    else:
        rows = reflected_paths(start, t, wedge, SEEDS[name], paths, EPSILON,
                               DEFAULT_FOLD_CAP)
    samples = [sample for sample, _faulted in pairs(rows)]
    assert _p_value(samples, recursion == "stopped", wedge, start, t) > P_MIN


# A driftless Euler path with identity diffusion is the recursion chained
# over its cells, so its endpoint has the same law. EULER_STEPS cells make
# the blocks long and leave room for the cells that fall back to the
# recursion (a fold, a refused trial, a corner or a hit).
EULER_STEPS = 150
EULER_SEEDS = {"stopped": 1701, "reflected": 1702}
EULER_EPSILON = 0.01


@pytest.mark.parametrize("recursion", ["stopped", "reflected"])
def test_driftless_euler_endpoint_law_matches_series_density(recursion):
    alpha, (r0, th0), t = GEOMETRIES["alpha_0.9"]
    wedge, start = WedgeSpec(0.0, alpha), PolarPoint(r0, th0)
    field = linear_field((0.0, 0.0), (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    rows = pairs(euler_paths(field, start, t, EULER_STEPS, wedge,
                             EULER_SEEDS[recursion], range(N_PATHS),
                             recursion == "reflected", EULER_EPSILON,
                             DEFAULT_FOLD_CAP))
    assert not any(faulted for _sample, faulted in rows)
    samples = [sample for sample, _faulted in rows]
    assert _p_value(samples, recursion == "stopped", wedge, start, t) > P_MIN
