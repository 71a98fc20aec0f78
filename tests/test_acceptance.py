"""End-to-end acceptance gate.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each. Every Monte Carlo check runs at the full stated
sample size with a fixed seed, and compares against tabulated reference
values by 95% confidence-interval overlap.
"""

import math
import random

import numpy as np
import pytest
from scipy import integrate, stats

from wedgebm.cli import run_cli
from wedgebm.densities import (killed_density_images, killed_density_series,
                               reflected_density_images,
                               reflected_density_series)
from wedgebm.geometry import PolarPoint, WedgeSpec
from wedgebm.montecarlo import (EstimatorConfig, Mode, TestFunction,
                                eps_sweep, estimate, folding_stats)
from wedgebm.rng import RngStream
from wedgebm.samplers import algorithm_stopped

# every criterion runs at the full sample size: `pytest -m "not slow"` is
# the quick loop, the plain run still includes them
pytestmark = pytest.mark.slow

TABLE1_WEDGE = WedgeSpec(0.0, 0.9)
TABLE1_START = PolarPoint(1.5, 0.3)
TABLE2_WEDGE = WedgeSpec(0.0, 0.58)
TABLE2_START = PolarPoint(3.0, 0.4)


def run(seed, **kwargs):
    base = dict(wedge=TABLE1_WEDGE, start=TABLE1_START, horizon=1.0)
    base.update(kwargs)
    return estimate(EstimatorConfig(seed=seed, **base))


def check_overlap(report, ref, ref_hw, label):
    gap = abs(report.estimate - ref)
    slack = report.half_width_95 + ref_hw
    if gap > slack:
        return (f"{label}: estimate {report.estimate:.4f} "
                f"+- {report.half_width_95:.4f} does not overlap tabulated "
                f"reference value {ref} +- {ref_hw}")
    return None


def assert_overlap(report, ref, ref_hw, label):
    msg = check_overlap(report, ref, ref_hw, label)
    assert msg is None, msg


# ---------------------------------------------------------------------------
# criterion 1: stopped rows, square wedge table
# ---------------------------------------------------------------------------

def test_criterion_01_stopped_rows():
    rows = [
        (run(101, mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ,
             n_samples=10000), 2.980, 0.049, "E[|W|^2] at tau^T"),
        (run(102, mode=Mode.STOPPED, func=TestFunction.COORD_1,
             n_samples=10000), 1.441, 0.012, "E[W.e1] at tau^T"),
        (run(103, mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ,
             horizon=math.inf, n_samples=50000), 3.489, 0.085,
         "E[|W|^2] at tau"),
        (run(104, mode=Mode.STOPPED, func=TestFunction.ELAPSED_TIME,
             horizon=math.inf, n_samples=20000), 0.590, 0.024, "E[tau]"),
    ]
    for report, ref, hw, label in rows:
        assert_overlap(report, ref, hw, label)
        assert report.wall_time_seconds < 60.0, f"{label}: too slow"
    # the first-coordinate mean is harmonic, so the exact value is known
    coord = rows[1][0]
    se = coord.half_width_95 / 1.96
    assert abs(coord.estimate - 1.4330) <= 3.0 * se


# ---------------------------------------------------------------------------
# criterion 2: reflected row and narrow-wedge table
# ---------------------------------------------------------------------------

def test_criterion_02_reflected_and_narrow_wedge_rows():
    refl = run(201, mode=Mode.REFLECTED, func=TestFunction.RADIUS_SQ,
               n_samples=10000, epsilon=0.03)
    assert_overlap(refl, 4.313, 0.072, "reflected E[|X|^2]")
    assert 3.0 <= refl.mean_folds <= 8.0, \
        f"mean folds {refl.mean_folds:.2f} outside [3, 8]"
    t2s = run(202, mode=Mode.STOPPED, func=TestFunction.SIN_SQ_THETA,
              n_samples=10000, wedge=TABLE2_WEDGE, start=TABLE2_START)
    assert_overlap(t2s, 0.195, 0.003, "narrow wedge stopped")
    t2r = run(203, mode=Mode.REFLECTED, func=TestFunction.SIN_SQ_THETA,
              n_samples=5000, epsilon=0.03, wedge=TABLE2_WEDGE,
              start=TABLE2_START)
    assert_overlap(t2r, 0.117, 0.003, "narrow wedge reflected")


# ---------------------------------------------------------------------------
# criterion 3: weak Euler runs with mean-reverting drift
# ---------------------------------------------------------------------------

def test_criterion_03_euler_mean_reverting_rows():
    common = dict(func=TestFunction.RADIUS_SQ, n_samples=500, steps=5000,
                  mu=(0.1, 0.2), kappa=(0.7, 0.5))
    stopped = run(301, mode=Mode.EULER_STOPPED, **common)
    reflected = run(302, mode=Mode.EULER_REFLECTED, epsilon=0.01, **common)
    assert stopped.wall_time_seconds + reflected.wall_time_seconds < 1800.0
    failures = [m for m in (
        check_overlap(stopped, 0.600, 0.005, "Euler stopped"),
        check_overlap(reflected, 0.709, 0.009, "Euler reflected"),
    ) if m is not None]
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# criterion 4: series and image-sum densities agree
# ---------------------------------------------------------------------------

def _triples(m, count, seed, floor=1e-6):
    alpha = math.pi / m
    gen = random.Random(seed)
    out = []
    while len(out) < count:
        t = gen.uniform(0.5, 1.2)
        r0 = gen.uniform(0.4, 1.5)
        th0 = gen.uniform(0.05, 0.95) * alpha
        lo = max(0.05, r0 - 2.0 * math.sqrt(t))
        r = gen.uniform(lo, r0 + 2.0 * math.sqrt(t))
        th = gen.uniform(0.02, 0.98) * alpha
        start, target = PolarPoint(r0, th0), PolarPoint(r, th)
        # keep only points where the signed image sum retains enough digits:
        # near the apex the killed kernel cancels many orders below the
        # free-kernel scale 1/(2 pi t), and past the floor the double
        # precision sum would measure rounding, not agreement
        if killed_density_images(m, start, target, t) * 2.0 * math.pi * t \
                < floor:
            continue
        out.append((start, target, t))
    return out


def test_criterion_04_density_representations_agree():
    for m in (1, 2, 3, 6):
        wedge = WedgeSpec(0.0, math.pi / m)
        for start, target, t in _triples(m, 200, seed=400 + m):
            for images, series in (
                    (reflected_density_images, reflected_density_series),
                    (killed_density_images, killed_density_series)):
                a = images(m, start, target, t) * target.r
                b = series(wedge, target, start, t)
                assert a == pytest.approx(b, rel=1e-8, abs=1e-20), \
                    (m, images.__name__, start, target, t)

    # quarter plane: both kernels factor into 1D half-line formulas
    def phi(d, t):
        return math.exp(-d * d / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)

    for start, target, t in _triples(2, 200, seed=402, floor=1e-5):
        x0, y0 = start.cartesian()
        x, y = target.cartesian()
        refl = (phi(x - x0, t) + phi(x + x0, t)) * \
               (phi(y - y0, t) + phi(y + y0, t))
        kill = (phi(x - x0, t) - phi(x + x0, t)) * \
               (phi(y - y0, t) - phi(y + y0, t))
        assert reflected_density_images(2, start, target, t) == \
            pytest.approx(refl, rel=1e-10)
        assert killed_density_images(2, start, target, t) == \
            pytest.approx(kill, rel=1e-10, abs=1e-300)


# ---------------------------------------------------------------------------
# criterion 5: normalization and boundary behaviour
# ---------------------------------------------------------------------------

def test_criterion_05_normalization_and_boundary():
    start = PolarPoint(1.1, 0.5)
    t = 0.6

    # reflected kernel carries total mass 1
    alpha3 = math.pi / 3.0
    mass, _ = integrate.dblquad(
        lambda r, th: reflected_density_images(
            3, start, PolarPoint(r, th), t) * r,
        0.0, alpha3, 0.0, start.r + 10.0 * math.sqrt(t),
        epsabs=1e-9, epsrel=1e-9)
    assert abs(mass - 1.0) <= 1e-6, f"reflected mass {mass}"

    # killed kernel carries exactly the survival probability, which for a
    # quarter plane is a product of independent one-dimensional survivals
    wedge2 = WedgeSpec(0.0, math.pi / 2.0)
    start2 = PolarPoint(1.2, 0.65)
    x0, y0 = start2.cartesian()
    surv = math.erf(x0 / math.sqrt(2.0 * t)) * \
        math.erf(y0 / math.sqrt(2.0 * t))
    mass, _ = integrate.dblquad(
        lambda r, th: killed_density_series(
            wedge2, PolarPoint(r, th), start2, t),
        0.0, math.pi / 2.0, 0.0, start2.r + 10.0 * math.sqrt(t),
        epsabs=1e-9, epsrel=1e-9)
    assert abs(mass - surv) <= 1e-6, f"killed mass {mass} vs {surv}"

    # Dirichlet condition: the killed kernel vanishes on both rays, in both
    # representations
    wedge = WedgeSpec(0.0, 0.9)
    start3 = PolarPoint(1.5, 0.3)
    for r in (0.3, 0.9, 1.7, 2.6):
        for theta in (0.0, wedge.opening):
            assert abs(killed_density_series(
                wedge, PolarPoint(r, theta), start3, t)) <= 1e-10
        for theta in (0.0, math.pi / 2.0):
            assert abs(killed_density_images(
                2, start2, PolarPoint(r, theta), t)) <= 1e-10

    # Neumann condition: one-sided second-order difference of the reflected
    # kernel in theta, taken at each ray, is zero to 1e-6 relative
    delta = 1e-3
    for r in (0.5, 1.2, 2.1):
        for ray, sign in ((0.0, 1.0), (wedge.opening, -1.0)):
            vals = [reflected_density_series(
                wedge, PolarPoint(r, ray + sign * k * delta), start3, t)
                for k in range(3)]
            deriv = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * delta)
            assert abs(deriv) <= 1e-6 * max(vals[0], 1e-3), \
                f"Neumann residual {deriv} at r={r}, ray={ray}"


# ---------------------------------------------------------------------------
# criterion 6: exit law against half-plane closed forms
# ---------------------------------------------------------------------------

def test_criterion_06_half_plane_exit_law():
    half = WedgeSpec(0.0, math.pi)
    above = PolarPoint(1.0, math.pi / 2.0)

    # exit radius from unit height is standard half-Cauchy
    radii = np.array([
        algorithm_stopped(above, math.inf, half,
                          RngStream(601).derive(i)).endpoint.r
        for i in range(10000)])
    ks = stats.kstest(radii, lambda r: 2.0 / math.pi * np.arctan(r))
    assert ks.statistic < 0.02, f"KS statistic {ks.statistic:.4f}"

    # P(tau <= 1) from unit height is 2(1 - Phi(1))
    n = 100000
    hits = sum(
        algorithm_stopped(above, 1.0, half,
                          RngStream(602).derive(i)).hit_boundary
        for i in range(n))
    p0 = 2.0 * (1.0 - stats.norm.cdf(1.0))
    sigma = math.sqrt(p0 * (1.0 - p0) / n)
    assert abs(hits / n - p0) <= 3.0 * sigma

    # which ray is hit first follows the harmonic angle ratio
    n = 10000
    upper = 0
    for i in range(n):
        s = algorithm_stopped(TABLE1_START, math.inf, TABLE1_WEDGE,
                              RngStream(603).derive(i))
        assert s.endpoint.theta in (0.0, TABLE1_WEDGE.opening)
        upper += s.endpoint.theta != 0.0
    p0 = TABLE1_START.theta / TABLE1_WEDGE.opening
    sigma = math.sqrt(p0 * (1.0 - p0) / n)
    assert abs(upper / n - p0) <= 3.0 * sigma


# ---------------------------------------------------------------------------
# criterion 7: folding-number behaviour
# ---------------------------------------------------------------------------

def test_criterion_07_folding_complexity():
    # the stopped recursion needs few passes, with geometric tails
    n = 10000
    folds = [algorithm_stopped(TABLE1_START, 1.0, TABLE1_WEDGE,
                               RngStream(701).derive(i)).folds
             for i in range(n)]
    assert sum(folds) / n <= 5.0
    for K in (3, 6, 9, 12):
        bound = 2.0 ** (-(K // 3))
        sigma = math.sqrt(bound * (1.0 - bound) / n)
        tail = sum(1 for f in folds if f >= K) / n
        assert tail <= bound + 3.0 * sigma, f"K={K}: tail {tail:.4f}"

    # the exact reflected mode is heavy tailed: a cap-150 histogram at
    # 5*10^4 paths has a nonempty overflow bucket
    stats_exact = folding_stats(EstimatorConfig(
        mode=Mode.REFLECTED, func=TestFunction.CONSTANT_1, horizon=1.0,
        n_samples=50000, seed=702, wedge=TABLE1_WEDGE, start=TABLE1_START,
        epsilon=0.0, fold_cap=150))
    assert stats_exact.overflow > 0
    assert sum(stats_exact.counts.values()) + stats_exact.overflow == 50000

    # the corner shortcut trades bias for work: mean folds strictly
    # decreasing in epsilon
    cfg = EstimatorConfig(mode=Mode.REFLECTED, func=TestFunction.CONSTANT_1,
                          horizon=1.0, n_samples=5000, seed=703,
                          wedge=TABLE1_WEDGE, start=TABLE1_START)
    means = [mean for _eps, mean in
             eps_sweep(cfg, (0.01, 0.02, 0.05, 0.1))]
    assert all(a > b for a, b in zip(means, means[1:])), means


# ---------------------------------------------------------------------------
# criterion 8: reweighted drift conserves mass
# ---------------------------------------------------------------------------

def test_criterion_08_girsanov_mass_conservation():
    for mode, seed in ((Mode.STOPPED, 801), (Mode.REFLECTED, 802)):
        r = run(seed, mode=mode, func=TestFunction.CONSTANT_1,
                n_samples=10000, drift=(0.3, -0.2), epsilon=0.03)
        se = r.half_width_95 / 1.96
        assert abs(r.estimate - 1.0) <= 3.0 * se, \
            f"{mode.value}: mass {r.estimate:.4f} +- {se:.4f}"


# ---------------------------------------------------------------------------
# criterion 9: halving epsilon does not move the estimate
# ---------------------------------------------------------------------------

def test_criterion_09_epsilon_consistency():
    coarse = run(901, mode=Mode.REFLECTED, func=TestFunction.RADIUS_SQ,
                 n_samples=10000, epsilon=0.03)
    fine = run(902, mode=Mode.REFLECTED, func=TestFunction.RADIUS_SQ,
               n_samples=10000, epsilon=0.015)
    gap = abs(coarse.estimate - fine.estimate)
    assert gap <= coarse.half_width_95 + fine.half_width_95, \
        f"eps and eps/2 estimates differ by {gap:.4f}"


# ---------------------------------------------------------------------------
# criterion 10: CLI output is byte-stable
# ---------------------------------------------------------------------------

def test_criterion_10_cli_byte_stability(tmp_path):
    t1 = ["--alpha", "0.9", "--start", "1.5,0.3", "--T", "1"]
    commands = {
        "estimate": ["estimate"] + t1 + ["--n", "400", "--seed", "42"],
        "estimate_w3": ["estimate"] + t1 + ["--n", "400", "--seed", "42",
                                            "--workers", "3"],
        "reflected": ["sample-reflected"] + t1 + ["--n", "60", "--seed", "7",
                                                  "--eps", "0.03"],
        "stopped": ["sample-stopped"] + t1 + ["--n", "60", "--seed", "7"],
        "folds": ["folds"] + t1 + ["--n", "200", "--seed", "7",
                                   "--eps", "0.05"],
        "density": ["density", "--alpha", "1.0472", "--x", "1.5,0.3",
                    "--t", "0.7", "--grid", "10"],
        "ito": ["ito"] + t1 + ["--n", "30", "--steps", "20", "--seed", "3",
                               "--mu", "0.1,0.2", "--kappa", "0.7,0.5"],
    }
    outputs = {}
    for name, argv in commands.items():
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}.csv"
            assert run_cli(argv + ["--out", str(out)]) == 0
            outputs[name, attempt] = out.read_bytes()
        assert outputs[name, "a"] == outputs[name, "b"], \
            f"{name}: reruns differ"
    assert outputs["estimate", "a"] == outputs["estimate_w3", "a"], \
        "worker count changed the CSV"
