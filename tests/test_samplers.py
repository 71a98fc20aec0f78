import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import chi2, expon, kstest, ks_2samp, norm

from wedgebm.densities import ExitLawParams, exit_joint_density, \
    exit_radius_marginal, killed_density_images, survival_probability
from wedgebm import samplers
from wedgebm.geometry import TWO_PI, PolarPoint, Side, WedgeSpec, image_angles
from wedgebm.rng import RngStream
from wedgebm.samplers import (FoldCapExceeded, algorithm_reflected,
                              algorithm_stopped, direct_pi_over_m_reflected,
                              sample_exit_radius, sample_exit_side,
                              sample_exit_time, sample_reflected_from_origin,
                              sample_survivor, _pass_plan, _sector_fold,
                              _sub_opening)

W09 = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)

# closed forms for the 0.9-wedge start, frozen from
# scripts/oracles/exit_law_reference.py and table_targets_reference.py
E_TAU_09 = 0.603983776203428


def test_exit_side_frequency():
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.0, 0.25)
    rng = RngStream(5)
    n = 20000
    hits = sum(sample_exit_side(start, wedge, rng) is Side.PLUS
               for _ in range(n))
    p = 0.25 / wedge.opening
    sd = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sd


def test_exit_side_requires_interior():
    with pytest.raises(ValueError):
        sample_exit_side(PolarPoint(1.0, 0.0), W09, RngStream(0))


def test_exit_radius_matches_integrated_marginal():
    # the closed-form inverse CDF against quadrature of the radius marginal
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.4, 0.25)
    for side in (Side.MINUS, Side.PLUS):
        params = ExitLawParams.for_side(wedge, start, side)
        mass, _ = integrate.quad(lambda s: exit_radius_marginal(params, s),
                                 0.0, math.inf, limit=200)
        for r in (0.5, 1.0, 1.9):
            u, _ = integrate.quad(lambda s: exit_radius_marginal(params, s),
                                  0.0, r, limit=200)
            got = sample_exit_radius(start, wedge, side, u / mass)
            assert got == pytest.approx(r, rel=1e-9)


def test_exit_radius_rejects_endpoint_uniforms():
    with pytest.raises(ValueError):
        sample_exit_radius(START, W09, Side.MINUS, 0.0)
    with pytest.raises(ValueError):
        sample_exit_radius(START, W09, Side.MINUS, 1.0)


@given(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.1, 0.95))
@settings(deadline=None, max_examples=200)
def test_exit_radius_positive_any_opening(u, frac):
    wedge = WedgeSpec(0.0, 2.2)
    start = PolarPoint(1.0, 2.2 * frac)
    for side in (Side.MINUS, Side.PLUS):
        r = sample_exit_radius(start, wedge, side, u)
        assert r > 0.0 and math.isfinite(r)


def test_exit_radius_monotone_in_u():
    us = [0.05, 0.2, 0.5, 0.8, 0.95]
    vals = [sample_exit_radius(START, W09, Side.MINUS, u) for u in us]
    assert vals == sorted(vals)


def test_half_plane_radius_is_half_cauchy():
    # from (0, 1): the two-sided exit spot is standard Cauchy, so the radius
    # (either side) is half-Cauchy
    wedge = WedgeSpec(0.0, math.pi)
    start = PolarPoint(1.0, math.pi / 2)
    rng = RngStream(21)
    draws = []
    for _ in range(2000):
        side = sample_exit_side(start, wedge, rng)
        u = rng.uniform()
        while not 0.0 < u < 1.0:
            u = rng.uniform()
        draws.append(sample_exit_radius(start, wedge, side, u))
    stat, p = kstest(draws, lambda x: 2.0 / math.pi * np.arctan(x))
    assert stat < 0.04
    assert p > 1e-3


def test_exit_time_conditional_distribution():
    # fixed side and radius: AR draws vs the quadrature CDF of the
    # conditional time density
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.4, 0.25)
    params = ExitLawParams.for_side(wedge, start, Side.MINUS)
    r = 1.1
    norm_const = exit_radius_marginal(params, r)
    rng = RngStream(33)
    draws = [sample_exit_time(params, r, rng) for _ in range(400)]

    def cdf(ts):
        out = []
        for t in np.atleast_1d(ts):
            v, _ = integrate.quad(lambda s: exit_joint_density(params, r, s),
                                  0.0, t, limit=200)
            out.append(v / norm_const)
        return np.array(out)

    stat, p = kstest(draws, cdf)
    assert p > 1e-3


def test_half_plane_exit_time_tail():
    # height 1 above the ray: P(tau <= 1) = 2 (1 - Phi(1))
    wedge = WedgeSpec(0.0, math.pi)
    start = PolarPoint(1.0, math.pi / 2)
    rng = RngStream(8)
    n = 4000
    hits = 0
    for _ in range(n):
        side = sample_exit_side(start, wedge, rng)
        params = ExitLawParams.for_side(wedge, start, side)
        u = rng.uniform()
        while not 0.0 < u < 1.0:
            u = rng.uniform()
        r = sample_exit_radius(start, wedge, side, u)
        t = sample_exit_time(params, r, rng)
        hits += t <= 1.0
    p = 2.0 * (1.0 - norm.cdf(1.0))
    sd = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sd


def test_survivor_endpoint_statistics():
    # survivors follow the killed kernel normalized by the survival mass
    m, t = 2, 0.5
    wedge = WedgeSpec(0.0, math.pi / m)
    start = PolarPoint(1.0, math.pi / 4)
    rng = RngStream(13)
    draws = [sample_survivor(start, wedge, t, rng) for _ in range(3000)]
    assert all(wedge.contains_angle(d.theta) for d in draws)
    num, _ = integrate.dblquad(
        lambda r, th: r * r * killed_density_images(
            m, start, PolarPoint(r, th), t) * r,
        0.0, wedge.opening, 0.0, 1.0 + 9.0 * math.sqrt(t), epsabs=1e-10)
    den, _ = integrate.dblquad(
        lambda r, th: killed_density_images(m, start, PolarPoint(r, th), t) * r,
        0.0, wedge.opening, 0.0, 1.0 + 9.0 * math.sqrt(t), epsabs=1e-10)
    want = num / den
    vals = [d.r ** 2 for d in draws]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - want) <= 3.5 * se


# (m, wedge, start, horizon): a start in the bulk at a long horizon, and a
# start 0.05 off the lower ray of a wedge with alpha_minus > 0
SURVIVOR_CASES = [
    (4, WedgeSpec(0.0, math.pi / 4), PolarPoint(1.5, 0.3), 1.0),
    (6, WedgeSpec(0.5, 0.5 + math.pi / 6), PolarPoint(1.5, 0.55), 0.2),
]


def _standard_frame(wedge, point):
    return PolarPoint(point.r, point.theta - wedge.alpha_minus)


@pytest.mark.parametrize("m,wedge,start,t", SURVIVOR_CASES,
                         ids=["bulk_m4", "near_ray_m6"])
def test_survivor_chi_square_against_killed_kernel(m, wedge, start, t):
    # cell probabilities: the killed kernel integrated over an r x theta
    # grid, normalized by the survival mass P(tau > t)
    x0 = _standard_frame(wedge, start)
    surv = survival_probability(m, x0, t)
    sd = math.sqrt(t)
    r_edges = np.linspace(max(0.0, start.r - 3.0 * sd), start.r + 3.0 * sd, 7)
    r_edges[0], r_edges[-1] = 0.0, start.r + 10.0 * sd
    th_edges = np.linspace(0.0, wedge.opening, 7)
    probs = np.array([[integrate.dblquad(
        lambda r, th: killed_density_images(m, x0, PolarPoint(r, th), t) * r,
        th_edges[j], th_edges[j + 1], r_edges[i], r_edges[i + 1],
        epsabs=1e-10)[0] for j in range(6)] for i in range(6)]) / surv
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    n = 8000
    rng = RngStream(17)
    draws = [_standard_frame(wedge, sample_survivor(start, wedge, t, rng))
             for _ in range(n)]
    assert all(0.0 <= d.theta <= wedge.opening and d.r < r_edges[-1]
               for d in draws)
    counts, _, _ = np.histogram2d([d.r for d in draws], [d.theta for d in draws],
                                  bins=[r_edges, th_edges])
    expected = n * probs
    keep = expected >= 5.0  # pool the sparse cells into one
    obs = np.append(counts[keep], counts[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    stat = ((obs - exp) ** 2 / exp).sum()
    assert chi2.sf(stat, len(obs) - 1) > 1e-3


@pytest.mark.parametrize("wedge,m", [(WedgeSpec(0.0, math.pi / 4 + 5e-10), 4),
                                     (WedgeSpec(0.5, 0.5 + math.pi / 6), 6)])
def test_sector_fold_maps_each_point_to_its_image_in_the_wedge(wedge, m):
    # the first opening sits within PI_OVER_M_TOL of pi/4, as a sub-wedge
    # reusing its outer opening does; the second has alpha_minus > 0
    for phi in np.linspace(0.0, TWO_PI, 1001):
        r, th = _sector_fold(2.0 * math.cos(phi), 2.0 * math.sin(phi), wedge, m)
        assert r == pytest.approx(2.0, rel=1e-15)
        assert 0.0 <= th <= wedge.opening
        # the free point is one of the images of the folded one
        gaps = [abs((a - phi + math.pi) % TWO_PI - math.pi)
                for a in image_angles(wedge.alpha_minus + th, wedge, m)]
        assert min(gaps) <= 1e-8


class _CountingStream:
    """An RngStream that counts its normal draws."""

    def __init__(self, seed):
        self._rng = RngStream(seed)
        self.normals = 0

    def normal(self):
        self.normals += 1
        return self._rng.normal()

    def uniform(self):
        return self._rng.uniform()


@pytest.mark.parametrize("m,wedge,start,t", SURVIVOR_CASES,
                         ids=["bulk_m4", "near_ray_m6"])
def test_survivor_acceptance_is_the_survival_probability(m, wedge, start, t):
    # each proposal is one free Gaussian endpoint, two normals
    rng = _CountingStream(23)
    n = 2000
    for _ in range(n):
        sample_survivor(start, wedge, t, rng)
    proposals = rng.normals // 2
    p = survival_probability(m, _standard_frame(wedge, start), t)
    se = math.sqrt(p * (1.0 - p) / proposals)
    assert abs(n / proposals - p) <= 4.0 * se


def test_survivor_needs_pi_over_m():
    with pytest.raises(ValueError):
        sample_survivor(START, W09, 1.0, RngStream(0))


@given(st.floats(0.05, 2.0 * math.pi - 1e-9))
@settings(deadline=None, max_examples=300)
def test_sub_opening_properties(alpha):
    theta, m = _sub_opening(alpha)
    assert theta <= alpha + 1e-12
    assert theta == pytest.approx(math.pi / m, rel=1e-15)
    # the next larger pi/(m-1) must not fit (maximality)
    if m > 1 and alpha <= math.pi:
        assert math.pi / (m - 1) > alpha - 1e-9


def test_sub_opening_exact_reuse():
    for m in (1, 2, 3, 6):
        alpha = math.pi / m
        theta, got_m = _sub_opening(alpha)
        assert theta == alpha
        assert got_m == m


@given(st.floats(0.05, 2.0 * math.pi))
@settings(deadline=None, max_examples=300)
def test_pass_plan_m_is_the_sub_wedge_m(alpha):
    # the recursions hand this m to for_side and sample_survivor, which
    # would otherwise compute it from the sub-wedge
    theta, m, sub = _pass_plan(alpha)
    assert (theta, m) == _sub_opening(alpha)
    assert sub == WedgeSpec(0.0, theta)
    assert sub.pi_over_m() == m


def test_survivor_and_exit_law_same_with_and_without_known_m():
    wedge = WedgeSpec(0.0, math.pi / 4)
    start = PolarPoint(1.2, 0.5)
    plain, known = RngStream(11), RngStream(11)
    assert [sample_survivor(start, wedge, 0.8, plain) for _ in range(50)] == \
        [sample_survivor(start, wedge, 0.8, known, _m=4) for _ in range(50)]
    for side in Side:
        assert ExitLawParams.for_side(wedge, start, side, _m=4) == \
            ExitLawParams.for_side(wedge, start, side)


def test_reflected_paths_look_up_m_once_per_opening(monkeypatch):
    # the sub-wedge and its m are a pass plan built once per opening, not
    # recomputed on every pass
    calls = []
    original = WedgeSpec.pi_over_m

    def counted(self):
        calls.append(self.opening)
        return original(self)

    monkeypatch.setattr(WedgeSpec, "pi_over_m", counted)
    counts, passes = [], []
    for n in (20, 200):
        _pass_plan.cache_clear()
        calls.clear()
        root = RngStream(4)
        passes.append(sum(algorithm_reflected(START, 1.0, W09, root.derive(i),
                                              epsilon=0.03).folds
                          for i in range(n)))
        counts.append(len(calls))
    assert passes[1] > 5 * passes[0]
    assert counts[0] == counts[1] <= 1


# ---------------------------------------------------------------------------
# stopped recursion
# ---------------------------------------------------------------------------

def test_stopped_mean_exit_time():
    rng0 = RngStream(40)
    n = 4000
    taus = []
    for i in range(n):
        s = algorithm_stopped(START, math.inf, W09, rng0.derive(i))
        assert s.hit_boundary
        taus.append(s.elapsed)
    mean = np.mean(taus)
    se = np.std(taus, ddof=1) / math.sqrt(n)
    assert abs(mean - E_TAU_09) <= 3.5 * se


def test_stopped_martingale_identity():
    # |W|^2 - 2 t is a martingale: E[|W_{tau ^ T}|^2 - 2 (tau ^ T)] = r0^2,
    # tested pairwise per path for variance reduction
    rng0 = RngStream(41)
    n = 4000
    diffs = []
    for i in range(n):
        s = algorithm_stopped(START, 1.0, W09, rng0.derive(i))
        diffs.append(s.endpoint.r ** 2 - 2.0 * s.elapsed)
    mean = np.mean(diffs)
    se = np.std(diffs, ddof=1) / math.sqrt(n)
    assert abs(mean - START.r ** 2) <= 3.5 * se


def test_stopped_first_coordinate_is_harmonic():
    # x is harmonic, so E[W_{tau ^ T} . e1] equals the starting x exactly
    rng0 = RngStream(42)
    n = 4000
    xs = []
    for i in range(n):
        s = algorithm_stopped(START, 1.0, W09, rng0.derive(i))
        xs.append(s.cartesian_endpoint()[0])
    mean = np.mean(xs)
    se = np.std(xs, ddof=1) / math.sqrt(n)
    assert abs(mean - START.cartesian()[0]) <= 3.5 * se


def test_stopped_hits_land_exactly_on_rays():
    rng0 = RngStream(43)
    hit_angles = set()
    for i in range(300):
        s = algorithm_stopped(START, 1.0, W09, rng0.derive(i))
        if s.hit_boundary:
            hit_angles.add(s.endpoint.theta)
        else:
            assert s.elapsed == 1.0
            assert 0.0 < s.endpoint.theta < 0.9
    assert hit_angles <= {0.0, 0.9}
    assert len(hit_angles) == 2


def test_stopped_boundary_start_is_immediate():
    s = algorithm_stopped(PolarPoint(1.0, 0.0), 1.0, W09, RngStream(0))
    assert s.hit_boundary and s.elapsed == 0.0 and s.folds == 0
    s2 = algorithm_stopped(PolarPoint(0.0, 0.3), 1.0, W09, RngStream(0))
    assert s2.hit_boundary and s2.endpoint.r == 0.0 and s2.folds == 0


def test_stopped_single_pass_for_pi_over_m():
    wedge = WedgeSpec(0.0, math.pi / 2)
    start = PolarPoint(1.0, 0.6)
    rng0 = RngStream(44)
    for i in range(100):
        s = algorithm_stopped(start, 0.8, wedge, rng0.derive(i))
        assert s.folds == 1


def test_stopped_deterministic_replay():
    a = algorithm_stopped(START, 1.0, W09, RngStream(7).derive(3))
    b = algorithm_stopped(START, 1.0, W09, RngStream(7).derive(3))
    assert a == b


def test_stopped_offset_wedge_is_rotation_of_base_wedge():
    wedge = WedgeSpec(0.3, 1.2)
    start = PolarPoint(1.5, 0.6)
    # the interior angle 0.6 - 0.3 differs from 0.3 by one ulp, so the two
    # runs agree to rounding, not bit-for-bit
    a = algorithm_stopped(start, 1.0, wedge, RngStream(9).derive(0))
    b = algorithm_stopped(PolarPoint(1.5, 0.3), 1.0, W09, RngStream(9).derive(0))
    assert a.endpoint.r == pytest.approx(b.endpoint.r, rel=1e-9)
    assert a.endpoint.theta == pytest.approx(b.endpoint.theta + 0.3, abs=1e-9)
    assert a.elapsed == pytest.approx(b.elapsed, rel=1e-9)


# ---------------------------------------------------------------------------
# reflected recursion
# ---------------------------------------------------------------------------

def test_reflected_martingale_identity():
    # the local-time push is orthogonal to the position on both rays, so
    # E[|X_T|^2] = r0^2 + 2 T; per-path differences again
    rng0 = RngStream(50)
    n = 4000
    diffs = []
    for i in range(n):
        s = algorithm_reflected(START, 1.0, W09, rng0.derive(i))
        assert not s.hit_boundary
        assert s.elapsed == 1.0
        assert W09.contains_angle(s.endpoint.theta)
        diffs.append(s.endpoint.r ** 2)
    mean = np.mean(diffs)
    se = np.std(diffs, ddof=1) / math.sqrt(n)
    assert abs(mean - (START.r ** 2 + 2.0)) <= 3.5 * se


def test_reflected_matches_direct_fold_for_pi_over_m():
    # the recursion with epsilon = 0 agrees in law with folding a free
    # endpoint, which is exact for openings pi/m
    m, t = 2, 0.6
    wedge = WedgeSpec(0.0, math.pi / m)
    start = PolarPoint(1.0, math.pi / 4)
    rng = RngStream(51)
    rec = [algorithm_reflected(start, t, wedge, rng.derive(i), epsilon=0.0,
                               fold_cap=10 ** 6)
           for i in range(1500)]
    direct = [direct_pi_over_m_reflected(start.cartesian(), t, m,
                                         rng.derive(10 ** 6 + i))
              for i in range(1500)]
    _, p_r = ks_2samp([s.endpoint.r for s in rec], [d.r for d in direct])
    _, p_th = ks_2samp([s.endpoint.theta for s in rec],
                       [d.theta for d in direct])
    assert p_r > 1e-3
    assert p_th > 1e-3


def test_reflected_corner_shortcut_first_pass():
    s = algorithm_reflected(PolarPoint(0.01, 0.45), 1.0, W09,
                            RngStream(3).derive(0), epsilon=0.1)
    assert s.approx_used
    assert s.folds == 1
    assert s.elapsed == 1.0
    assert len(s.driving_endpoint) == 2
    assert all(map(math.isfinite, s.driving_endpoint))


def test_reflected_origin_start():
    rng0 = RngStream(52)
    vals = []
    for i in range(2000):
        s = algorithm_reflected(PolarPoint(0.0, 0.0), 0.7, W09, rng0.derive(i))
        assert s.folds == 0
        assert W09.contains_angle(s.endpoint.theta)
        # the driving endpoint shares the endpoint's radius
        assert math.hypot(*s.driving_endpoint) == pytest.approx(s.endpoint.r,
                                                                rel=1e-12)
        vals.append(s.endpoint.r ** 2)
    # from the apex the squared radius is exponential with mean 2 T
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - 1.4) <= 3.5 * se


def test_reflected_fold_cap_fault():
    with pytest.raises(FoldCapExceeded) as info:
        algorithm_reflected(PolarPoint(0.05, 0.45), 1.0, W09,
                            RngStream(60).derive(0), epsilon=0.0, fold_cap=20)
    partial = info.value.partial
    assert partial.folds == 20
    assert partial.elapsed < 1.0
    assert W09.contains_angle(partial.endpoint.theta)


def test_reflected_driving_displacement_moments():
    # the driving endpoint is a standard Brownian endpoint: mean = start,
    # per-coordinate variance = T
    rng0 = RngStream(71)
    n, t = 4000, 0.8
    dx, dy = [], []
    for i in range(n):
        s = algorithm_reflected(START, t, W09, rng0.derive(i))
        wx, wy = s.driving_endpoint
        dx.append(wx - START.cartesian()[0])
        dy.append(wy - START.cartesian()[1])
    for vals in (dx, dy):
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(n)
        assert abs(mean) <= 3.5 * se
        var = np.var(vals, ddof=1)
        se_var = np.sqrt(2.0 / (n - 1)) * t  # normal-sample variance SE
        assert abs(var - t) <= 3.5 * se_var


def test_reflected_offset_wedge_is_rotation_of_base_wedge():
    wedge = WedgeSpec(0.3, 1.2)
    start = PolarPoint(1.5, 0.6)
    a = algorithm_reflected(start, 1.0, wedge, RngStream(72).derive(1))
    b = algorithm_reflected(PolarPoint(1.5, 0.3), 1.0, W09,
                            RngStream(72).derive(1))
    assert a.endpoint.r == pytest.approx(b.endpoint.r, rel=1e-9)
    assert a.endpoint.theta == pytest.approx(b.endpoint.theta + 0.3, abs=1e-9)


def test_reflected_from_origin_laws():
    rng = RngStream(80)
    t, alpha = 0.5, 0.9
    pts = [sample_reflected_from_origin(t, alpha, rng) for _ in range(3000)]
    _, p_r = kstest([p.r ** 2 for p in pts], expon(scale=2 * t).cdf)
    assert p_r > 1e-3
    _, p_th = kstest([p.theta / alpha for p in pts], "uniform")
    assert p_th > 1e-3


def test_validation_errors():
    with pytest.raises(ValueError):
        algorithm_stopped(START, 0.0, W09, RngStream(0))
    with pytest.raises(ValueError):
        algorithm_reflected(START, math.inf, W09, RngStream(0))
    with pytest.raises(ValueError):
        algorithm_reflected(START, 1.0, W09, RngStream(0), epsilon=-0.1)
    with pytest.raises(ValueError):
        direct_pi_over_m_reflected((1.0, 0.5), 1.0, 0, RngStream(0))
