import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import chi2, kstest, kstwo, ks_2samp, norm

from wedgebm.densities import ExitLawParams, killed_density_images
from wedgebm import samplers
from wedgebm.drift import euler_paths, linear_field
from wedgebm.geometry import (ANGLE_TOL, TWO_PI, PolarPoint, Side, WedgeSpec,
                              image_angles)
from wedgebm.rng import RngStream
from wedgebm.samplers import (DEFAULT_EPSILON, DEFAULT_FOLD_CAP,
                              FoldCapExceeded, algorithm_reflected,
                              algorithm_stopped, _chunks, _exit_draw,
                              _image_sum_arrays, _pass_plan, _sector_fold,
                              _survivor_trial)

from columns import samples
from laws import (contains_angle, cumulative_integral,
                  direct_pi_over_m_reflected, exit_joint_density,
                  exit_radius_cdf, exit_radius_marginal, exit_radius_quantile,
                  exit_side_plus_probability, exit_time_density,
                  sample_survivor, survival_probability)

W09 = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)

# closed forms for the 0.9-wedge start, frozen from
# scripts/oracles/exit_law_reference.py and table_targets_reference.py
E_TAU_09 = 0.603983776203428


# ---------------------------------------------------------------------------
# the conditional exit draw, against the closed-form exit law
# ---------------------------------------------------------------------------

def _ks_p(cdf_at_sorted):
    """Kolmogorov-Smirnov p value of a sample, from its CDF at the sorted
    sample points."""
    f = np.asarray(cdf_at_sorted)
    n = len(f)
    d = max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
    return kstwo.sf(d, n)


def _side_masses(sub, start, horizon):
    """P(side, tau <= horizon) of each side: the closed-form ratio at
    horizon inf, the time density integrated otherwise."""
    p_plus = exit_side_plus_probability(start, sub)
    if horizon == math.inf:
        return {Side.MINUS: 1.0 - p_plus, Side.PLUS: p_plus}
    return {side: integrate.quad(
        lambda t, p=ExitLawParams.for_side(sub, start, side): exit_time_density(p, t),
        0.0, horizon, limit=200, epsabs=1e-13)[0] for side in Side}


def test_exit_side_frequency():
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.0, 0.25)
    rng = RngStream(5)
    n = 20000
    hits = sum(_exit_draw(start, math.inf, wedge, 3, rng)[0] is Side.PLUS
               for _ in range(n))
    p = exit_side_plus_probability(start, wedge)
    sd = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sd


def test_exit_side_requires_interior():
    with pytest.raises(ValueError):
        exit_side_plus_probability(PolarPoint(1.0, 0.0), W09)


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
            got = exit_radius_quantile(start, wedge, side, u / mass)
            assert got == pytest.approx(r, rel=1e-9)


def test_exit_radius_rejects_endpoint_uniforms():
    with pytest.raises(ValueError):
        exit_radius_quantile(START, W09, Side.MINUS, 0.0)
    with pytest.raises(ValueError):
        exit_radius_quantile(START, W09, Side.MINUS, 1.0)


@given(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.1, 0.95))
@settings(deadline=None, max_examples=200)
def test_exit_radius_positive_any_opening(u, frac):
    # and the closed-form CDF inverts the inverse CDF
    wedge = WedgeSpec(0.0, 2.2)
    start = PolarPoint(1.0, 2.2 * frac)
    for side in (Side.MINUS, Side.PLUS):
        r = exit_radius_quantile(start, wedge, side, u)
        assert r > 0.0 and math.isfinite(r)
        assert exit_radius_cdf(start, wedge, side, r) == pytest.approx(u, abs=1e-9)


def test_exit_radius_monotone_in_u():
    us = [0.05, 0.2, 0.5, 0.8, 0.95]
    vals = [exit_radius_quantile(START, W09, Side.MINUS, u) for u in us]
    assert vals == sorted(vals)


def test_half_plane_radius_is_half_cauchy():
    # from (0, 1): the two-sided exit spot is standard Cauchy, so the radius
    # (either side) is half-Cauchy
    wedge = WedgeSpec(0.0, math.pi)
    start = PolarPoint(1.0, math.pi / 2)
    rng = RngStream(21)
    draws = [_exit_draw(start, math.inf, wedge, 1, rng)[1] for _ in range(2000)]
    stat, p = kstest(draws, lambda x: 2.0 / math.pi * np.arctan(x))
    assert stat < 0.04
    assert p > 1e-3


def test_exit_time_conditional_distribution():
    # the exit time on each side against the quadrature CDF of its density,
    # with no horizon and given an exit by t' = 1
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.4, 0.25)
    for horizon, seed in ((math.inf, 33), (1.0, 34)):
        rng = RngStream(seed)
        draws = [_exit_draw(start, horizon, wedge, 3, rng) for _ in range(1500)]
        masses = _side_masses(wedge, start, horizon)
        for side in Side:
            params = ExitLawParams.for_side(wedge, start, side)
            times = np.sort([t for s, _, t in draws if s is side])
            cdf = cumulative_integral(lambda t: exit_time_density(params, t),
                                      times) / masses[side]
            assert _ks_p(cdf) > 1e-3


def test_exit_time_draw_is_scale_free_to_the_bit():
    # 2e-12 off a ray: at start radius 1e-150 the exit time ~(r0 d)^2 would
    # underflow to 0; the draw runs at the start radius times 2^-k
    wedge = WedgeSpec(0.0, math.pi / 3)
    for r0 in (2.0 ** -500, 1e-150):
        unit = math.ldexp(r0, -math.frexp(r0)[1])
        k = math.frexp(r0)[1] - math.frexp(unit)[1]
        for horizon in (math.inf, 0.05):
            draws = [_exit_draw(PolarPoint(r, 2e-12), h, wedge, 3, RngStream(3))
                     for r, h in ((unit, horizon), (r0, math.ldexp(horizon, 2 * k)))]
            (side, r_unit, t_unit), (side_r0, r_r0, t_r0) = draws
            assert t_unit > 0.0
            assert side_r0 is side
            assert r_r0 == math.ldexp(r_unit, k)
            assert t_r0 == math.ldexp(t_unit, 2 * k)


def test_half_plane_exit_time_tail():
    # height 1 above the ray: P(tau <= 1) = 2 (1 - Phi(1)), and given an
    # exit by t' = 4 it is that over P(tau <= 4) = 2 (1 - Phi(1/2))
    wedge = WedgeSpec(0.0, math.pi)
    start = PolarPoint(1.0, math.pi / 2)
    for horizon, p, seed in ((math.inf, 2.0 * norm.sf(1.0), 8),
                             (4.0, norm.sf(1.0) / norm.sf(0.5), 9)):
        rng = RngStream(seed)
        n = 4000
        hits = sum(_exit_draw(start, horizon, wedge, 1, rng)[2] <= 1.0
                   for _ in range(n))
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * sd


# (m, start angle over the opening): every m the published openings and a
# wide wedge use, and a start 0.02 of the opening off a ray. At radius 3 and
# t' = 0.05 most lines are 4 or more standard deviations off, where the
# exit time comes from the tail method; at t' = 1 and inf from inversion.
EXIT_CASES = {"m1": (1, 0.3), "m2": (2, 0.35), "m3": (3, 0.4),
              "m4": (4, 0.5), "m6": (6, 0.6), "m3_near_ray": (3, 0.02)}
EXIT_R0 = 3.0


@pytest.mark.parametrize("horizon", [0.05, 1.0, math.inf],
                         ids=["t0.05", "t1", "tinf"])
@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_conditional_exit_draw_matches_exit_law(case, horizon):
    # side frequency, and on each side the radius and the time, of exits
    # conditioned on tau <= t', against the closed-form law
    m, frac = EXIT_CASES[case]
    sub = WedgeSpec(0.0, math.pi / m)
    start = PolarPoint(EXIT_R0, frac * sub.opening)
    rng = RngStream(1600 + 10 * m + int(100 * frac))
    n = 3000
    draws = [_exit_draw(start, horizon, sub, m, rng) for _ in range(n)]
    assert all(0.0 < r < math.inf and 0.0 <= t <= horizon for _, r, t in draws)
    masses = _side_masses(sub, start, horizon)
    p = masses[Side.PLUS] / (masses[Side.MINUS] + masses[Side.PLUS])
    plus = sum(s is Side.PLUS for s, _, _ in draws)
    assert abs(plus - n * p) <= 4.0 * math.sqrt(n * p * (1 - p)) + 1.0
    for side in Side:
        picked = [(r, t) for s, r, t in draws if s is side]
        if len(picked) < 50:
            continue  # a side the start almost never leaves by
        params = ExitLawParams.for_side(sub, start, side)
        radii = np.sort([r for r, _ in picked])
        if horizon == math.inf:
            cdf = exit_radius_cdf(start, sub, side, radii)  # given the side
        else:
            cdf = cumulative_integral(
                lambda r: exit_radius_marginal(params, r, horizon),
                radii) / masses[side]
        assert _ks_p(cdf) > 1e-3
        times = np.sort([t for _, t in picked])
        cdf = cumulative_integral(lambda t: exit_time_density(params, t),
                                  times) / masses[side]
        assert _ks_p(cdf) > 1e-3


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_exit_acceptance_ratio_is_at_most_one(m):
    # the kept probability depends on x = r r0 / tau alone: it lies in
    # [0, 1] over the whole range, and it is the exit-law image sum over
    # its k = 0 term, the half-plane's exit density. Both hold up to
    # rounding: the terms w_k = sin g_k / sin g_0 cancel, and a start 1e-12
    # off a ray has sin g_0 ~ 1e-12 against errors ~1e-16 in sin g_k. There
    # a proposal is kept or refused wrongly with probability ~1e-3, and only
    # at exit times ~r r0, which it reaches with probability ~1e-12
    sub = WedgeSpec(0.0, math.pi / m)
    xs = np.concatenate(([0.0], np.geomspace(1e-6, 1e8, 400)))
    for frac in (ANGLE_TOL, 0.02, 0.3, 0.5, 0.98, 1.0 - ANGLE_TOL):
        theta0 = frac * sub.opening
        for side in Side:
            plan = samplers._exit_ratio_plan(sub, theta0, side)
            g0 = theta0 if side is Side.MINUS else sub.opening - theta0
            tol = 1e-15 * (sum(map(abs, plan[0])) + 1.0 / math.sin(g0))
            kept = 1.0 + sum(w * np.exp(-xs * h) for w, h in zip(*plan))
            assert np.all(kept <= 1.0 + tol) and np.all(kept >= -tol)
            params = ExitLawParams.for_side(sub, PolarPoint(1.3, theta0), side)
            for r, t in ((0.4, 0.2), (1.3, 1.0), (2.5, 3.0)):
                c0 = params.c_values(r)[0]
                half_plane = (1.3 * math.sin(params.gammas[0])
                              / (TWO_PI * t * t) * math.exp(-c0 / (2.0 * t)))
                want = exit_joint_density(params, r, t) / half_plane
                got = 1.0 + sum(w * math.exp(-r * 1.3 / t * h)
                                for w, h in zip(*plan))
                assert got == pytest.approx(want, rel=1e-9, abs=10 * tol)


def test_survivor_endpoint_statistics():
    # survivors follow the killed kernel normalized by the survival mass
    m, t = 2, 0.5
    wedge = WedgeSpec(0.0, math.pi / m)
    start = PolarPoint(1.0, math.pi / 4)
    rng = RngStream(13)
    draws = [sample_survivor(start, wedge, t, rng) for _ in range(3000)]
    assert all(contains_angle(wedge, d.theta) for d in draws)
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


def test_survivor_from_a_hair_off_a_ray_far_out():
    # 1e-9 off the ray at radius 1e10 the start is 10 from it, so it
    # survives; r^2 + r0^2 - 2 r r0 cos used to cancel the gap between its
    # image and itself, and no proposal was ever accepted
    start = PolarPoint(1e10, 1e-9)
    end = sample_survivor(start, WedgeSpec(0.0, math.pi / 3), 1.0, RngStream(0))
    x, y = end.cartesian()
    x0, y0 = start.cartesian()
    assert math.hypot(x - x0, y - y0) < 10.0


def test_survivor_needs_pi_over_m():
    with pytest.raises(ValueError):
        sample_survivor(START, W09, 1.0, RngStream(0))


@given(st.floats(0.05, 2.0 * math.pi - 1e-9))
@settings(deadline=None, max_examples=300)
def test_sub_opening_properties(alpha):
    plan = _pass_plan(alpha)
    theta, m = plan.theta_cap, plan.m
    assert theta <= alpha + 1e-12
    assert theta == pytest.approx(math.pi / m, rel=1e-15)
    # the next larger pi/(m-1) must not fit (maximality)
    if m > 1 and alpha <= math.pi:
        assert math.pi / (m - 1) > alpha - 1e-9


def test_sub_opening_exact_reuse():
    for m in (1, 2, 3, 6):
        alpha = math.pi / m
        plan = _pass_plan(alpha)
        assert plan.theta_cap == alpha
        assert plan.m == m


def test_sub_opening_refuses_more_than_a_million_sub_wedges():
    # a pass plan holds columns over the 2m images: at opening 1e-9 they
    # would hold 1.3e10 floats. Opening 1e-4 (m = 31416) still runs
    assert _pass_plan(1e-4).m == 31416
    assert _pass_plan(math.pi / 10 ** 6).m == 10 ** 6
    for alpha in (math.pi / (2 * 10 ** 6), 3e-6):
        with pytest.raises(ValueError, match="too narrow"):
            _pass_plan(alpha)


def test_image_sums_in_blocks_equal_their_one_point_calls():
    # opening 0.01 has m = 315: the 2m terms of 200 points are cut into
    # blocks, and each point's sums must not depend on its block
    alpha = 0.01
    plan = _pass_plan(alpha)
    theta_cap, m = plan.theta_cap, plan.m
    gen = np.random.default_rng(31)
    n = 200
    assert len(_chunks(n, 2 * m)) > 2
    rel = gen.uniform(0.0, theta_cap, n)
    turn = gen.uniform(0.0, theta_cap, n) - rel
    r0 = 10.0 ** gen.uniform(-1.0, 1.0, n)
    r = r0 * np.exp(gen.normal(0.0, 0.01, n))
    dt = 10.0 ** gen.uniform(-6.0, 0.0, n)
    cols = (turn, rel, r, r0, dt)
    got = _image_sum_arrays(*cols, alpha)
    one = [_image_sum_arrays(*(c[i:i + 1] for c in cols), alpha)
           for i in range(n)]
    assert repr([a.tolist() for a in got]) == repr(
        [[float(sums[k][0]) for sums in one] for k in (0, 1)])
    # not every sum is the trivial 1.0 of a point far from the rays
    assert (got[1] > 1.0).sum() > n // 4


@given(st.floats(0.05, 2.0 * math.pi))
@settings(deadline=None, max_examples=300)
def test_pass_plan_m_is_the_sub_wedge_m(alpha):
    # the recursions hand this m to for_side and the survivor trial, which
    # would otherwise compute it from the sub-wedge
    plan = _pass_plan(alpha)
    theta, m = plan.theta_cap, plan.m
    assert plan.sub == WedgeSpec(0.0, theta)
    assert plan.sub.pi_over_m() == m
    assert plan.mid_images == image_angles(theta / 2.0, plan.sub, m)


def test_survivor_and_exit_law_same_with_and_without_known_m():
    # a pass hands its survivor trials the plan's m and image angles; the
    # oracle loop looks both up from the wedge, as the exit law always does
    wedge = WedgeSpec(0.0, math.pi / 4)
    start = PolarPoint(1.2, 0.5)
    plain, known = RngStream(11), RngStream(11)
    images = image_angles(start.theta, wedge, 4)
    trials = (_survivor_trial(start, wedge, 4, images, 0.8, known)
              for _ in range(10 ** 4))
    assert [sample_survivor(start, wedge, 0.8, plain) for _ in range(50)] == \
        list(itertools.islice(filter(None, trials), 50))
    for side in Side:
        assert len(ExitLawParams.for_side(wedge, start, side).gammas) == 4


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


@given(alpha=st.floats(0.2, TWO_PI), log_r=st.floats(-150.0, 150.0),
       upper=st.booleans(), outside=st.booleans(),
       d=st.sampled_from([0.0, 1e-16, 1e-13, 9e-13, 2e-12, 1e-9]),
       seed=st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=300)
def test_starts_on_and_near_a_ray(alpha, log_r, upper, outside, d, seed):
    # WedgeSpec.place over the accepted domain: a start within ANGLE_TOL of a
    # ray, from either side, is on it; one further outside is refused
    wedge = WedgeSpec(0.0, alpha)
    ray = alpha if upper else 0.0
    start = PolarPoint(10.0 ** log_r, ray + d if upper == outside else ray - d)
    field = linear_field((0.0, 0.0), (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    runs = {
        "stopped": lambda: algorithm_stopped(start, 1.0, wedge,
                                             RngStream(seed)),
        "reflected": lambda: algorithm_reflected(start, 1.0, wedge,
                                                 RngStream(seed)),
        "euler_stopped": lambda: samples(euler_paths(
            field, start, 1.0, 2, wedge, seed, [0], False, DEFAULT_EPSILON,
            DEFAULT_FOLD_CAP))[0],
        "euler_reflected": lambda: samples(euler_paths(
            field, start, 1.0, 2, wedge, seed, [0], True, DEFAULT_EPSILON,
            DEFAULT_FOLD_CAP))[0],
    }
    for name, run in runs.items():
        if outside and d > ANGLE_TOL:
            with pytest.raises(ValueError):
                run()
            continue
        sample = run()
        end = sample.endpoint
        assert end.r == 0.0 or contains_angle(wedge, end.theta)
        if "stopped" not in name:
            continue
        # a start inside by more than ANGLE_TOL takes a pass, although at
        # radius 1e-150 its exit time, ~(r d)^2, can round to 0
        assert (sample.folds == 0) == (d <= ANGLE_TOL)
        if d <= ANGLE_TOL:
            assert sample.hit_boundary and sample.elapsed == 0.0
            # the Euler scheme maps its endpoint back through the cell frame
            on_ray = wedge.place(sample.endpoint)
            assert on_ray.theta in (0.0, alpha)
            assert on_ray.r == pytest.approx(start.r, rel=1e-15)
            assert name == "euler_stopped" or sample.endpoint == on_ray


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
        assert contains_angle(W09, s.endpoint.theta)
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
        assert contains_angle(W09, s.endpoint.theta)
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
    assert contains_angle(W09, partial.endpoint.theta)


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


def test_validation_errors():
    with pytest.raises(ValueError):
        algorithm_stopped(START, 0.0, W09, RngStream(0))
    with pytest.raises(ValueError):
        algorithm_reflected(START, math.inf, W09, RngStream(0))
    with pytest.raises(ValueError):
        algorithm_reflected(START, 1.0, W09, RngStream(0), epsilon=-0.1)
    with pytest.raises(ValueError):
        direct_pi_over_m_reflected((1.0, 0.5), 1.0, 0, RngStream(0))
