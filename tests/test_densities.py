import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import norm, rice

import wedgebm
from wedgebm.bessel import SeriesCapExceeded
from wedgebm.densities import (ExitLawParams, Kind, killed_density_images,
                               killed_density_series, reflected_density_images,
                               reflected_density_series)
from wedgebm.geometry import PolarPoint, Side, WedgeSpec

from laws import (corner_kernel, exit_joint_density, exit_radius_marginal,
                  exit_time_density, one_dim_factor, survival_probability)

TWO_PI = 2.0 * math.pi


def random_triples(rng, alpha, count):
    """(start, target, t) triples with both points strictly inside."""
    out = []
    for _ in range(count):
        a = PolarPoint(0.2 + 2.0 * rng.random(),
                       alpha * (0.05 + 0.9 * rng.random()))
        b = PolarPoint(0.2 + 2.0 * rng.random(),
                       alpha * (0.05 + 0.9 * rng.random()))
        t = 0.05 + 1.5 * rng.random()
        out.append((a, b, t))
    return out


# ---------------------------------------------------------------------------
# image sums vs Bessel series (small fast version; the acceptance suite
# runs the full 200-triple sweep)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_series_matches_images(m):
    alpha = math.pi / m
    wedge = WedgeSpec(0.0, alpha)
    rng = np.random.default_rng(101 + m)
    for start, target, t in random_triples(rng, alpha, 30):
        # a series value w.r.t. dr dtheta over r is the value w.r.t. dy
        ki = killed_density_images(m, start, target, t)
        ks = killed_density_series(wedge, target, start, t) / target.r
        ri = reflected_density_images(m, start, target, t)
        rs = reflected_density_series(wedge, target, start, t) / target.r
        scale = 1.0 / (TWO_PI * t)  # free-kernel magnitude
        assert ki == pytest.approx(ks, rel=1e-8, abs=1e-8 * scale)
        assert ri == pytest.approx(rs, rel=1e-8, abs=1e-8 * scale)


@pytest.mark.parametrize("t", [1e-3, 1e-4, 1e-5])
def test_series_matches_images_at_small_t(t):
    # near the start the Bessel argument r*r0/t reaches 2.25e5 at t = 1e-5
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.5, 0.3)
    step = 2.0 * math.sqrt(t)
    pairs = ((killed_density_series, killed_density_images),
             (reflected_density_series, reflected_density_images))
    for dr in (-step, 0.0, step):
        for dth in (-step / start.r, 0.0, step / start.r):
            target = PolarPoint(start.r + dr, start.theta + dth)
            for series, images in pairs:
                got = series(wedge, target, start, t) / target.r
                assert got == pytest.approx(images(3, start, target, t),
                                            rel=1e-10)


def _series_by_loop(kind, alpha, x, y, t, orders=200):
    """The series summed order by order in plain Python, far past any
    certified cutoff of the triples below."""
    z = x.r * y.r / t
    base = math.exp(-((x.r - y.r) ** 2) / (2.0 * t))
    trig = math.cos if kind is Kind.REFLECTED else math.sin
    terms = [0.5 * base * special.ive(0, z)] if kind is Kind.REFLECTED else []
    for n in range(1, orders):
        nu = n * math.pi / alpha
        terms.append(base * special.ive(nu, z) * trig(nu * x.theta) * trig(nu * y.theta))
    return 2.0 * x.r / (t * alpha) * math.fsum(terms)


@pytest.mark.parametrize("alpha", [0.9, 1.5 * math.pi])
def test_series_matches_an_order_by_order_sum(alpha):
    # openings without image sums, one of them with order step 2/3 below 1
    wedge = WedgeSpec(0.0, alpha)
    rng = np.random.default_rng(11)
    pairs = ((Kind.KILLED, killed_density_series),
             (Kind.REFLECTED, reflected_density_series))
    for start, target, t in random_triples(rng, alpha, 20):
        for kind, series in pairs:
            want = _series_by_loop(kind, alpha, target, start, t)
            # the cutoff drops at most 1e-12 of the leading magnitude 2r/(t alpha)
            assert series(wedge, target, start, t) == pytest.approx(
                want, rel=1e-12, abs=1e-11 / t)


def test_series_cap_is_decided_before_any_bessel_call(monkeypatch):
    # at t = 1e-12 the argument is 2.25e12: the closed-form floor of the
    # cutoff is already past 1e6 orders, so no term is ever evaluated
    def refuse(*_args):
        raise AssertionError("special.ive called")

    monkeypatch.setattr(special, "ive", refuse)
    start = PolarPoint(1.5, 0.3)
    with pytest.raises(SeriesCapExceeded):
        killed_density_series(WedgeSpec(0.0, 0.9), start, start, 1e-12)


def test_killed_series_in_a_narrow_wedge_is_zero():
    # the first order pi/0.01 already underflows (e^-z I_314(z) ~ e^-1483 at
    # z = 2.1), so the cutoff is 1 and the certified sum is empty
    wedge = WedgeSpec(0.0, 0.01)
    value = killed_density_series(wedge, PolarPoint(1.5, 0.005),
                                  PolarPoint(1.4, 0.004), 1.0)
    assert value == 0.0


def test_quarter_plane_kernels_factor_into_1d_products():
    rng = np.random.default_rng(7)
    for start, target, t in random_triples(rng, math.pi / 2, 50):
        x0, y0 = start.cartesian()
        xt, yt = target.cartesian()
        gx = math.exp(-(xt - x0) ** 2 / (2 * t)) / math.sqrt(TWO_PI * t)
        gy = math.exp(-(yt - y0) ** 2 / (2 * t)) / math.sqrt(TWO_PI * t)
        killed_1d = (gx * one_dim_factor(Kind.KILLED, x0, xt, t)
                     * gy * one_dim_factor(Kind.KILLED, y0, yt, t))
        refl_1d = (gx * one_dim_factor(Kind.REFLECTED, x0, xt, t)
                   * gy * one_dim_factor(Kind.REFLECTED, y0, yt, t))
        assert killed_density_images(2, start, target, t) == pytest.approx(
            killed_1d, rel=1e-10, abs=1e-14)
        assert reflected_density_images(2, start, target, t) == pytest.approx(
            refl_1d, rel=1e-10, abs=1e-14)


def test_images_symmetric_in_endpoints():
    a = PolarPoint(1.3, 0.2)
    b = PolarPoint(0.7, 0.9)
    t = 0.6
    assert killed_density_images(3, a, b, t) == pytest.approx(
        killed_density_images(3, b, a, t), rel=1e-13)
    assert reflected_density_images(3, a, b, t) == pytest.approx(
        reflected_density_images(3, b, a, t), rel=1e-13)


@pytest.mark.parametrize("density", [killed_density_images,
                                     reflected_density_images])
def test_images_keep_the_distance_at_large_radius(density):
    # r^2 + r0^2 - 2 r r0 cos cancelled to d^2 = 0 here; only the image of
    # the target itself is close, at distance 0.5
    value = density(4, PolarPoint(1e8, 0.3), PolarPoint(1e8 + 0.5, 0.3), 1.0)
    assert value == pytest.approx(math.exp(-0.125) / TWO_PI, rel=1e-12)


@pytest.mark.parametrize("density", [killed_density_images,
                                     reflected_density_images])
def test_images_past_the_overflow_of_4_r_r0(density):
    # 4 r r0 is inf at radius 1e160: the zero angle gap of the start's own
    # image used to meet it as 0 * inf = nan
    point = PolarPoint(1e160, 0.3)
    assert density(3, point, point, 1.0) == pytest.approx(1.0 / TWO_PI, rel=1e-12)
    far = density(3, PolarPoint(1e160, 0.5), point, 1.0)
    assert far == 0.0


@pytest.mark.parametrize("density", [killed_density_images,
                                     reflected_density_images])
def test_images_past_the_overflow_of_4_r(density):
    # 4 r is inf past radius ~4.5e307, and the start's own zero gap met it
    # as 0 * inf = nan: each gap is multiplied into r, then 4, then r0
    point = PolarPoint(1.7e308, 0.3)
    assert density(3, point, point, 1.0) == pytest.approx(1.0 / TWO_PI,
                                                          rel=1e-12)
    assert density(3, PolarPoint(1.7e308, 0.5), point, 1.0) == 0.0


@pytest.mark.parametrize("density", [killed_density_images,
                                     reflected_density_images])
def test_images_refuse_more_than_a_million_sectors(density):
    # the 2m image angles are a list: m = 3.1e9 (opening 1e-9) ran out of
    # memory. m = 10^6 is the largest accepted; m = 31416 still runs
    point = PolarPoint(1.0, 0.5 * math.pi / 31416)
    assert density(31416, point, point, 1.0) >= 0.0
    with pytest.raises(ValueError, match=r"m must be an integer in \[1, "):
        density(2 * 10 ** 6, point, point, 1.0)


# frozen from scripts/oracles/one_dim_reference.py (reflection principle)
@pytest.mark.parametrize("kind,x0,w,t,want", [
    (Kind.KILLED, 1.0, 0.7, 0.9, 0.31558140738478757),
    (Kind.REFLECTED, 1.0, 0.7, 0.9, 0.48444455823530314),
    (Kind.KILLED, 0.5, 1.2, 2.0, 0.1126034986991271),
    (Kind.REFLECTED, 0.5, 1.2, 2.0, 0.38653835737317782),
])
def test_one_dim_kernel_reference(kind, x0, w, t, want):
    gauss = math.exp(-(w - x0) ** 2 / (2 * t)) / math.sqrt(TWO_PI * t)
    assert gauss * one_dim_factor(kind, x0, w, t) == pytest.approx(
        want, rel=1e-13)


def test_one_dim_factor_vanishes_left_of_origin():
    assert one_dim_factor(Kind.KILLED, 1.0, -0.5, 1.0) == 0.0
    assert one_dim_factor(Kind.KILLED, 1.0, 0.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# mass, Dirichlet, Neumann (small fast version of the normalization suite)
# ---------------------------------------------------------------------------

def test_reflected_mass_is_one():
    m, t = 3, 0.4
    start = PolarPoint(1.1, 0.3)
    val, _ = integrate.dblquad(
        lambda r, th: reflected_density_images(m, start, PolarPoint(r, th), t) * r,
        0.0, math.pi / m, 0.0, 1.1 + 9.0 * math.sqrt(t),
        epsabs=1e-10, epsrel=1e-10)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_killed_mass_is_survival():
    # quarter plane has the independent closed form (2 Phi - 1)(2 Phi - 1)
    t = 0.5
    start = PolarPoint.from_cartesian(0.8, 0.6)
    x0, y0 = 0.8, 0.6
    closed = ((2 * norm.cdf(x0 / math.sqrt(t)) - 1)
              * (2 * norm.cdf(y0 / math.sqrt(t)) - 1))
    assert survival_probability(2, start, t) == pytest.approx(closed, abs=1e-6)
    # half plane: survival depends only on the height
    start1 = PolarPoint.from_cartesian(-0.3, 1.2)
    closed1 = 2 * norm.cdf(1.2 / math.sqrt(0.9)) - 1
    assert survival_probability(1, start1, 0.9) == pytest.approx(
        closed1, abs=1e-6)


def test_dirichlet_zero_on_rays():
    m = 3
    alpha = math.pi / m
    start = PolarPoint(1.2, 0.4)
    for r in (0.3, 1.0, 2.2):
        for theta in (0.0, alpha):
            val = killed_density_images(m, start, PolarPoint(r, theta), 0.7)
            assert abs(val) <= 1e-10
    wedge = WedgeSpec(0.0, 0.9)
    for r in (0.5, 1.4):
        for theta in (0.0, 0.9):
            val = killed_density_series(wedge, PolarPoint(r, theta), start, 0.7)
            assert abs(val) <= 1e-10


def test_neumann_derivative_vanishes_on_rays():
    # one-sided second-order difference; for an even function the leading
    # error is O(delta^3), far below the 1e-6 relative bar
    delta = 1e-3
    m = 3
    alpha = math.pi / m
    start = PolarPoint(1.2, 0.4)
    t = 0.7
    for r in (0.6, 1.2, 1.9):
        for edge, sign in ((0.0, 1.0), (alpha, -1.0)):
            p0 = reflected_density_images(m, start, PolarPoint(r, edge), t)
            p1 = reflected_density_images(
                m, start, PolarPoint(r, edge + sign * delta), t)
            p2 = reflected_density_images(
                m, start, PolarPoint(r, edge + sign * 2 * delta), t)
            deriv = (-3 * p0 + 4 * p1 - p2) / (2 * delta)
            assert abs(deriv) <= 1e-6 * max(p0, 1e-3)


def test_series_rejects_outside_points():
    wedge = WedgeSpec(0.0, 0.9)
    inside = PolarPoint(1.0, 0.5)
    outside = PolarPoint(1.0, 1.2)
    with pytest.raises(ValueError):
        killed_density_series(wedge, outside, inside, 0.5)
    with pytest.raises(ValueError):
        reflected_density_series(wedge, inside, outside, 0.5)
    with pytest.raises(ValueError):
        killed_density_series(wedge, inside, inside, -0.5)


def test_densities_put_a_point_a_hair_below_the_lower_ray_on_it():
    # its angle reads 2 pi - 1e-13; WedgeSpec.place, the samplers' ray rule,
    # puts it on the lower ray, in both families and as target or start
    below = PolarPoint.from_cartesian(1.0, -1e-13)
    on_ray = PolarPoint(1.0, 0.0)
    start = PolarPoint(1.5, 0.3)
    wedge = WedgeSpec(0.0, 0.9)
    for series in (reflected_density_series, killed_density_series):
        assert series(wedge, below, start, 1.0) == series(wedge, on_ray, start, 1.0)
        assert series(wedge, start, below, 1.0) == series(wedge, start, on_ray, 1.0)
    for images in (reflected_density_images, killed_density_images):
        assert images(3, below, start, 1.0) == images(3, on_ray, start, 1.0)
        assert images(3, start, below, 1.0) == images(3, start, on_ray, 1.0)
    assert reflected_density_series(wedge, below, start, 1.0) == \
        pytest.approx(0.36818246986, rel=1e-10)


def test_import_leaves_scipy_integrate_unloaded():
    # only the quadrature oracles of the tests use it: it would add ~0.25 s
    # and ~26 MB to every process that imports wedgebm
    src = str(pathlib.Path(wedgebm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wedgebm; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_killed_below_reflected():
    rng = np.random.default_rng(12)
    wedge = WedgeSpec(0.0, 0.9)
    for start, target, t in random_triples(rng, 0.9, 40):
        k = killed_density_series(wedge, target, start, t)
        r = reflected_density_series(wedge, target, start, t)
        assert k >= -1e-12
        assert k <= r + 1e-12


# ---------------------------------------------------------------------------
# exit law
# ---------------------------------------------------------------------------

def test_half_plane_marginal_is_half_cauchy():
    # from (0, 1) the combined two-sided exit spot is standard Cauchy, so
    # each side's radius marginal is the half-Cauchy density
    wedge = WedgeSpec(0.0, math.pi)
    start = PolarPoint(1.0, math.pi / 2)
    params = ExitLawParams.for_side(wedge, start, Side.MINUS)
    for r in (0.1, 0.7, 1.8, 4.0):
        want = 1.0 / (math.pi * (1.0 + r * r))
        assert exit_radius_marginal(params, r) == pytest.approx(want, rel=1e-12)


def test_marginal_integrates_to_side_probability():
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.4, 0.25)
    for side, want in ((Side.MINUS, 1.0 - 0.25 / wedge.opening),
                       (Side.PLUS, 0.25 / wedge.opening)):
        params = ExitLawParams.for_side(wedge, start, side)
        val, _ = integrate.quad(lambda r: exit_radius_marginal(params, r),
                                0.0, math.inf, limit=200)
        assert val == pytest.approx(want, abs=1e-9)


def test_joint_time_integral_recovers_marginal():
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.4, 0.25)
    params = ExitLawParams.for_side(wedge, start, Side.MINUS)
    for r in (0.4, 1.2, 2.5):
        val, _ = integrate.quad(lambda t: exit_joint_density(params, r, t),
                                0.0, math.inf, limit=200)
        assert val == pytest.approx(exit_radius_marginal(params, r), rel=1e-8)


@pytest.mark.parametrize("horizon", [0.3, math.inf])
def test_time_and_radius_marginals_agree_by_a_horizon(horizon):
    # the two oracles of the conditional exit draw: P(side, tau <= t') from
    # the time density and from the radius marginal, and with t' = inf the
    # closed-form side ratio
    wedge = WedgeSpec(0.0, math.pi / 3)
    start = PolarPoint(1.4, 0.25)
    for side, ratio in ((Side.MINUS, 1.0 - 0.25 / wedge.opening),
                        (Side.PLUS, 0.25 / wedge.opening)):
        params = ExitLawParams.for_side(wedge, start, side)
        by_time, _ = integrate.quad(lambda t: exit_time_density(params, t),
                                    0.0, horizon, limit=200)
        by_radius, _ = integrate.quad(
            lambda r: exit_radius_marginal(params, r, horizon), 0.0, math.inf,
            limit=200)
        assert by_time == pytest.approx(by_radius, rel=1e-8)
        if horizon == math.inf:
            assert by_time == pytest.approx(ratio, rel=1e-8)


def test_exit_law_requires_interior_start():
    wedge = WedgeSpec(0.0, math.pi / 3)
    with pytest.raises(ValueError):
        ExitLawParams.for_side(wedge, PolarPoint(1.0, 0.0), Side.MINUS)
    with pytest.raises(ValueError):
        ExitLawParams.for_side(wedge, PolarPoint(0.0, 0.1), Side.MINUS)
    # strictly interior is all it asks, on either ray
    near_ray = PolarPoint(1.0, 1e-13)
    assert ExitLawParams.for_side(wedge, near_ray, Side.MINUS).start == near_ray
    with pytest.raises(ValueError):
        ExitLawParams.for_side(wedge, PolarPoint(1.0, math.pi / 3), Side.PLUS)


# ---------------------------------------------------------------------------
# corner kernel (the law corner.sample_corner draws from)
# ---------------------------------------------------------------------------

def test_corner_kernel_integrates_to_one():
    for r_n, t_prime in ((0.05, 0.5), (0.3, 1.2), (0.0, 0.2)):
        alpha = 0.9
        val, _ = integrate.dblquad(
            lambda r, _th: corner_kernel(r_n, t_prime, alpha, r),
            0.0, alpha, 0.0, r_n + 12.0 * math.sqrt(t_prime),
            epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-7)
        # its radius marginal is the Rice law test_corner checks the draws on
        sd = math.sqrt(t_prime)
        for r in (0.1, 0.8, 2.0):
            assert alpha * corner_kernel(r_n, t_prime, alpha, r) == pytest.approx(
                rice(r_n / sd, scale=sd).pdf(r), rel=1e-12)


def test_corner_kernel_constant_in_theta():
    v1 = corner_kernel(0.2, 0.5, 0.9, 0.4, theta=0.0)
    v2 = corner_kernel(0.2, 0.5, 0.9, 0.4, theta=0.7)
    assert v1 == v2


def test_corner_kernel_validation():
    with pytest.raises(ValueError):
        corner_kernel(-0.1, 0.5, 0.9, 0.4)
    with pytest.raises(ValueError):
        corner_kernel(0.1, 0.0, 0.9, 0.4)
