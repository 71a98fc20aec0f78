import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgebm.geometry import (CorrelatedSetup, PolarPoint, RegionCase,
                              WedgeSpec, fold_into_wedge, image_angles,
                              mat_vec, require_pi_over_m, standard_frame)
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, run_frame

from laws import contains_angle

TWO_PI = 2.0 * math.pi


def test_polar_round_trip():
    p = PolarPoint(1.5, 0.3)
    x, y = p.cartesian()
    q = PolarPoint.from_cartesian(x, y)
    assert q.r == pytest.approx(1.5, rel=1e-15)
    assert q.theta == pytest.approx(0.3, rel=1e-15)


def test_polar_rejects_bad_input():
    with pytest.raises(ValueError):
        PolarPoint(-1.0, 0.0)
    with pytest.raises(ValueError):
        PolarPoint(math.inf, 0.0)


def test_wedge_validation():
    with pytest.raises(ValueError):
        WedgeSpec(0.5, 0.5)
    with pytest.raises(ValueError):
        WedgeSpec(-0.1, 0.5)
    w = WedgeSpec(0.2, 1.1)
    assert w.opening == pytest.approx(0.9)


def test_pi_over_m_detection():
    assert WedgeSpec(0.0, math.pi / 3).pi_over_m() == 3
    assert WedgeSpec(0.0, math.pi).pi_over_m() == 1
    assert WedgeSpec(0.0, 0.9).pi_over_m() is None
    with pytest.raises(ValueError):
        require_pi_over_m(WedgeSpec(0.0, 0.9))


def test_origin_is_inside_any_wedge():
    w = WedgeSpec(0.0, 0.3)
    apex = PolarPoint(0.0, 5.0)
    assert w.place(apex) is apex


# ---------------------------------------------------------------------------
# WedgeSpec.place: the one rule for a point inside, on a ray or outside
# ---------------------------------------------------------------------------

def test_place_keeps_an_interior_point_and_the_apex():
    w = WedgeSpec(0.2, 1.1)
    for p in (PolarPoint(1.5, 0.6), PolarPoint(1.5, 0.2 + 2e-12),
              PolarPoint(1.5, 1.1 - 2e-12), PolarPoint(0.0, 5.0)):
        assert w.place(p) is p


@pytest.mark.parametrize("theta,ray", [
    (0.2, 0.2), (0.2 + 1e-13, 0.2), (0.2 - 1e-13, 0.2), (0.2 - 9e-13, 0.2),
    (1.1, 1.1), (1.1 - 1e-13, 1.1), (1.1 + 1e-13, 1.1), (1.1 + 9e-13, 1.1)])
def test_place_puts_a_point_near_a_ray_onto_it(theta, ray):
    placed = WedgeSpec(0.2, 1.1).place(PolarPoint(1.5, theta))
    assert (placed.r, placed.theta) == (1.5, ray)


def test_place_reads_angles_modulo_two_pi():
    w = WedgeSpec(0.0, 0.9)
    assert w.place(PolarPoint(2.0, 1e-13)).theta == 0.0
    assert w.place(PolarPoint(2.0, TWO_PI - 1e-13)).theta == 0.0
    assert w.place(PolarPoint(2.0, 0.9 - TWO_PI)).theta == 0.9
    # the full plane's rays are one line: the side of it decides, and an
    # angle already on a ray keeps it
    full = WedgeSpec(0.0, TWO_PI)
    assert full.place(PolarPoint(2.0, 1e-13)).theta == 0.0
    assert full.place(PolarPoint(2.0, TWO_PI + 1e-13)).theta == 0.0
    assert full.place(PolarPoint(2.0, TWO_PI - 1e-13)).theta == TWO_PI
    assert full.place(PolarPoint(2.0, -1e-13)).theta == TWO_PI
    assert full.place(PolarPoint(2.0, TWO_PI)).theta == TWO_PI


@pytest.mark.parametrize("theta", [-2e-12, 0.9 + 2e-12, TWO_PI - 2e-12, 3.0,
                                   0.3 + TWO_PI])
def test_place_refuses_a_point_past_the_tolerance(theta):
    with pytest.raises(ValueError):
        WedgeSpec(0.0, 0.9).place(PolarPoint(1.0, theta))


def test_image_angles_tile_the_plane():
    # the 2m image angles of an interior point are pairwise distinct and
    # exactly one of them (k=0) lies inside the base wedge
    for m in (1, 2, 3, 6):
        w = WedgeSpec(0.0, math.pi / m)
        theta = 0.37 * w.opening
        angles = image_angles(theta, w, m)
        assert len(angles) == 2 * m
        inside = [a for a in angles if contains_angle(w, a)]
        assert len(inside) == 1
        assert inside[0] == pytest.approx(theta, abs=1e-12)
        for i in range(len(angles)):
            for j in range(i + 1, len(angles)):
                d = (angles[i] - angles[j]) % TWO_PI
                assert min(d, TWO_PI - d) > 1e-9


def test_image_angle_k1_reflects_across_upper_ray():
    w = WedgeSpec(0.0, math.pi / 3)
    theta = 0.2
    assert image_angles(theta, w, 3)[1] == pytest.approx(2 * w.opening - theta)


@given(st.floats(0.05, TWO_PI - 0.05), st.floats(-1.0, 2.0))
@settings(deadline=None, max_examples=200)
def test_fold_stays_inside(opening, frac):
    w = WedgeSpec(0.0, opening)
    theta = frac * opening  # within one opening of the wedge on either side
    folded = fold_into_wedge(theta, w)
    assert -1e-12 <= folded <= opening + 1e-12


def test_fold_is_mirror():
    w = WedgeSpec(0.0, 0.9)
    assert fold_into_wedge(-0.2, w) == pytest.approx(0.2)
    assert fold_into_wedge(1.0, w) == pytest.approx(0.8)
    assert fold_into_wedge(0.5, w) == 0.5
    with pytest.raises(ValueError):
        fold_into_wedge(2.0, w)


# ---------------------------------------------------------------------------
# decorrelation; reference angles frozen from
# scripts/oracles/decorrelation_reference.py (Monte Carlo region-membership
# check with 0 mismatches per configuration)
# ---------------------------------------------------------------------------

def setup_frame(setup):
    """(forward, backward, wedge) of the standard frame of a setup."""
    return standard_frame(setup.sigma, setup.wedge)


def test_decorrelate_and_pos_reference():
    setup = CorrelatedSetup(sigma1=2.0, sigma2=1.0, rho=0.3, slope=0.7,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.2))
    assert setup_frame(setup)[2].opening == pytest.approx(1.16108383097, abs=1e-9)


def test_decorrelate_negative_denominator():
    # s2 - a s1 rho < 0 flips the mapped ray into the second quadrant
    setup = CorrelatedSetup(sigma1=1.0, sigma2=0.5, rho=0.8, slope=2.0,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.1))
    assert setup_frame(setup)[2].opening == pytest.approx(2.3127435948, abs=1e-9)


def test_decorrelate_degenerate_vertical_ray():
    # s2 = a s1 rho maps the slanted boundary to the vertical axis
    setup = CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.5, slope=2.0,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.1))
    assert setup_frame(setup)[2].opening == pytest.approx(math.pi / 2, abs=1e-12)


def test_decorrelate_union_case_adds_pi():
    common = dict(sigma1=1.3, sigma2=0.9, rho=-0.2, slope=1.1, x0=(1.0, 0.5))
    inter = setup_frame(CorrelatedSetup(region_case=RegionCase.AND_POS,
                                        x0=(1.0, 0.5), sigma1=1.3, sigma2=0.9,
                                        rho=-0.2, slope=1.1))[2]
    union = setup_frame(CorrelatedSetup(region_case=RegionCase.OR_POS,
                                        **common))[2]
    assert union.opening == pytest.approx(inter.opening + math.pi, abs=1e-12)


def test_decorrelate_forward_map_sends_region_to_wedge():
    setup = CorrelatedSetup(sigma1=2.0, sigma2=1.0, rho=0.3, slope=0.7,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.2))
    fwd, bwd, wedge = setup_frame(setup)
    # boundary rays of the region map onto the wedge rays
    u, v = mat_vec(fwd, (1.0, 0.0))
    assert abs(v) < 1e-12
    u, v = mat_vec(fwd, (1.0, 0.7))
    assert math.atan2(v, u) == pytest.approx(wedge.alpha_plus, abs=1e-12)
    # round trip
    x, y = mat_vec(bwd, mat_vec(fwd, (0.3, 0.1)))
    assert (x, y) == pytest.approx((0.3, 0.1), abs=1e-14)


def test_decorrelate_places_a_start_on_the_boundary_line_on_the_ray():
    # the start lies on y = slope x; sigma^{-1} maps it 2.2e-16 inside the ray
    setup = CorrelatedSetup(sigma1=0.7560092608038578, sigma2=0.36107135996785794,
                            rho=-0.8505992572365259, slope=-3.7410169050855,
                            region_case=RegionCase.AND_NEG,
                            x0=(-4.547975539878555, 17.01405337860103))
    config = EstimatorConfig(mode=Mode.STOPPED, func=TestFunction.CONSTANT_1,
                             horizon=1.0, n_samples=1, seed=0, setup=setup)
    wedge, start = run_frame(config)[:2]
    assert start.theta == wedge.alpha_plus


def test_decorrelate_map_is_covariance_inverse():
    setup = CorrelatedSetup(sigma1=2.0, sigma2=1.0, rho=0.3, slope=0.7,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.2))
    fwd = setup_frame(setup)[0]
    # the forward map is the inverse of the covariance factor
    for col in ((1.0, 0.0), (0.0, 1.0)):
        back = mat_vec(fwd, mat_vec(setup.sigma, col))
        assert back == pytest.approx(col, abs=1e-13)


def test_covariance_factor_reproduces_covariance():
    setup = CorrelatedSetup(sigma1=2.0, sigma2=1.0, rho=0.3, slope=0.7,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.2))
    (a, b), (c, d) = setup.sigma
    assert a * a + b * b == pytest.approx(setup.sigma1 ** 2, rel=1e-14)
    assert c * c + d * d == pytest.approx(setup.sigma2 ** 2, rel=1e-14)
    assert a * c + b * d == pytest.approx(
        setup.rho * setup.sigma1 * setup.sigma2, rel=1e-14)


def test_correlated_setup_validation():
    with pytest.raises(ValueError):
        CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.0, slope=-0.5,
                        region_case=RegionCase.AND_POS, x0=(1.0, 0.1))
    with pytest.raises(ValueError):
        CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.0, slope=0.5,
                        region_case=RegionCase.AND_POS, x0=(-1.0, 0.1))
    with pytest.raises(ValueError):
        CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=1.0, slope=0.5,
                        region_case=RegionCase.AND_POS, x0=(1.0, 0.1))
