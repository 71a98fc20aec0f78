import math

import pytest
from scipy.stats import kstest, rice

from wedgebm.corner import corner_triggered, sample_corner
from wedgebm.rng import RngStream


def test_trigger_rule():
    assert corner_triggered(0.1, 1.0, 0.03)       # 0.01 < 0.03
    assert not corner_triggered(0.2, 1.0, 0.03)   # 0.04 > 0.03
    assert not corner_triggered(0.1, 1.0, 0.0)    # exact mode never triggers
    with pytest.raises(ValueError):
        corner_triggered(0.1, 0.0, 0.03)


@pytest.mark.parametrize("r_n", [0.0, 0.15])
def test_corner_sample_follows_the_order_zero_kernel(r_n):
    # the order-zero kernel is the Rice law in r times a uniform angle;
    # at r_n = 0 (the apex) the Rice law is the Rayleigh law
    t_prime, alpha = 0.9, 0.9
    rng = RngStream(5)
    draws = [sample_corner(r_n, t_prime, alpha, rng) for _ in range(3000)]
    for r, theta, dx, dy in draws:
        assert r == math.hypot(r_n + dx, dy)
        assert 0.0 <= theta < alpha
    sd = math.sqrt(t_prime)
    _, p_r = kstest([d[0] for d in draws], rice(r_n / sd, scale=sd).cdf)
    assert p_r > 1e-3
    _, p_th = kstest([d[1] / alpha for d in draws], "uniform")
    assert p_th > 1e-3


def test_corner_sample_validation():
    rng = RngStream(0)
    for args in ((-0.1, 1.0, 0.9), (0.1, 0.0, 0.9), (0.1, 1.0, 0.0),
                 (0.1, 1.0, 7.0), (math.nan, 1.0, 0.9)):
        with pytest.raises(ValueError):
            sample_corner(*args, rng)
