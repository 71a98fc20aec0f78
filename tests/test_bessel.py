import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wedgebm.bessel import SERIES_REL_TOL, SeriesCapExceeded, series_tail_cutoff


def test_log_is_minus_inf_where_the_scaled_value_underflows():
    # log(e^-x I(pi/0.01, 2.1)) = -1482.8, below the smallest double's -744.4;
    # at tiny x too: I_3.49(1e-100) ~ e^-808 underflows. Every later order
    # underflows too, so the certified sum is empty
    for nu, x in [(math.pi / 0.01, 2.1), (3.49, 1e-100)]:
        assert special.ive(nu, x) == 0.0
        assert series_tail_cutoff(nu, x, lead_order=nu) == 1


def test_small_argument_behaviour():
    # at x = 0 only order 0 is nonzero, so a cutoff of 1 leaves the reflected
    # series its order-0 term and the killed series none
    assert special.ive(0.0, 0.0) == 1.0
    assert special.ive(2.0, 0.0) == 0.0
    assert series_tail_cutoff(math.pi / 0.9, 0.0) == 1
    assert series_tail_cutoff(math.pi / 0.9, 0.0, lead_order=math.pi / 0.9) == 1
    # leading order (x/2)^nu / Gamma(nu+1), log I = log(e^-x I) + x
    nu, x = 3.0, 1e-8
    lead = (x / 2.0) ** nu / math.gamma(nu + 1.0)
    assert math.log(special.ive(nu, x)) + x == pytest.approx(math.log(lead), rel=1e-12)


@given(st.floats(0.0, 20.0), st.floats(1e-6, 50.0))
@settings(deadline=None, max_examples=150)
def test_positive_and_increasing_in_x(nu, x):
    # the scaled value the series read stays positive, and log I_nu(x) =
    # log(e^-x I_nu(x)) + x grows with x
    a = math.log(special.ive(nu, x)) + x
    b = math.log(special.ive(nu, x * 1.1)) + x * 1.1
    assert a > -math.inf
    assert b >= a


@given(st.floats(0.1, 30.0))
@settings(deadline=None, max_examples=100)
def test_order_monotonicity(x):
    # I_nu(x) decreases in the order nu for fixed x, a premise of the cutoff
    assert special.ive(0.0, x) >= special.ive(1.0, x) >= special.ive(2.5, x)


# exact minimal cutoffs frozen from scripts/oracles/bessel_reference.py
# (first N with tail of sum_n I_{n nu}(x) below 1e-12 * I_0(x) / 2)
MINIMAL_CUTOFFS = [
    (3.0, 1.0, 4),
    (2.0, 1.0, 6),
    (1.0, 5.0, 21),
    (0.5, 2.0, 30),
    (6.0, 10.0, 5),
]


@pytest.mark.parametrize("nu_step,x,minimal", MINIMAL_CUTOFFS)
def test_tail_cutoff_is_certified_and_tight(nu_step, x, minimal):
    got = series_tail_cutoff(nu_step, x)
    # never below the exact minimal truncation point, never wildly above
    assert got >= minimal
    assert got <= max(2 * minimal, minimal + 10)


@pytest.mark.parametrize("nu_step,x", [(3.0, 1.0), (1.0, 5.0), (0.5, 2.0),
                                       (6.0, 10.0), (2.0, 25.0)])
def test_tail_cutoff_truncation_error(nu_step, x):
    cutoff = series_tail_cutoff(nu_step, x)
    # the dropped terms really are negligible at the certified cutoff
    tail = sum(special.iv(n * nu_step, x) for n in range(cutoff, cutoff + 200))
    assert tail <= 1e-12 * special.iv(0, x)


def test_tail_cutoff_validation():
    with pytest.raises(ValueError):
        series_tail_cutoff(0.0, 1.0)
    with pytest.raises(ValueError):
        series_tail_cutoff(1.0, -1.0)
    for nu_step, x, lead in [(math.inf, 1.0, 0.0), (1.0, math.nan, 0.0),
                             (1.0, math.inf, 0.0), (1.0, 1.0, -1.0),
                             (1.0, 1.0, math.nan)]:
        with pytest.raises(ValueError):
            series_tail_cutoff(nu_step, x, lead_order=lead)


def test_tail_cutoff_at_subnormal_argument():
    # mu/x overflows for x below ~1e-300, where the bound is taken at 1e-300
    for x in (1e-308, 5e-324):
        assert series_tail_cutoff(0.5, x) <= 6
        assert series_tail_cutoff(math.pi / 0.9, x, lead_order=math.pi / 0.9) == 1


def test_tail_cutoff_cap():
    # the closed-form floor sqrt(2 x log(2e12)) / nu_step is past 1e6 orders
    for nu_step, x in [(math.pi / 0.9, 2.25e12), (1.0, 1.7e308), (1e-300, 1.0)]:
        with pytest.raises(SeriesCapExceeded):
            series_tail_cutoff(nu_step, x)
    # x = 1e8 is below the cap, where a certified cutoff exists
    assert 20000 < series_tail_cutoff(math.pi / 0.9, 1e8) < 30000


# exact minimal cutoffs frozen from scripts/oracles/bessel_reference.py
# (mpmath): the first N with sum_{n>=N} I_{n step}(x) <= 1e-12 I_lead(x)/2,
# step = pi/opening, at r*r0/t near the start at t = 1, 1e-2, 1e-4. At these
# arguments the cosine series (lead 0) and the sine series (lead = step)
# share it.
SERIES_MINIMAL_CUTOFFS = [
    (0.9, 2.25, 5), (0.9, 225.0, 33), (0.9, 22500.0, 334),
    (math.pi / 3, 2.25, 6), (math.pi / 3, 225.0, 39), (math.pi / 3, 22500.0, 389),
    (1.5 * math.pi, 2.25, 24), (1.5 * math.pi, 225.0, 175),
    (1.5 * math.pi, 22500.0, 1791),
    (2 * math.pi, 2.25, 32), (2 * math.pi, 225.0, 234), (2 * math.pi, 22500.0, 2399),
]


@pytest.mark.parametrize("sine", [False, True])
@pytest.mark.parametrize("opening,x,minimal", SERIES_MINIMAL_CUTOFFS)
def test_tail_cutoff_against_exact_minimum(opening, x, minimal, sine):
    step = math.pi / opening
    got = series_tail_cutoff(step, x, lead_order=step if sine else 0.0)
    assert minimal <= got <= minimal + 8


# I_{nu+1}(x)/I_nu(x) frozen from scripts/oracles/bessel_reference.py
# (mpmath): below the bound x/(nu + sqrt(nu^2 + x^2)) = e^{-asinh(nu/x)} the
# cutoff is certified with, above the lower bound of one order higher
RATIOS = [
    (0.0, 1e-3, 0.00049999993750001043),
    (0.0, 2.25, 0.7348404523792022),
    (0.5, 1.0, 0.3130352854993313),
    (math.pi / 0.9, 225.0, 0.98238213386551779),
    (50.0, 2.25, 0.022048306152193949),
    (1170.0, 22500.0, 0.94932892474359303),
]


@pytest.mark.parametrize("nu,x,ratio", RATIOS)
def test_ratio_bound(nu, x, ratio):
    upper = x / (nu + math.hypot(nu, x))
    assert upper == pytest.approx(math.exp(-math.asinh(nu / x)), rel=1e-14)
    assert x / (nu + 1.0 + math.hypot(nu + 1.0, x)) < ratio < upper


@given(st.floats(0.05, 2.0 * math.pi), st.floats(math.log(1e-3), math.log(1e5)),
       st.booleans())
@settings(deadline=None, max_examples=150)
def test_tail_cutoff_meets_the_target_by_scipy_sum(opening, log_x, sine):
    step = math.pi / opening
    x = math.exp(log_x)
    lead = step if sine else 0.0
    cutoff = series_tail_cutoff(step, x, lead_order=lead)
    # far past the cutoff order the terms are below e^{-16 log(2e12)}
    tail = special.ive(step * np.arange(cutoff, 4 * cutoff + 100), x).sum()
    assert tail <= SERIES_REL_TOL * special.ive(lead, x) / 2
