import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wedgebm.bessel import log_bessel_i, series_tail_cutoff

# high-precision reference values frozen from
# scripts/oracles/bessel_reference.py (mpmath, 50 digits)
REFERENCE = [
    (0.0, 1.0, 1.2660658777520083),
    (0.0, 2.0, 2.2795853023360673),
    (1.0, 1.0, 0.56515910399248503),
    (1.0, 5.0, 24.335642142450527),
    (2.0, 3.0, 2.2452124409299512),
    (5.0, 0.5, 8.223171313109264e-6),
    (0.5, 1.3, 1.1885128333972749),
    (1.0 / 3.0, 2.5, 3.1743242297241971),
    (10.0, 20.0, 3540200.2090195211),
    (3.5, 8.0, 191.34058783326503),
    (0.0, 50.0, 2.9325537838493363e+20),
    (2.0, 100.0, 1.0523843193243106e+42),
    (700.0, 225.0, 1.4657083350588896e-246),
]

LOG_REFERENCE = [
    (0.0, 800.0, 795.73891195074502),
    (2.0, 1000.0, 995.62530788945305),
    (7.5, 2000.0, 1995.2666067516308),
    (0.0, 1e4, 9994.4759037814323),
    (math.pi / 0.9, 22500.0, 22494.070160951321),
]


@pytest.mark.parametrize("nu,x,want", REFERENCE)
def test_reference_values(nu, x, want):
    if special.ive(nu, x) > 0.0:
        assert log_bessel_i(nu, x) == pytest.approx(math.log(want), rel=1e-13,
                                                    abs=1e-15)
    else:
        # I_700(225) = 1.5e-246 is a double, but e^{-225} I_700(225) ~ 3e-344
        # is not: log_bessel_i works through the scaled value and says -inf
        assert log_bessel_i(nu, x) == -math.inf


@pytest.mark.parametrize("nu,x,want", LOG_REFERENCE)
def test_log_reference_values(nu, x, want):
    assert log_bessel_i(nu, x) == pytest.approx(want, rel=1e-13)


def test_against_scipy_grid():
    for nu in (0.0, 0.5, 1.0, 2.7, 6.0, 11.5):
        for x in (0.01, 0.3, 1.0, 4.0, 15.0, 60.0):
            want = math.log(special.iv(nu, x))
            assert log_bessel_i(nu, x) == pytest.approx(want, rel=1e-11, abs=1e-14)


def test_scaled_against_scipy_large_argument():
    # compare exp(log I - x) with scipy's ive where iv itself overflows
    for nu in (0.0, 3.0, 10.0):
        for x in (200.0, 700.0, 1500.0):
            want = special.ive(nu, x)
            got = math.exp(log_bessel_i(nu, x) - x)
            assert got == pytest.approx(want, rel=1e-10)


def test_small_argument_behaviour():
    assert log_bessel_i(0.0, 0.0) == 0.0
    assert log_bessel_i(2.0, 0.0) == -math.inf
    # leading order (x/2)^nu / Gamma(nu+1)
    nu, x = 3.0, 1e-8
    lead = (x / 2.0) ** nu / math.gamma(nu + 1.0)
    assert log_bessel_i(nu, x) == pytest.approx(math.log(lead), rel=1e-12)


def test_log_is_minus_inf_where_the_scaled_value_underflows():
    # log(e^-x I(pi/0.01, 2.1)) = -1482.8, below the smallest double's -744.4
    nu, x = math.pi / 0.01, 2.1
    assert log_bessel_i(nu, x) == -math.inf
    # every later order underflows too, so the certified sum is empty
    assert series_tail_cutoff(nu, x, lead_order=nu) == 1


def test_validation():
    for nu, x in [(-0.5, 1.0), (0.5, -1.0), (math.nan, 1.0), (0.5, math.inf)]:
        with pytest.raises(ValueError):
            log_bessel_i(nu, x)


@given(st.floats(0.0, 20.0), st.floats(1e-6, 50.0))
@settings(deadline=None, max_examples=150)
def test_positive_and_increasing_in_x(nu, x):
    a = log_bessel_i(nu, x)
    b = log_bessel_i(nu, x * 1.1)
    assert a > -math.inf
    assert b >= a


@given(st.floats(0.1, 30.0))
@settings(deadline=None, max_examples=100)
def test_order_monotonicity(x):
    # I_nu(x) decreases in the order nu for fixed x
    assert log_bessel_i(0.0, x) >= log_bessel_i(1.0, x) >= log_bessel_i(2.5, x)


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
