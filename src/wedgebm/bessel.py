"""Modified Bessel functions of the first kind in the series densities.

The densities only ever use the exponentially scaled value e^{-x} I_nu(x),
straight from scipy's `ive`: their argument r*r0/t blows up as t -> 0, far
past the x ~ 709 where I_nu itself overflows, and `ive` stays in range for
every argument.

`series_tail_cutoff` certifies where the densities' sums over the orders
n*pi/alpha can be truncated. Its bound rests on two facts about I_nu(x),
nu >= 0, x > 0: I_nu decreases in nu, and the ratio I_{nu+1}/I_nu is at most
x/(nu + sqrt(nu^2 + x^2)) = e^{-asinh(nu/x)} (Amos 1974, Math. Comp. 28).
The cutoff costs a few closed-form checks and no Bessel evaluation past the
one that tells whether the leading term underflows.
"""

import math

from scipy import special

# relative truncation target of the series densities: the dropped tail stays
# below this fraction of the leading term
SERIES_REL_TOL = 1e-12

# the tail must fall this many e-folds below I_lead, the leading term being
# I_lead/2
_LOG_TAIL_TARGET = math.log(2.0 / SERIES_REL_TOL)

MAX_ORDERS = 10 ** 6


class SeriesCapExceeded(RuntimeError):
    """series_tail_cutoff found no certified cutoff below 1e6 orders."""


def _log_tail_bound(n, nu_step, x, lead_order):
    """A bound on log(sum_{m>=n} I_{m nu_step}(x) / I_lead(x)), for
    n nu_step >= lead_order.

    With k = floor(n nu_step - lead), the ratio bound and the monotonicity in
    the order give log(I_{n nu_step}/I_lead) <= -sum_{j<k} asinh((lead+j)/x)
    <= -int_{max(lead-1, 0)}^{lead+k-1} asinh(mu/x) dmu. Past order n every
    ratio is at most rho = e^{-asinh(n nu_step/x)}, and term n+j is at most
    term n times rho^{floor(j nu_step)}, so the tail is at most
    term_n / (rho (1 - rho^{nu_step})) for any step, below 1 included.
    """
    nu = n * nu_step
    lo = max(lead_order - 1.0, 0.0)
    hi = lead_order + math.floor(nu - lead_order) - 1.0
    decay = 0.0
    if hi > lo:
        # mu asinh(mu/x) - sqrt(mu^2 + x^2) is the antiderivative; the square
        # roots are differenced without cancellation
        decay = (hi * math.asinh(hi / x) - lo * math.asinh(lo / x)
                 - (hi - lo) * (hi + lo) / (math.hypot(hi, x) + math.hypot(lo, x)))
    log_inv_rho = math.asinh(nu / x)
    return log_inv_rho - decay - math.log(-math.expm1(-nu_step * log_inv_rho))


def series_tail_cutoff(nu_step, x, lead_order=0.0):
    """A cutoff N such that sum_{n>=N} I_{n*nu_step}(x) is provably below
    SERIES_REL_TOL times I_{lead_order}(x)/2, the magnitude of the leading
    term of the series being truncated: the first N the bound of
    `_log_tail_bound` certifies, within a few orders of the exact minimum.
    A sine series starts at order nu_step, so it must pass lead_order=nu_step: at
    small x the orders decay so fast that a tail certified only against I_0
    is far from small relative to the sum.

    asinh(u) <= u makes the bound's decay at most (N nu_step)^2 / 2x, so no N
    at or below sqrt(2 x log(2/SERIES_REL_TOL)) / nu_step is certified. The
    search gallops up from there and bisects, a few closed-form checks. It
    raises SeriesCapExceeded past 1e6 orders before any Bessel evaluation.

    Returns 1 when x = 0 or e^{-x} I_{lead_order}(x) underflows: every
    later order is smaller, so every term of the sum vanishes or underflows.
    """
    if not (0.0 < nu_step < math.inf and 0.0 <= x < math.inf
            and 0.0 <= lead_order < math.inf):
        raise ValueError(f"need finite nu_step > 0, x >= 0 and lead_order >= 0, "
                         f"got {nu_step}, {x}, {lead_order}")
    if x == 0.0:
        return 1
    # every certified N is above the decay bound's floor and reaches the lead
    floor_n = math.sqrt(2.0 * x * _LOG_TAIL_TARGET) / nu_step
    lead_n = lead_order / nu_step
    # each ratio bound grows with x, so the tail bound at a larger argument
    # holds at x too; 1e-300 keeps mu/x finite for subnormal x
    x_bound = max(x, 1e-300)
    cutoff = MAX_ORDERS + 1
    if max(floor_n, lead_n) < MAX_ORDERS:
        cutoff = _first_certified(
            max(math.floor(floor_n), math.ceil(lead_n) - 1),
            lambda n: _log_tail_bound(n, nu_step, x_bound, lead_order) <= -_LOG_TAIL_TARGET)
    if cutoff > MAX_ORDERS:
        raise SeriesCapExceeded(
            f"no certified cutoff below 1e6 orders (nu_step={nu_step}, x={x})")
    return 1 if special.ive(lead_order, x) == 0.0 else cutoff


def _first_certified(lo, certified):
    """An n > lo with certified(n) and not certified(n - 1), lo itself not
    certified: gallop up from lo, then bisect."""
    step, hi = 1, lo + 1
    while not certified(hi):
        lo, hi = hi, hi + step
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi
