"""Modified Bessel functions of the first kind, on scipy.special.

The densities only ever use the exponentially scaled value e^{-x} I_nu(x):
their argument r*r0/t blows up as t -> 0, far past the x ~ 709 where I_nu
itself overflows. `log_bessel_i` is therefore built on scipy's `ive`, which
stays in range for every argument, with x added back in log space.

`series_tail_cutoff` certifies where the densities' sums over the orders
n*pi/alpha can be truncated.
"""

import math

from scipy import special

LOG_HALF = math.log(0.5)


# relative truncation target of the series densities: the dropped tail stays
# below this fraction of the leading term
SERIES_REL_TOL = 1e-12


class SeriesCapExceeded(RuntimeError):
    """series_tail_cutoff found no certified cutoff below 1e6 orders."""


def _check_args(nu, x):
    if nu < 0 or x < 0 or not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError(f"need finite nu >= 0 and x >= 0, got nu={nu} x={x}")


def log_bessel_i(nu, x):
    """log I_nu(x), as log(e^{-x} I_nu(x)) + x.

    Returns -inf where e^{-x} I_nu(x) underflows to 0, that is where it is
    below the smallest double; that includes x = 0 with nu > 0, where I_nu
    vanishes. A caller that only uses e^{-x} I_nu(x) gets exactly 0 there.
    """
    _check_args(nu, x)
    scaled = special.ive(nu, x)
    return math.log(scaled) + x if scaled > 0.0 else -math.inf


def series_tail_cutoff(nu_step, x, lead_order=0.0):
    """Smallest N so that sum_{n>=N} I_{n*nu_step}(x) is provably below
    SERIES_REL_TOL times I_{lead_order}(x)/2, the magnitude of the leading
    term of the series being truncated. A sine series starts at order
    nu_step, so it must pass lead_order=nu_step: at small x the orders decay
    so fast that a tail certified only against I_0 is far from small
    relative to the sum.

    Uses the term bound I_nu(x) <= (x/2)^nu e^{x^2/(4(nu+1))} / Gamma(nu+1)
    (from Gamma(k+nu+1) >= Gamma(nu+1)(nu+1)^k) together with a geometric
    ratio check between consecutive orders, so the returned N certifies the
    truncation rather than eyeballing term decay.

    Returns 1 when e^{-x} I_{lead_order}(x) underflows: every later order
    is smaller, so every term of the sum underflows too.
    """
    if nu_step <= 0 or x < 0:
        raise ValueError(f"need nu_step > 0 and x >= 0, got {nu_step}, {x}")
    if x == 0.0:
        return 1
    log_lead = log_bessel_i(lead_order, x)
    if log_lead == -math.inf:
        return 1
    log_target = math.log(SERIES_REL_TOL) + log_lead + LOG_HALF
    log_half_x = math.log(0.5 * x)

    def log_order_bound(nu):
        return nu * log_half_x - math.lgamma(nu + 1.0) + x * x / (4.0 * (nu + 1.0))

    n = 1
    while True:
        here = log_order_bound(n * nu_step)
        ratio = log_order_bound((n + 1) * nu_step) - here
        # tail <= bound(n) / (1 - ratio) <= 2 bound(n) once ratio <= 1/2
        if ratio <= LOG_HALF and here + math.log(2.0) <= log_target:
            return n
        n += 1
        if n > 10 ** 6:
            raise SeriesCapExceeded(
                f"no certified cutoff below 1e6 terms (nu_step={nu_step}, x={x})")
