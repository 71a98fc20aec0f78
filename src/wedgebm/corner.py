"""Corner termination for the reflected sampler.

When the path sits so close to the apex that the squared radius is small
against the remaining time, the Bessel series for the terminal law is
dominated by its order-zero term. That leading kernel,

    (r / t' alpha) e^{-(r^2 + r_n^2)/2t'} I_0(r r_n / t')   on (0, inf) x [0, alpha],

is sampled exactly: the angle is uniform, and the radius comes from the
reference density rho(r) = r e^{-(r - r_n)^2 / 2 t'} (closed-form CDF,
inverted by safeguarded Newton), thinned by the acceptance probability
e^{-x} I_0(x) <= 1 (scipy's `ive`) at x = r r_n / t'.
"""

import math
from dataclasses import dataclass

from scipy import special

from .geometry import PolarPoint

SQRT_TWO = math.sqrt(2.0)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# target accuracy, measured in CDF value, of the radius inversion
_CDF_TOL = 1e-12
_NEWTON_CAP = 100


def _norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / SQRT_TWO))


@dataclass(frozen=True)
class CornerState:
    r_n: float
    t_prime: float
    alpha: float
    epsilon: float

    def __post_init__(self):
        if self.r_n < 0 or self.t_prime <= 0 or not 0 < self.alpha <= 2 * math.pi:
            raise ValueError("invalid corner state")


def corner_triggered(r_n, t_prime, epsilon):
    """True when the corner branch should replace the recursion."""
    if t_prime <= 0:
        raise ValueError(f"remaining time must be positive, got {t_prime}")
    if not epsilon >= 0:  # NaN included
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return epsilon > 0.0 and r_n * r_n / t_prime < epsilon


def reference_mass(r_n, t_prime):
    """Total mass of the unnormalized reference density r e^{-(r-r_n)^2/2t'}."""
    s = math.sqrt(t_prime)
    return (t_prime * math.exp(-r_n * r_n / (2.0 * t_prime))
            + r_n * SQRT_TWO_PI * s * _norm_cdf(r_n / s))


def reference_cdf(r_n, t_prime, r):
    """Unnormalized CDF of the reference density at r (0 at r = 0)."""
    s = math.sqrt(t_prime)
    return (t_prime * (math.exp(-r_n * r_n / (2.0 * t_prime))
                       - math.exp(-((r - r_n) ** 2) / (2.0 * t_prime)))
            + r_n * SQRT_TWO_PI * s * (_norm_cdf((r - r_n) / s) - _norm_cdf(-r_n / s)))


def sample_reference_radius(r_n, t_prime, rng, u=None):
    """Draw from the reference density by inverting its closed-form CDF.

    Newton iterations from the bracket midpoint, falling back to bisection
    whenever a step leaves the bracket; stops when the CDF value matches the
    target within 1e-12 of the total mass.
    """
    if r_n < 0 or t_prime <= 0:
        raise ValueError("need r_n >= 0 and t_prime > 0")
    if u is None:
        u = rng.uniform()
        while not 0.0 < u < 1.0:
            u = rng.uniform()
    mass = reference_mass(r_n, t_prime)
    target = u * mass
    sd = math.sqrt(t_prime)
    hi = r_n + 8.0 * sd
    while reference_cdf(r_n, t_prime, hi) < target:
        hi += 8.0 * sd
    lo = 0.0
    r = 0.5 * (lo + hi)
    tol = _CDF_TOL * mass
    for _ in range(_NEWTON_CAP):
        f = reference_cdf(r_n, t_prime, r) - target
        if abs(f) <= tol:
            return r
        if f > 0:
            hi = r
        else:
            lo = r
        deriv = r * math.exp(-((r - r_n) ** 2) / (2.0 * t_prime))
        if deriv > 0.0:
            step = r - f / deriv
            r = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            r = 0.5 * (lo + hi)
    # Newton budget exhausted; finish with plain bisection
    while hi - lo > 1e-15 * max(1.0, hi):
        r = 0.5 * (lo + hi)
        if reference_cdf(r_n, t_prime, r) > target:
            hi = r
        else:
            lo = r
    return 0.5 * (lo + hi)


def sample_corner(state, rng):
    """Terminal point from the order-zero corner kernel.

    The expected number of proposals is below 1 + sqrt(2 pi eps) e^eps.
    """
    theta = state.alpha * rng.uniform()
    x_scale = state.r_n / state.t_prime
    for _ in range(10 ** 7):
        r = sample_reference_radius(state.r_n, state.t_prime, rng)
        x = r * x_scale
        accept = special.ive(0, x)
        if accept > 1.0 + 1e-12 or accept <= 0.0:
            raise RuntimeError(f"corner acceptance probability {accept} out of range")
        if rng.uniform() < accept:
            return PolarPoint(r, theta)
    raise RuntimeError("corner acceptance-rejection failed to terminate")


def sample_driving_angle(rng):
    """Uniform angle on [0, 2 pi) for the driving endpoint at the corner."""
    return 2.0 * math.pi * rng.uniform()
