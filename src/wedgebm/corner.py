"""Corner termination for the reflected sampler.

When the path sits so close to the apex that the squared radius is small
against the remaining time, the Bessel series for the terminal law is
dominated by its order-zero term. That leading kernel,

    (r / t' alpha) e^{-(r^2 + r_n^2)/2t'} I_0(r r_n / t')   on (0, inf) x [0, alpha],

is a uniform angle on [0, alpha] times the Rice law of the distance from the
apex of the free Gaussian endpoint N((r_n, 0), t' I). So one free Gaussian
step from the current point gives the terminal radius, and that same step is
the driving displacement of the terminal pass. At the apex (r_n = 0) the
series is its order-zero term for every opening, and the draw is exact.
"""

import math

from .geometry import TWO_PI


def corner_triggered(r_n, t_prime, epsilon):
    """True when the corner branch should replace the recursion."""
    if t_prime <= 0:
        raise ValueError(f"remaining time must be positive, got {t_prime}")
    if not epsilon >= 0:  # NaN included
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return epsilon > 0.0 and r_n * r_n / t_prime < epsilon


def sample_corner(r_n, t_prime, alpha, rng):
    """Terminal (radius, angle) and driving step (dx, dy) from the
    order-zero corner kernel, for a path at radius r_n with t_prime left.

    The step (dx, dy) ~ N(0, t' I) is taken in the frame whose positive
    x-axis passes through the current point, so the terminal radius is
    hypot(r_n + dx, dy); the terminal angle is alpha U, measured from the
    wedge's lower ray.
    """
    if not (r_n >= 0.0 and t_prime > 0.0 and 0.0 < alpha <= TWO_PI):
        raise ValueError(f"invalid corner state r_n={r_n}, t'={t_prime}, alpha={alpha}")
    sd = math.sqrt(t_prime)
    dx = sd * rng.normal()
    dy = sd * rng.normal()
    return math.hypot(r_n + dx, dy), alpha * rng.uniform(), dx, dy
