"""Reference laws the tests check the samplers and densities against.

None of these runs in the package: the exit law's densities, the survival
probability by quadrature, the 1D half-line factors, the one-shot reflected
endpoint for openings pi/m, the order-zero corner kernel that
`corner.sample_corner` draws from and the tolerant angle test are oracles
only.
"""

import math

from scipy import integrate, special

from wedgebm.densities import Kind, _signed_sum, killed_density_images
from wedgebm.geometry import ANGLE_TOL, TWO_PI, PolarPoint, WedgeSpec
from wedgebm.samplers import _sector_fold


def contains_angle(wedge, theta):
    """Whether angle theta lies in the wedge, up to ANGLE_TOL past a ray."""
    return wedge.alpha_minus - ANGLE_TOL <= theta <= wedge.alpha_plus + ANGLE_TOL


def exit_joint_density(params, r, t):
    """Joint density (w.r.t. dr dt) of (exit radius, exit time) on one side."""
    if r <= 0 or t <= 0:
        raise ValueError(f"need r > 0 and t > 0, got r={r} t={t}")
    r0 = params.start.r
    pref = r0 / (TWO_PI * t * t)
    terms = [math.sin(g) * math.exp(-c / (2.0 * t))
             for g, c in zip(params.gammas, params.c_values(r))]
    return pref * _signed_sum(terms)


def exit_radius_marginal(params, r):
    """Density of the exit radius on the chosen side (t integrated out).

    Each term integrates as int t^-2 e^{-c/2t} dt = 2/c; a query at c_k = 0
    sits exactly on an image point and saturates to +inf.
    """
    r0 = params.start.r
    terms = []
    for g, c in zip(params.gammas, params.c_values(r)):
        if c == 0.0:
            return math.inf
        terms.append(math.sin(g) / c)
    return (r0 / math.pi) * _signed_sum(terms)


def one_dim_factor(kind, x0, w, T):
    """Change-of-measure factor of the 1D half-line kernels against a free
    Gaussian endpoint w ~ N(x0, T): 1_{w>0} (1 -+ e^{-2 x0 w / T})."""
    if x0 < 0:
        raise ValueError(f"x0 must be nonnegative, got {x0}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if w <= 0:
        return 0.0
    corr = math.exp(-2.0 * x0 * w / T)
    return 1.0 - corr if kind is Kind.KILLED else 1.0 + corr


def corner_kernel(r_n, t_prime, alpha, r, theta=0.0):
    """Leading-order terminal kernel near the corner, w.r.t. dr dtheta.

    Constant in theta on [0, alpha]: the Rice law of the radius times a
    uniform angle.
    """
    if r_n < 0 or t_prime <= 0 or r < 0:
        raise ValueError("need r_n >= 0, t_prime > 0, r >= 0")
    z = r * r_n / t_prime
    base = math.exp(-((r - r_n) ** 2) / (2.0 * t_prime))
    return (r / (t_prime * alpha)) * base * special.ive(0, z)


def survival_probability(m, x, t):
    """P(tau > t) for the killed motion in <0, pi/m>, by adaptive quadrature
    of the image-sum kernel. Absolute error ~1e-9, well under the 1e-7 the
    tests rely on."""
    require_m = int(m)
    if require_m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    alpha = math.pi / require_m
    if t <= 0:
        return 1.0
    r0 = x.r
    spread = 8.0 * math.sqrt(t)
    r_lo = max(0.0, r0 - spread)
    r_hi = r0 + spread
    if spread < r0:
        half = min(math.pi, 10.0 * math.sqrt(t) / r0)
        th_lo = max(0.0, x.theta - half)
        th_hi = min(alpha, x.theta + half)
    else:
        th_lo, th_hi = 0.0, alpha
    val, _err = integrate.dblquad(
        lambda r, theta: killed_density_images(require_m, x, PolarPoint(r, theta), t) * r,
        th_lo, th_hi, r_lo, r_hi, epsabs=1e-9, epsrel=1e-9)
    return val


def direct_pi_over_m_reflected(start, T, m, rng):
    """One-shot reflected endpoint for openings pi/m: the free Brownian
    endpoint from the cartesian `start`, folded into <0, pi/m> by the
    2m-sector tiling."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    sd = math.sqrt(T)
    x = start[0] + sd * rng.normal()
    y = start[1] + sd * rng.normal()
    return PolarPoint(*_sector_fold(x, y, WedgeSpec(0.0, math.pi / m), m))

