"""Reference laws the tests check the samplers and densities against.

None of these runs in the package: the exit law's closed forms (the side
ratio, the inverse CDF of the radius and its CDF) and densities, the
survival probability by quadrature, the 1D half-line factors, the survivor
endpoint by repeated survivor trials, the one-shot reflected endpoint for
openings pi/m, the order-zero corner kernel that `corner.sample_corner`
draws from and the tolerant angle test are oracles only.
"""

import math

import numpy as np
from scipy import integrate, special

from wedgebm.densities import Kind, _signed_sum, killed_density_images
from wedgebm.geometry import (ANGLE_TOL, TWO_PI, PolarPoint, Side, WedgeSpec,
                              image_angles, require_interior,
                              require_pi_over_m)
from wedgebm.samplers import _sector_fold, _survivor_trial

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(12)


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


def exit_radius_marginal(params, r, horizon=math.inf):
    """Density of the exit radius on the chosen side, jointly with an exit
    by `horizon` (t integrated over (0, horizon]); numpy arrays of r too.

    Each term integrates as int_0^h t^-2 e^{-c/2t} dt = (2/c) e^{-c/2h}; a
    query at c_k = 0 sits exactly on an image point and saturates to +inf.
    """
    r = np.asarray(r, dtype=float)
    r0 = params.start.r
    total = np.zeros_like(r)
    with np.errstate(divide="ignore"):
        for g in params.gammas:
            c = (r - r0 * math.cos(g)) ** 2 + (r0 * math.sin(g)) ** 2
            total = total + math.sin(g) * np.exp(-c / (2.0 * horizon)) / c
    out = (r0 / math.pi) * total
    return float(out) if out.ndim == 0 else out


def exit_time_density(params, t):
    """Density of the exit time on the chosen side (r integrated out);
    numpy arrays of t too. The radius integral of each term is Gaussian:
    int_0^inf e^{-c_k(r)/2t} dr = e^{-(r0 sin g)^2/2t} sqrt(2 pi t)
    Phi(r0 cos g / sqrt t)."""
    t = np.asarray(t, dtype=float)
    r0 = params.start.r
    total = np.zeros_like(t)
    for g in params.gammas:
        a, b = r0 * math.sin(g), r0 * math.cos(g)
        total = total + (math.sin(g) * np.exp(-a * a / (2.0 * t))
                         * special.ndtr(b / np.sqrt(t)))
    out = r0 / math.sqrt(TWO_PI) * t ** -1.5 * total
    return float(out) if out.ndim == 0 else out


def exit_side_plus_probability(start, wedge):
    """P(the motion from `start` leaves through the upper ray): its angle
    from the lower ray over the opening, for any opening."""
    require_interior(start, wedge)
    return (start.theta - wedge.alpha_minus) / wedge.opening


def exit_radius_quantile(start, wedge, side, u):
    """Exit radius on the given side by the closed-form inverse CDF.

    Valid for any opening, not just pi/m. u must be strictly inside (0, 1);
    the endpoints would produce the degenerate radii 0 and inf.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must be strictly inside (0, 1), got {u}")
    require_interior(start, wedge)
    alpha = wedge.opening
    s = math.pi * (start.theta - wedge.alpha_minus) / alpha
    if side is Side.MINUS:
        base = math.cos(s) - math.sin(s) / math.tan((math.pi - s) * (u - 1.0))
    else:
        base = -math.cos(s) - math.sin(s) / math.tan(s * (u - 1.0))
    return start.r * base ** (alpha / math.pi)


def exit_radius_cdf(start, wedge, side, r):
    """The inverse of exit_radius_quantile in u, for numpy arrays of r.

    With b = (r / r0)^(pi / alpha) and s the start angle in units of
    pi / alpha: u = 1 - atan2(sin s, b - cos s) / (pi - s) on the lower ray
    and u = 1 - atan2(sin s, b + cos s) / s on the upper one.
    """
    s = math.pi * (start.theta - wedge.alpha_minus) / wedge.opening
    b = (np.asarray(r, dtype=float) / start.r) ** (math.pi / wedge.opening)
    if side is Side.MINUS:
        return 1.0 - np.arctan2(math.sin(s), b - math.cos(s)) / (math.pi - s)
    return 1.0 - np.arctan2(math.sin(s), b + math.cos(s)) / s


def cumulative_integral(density, xs):
    """Integral of the vectorized `density` from 0 to each point of the
    sorted array xs, by 12-point Gauss-Legendre over each gap."""
    edges = np.concatenate(([0.0], np.asarray(xs, dtype=float)))
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    vals = density(lo + half * (GAUSS_NODES + 1.0))
    return np.cumsum((vals * GAUSS_WEIGHTS * half).sum(axis=1))


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


def sample_survivor(start, wedge, horizon, rng):
    """Endpoint at `horizon` conditioned on never leaving the pi/m wedge:
    survivor trials until one keeps its proposal, which happens with
    probability exactly P(tau > horizon) each time."""
    m = require_pi_over_m(wedge)
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    images = image_angles(start.theta, wedge, m)
    while True:
        end = _survivor_trial(start, wedge, m, images, horizon, rng)
        if end is not None:
            return end


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

