"""Closed-form laws for Brownian motion in a wedge.

Two families of transition densities are provided and kept deliberately
separate in their conventions:

* image sums (openings pi/m only), values w.r.t. cartesian dy;
* Bessel series (any opening), values w.r.t. dr dtheta, Jacobian included.

`density_dy_to_drdtheta` / `density_drdtheta_to_dy` convert between the two.
On top of these sit the joint exit law of the stopped process, the 1D
change-of-measure factors, the corner kernel, and a quadrature helper for
survival probabilities.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .bessel import log_bessel_i, series_tail_cutoff
from .geometry import PolarPoint, Side, WedgeSpec, image_angles, require_pi_over_m

TWO_PI = 2.0 * math.pi

# Signed sums that cancel to something smaller than this (relative to the
# total term magnitude) are clamped to zero; see _signed_sum.
CANCEL_CLAMP = 1e-12


class Kind(Enum):
    REFLECTED = "reflected"
    KILLED = "killed"


def _signed_sum(terms):
    """Sum with positive and negative terms paired in decreasing magnitude,
    clamping tiny negative residue (pure cancellation noise) to zero."""
    pos = sorted((t for t in terms if t > 0), reverse=True)
    neg = sorted((t for t in terms if t < 0))  # most negative first
    total = 0.0
    scale = 0.0
    for p, n in zip(pos, neg):
        total += p + n
        scale += p - n
    for p in pos[len(neg):]:
        total += p
        scale += p
    for n in neg[len(pos):]:
        total += n
        scale -= n
    if total < 0 and -total <= CANCEL_CLAMP * max(1.0, scale):
        return 0.0
    return total


def _check_in_standard_wedge(point, opening, label):
    if point.r > 0 and not (-1e-12 <= point.theta <= opening + 1e-12):
        raise ValueError(f"{label} angle {point.theta} outside wedge (0, {opening})")


# ---------------------------------------------------------------------------
# image sums, openings pi/m, densities w.r.t. cartesian dy
# ---------------------------------------------------------------------------

def _image_terms(m, x, y, t, signed):
    wedge = WedgeSpec(0.0, math.pi / m)
    _check_in_standard_wedge(x, wedge.opening, "x")
    _check_in_standard_wedge(y, wedge.opening, "y")
    rx, ry = x.r, y.r
    norm = 1.0 / (TWO_PI * t)
    terms = []
    for k, ang in enumerate(image_angles(y.theta, wedge, m)):
        d2 = rx * rx + ry * ry - 2.0 * rx * ry * math.cos(x.theta - ang)
        val = norm * math.exp(-d2 / (2.0 * t))
        if signed and k % 2 == 1:
            val = -val
        terms.append(val)
    return terms


def reflected_density_images(m, x, y, t):
    """Transition density (w.r.t. dy) of the reflected motion in <0, pi/m>."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return math.fsum(_image_terms(m, x, y, t, signed=False))


def killed_density_images(m, x, y, t):
    """Transition density (w.r.t. dy) of the motion killed on the rays."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return _signed_sum(_image_terms(m, x, y, t, signed=True))


# ---------------------------------------------------------------------------
# Bessel series, any opening, densities w.r.t. dr dtheta
# ---------------------------------------------------------------------------

def _series_density(kind, wedge, x, y, t):
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    alpha = wedge.opening
    th = x.theta - wedge.alpha_minus
    th0 = y.theta - wedge.alpha_minus
    _check_in_standard_wedge(PolarPoint(x.r, th), alpha, "x")
    _check_in_standard_wedge(PolarPoint(y.r, th0), alpha, "y")
    r, r0 = x.r, y.r
    z = r * r0 / t
    log_base = -((r - r0) ** 2) / (2.0 * t)  # = -(r^2+r0^2)/2t + z
    nu_step = math.pi / alpha
    lead = 0.0 if kind is Kind.REFLECTED else nu_step
    cutoff = series_tail_cutoff(nu_step, z, lead_order=lead)
    terms = []
    if kind is Kind.REFLECTED:
        terms.append(0.5 * math.exp(log_base + log_bessel_i(0, z) - z))
    for n in range(1, cutoff):
        nu = n * math.pi / alpha
        lb = log_bessel_i(nu, z)
        if lb == -math.inf:
            continue
        mag = math.exp(log_base + lb - z)
        if kind is Kind.REFLECTED:
            terms.append(mag * math.cos(nu * th) * math.cos(nu * th0))
        else:
            terms.append(mag * math.sin(nu * th) * math.sin(nu * th0))
    return (2.0 * r / (t * alpha)) * _signed_sum(terms)


def reflected_density_series(wedge, x, y, t):
    """Reflected transition density w.r.t. dr dtheta, any opening."""
    return _series_density(Kind.REFLECTED, wedge, x, y, t)


def killed_density_series(wedge, x, y, t):
    """Killed transition density w.r.t. dr dtheta, any opening."""
    return _series_density(Kind.KILLED, wedge, x, y, t)


def density_dy_to_drdtheta(value, r):
    return value * r


def density_drdtheta_to_dy(value, r):
    if r == 0.0:
        raise ValueError("cannot divide out the Jacobian at r = 0")
    return value / r


# ---------------------------------------------------------------------------
# joint exit law of the stopped process (openings pi/m)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExitLawParams:
    """Parameters of the joint (exit radius, exit time) law on one ray.

    gammas holds the m angles gamma_k of the chosen side; the exponent of
    each term at radius r is c_k(r) = (r - r0 cos g_k)^2 + r0^2 sin^2 g_k.
    """

    wedge: WedgeSpec
    start: PolarPoint
    side: Side
    gammas: tuple

    @classmethod
    def for_side(cls, wedge, start, side, _m=None):
        """The law on `side` for a start in the pi/m wedge; a caller that
        already knows m passes it as _m."""
        m = require_pi_over_m(wedge) if _m is None else _m
        th0 = start.theta
        if not (wedge.alpha_minus + 1e-12 < th0 < wedge.alpha_plus - 1e-12) or start.r <= 0:
            raise ValueError("start must be strictly interior to the wedge")
        if side is Side.PLUS:
            gam = tuple(wedge.alpha_plus + TWO_PI * k / m - th0 for k in range(m))
        else:
            gam = tuple(-wedge.alpha_minus - TWO_PI * k / m + th0 for k in range(m))
        return cls(wedge=wedge, start=start, side=side, gammas=gam)

    def c_values(self, r):
        r0 = self.start.r
        out = []
        for g in self.gammas:
            d = r - r0 * math.cos(g)
            s = r0 * math.sin(g)
            out.append(d * d + s * s)
        return out


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


# ---------------------------------------------------------------------------
# 1D factors, corner kernel, survival probability
# ---------------------------------------------------------------------------

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

    Constant in theta on [0, alpha]. Its normalizer C lies between
    1/(e^{-r_n^2/2t'} + r_n sqrt(pi/2t')) and e^{r_n^2/2t'}.
    """
    if r_n < 0 or t_prime <= 0 or r < 0:
        raise ValueError("need r_n >= 0, t_prime > 0, r >= 0")
    z = r * r_n / t_prime
    log_val = -((r - r_n) ** 2) / (2.0 * t_prime) + log_bessel_i(0, z) - z
    return (r / (t_prime * alpha)) * math.exp(log_val)


def survival_probability(m, x, t):
    """P(tau > t) for the killed motion in <0, pi/m>, by adaptive quadrature
    of the image-sum kernel. Absolute error ~1e-9, well under the 1e-7 the
    tests rely on."""
    # imported here, its only use: scipy.integrate is a quarter of a second
    # and ~26 MB that `import wedgebm` would otherwise pay on every run
    from scipy import integrate

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
