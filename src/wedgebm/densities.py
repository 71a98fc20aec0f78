"""Closed-form laws for Brownian motion in a wedge.

Two families of transition densities are provided and kept deliberately
separate in their conventions:

* image sums (openings pi/m only), values w.r.t. cartesian dy;
* Bessel series (any opening), values w.r.t. dr dtheta, Jacobian included,
  so a series value divided by the target radius is an image-sum value.

Next to them sit the parameters of the stopped process's joint exit law on
one ray, whose image sum sets the acceptance of the conditional exit draw.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

from .bessel import series_tail_cutoff
from .geometry import (TWO_PI, PolarPoint, Side, WedgeSpec, image_angles,
                       require_interior, require_pi_over_m)

# the largest m of a 2m-image sum, at the scale of bessel.MAX_ORDERS: a
# narrower opening pi/m is refused, as its 2m image angles are a list
MAX_M = 10 ** 6

# Signed sums that cancel to something smaller than this (relative to the
# total term magnitude) are clamped to zero; see _signed_sum.
CANCEL_CLAMP = 1e-12


class Kind(Enum):
    REFLECTED = "reflected"
    KILLED = "killed"


def _signed_sum(terms):
    """The exactly rounded sum of the terms, clamping tiny negative residue
    (pure cancellation noise) to zero."""
    total = math.fsum(terms)
    if total < 0 and \
            -total <= CANCEL_CLAMP * max(1.0, math.fsum(map(abs, terms))):
        return 0.0
    return total


# ---------------------------------------------------------------------------
# image sums, openings pi/m, densities w.r.t. cartesian dy
# ---------------------------------------------------------------------------

def image_sums(r, theta, r0, images, horizon):
    """The 2m-image sums at (r, theta) of a start at radius r0 whose image
    angles, in k order, are `images`: (log scale, signed, total), where
    exp(log scale) times signed (total) is the alternating (plain) sum over k
    of exp(-|point - image k|^2 / (2 horizon)). signed is clamped at 0.
    """
    # the squared image distances are (r - r0)^2 + 4 r r0 sin^2(half the
    # angle) and only their gaps count: the half-angle form keeps a gap
    # r^2 + r0^2 - 2 r r0 cos cancels (1e-9 off a ray at radius 1e10). Each
    # gap is multiplied into r, then 4, then r0: 4 r r0 alone overflows past
    # radius ~1e154, 4 r past ~4.5e307, and a zero gap times inf is nan
    two_h = 2.0 * horizon
    sin_sq = [math.sin(0.5 * (theta - ang)) ** 2 for ang in images]
    base = min(sin_sq)
    signed = 0.0
    total = 0.0
    for k in range(0, len(images), 2):
        even = math.exp((base - sin_sq[k]) * r * 4.0 * r0 / two_h)
        odd = math.exp((base - sin_sq[k + 1]) * r * 4.0 * r0 / two_h)
        signed += even - odd
        total += even + odd
    if signed < 0.0:
        signed = 0.0
    return -((r - r0) ** 2 + base * r * 4.0 * r0) / two_h, signed, total


def _images_density(m, x, y, t, killed):
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be an integer in [1, {MAX_M}] (an opening "
                         f"pi/m of at least pi/{MAX_M}), got {m}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    wedge = WedgeSpec(0.0, math.pi / m)
    x, y = wedge.place(x), wedge.place(y)
    log_scale, signed, total = image_sums(x.r, x.theta, y.r,
                                          image_angles(y.theta, wedge, m), t)
    return math.exp(log_scale) / (TWO_PI * t) * (signed if killed else total)


def reflected_density_images(m, x, y, t):
    """Transition density (w.r.t. dy) of the reflected motion in <0, pi/m>."""
    return _images_density(m, x, y, t, killed=False)


def killed_density_images(m, x, y, t):
    """Transition density (w.r.t. dy) of the motion killed on the rays."""
    return _images_density(m, x, y, t, killed=True)


# ---------------------------------------------------------------------------
# Bessel series, any opening, densities w.r.t. dr dtheta
# ---------------------------------------------------------------------------

def _series_density(kind, wedge, x, y, t):
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    alpha = wedge.opening
    x, y = wedge.place(x), wedge.place(y)
    th = x.theta - wedge.alpha_minus
    th0 = y.theta - wedge.alpha_minus
    r, r0 = x.r, y.r
    z = r * r0 / t
    base = math.exp(-((r - r0) ** 2) / (2.0 * t))  # = e^{-(r^2+r0^2)/2t} e^z
    nu_step = math.pi / alpha
    reflected = kind is Kind.REFLECTED
    cutoff = series_tail_cutoff(nu_step, z, lead_order=0.0 if reflected else nu_step)
    # orders 0 (reflected only) to cutoff - 1 in one scaled-Bessel call
    nus = np.arange(0 if reflected else 1, cutoff, dtype=float) * math.pi / alpha
    if reflected:
        terms = base * special.ive(nus, z) * np.cos(nus * th) * np.cos(nus * th0)
        terms[0] *= 0.5
    else:
        terms = base * special.ive(nus, z) * np.sin(nus * th) * np.sin(nus * th0)
    return (2.0 * r / (t * alpha)) * _signed_sum(terms.tolist())


def reflected_density_series(wedge, x, y, t):
    """Reflected transition density w.r.t. dr dtheta, any opening."""
    return _series_density(Kind.REFLECTED, wedge, x, y, t)


def killed_density_series(wedge, x, y, t):
    """Killed transition density w.r.t. dr dtheta, any opening."""
    return _series_density(Kind.KILLED, wedge, x, y, t)


# ---------------------------------------------------------------------------
# joint exit law of the stopped process (openings pi/m)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExitLawParams:
    """Parameters of the joint (exit radius, exit time) law on one ray.

    gammas holds the m angles gamma_k of the chosen side; the exponent of
    each term at radius r is c_k(r) = (r - r0 cos g_k)^2 + r0^2 sin^2 g_k.
    """

    start: PolarPoint
    gammas: tuple

    @classmethod
    def for_side(cls, wedge, start, side):
        """The law on `side` for a start strictly inside the pi/m wedge."""
        m = require_pi_over_m(wedge)
        require_interior(start, wedge)
        th0 = start.theta
        if side is Side.PLUS:
            gam = tuple(wedge.alpha_plus + TWO_PI * k / m - th0 for k in range(m))
        else:
            gam = tuple(-wedge.alpha_minus - TWO_PI * k / m + th0 for k in range(m))
        return cls(start=start, gammas=gam)

    def c_values(self, r):
        """c_k(r) for k = 0 .. m - 1."""
        r0 = self.start.r
        out = []
        for g in self.gammas:
            d = r - r0 * math.cos(g)
            s = r0 * math.sin(g)
            out.append(d * d + s * s)
        return out
