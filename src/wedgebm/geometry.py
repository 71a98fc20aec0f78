"""Wedge geometry: polar points, image isometries, folding and decorrelation.

A wedge <alpha_minus, alpha_plus> is the set of points whose polar angle lies
between the two ray angles. All samplers and densities work in "standard"
coordinates where the driving noise is a standard planar Brownian motion; a
correlated problem (marginal scales sigma1, sigma2, correlation rho, boundary
line y = a x) is brought to standard coordinates by `decorrelate`.
"""

import math
from dataclasses import dataclass
from enum import Enum

# The one angular tolerance at the rays: WedgeSpec.place puts a point this
# close to a ray onto it. The recursions never rely on it; they carry exact
# ray tags instead.
ANGLE_TOL = 1e-12

# How close an opening must be to pi/m to be treated as exactly pi/m.
PI_OVER_M_TOL = 1e-9

TWO_PI = 2.0 * math.pi


class Side(Enum):
    """Which boundary ray: MINUS is the lower ray, PLUS the upper."""

    MINUS = "minus"
    PLUS = "plus"


class RegionCase(Enum):
    """The four planar regions cut out by the x-axis and the line y = a x.

    AND_* are intersections of half-planes (openings below pi), OR_* are
    unions (openings above pi). The POS/NEG suffix is the sign of the slope.
    """

    AND_POS = "and_pos"  # {y >= 0} and {y <= a x},  a > 0
    AND_NEG = "and_neg"  # {y >= 0} and {y >= a x},  a < 0
    OR_POS = "or_pos"    # {y >= 0} or  {y >= a x},  a > 0
    OR_NEG = "or_neg"    # {y >= 0} or  {y <= a x},  a < 0


@dataclass(frozen=True)
class PolarPoint:
    r: float
    theta: float

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"radius must be finite and nonnegative, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got {self.theta}")

    def cartesian(self):
        return (self.r * math.cos(self.theta), self.r * math.sin(self.theta))

    @staticmethod
    def from_cartesian(x, y):
        """Polar representation with the angle normalized to [0, 2 pi)."""
        r = math.hypot(x, y)
        theta = math.atan2(y, x) % TWO_PI
        return PolarPoint(r, theta)


@dataclass(frozen=True)
class WedgeSpec:
    alpha_minus: float
    alpha_plus: float

    def __post_init__(self):
        if not (0.0 <= self.alpha_minus < self.alpha_plus <= TWO_PI):
            raise ValueError(
                f"need 0 <= alpha_minus < alpha_plus <= 2 pi, got "
                f"({self.alpha_minus}, {self.alpha_plus})")

    @property
    def opening(self):
        return self.alpha_plus - self.alpha_minus

    def contains_angle(self, theta):
        return self.alpha_minus - ANGLE_TOL <= theta <= self.alpha_plus + ANGLE_TOL

    def place(self, point):
        """The point unchanged if it is the apex or inside by more than
        ANGLE_TOL; at the same radius exactly on the nearer ray if its angle,
        read modulo 2 pi in the turn centred on the bisector, is within
        ANGLE_TOL of one, from either side; otherwise a ValueError."""
        th, lo, hi = point.theta, self.alpha_minus, self.alpha_plus
        if point.r == 0.0 or lo + ANGLE_TOL < th < hi - ANGLE_TOL:
            return point
        mid = 0.5 * (lo + hi)
        if abs(th - mid) > math.pi:
            th = mid + (th - mid + math.pi) % TWO_PI - math.pi
        ray = lo if abs(th - lo) <= abs(th - hi) else hi
        if abs(th - ray) > ANGLE_TOL:
            raise ValueError(f"angle {point.theta} is outside the wedge [{lo}, {hi}]")
        return PolarPoint(point.r, ray)

    def pi_over_m(self):
        """The integer m with opening == pi/m, or None if there is none."""
        m = round(math.pi / self.opening)
        if m >= 1 and abs(self.opening - math.pi / m) <= PI_OVER_M_TOL:
            return m
        return None


def mat_vec(mat, v):
    """The 2x2 matrix mat, rows as tuples, times the 2-vector v."""
    (a, b), (c, d) = mat
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def require_interior(point, wedge):
    """The exit-law passes' test: off the apex and strictly between the rays
    (the recursions end a start placed on a ray before any pass)."""
    if not (point.r > 0.0 and wedge.alpha_minus < point.theta < wedge.alpha_plus):
        raise ValueError("start must be strictly interior to the wedge")


def require_pi_over_m(wedge):
    m = wedge.pi_over_m()
    if m is None:
        raise ValueError(
            f"wedge opening {wedge.opening} is not of the form pi/m")
    return m


def image_angles(theta, wedge, m):
    """Angles of the 2m images of (r, theta) in the 2m-sector tiling.

    For a pi/m wedge (the caller passes its m) the plane is tiled by 2m
    copies of the wedge; the k-th isometry is a rotation for even k and a
    reflection for odd k. Returns the image angles modulo 2 pi, in k order.
    """
    alpha = wedge.opening
    shift = 2.0 * wedge.alpha_minus
    return [(theta + k * alpha if k % 2 == 0 else (k + 1) * alpha - theta + shift) % TWO_PI
            for k in range(2 * m)]


def fold_into_wedge(theta_tilde, wedge):
    """Mirror an angle back into the wedge across whichever ray it crossed.

    The input must lie within one opening of the wedge (the folding step of
    the reflected sampler never produces anything further out).
    """
    lo = wedge.alpha_minus
    hi = wedge.alpha_plus
    opening = hi - lo
    if theta_tilde < lo - opening - ANGLE_TOL or theta_tilde > hi + opening + ANGLE_TOL:
        raise ValueError(
            f"angle {theta_tilde} too far outside wedge ({lo}, {hi}) to fold once")
    if theta_tilde < lo:
        return 2.0 * lo - theta_tilde
    if theta_tilde > hi:
        return 2.0 * hi - theta_tilde
    return theta_tilde


# ---------------------------------------------------------------------------
# decorrelation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedSetup:
    """A correlated problem in user coordinates.

    The driving noise has marginal scales (sigma1, sigma2) and correlation
    rho; the domain is one of the four regions bounded by the x-axis and the
    line y = slope * x; the process starts at x0 with constant drift b.
    """

    sigma1: float
    sigma2: float
    rho: float
    slope: float
    region_case: RegionCase
    x0: tuple
    drift: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (self.sigma1 > 0 and self.sigma2 > 0):
            raise ValueError("sigma1 and sigma2 must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (-1, 1), got {self.rho}")
        if self.slope == 0.0:
            raise ValueError("slope 0 reduces to a one-dimensional problem; not supported")
        positive = self.region_case in (RegionCase.AND_POS, RegionCase.OR_POS)
        if positive != (self.slope > 0):
            raise ValueError(f"slope sign does not match {self.region_case}")
        if not self.region_contains(self.x0):
            raise ValueError(f"start {self.x0} outside region {self.region_case}")

    def region_contains(self, point):
        x, y = point
        a = self.slope
        case = self.region_case
        if case is RegionCase.AND_POS:
            return y >= 0 and y <= a * x
        if case is RegionCase.AND_NEG:
            return y >= 0 and y >= a * x
        if case is RegionCase.OR_POS:
            return y >= 0 or y >= a * x
        return y >= 0 or y <= a * x


@dataclass(frozen=True)
class DecorrelatedProblem:
    wedge: WedgeSpec
    start: PolarPoint
    forward_map: tuple  # 2x2, rows as tuples; applies to user coordinates
    drift: tuple = (0.0, 0.0)

    def apply(self, point):
        return mat_vec(self.forward_map, point)

    def inverse(self, point):
        (a, b), (c, d) = self.forward_map
        det = a * d - b * c
        x, y = point
        return ((d * x - b * y) / det, (-c * x + a * y) / det)


def decorrelate(setup):
    """Map a correlated setup to a standard-Brownian wedge problem.

    Applying sigma^{-1} leaves the x-axis in place and sends the line
    y = slope * x to a line of slope a' = a s1 sqrt(1-rho^2)/(s2 - a s1 rho).
    The region becomes the wedge <0, alpha'> with

        intersection cases: alpha' = atan(a')        (a' > 0)
                            alpha' = pi + atan(a')   (a' < 0)
        union cases:        the same plus pi,

    where a sign change of s2 - a s1 rho swaps which branch applies. When
    s2 - a s1 rho = 0 the mapped second ray is vertical: alpha' = pi/2
    (intersection) or 3 pi/2 (union).
    """
    s1, s2, rho = setup.sigma1, setup.sigma2, setup.rho
    a = setup.slope
    root = math.sqrt(1.0 - rho * rho)
    den = s2 - a * s1 * rho
    union = setup.region_case in (RegionCase.OR_POS, RegionCase.OR_NEG)
    if den == 0.0:
        base = math.pi / 2.0
    else:
        a_prime = a * s1 * root / den
        base = math.atan(a_prime)
        if a_prime < 0:
            base += math.pi
    alpha_prime = base + (math.pi if union else 0.0)
    # sigma^{-1} for the upper-triangular sigma = ((s1 root, s1 rho), (0, s2)),
    # whose sigma sigma^T is the covariance
    inv = ((1.0 / (s1 * root), -rho / (s2 * root)), (0.0, 1.0 / s2))
    wedge = WedgeSpec(0.0, alpha_prime)
    start = wedge.place(PolarPoint.from_cartesian(*mat_vec(inv, setup.x0)))
    return DecorrelatedProblem(wedge=wedge, start=start, forward_map=inv,
                               drift=mat_vec(inv, setup.drift))
