"""Wedge geometry: polar points, image isometries, folding and decorrelation.

A wedge <alpha_minus, alpha_plus> is the set of points whose polar angle lies
between the two ray angles. All samplers and densities work in "standard"
coordinates where the driving noise is a standard planar Brownian motion.
`standard_frame` is the one map there from noise sigma W in a wedge: each
Euler cell uses it, and `montecarlo.run_frame` applies it to a correlated
setup (marginal scales sigma1, sigma2, correlation rho, boundary line
y = a x) in an exact mode.
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

def standard_frame(sigma, wedge):
    """The linear map taking sigma W in `wedge` to a standard planar Brownian
    motion in a wedge <0, opening>, for any invertible 2x2 sigma.

    Maps both rays through sigma^{-1}, takes the image cone that holds the
    image of the bisector, and rotates its lower edge onto angle zero.
    Returns (forward 2x2, backward 2x2, the image wedge).
    """
    (a, b), (c, d) = sigma
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0 or abs(det) < 1e-12 * scale * scale:
        raise ValueError(f"diffusion matrix {sigma} is singular")
    inv = ((d / det, -b / det), (-c / det, a / det))
    lo, hi = wedge.alpha_minus, wedge.alpha_plus
    p0 = mat_vec(inv, (math.cos(lo), math.sin(lo)))
    p1 = mat_vec(inv, (math.cos(hi), math.sin(hi)))
    mid = 0.5 * (lo + hi)
    pm = mat_vec(inv, (math.cos(mid), math.sin(mid)))
    phi0 = math.atan2(p0[1], p0[0]) % TWO_PI
    phi1 = math.atan2(p1[1], p1[0]) % TWO_PI
    ccw = (phi1 - phi0) % TWO_PI
    mid_off = (math.atan2(pm[1], pm[0]) - phi0) % TWO_PI
    if mid_off <= ccw:
        base, opening = phi0, ccw
    else:
        base, opening = phi1, TWO_PI - ccw
    cb, sb = math.cos(base), math.sin(base)
    rot = ((cb, sb), (-sb, cb))  # rotation by -base
    fwd = ((rot[0][0] * inv[0][0] + rot[0][1] * inv[1][0],
            rot[0][0] * inv[0][1] + rot[0][1] * inv[1][1]),
           (rot[1][0] * inv[0][0] + rot[1][1] * inv[1][0],
            rot[1][0] * inv[0][1] + rot[1][1] * inv[1][1]))
    fdet = fwd[0][0] * fwd[1][1] - fwd[0][1] * fwd[1][0]
    bwd = ((fwd[1][1] / fdet, -fwd[0][1] / fdet),
           (-fwd[1][0] / fdet, fwd[0][0] / fdet))
    return fwd, bwd, WedgeSpec(0.0, opening)


@dataclass(frozen=True)
class CorrelatedSetup:
    """A correlated problem in user coordinates.

    The driving noise has marginal scales (sigma1, sigma2) and correlation
    rho; the domain is one of the four regions bounded by the x-axis and the
    line y = slope * x; the process starts at x0. A constant drift is the
    run's own (`montecarlo.EstimatorConfig.drift`), in these coordinates.
    """

    sigma1: float
    sigma2: float
    rho: float
    slope: float
    region_case: RegionCase
    x0: tuple

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (-1, 1), got {self.rho}")
        if math.isnan(self.slope):
            raise ValueError("slope must be a number, got nan")
        if self.slope == 0.0:
            raise ValueError("slope 0 reduces to a one-dimensional problem; not supported")
        positive = self.region_case in (RegionCase.AND_POS, RegionCase.OR_POS)
        if positive != (self.slope > 0):
            raise ValueError(f"slope sign does not match {self.region_case}")
        try:  # the one ray rule: a start a hair outside is on the ray
            self.wedge.place(PolarPoint.from_cartesian(*self.x0))
        except ValueError as exc:
            raise ValueError(f"start {self.x0} outside region "
                             f"{self.region_case}: {exc}")

    @property
    def sigma(self):
        """The upper-triangular covariance factor: sigma sigma^T has
        diagonal (sigma1^2, sigma2^2) and off-diagonal rho sigma1 sigma2."""
        s1, rho = self.sigma1, self.rho
        return ((s1 * math.sqrt(1.0 - rho * rho), s1 * rho), (0.0, self.sigma2))

    @property
    def wedge(self):
        """The region as a wedge in user coordinates, from the positive
        x-axis counterclockwise to the ray of y = slope * x that bounds it."""
        turn = {RegionCase.AND_POS: 0.0, RegionCase.AND_NEG: math.pi,
                RegionCase.OR_POS: math.pi, RegionCase.OR_NEG: TWO_PI}
        return WedgeSpec(0.0, math.atan(self.slope) + turn[self.region_case])
