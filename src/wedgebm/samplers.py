"""Exact samplers for Brownian motion stopped or reflected in a wedge.

The building blocks follow the exit-law decomposition: which ray is hit,
the exit radius (closed-form inverse CDF), the exit time given the radius
(acceptance-rejection with an inverse-exponential proposal per mixture
component), and the endpoint conditioned on not exiting (acceptance-rejection
against the free Gaussian endpoint folded into the wedge, the reflection
principle's reflected endpoint). `algorithm_stopped` composes these
recursively over sub-wedges of opening pi/m; `algorithm_reflected` adds the
folding step and the corner termination.

Both recursions accept an arbitrary wedge <alpha_minus, alpha_plus> and work
internally in the rotated frame where the lower ray is the positive x-axis;
boundary hits carry the exact ray angle, never a rounded float.
"""

import functools
import math
from dataclasses import dataclass

from .corner import CornerState, corner_triggered, sample_corner, sample_driving_angle
from .densities import ExitLawParams
from .geometry import PolarPoint, Side, WedgeSpec, fold_into_wedge, image_angles

TWO_PI = 2.0 * math.pi

DEFAULT_EPSILON = 0.03
DEFAULT_FOLD_CAP = 10 ** 6

# safety cap for the inner acceptance-rejection loops; the acceptance
# probabilities are bounded away from 0, so this never triggers in practice
_AR_CAP = 10 ** 7

# radii below this are treated as sitting at the apex. In the exact reflected
# mode the log-radius random-walks and can underflow past where the exit-law
# exponents are representable; at the apex the Bessel series collapses to its
# order-zero term for every opening, so the Rayleigh-times-uniform draw is
# exact there, and the total-variation gap at radius 1e-150 is immeasurable.
APEX_RADIUS_FLOOR = 1e-150


@dataclass
class PathSample:
    """Terminal state of one simulated path.

    endpoint is the process position at elapsed time; hit_boundary tells
    whether the path was stopped on a ray (the endpoint angle then equals
    the ray angle exactly); folds counts recursion passes including the
    terminal survivor, corner or apex pass; driving_endpoint is the endpoint
    of the driving Brownian motion, which every stopped or reflected path
    carries (a stopped path's equals its endpoint). Euler paths and the
    partial state of a fault leave it None.
    """

    endpoint: PolarPoint
    elapsed: float
    hit_boundary: bool
    folds: int
    weight: float = 1.0
    approx_used: bool = False
    driving_endpoint: tuple = None

    def cartesian_endpoint(self):
        return self.endpoint.cartesian()


class FoldCapExceeded(RuntimeError):
    """Raised when a recursion exceeds its pass cap; carries partial state."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def _interior_angle(start, wedge):
    if not wedge.contains(start):
        raise ValueError(f"start {start} outside wedge ({wedge.alpha_minus}, {wedge.alpha_plus})")
    return start.theta - wedge.alpha_minus


def sample_exit_side(start, wedge, rng):
    """Which ray the motion started at `start` exits through."""
    th = start.theta
    if start.r <= 0 or not (wedge.alpha_minus < th < wedge.alpha_plus):
        raise ValueError("start must be strictly interior to the wedge")
    p_plus = (th - wedge.alpha_minus) / wedge.opening
    return Side.PLUS if rng.uniform() < p_plus else Side.MINUS


def sample_exit_radius(start, wedge, side, u):
    """Exit radius on the given side by the closed-form inverse CDF.

    Valid for any opening, not just pi/m. u must be strictly inside (0, 1);
    the endpoints would produce the degenerate radii 0 and inf.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must be strictly inside (0, 1), got {u}")
    alpha = wedge.opening
    th0 = start.theta - wedge.alpha_minus
    if start.r <= 0 or not 0.0 < th0 < alpha:
        raise ValueError("start must be strictly interior to the wedge")
    s = math.pi * th0 / alpha
    if side is Side.MINUS:
        base = math.cos(s) - math.sin(s) / math.tan((math.pi - s) * (u - 1.0))
    else:
        base = -math.cos(s) - math.sin(s) / math.tan(s * (u - 1.0))
    return start.r * base ** (alpha / math.pi)


def _draw_exit_radius(start, wedge, side, rng):
    while True:
        u = rng.uniform()
        if 0.0 < u < 1.0:
            return sample_exit_radius(start, wedge, side, u)


def sample_exit_time(params, r, rng):
    """Exit time given the exit side and radius, by acceptance-rejection.

    The conditional density in t is proportional to a signed mixture of
    t^-2 e^{-c_k/2t} terms. The envelope keeps only the nonnegative
    coefficients; each such component, normalized, is sampled exactly as
    t = c_k / (2E) with E unit exponential.
    """
    sines = [math.sin(g) for g in params.gammas]
    cs = params.c_values(r)
    if not all(map(math.isfinite, cs)):
        raise ValueError(
            f"start radius {params.start.r:g} (exit radius {r:g}) is too large "
            f"for the exit-law exponents, which overflow")
    weights = []
    for s, c in zip(sines, cs):
        if s > 0.0:
            if c == 0.0:
                raise ValueError("query radius coincides with an image of the start")
            weights.append(s / c)
        else:
            weights.append(0.0)
    total_w = math.fsum(weights)
    if total_w <= 0.0:
        raise AssertionError("no nonnegative mixture component; start not interior?")
    c_min = min(cs)
    for _ in range(_AR_CAP):
        pick = rng.uniform() * total_w
        acc = 0.0
        comp = len(weights) - 1
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                comp = i
                break
        e = rng.exponential()
        while e == 0.0:
            e = rng.exponential()
        t = cs[comp] / (2.0 * e)
        # stabilized signed/positive sums at the proposed t
        two_t = 2.0 * t
        m_exp = c_min / two_t
        num = 0.0
        den = 0.0
        for s, c in zip(sines, cs):
            term = math.exp(-c / two_t + m_exp)
            num += s * term
            if s > 0.0:
                den += s * term
        if num > den * (1.0 + 1e-12) or num < -1e-12 * den:
            raise RuntimeError(
                f"exit-time acceptance ratio {num/den} outside [0, 1]")
        if rng.uniform() * den <= num:
            return t
    raise RuntimeError("exit-time acceptance-rejection failed to terminate")


def sample_survivor(start, wedge, horizon, rng, _m=None):
    """Endpoint at `horizon` conditioned on never leaving the pi/m wedge.

    Proposes the free Gaussian endpoint folded into the wedge by the
    2m-sector tiling, whose density is the unsigned 2m-image sum (the
    reflected kernel), and accepts with the ratio of the signed image sum
    (the killed kernel) to it. The ratio is at most 1, so the acceptance
    rate is exactly P(tau > horizon). The recursions pass the m of their
    sub-wedge as _m.
    """
    m = wedge.pi_over_m() if _m is None else _m
    if m is None:
        raise ValueError("survivor sampling needs a pi/m wedge")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    images = image_angles(start.theta, wedge, m)
    x0, y0 = start.cartesian()
    r0_sq = start.r * start.r
    two_h = 2.0 * horizon
    sd = math.sqrt(horizon)
    for _ in range(_AR_CAP):
        r, rel = _sector_fold(x0 + sd * rng.normal(), y0 + sd * rng.normal(), wedge, m)
        theta = wedge.alpha_minus + rel
        sq = r * r + r0_sq
        cross = 2.0 * r * start.r
        d2 = [sq - cross * math.cos(theta - ang) for ang in images]
        base = min(d2)
        signed = 0.0
        total = 0.0
        for k in range(0, 2 * m, 2):
            even = math.exp(-(d2[k] - base) / two_h)
            odd = math.exp(-(d2[k + 1] - base) / two_h)
            signed += even - odd
            total += even + odd
        if signed < 0.0:
            signed = 0.0
        if rng.uniform() * total <= signed:
            return PolarPoint(r, theta)
    raise RuntimeError("survivor acceptance-rejection failed to terminate")


def _sector_fold(x, y, wedge, m):
    """(radius, angle) of the plane point (x, y) folded into the pi/m wedge
    by the 2m-sector tiling: the reflection principle's map from the free
    endpoint to the reflected one.

    The angle is measured from alpha_minus. The sectors have the wedge's
    own opening, which a sub-wedge within PI_OVER_M_TOL of pi/m shares with
    its outer wedge, and the result is clamped into [0, opening].
    """
    alpha = wedge.opening
    phi = (math.atan2(y, x) - wedge.alpha_minus) % TWO_PI
    j = min(int(phi / alpha), 2 * m - 1)
    th = phi - j * alpha if j % 2 == 0 else (j + 1) * alpha - phi
    return math.hypot(x, y), min(max(th, 0.0), alpha)


def _sub_opening(alpha):
    """Largest opening of the form pi/m that fits inside alpha.

    If alpha itself is pi/m (within the geometry tolerance), the sub-wedge
    reuses alpha exactly so that both sub-wedge rays coincide with the outer
    rays; otherwise m = ceil(pi/alpha), with a one-step correction for the
    case where pi/alpha rounded just above an integer.
    """
    m_exact = WedgeSpec(0.0, alpha).pi_over_m() if alpha <= math.pi else None
    if m_exact is not None:
        return alpha, m_exact
    m = math.ceil(math.pi / alpha)
    if m > 1 and math.pi / (m - 1) <= alpha:
        m -= 1
    return math.pi / m, m


@functools.lru_cache(maxsize=16)
def _pass_plan(alpha):
    """(theta_cap, m, sub-wedge <0, theta_cap>) of every pass in a wedge of
    opening alpha. Cached per opening: a run, and every Euler cell of a
    constant diffusion, reuses one plan. The small fixed size bounds the
    cache when a state-dependent diffusion gives each cell its own opening.
    """
    theta_cap, m = _sub_opening(alpha)
    return theta_cap, m, WedgeSpec(0.0, theta_cap)


def _exit_draw(rel, sub, m_sub, rng):
    """(side, radius, time) of one pass's exit from the pi/m sub-wedge."""
    side = sample_exit_side(rel, sub, rng)
    r = _draw_exit_radius(rel, sub, side, rng)
    params = ExitLawParams.for_side(sub, rel, side, _m=m_sub)
    return side, r, sample_exit_time(params, r, rng)


def _stopped_sample(end, elapsed, hit_boundary, folds):
    """A stopped path's PathSample: its driving endpoint is its endpoint."""
    return PathSample(endpoint=end, elapsed=elapsed, hit_boundary=hit_boundary,
                      folds=folds, driving_endpoint=end.cartesian())


def algorithm_stopped(start, T, wedge, rng, iteration_cap=DEFAULT_FOLD_CAP):
    """Exact endpoint of W at tau and T (stopped at the wedge boundary).

    T = inf is allowed and gives the exit state (W_tau, tau). Returns a
    PathSample whose folds field is the number of recursion passes.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    alpha = wedge.opening
    th = _interior_angle(start, wedge)
    r_n = start.r
    # starting on the boundary means tau = 0
    if r_n == 0.0 or th <= 0.0 or th >= alpha:
        ray = wedge.alpha_minus if th <= alpha - th else wedge.alpha_plus
        return _stopped_sample(PolarPoint(r_n, ray), 0.0, True, 0)
    theta_cap, m_sub, sub = _pass_plan(alpha)
    t_n = 0.0
    for n in range(1, iteration_cap + 1):
        beta_lo = min(max(th - theta_cap / 2.0, 0.0), alpha - theta_cap)
        rel = PolarPoint(r_n, th - beta_lo)
        side, r_new, tau = _exit_draw(rel, sub, m_sub, rng)
        if t_n + tau >= T:
            surv = sample_survivor(rel, sub, T - t_n, rng, _m=m_sub)
            end = PolarPoint(surv.r, wedge.alpha_minus + beta_lo + surv.theta)
            return _stopped_sample(end, T, False, n)
        t_n += tau
        if side is Side.MINUS and beta_lo == 0.0:
            end = PolarPoint(r_new, wedge.alpha_minus)
        elif side is Side.PLUS and beta_lo == alpha - theta_cap:
            end = PolarPoint(r_new, wedge.alpha_plus)
        elif r_new <= APEX_RADIUS_FLOOR:
            # underflowed onto the apex, which belongs to both rays
            end = PolarPoint(0.0, wedge.alpha_minus)
        else:
            th = beta_lo if side is Side.MINUS else beta_lo + theta_cap
            r_n = r_new
            continue
        return _stopped_sample(end, t_n, True, n)
    partial = PathSample(endpoint=PolarPoint(r_n, wedge.alpha_minus + th),
                         elapsed=t_n, hit_boundary=False, folds=iteration_cap)
    raise FoldCapExceeded(
        f"stopped recursion exceeded {iteration_cap} passes", partial)


def algorithm_reflected(start, T, wedge, rng, epsilon=DEFAULT_EPSILON,
                        fold_cap=DEFAULT_FOLD_CAP):
    """Endpoint at T of the normally reflected motion in the wedge.

    epsilon > 0 enables the corner termination: whenever the squared radius
    over the remaining time drops below epsilon (checked before every pass,
    including the first), the path ends with one draw from the corner kernel
    and approx_used is set. epsilon = 0 is the exact mode; its pass count
    has infinite mean, hence the cap with a structured fault.

    Every path carries the endpoint of its driving Brownian motion (drift
    reweighting needs it): the pre-folding displacement of every pass is
    accumulated into it. A path that ends at the apex (a start there, or a
    radius underflowed onto it) or in the corner branch completes it with a
    uniform circle angle at the terminal radius. An apex start reports 0
    folds.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if not epsilon >= 0:  # NaN included
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    alpha = wedge.opening
    th = _interior_angle(start, wedge)
    r_n = start.r
    base = wedge.alpha_minus
    theta_cap, m_sub, sub = _pass_plan(alpha)
    outer = WedgeSpec(0.0, alpha) if base > 0.0 else wedge
    wx, wy = (0.0, 0.0)  # accumulated driving displacement, internal frame
    t_n = 0.0
    terminal = None
    approx = False
    # an apex start ends at once, in the apex draw of pass 0
    for n in range(0 if r_n == 0.0 else 1, fold_cap + 1):
        t_rem = T - t_n
        if r_n <= APEX_RADIUS_FLOOR:
            # at the apex, or underflowed onto it: the exact apex law
            terminal = sample_reflected_from_origin(t_rem, alpha, rng)
            break
        if corner_triggered(r_n, t_rem, epsilon):
            state = CornerState(r_n=r_n, t_prime=t_rem, alpha=alpha, epsilon=epsilon)
            terminal = sample_corner(state, rng)
            approx = True
            break
        beta_lo = th - theta_cap / 2.0
        rel = PolarPoint(r_n, theta_cap / 2.0)
        side, r_new, tau = _exit_draw(rel, sub, m_sub, rng)
        survived = t_n + tau >= T
        if survived:
            surv = sample_survivor(rel, sub, t_rem, rng, _m=m_sub)
            r_new, pre_fold = surv.r, beta_lo + surv.theta
        else:
            pre_fold = beta_lo if side is Side.MINUS else beta_lo + theta_cap
        wx += r_new * math.cos(pre_fold) - r_n * math.cos(th)
        wy += r_new * math.sin(pre_fold) - r_n * math.sin(th)
        th = fold_into_wedge(pre_fold, outer)
        r_n = r_new
        if survived:
            break
        t_n += tau
    else:
        partial = PathSample(endpoint=PolarPoint(r_n, base + th), elapsed=t_n,
                             hit_boundary=False, folds=fold_cap)
        raise FoldCapExceeded(
            f"reflected recursion exceeded {fold_cap} folds "
            f"(expected for epsilon = 0)", partial)
    if terminal is not None:
        # the driving endpoint shares the terminal radius, with an
        # independent uniform angle on the whole circle
        phi = sample_driving_angle(rng)
        wx += terminal.r * math.cos(phi) - r_n * math.cos(th)
        wy += terminal.r * math.sin(phi) - r_n * math.sin(th)
        r_n, th = terminal.r, terminal.theta
    return PathSample(endpoint=PolarPoint(r_n, base + th), elapsed=T,
                      hit_boundary=False, folds=n, approx_used=approx,
                      driving_endpoint=_absolute_driving(start, base, wx, wy))


def _absolute_driving(start, base, wx, wy):
    """Map the accumulated internal-frame driving displacement back to the
    absolute frame and anchor it at the start point."""
    sx, sy = start.cartesian()
    if base == 0.0:
        return (sx + wx, sy + wy)
    cb, sb = math.cos(base), math.sin(base)
    return (sx + cb * wx - sb * wy, sy + sb * wx + cb * wy)


def sample_reflected_from_origin(T, alpha, rng):
    """Reflected endpoint for a start at the apex: Rayleigh radius, uniform
    angle on [0, alpha], independent."""
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if not 0.0 < alpha <= TWO_PI:
        raise ValueError(f"opening must be in (0, 2 pi], got {alpha}")
    e = rng.exponential()
    while e == 0.0:
        e = rng.exponential()
    r = math.sqrt(2.0 * T * e)
    return PolarPoint(r, alpha * rng.uniform())


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
