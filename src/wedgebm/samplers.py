"""Exact samplers for Brownian motion stopped or reflected in a wedge.

Both recursions run passes in sub-wedges of opening pi/m, and every pass is
survivor-first: with time t' left it makes one survivor trial, which keeps
its proposal with probability exactly P(tau > t') and then ends the pass
with the killed law (_survivor_trial). Only a refused trial draws the exit
conditioned on tau <= t' (_exit_draw); with t' = inf a pass skips the
trial. `algorithm_reflected` adds the folding step and the corner
termination. `_plain_cells` is the first pass's survivor trial over a block
of Euler cells in numpy: it tells how many cells from the block's start
that trial would end at their free endpoint, so that the cell after them
runs a recursion and the block ends there.

Given `RngStream(seed).derive(i)`, the recursions draw what `lanes` draws
for path i, in its order, and reproduce that path: they are the lanes'
path-exact reference, and the recursion of an Euler cell that is not plain.

Both recursions accept an arbitrary wedge <alpha_minus, alpha_plus> and work
internally in the rotated frame where the lower ray is the positive x-axis;
boundary hits carry the exact ray angle, never a rounded float.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtri_exp

from .corner import corner_triggered, sample_corner
from .densities import MAX_M, ExitLawParams, image_sums
from .geometry import (ANGLE_TOL, TWO_PI, PolarPoint, Side, WedgeSpec,
                       fold_into_wedge, image_angles)

DEFAULT_EPSILON = 0.03
DEFAULT_FOLD_CAP = 10 ** 6
# exit proposals a pass makes in each round (m > 1), all drawn whichever is
# kept first: each is kept with probability at least 1/2
_PROPOSALS = 2
_IMAGE_CAP = 1 << 15  # values in one block of image terms

# radii below this are treated as sitting at the apex. In the exact reflected
# mode the log-radius random-walks and can underflow past where the exit-law
# exponents are representable; at the apex the Bessel series collapses to its
# order-zero term for every opening, so the corner draw is exact there, and
# the total-variation gap at radius 1e-150 is immeasurable.
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


def _survivor_trial(start, wedge, m, images, horizon, rng):
    """One survivor proposal from `start` in the pi/m wedge, whose image
    angles are `images`: the endpoint, or None if refused.

    The proposal is the free Gaussian endpoint folded into the wedge by the
    2m-sector tiling, whose density is the 2m-image sum (the reflected
    kernel), kept with the ratio of the signed sum (the killed kernel) to
    it: with probability exactly P(tau > horizon), and then killed-law.
    """
    x0, y0 = start.cartesian()
    sd = math.sqrt(horizon)
    r, rel = _sector_fold(x0 + sd * rng.normal(), y0 + sd * rng.normal(), wedge, m)
    theta = wedge.alpha_minus + rel
    _, signed, total = image_sums(r, theta, start.r, images, horizon)
    if rng.uniform() * total <= signed:
        return PolarPoint(r, theta)
    return None


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


def _plain_cells(xs, ys, dt, u, alpha, reflected, epsilon):
    """The run of plain cells that starts a block: (run, base), where run
    is the number of cells before the block's first cell that is not plain
    and base is that cell's first-pass base angle (None if every cell is
    plain).

    Cell j runs in the standard wedge <0, alpha> from (xs[j], ys[j]) for
    time dt[j]; (xs[j + 1], ys[j + 1]) is its free Gaussian endpoint and
    u[j], in (0, 1), its survivor uniform. A cell's base is the angle at
    which the sub-wedge of its first pass starts: that pass runs in the
    cell frame turned by -base. A cell is plain when the recursion, given
    this endpoint and uniform for its first survivor trial, keeps the
    endpoint with no fold: the start is strictly inside and above
    APEX_RADIUS_FLOOR, the reflected corner does not trigger, the endpoint
    lies in the pass's sub-wedge (its sector fold is the identity) and,
    reflected, in <0, alpha> (these tests are the cell's geometry), and u
    times the 2m-image total is at most the signed sum. The sums are those
    of `image_sums` (`_image_sum_arrays`), each image's angle gap taken
    from the start's angle in the sub-wedge; they are computed only for the
    cells before the first that fails its geometry, and not for those that
    `_sure_survivors` settles. Whether a cell is plain, and its base, depend
    on its own inputs alone. Call it with floating-point overflow ignored:
    a cell whose turn overflows (both points past radius ~1e154) is not
    plain.
    """
    theta_cap, _, _, _ = _pass_plan(alpha)
    x0, y0, x1, y1 = xs[:-1], ys[:-1], xs[1:], ys[1:]
    r0 = np.hypot(x0, y0)
    th = np.arctan2(y0, x0) % TWO_PI
    # the turn from the start to the endpoint, in (-pi, pi]
    turn = np.arctan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
    base = th - theta_cap / 2.0
    if not reflected:
        base = np.minimum(np.maximum(base, 0.0), alpha - theta_cap)
    rel = th - base  # the start's angle in its sub-wedge
    # the start inside by more than ANGLE_TOL, the endpoint in the sub-wedge
    placed = ((np.abs(th - alpha / 2.0) < alpha / 2.0 - ANGLE_TOL)
              & (np.abs(rel + turn - theta_cap / 2.0) < theta_cap / 2.0)
              & (r0 > APEX_RADIUS_FLOOR))
    if reflected:
        placed &= ((np.abs(th + turn - alpha / 2.0) <= alpha / 2.0)
                   & (r0 * r0 / dt >= epsilon))
    run = int(placed.argmin())  # the first cell placed wrong, if any
    if placed[run]:
        run = len(placed)
    cells = (turn[:run], rel[:run], np.hypot(x1[:run], y1[:run]), r0[:run],
             dt[:run], u[:run])
    left = None  # the cells left after the screen, if it ran
    if run >= _SURE_RUN:
        left = np.flatnonzero(~_sure_survivors(*cells[:5], theta_cap))
        cells = [a[left] for a in cells]
    turn, rel, r, r0, dt, u = cells
    if turn.size:
        signed, total = _image_sum_arrays(turn, rel, r, r0, dt, alpha)
        kept = u * total <= signed
        first = int(kept.argmin())
        if not kept[first]:
            run = first if left is None else int(left[first])
    return run, (float(base[run]) if run < len(base) else None)


# the least exponent gap to the nearest other image, and the least sine
# product, at which `_sure_survivors` settles a cell
_SURE_GAP = 64.0
_SURE_SINES = 2.0 ** -20
# the shortest run of placed cells that `_plain_cells` screens: below it
# the screen's numpy calls cost more than the sums that it saves
_SURE_RUN = 32


def _sure_survivors(turn, rel, r, r0, dt, theta_cap):
    """Where the survivor sums of `_image_sum_arrays` for cells that pass
    their geometry in `_plain_cells` round to signed == total == 1.0, so
    that u * total <= signed for every u < 1: a certified screen, over
    arrays, which may leave out cells that pass but never takes one in
    that fails.

    The start, at angle rel, and the endpoint, at rel + turn, lie in the
    sub-wedge <0, theta_cap>, so the nearest image of the start is itself,
    and an image d away in angle has a term exp(-(sin^2(d / 2) -
    sin^2(turn / 2)) 2 r r0 / dt) next to its 1. The nearest other image is
    a reflection in one of the sub-wedge's two ray lines, where sin^2(d/2)
    - sin^2(turn/2) is sin rel sin(rel + turn) (the lower line) or
    sin(theta_cap - rel) sin(theta_cap - rel - turn) (the upper); a
    rotation image is one of those reflected again, in a line through the
    apex with the endpoint on its near side, so it lies farther. So every
    other image's exponent is at most -G, with

        G = 2 r0 r min(sin rel sin(rel + turn),
                       sin(theta_cap - rel) sin(theta_cap - rel - turn)) / dt.

    The rounding: `_image_sum_arrays` takes each sin^2 to within ~1e-15,
    so where both products are at least 2^-20 each computed gap is within
    a relative 1e-8 of its true value and image 0's is the least. Its term
    is then exp(0) = 1.0 exactly, provided that 4 r and r0 are finite and
    dt is not 0 (the sums take its exponent as 0 times 4 r, times r0, over
    2 dt, which is NaN otherwise); the screen asks for a finite
    4 r r0 / (2 dt), which implies that. With G >= 64 every other term is
    below e^-63 < 2^-90. The even sum starts at 1.0 and adds terms below
    2^-53, half an ulp of 1, so it stays 1.0; the odd sum, of m terms, is
    below m 2^-90, under 2^-54, half an ulp below 1, for any m < 2^36
    (`_sub_opening` refuses m past MAX_M = 10^6). So
    signed = 1 - odd and total = 1 + odd both round to 1.0.
    """
    scale = 4.0 * r * r0 / (2.0 * dt)
    lower = np.sin(rel) * np.sin(rel + turn)
    upper = np.sin(theta_cap - rel) * np.sin(theta_cap - rel - turn)
    sines = np.minimum(lower, upper)
    return (sines >= _SURE_SINES) & (sines * scale >= _SURE_GAP) & (
        scale < math.inf)


def _image_sum_arrays(turn, rel, r, r0, horizon, alpha):
    """`image_sums`'s (signed, total) over arrays, signed not clamped: the
    2m-image sums of opening alpha's pass plan at radius r and angle
    rel + turn in the sub-wedge, for starts at radius r0 and angle rel and
    time horizon. The 2m terms of each point are made a block of points at
    a time, within _IMAGE_CAP values, and each point's sums do not depend
    on its block."""
    _, odd2, shift = _image_gap_plan(alpha)
    if len(r) > max(1, _IMAGE_CAP // len(shift)):  # more than one block
        sums = [_image_sum_arrays(turn[p], rel[p], r[p], r0[p], horizon[p],
                                  alpha) for p in _chunks(len(r), len(shift))]
        return tuple(np.concatenate(c) for c in zip(*sums))
    sin_sq = np.sin(0.5 * (turn + odd2 * rel - shift)) ** 2
    # each term relative to the nearest image's, its gap multiplied into
    # 4 r, then into r0, as in image_sums; far out, an exponent is -inf
    with np.errstate(over="ignore"):
        terms = np.exp((sin_sq.min(axis=0) - sin_sq) * (4.0 * r) * r0
                       / (2.0 * horizon))
    # the sums of the even and of the odd images, each in k order
    even, odd = np.add.accumulate(terms.reshape(-1, 2, terms.shape[1]),
                                  axis=0)[-1]
    return even - odd, even + odd


def _chunks(n, width):
    """Slices of range(n) whose blocks of `width` rows stay within
    _IMAGE_CAP values."""
    step = max(1, _IMAGE_CAP // width)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


@functools.lru_cache(maxsize=16)
def _image_gap_plan(alpha):
    """(theta_cap, 2 odd_k, shift_k) of the pass plan of opening alpha, as
    columns over the 2m images: image k of a start at angle rel in the
    sub-wedge lies at rel + k theta_cap (k even) or (k + 1) theta_cap - rel
    (k odd), so an endpoint at rel + turn is turn + 2 odd_k rel - shift_k
    from it, with shift_k = (k + odd_k) theta_cap."""
    theta_cap, m, _, _ = _pass_plan(alpha)
    k = np.arange(2 * m)[:, None]
    odd = k % 2
    return theta_cap, 2.0 * odd, (k + odd) * theta_cap


def _sub_opening(alpha):
    """Largest opening of the form pi/m that fits inside alpha.

    If alpha itself is pi/m (within the geometry tolerance), the sub-wedge
    reuses alpha exactly so that both sub-wedge rays coincide with the outer
    rays; otherwise m = ceil(pi/alpha) (an alpha within rounding of some
    pi/k is that pi/k within the tolerance, so the ceiling is never one
    too large). An m past densities.MAX_M is a ValueError.
    """
    m_exact = WedgeSpec(0.0, alpha).pi_over_m() if alpha <= math.pi else None
    m = m_exact or math.ceil(math.pi / alpha)
    if m > MAX_M:
        raise ValueError(f"opening {alpha:g} is too narrow: its passes need "
                         f"m = {m} > {MAX_M} sub-wedges")
    return (alpha if m_exact else math.pi / m), m


@functools.lru_cache(maxsize=16)
def _pass_plan(alpha):
    """(theta_cap, m, sub-wedge <0, theta_cap>, image angles of its
    bisector) of every pass in a wedge of opening alpha. Cached per opening:
    a run, and every Euler cell of its paths, reuses one plan. The small
    fixed size bounds the cache over a process that runs many openings.
    """
    theta_cap, m = _sub_opening(alpha)
    sub = WedgeSpec(0.0, theta_cap)
    return theta_cap, m, sub, image_angles(theta_cap / 2.0, sub, m)


@functools.lru_cache(maxsize=64)
def _exit_ratio_plan(sub, theta0, side):
    """[(sin g_k / sin g_0, (c_k - c_0) / 2) for k >= 1] of the exit law on
    `side` of the pi/m sub-wedge from angle theta0 at unit radius. As
    c_k - c_0 = 2 r r0 (cos g_0 - cos g_k), a hit at radius r and time tau
    from radius r0 is kept with probability 1 + sum_k w_k e^{-r r0 h_k / tau},
    the wedge's exit density over its k = 0 term, the half-plane's. Cached:
    a reflected pass starts on the bisector, and stopped passes repeat.
    """
    params = ExitLawParams.for_side(sub, PolarPoint(1.0, theta0), side)
    cs = params.c_values(1.0)
    sin0 = math.sin(params.gammas[0])
    return tuple((math.sin(g) / sin0, 0.5 * (c - cs[0]))
                 for g, c in zip(params.gammas[1:], cs[1:]))


def _exit_draw(rel, horizon, sub, m, rng):
    """(side, radius, time) of the exit of a path at `rel` from the pi/m
    sub-wedge, conditioned on time <= horizon (inf allowed).

    Proposals are the exits of the half-planes bounded by the two ray
    lines. Line i, at distance d_i, is picked with weight P_i(tau <= horizon)
    = 2 Phi(-a_i), a_i = d_i / sqrt(horizon), in log space as it underflows
    on a short cell; its exit time is d_i^2 / Z^2 for Z >= a_i, drawn as
    -ndtri_exp(log Phi(-a_i) - E), and its hit point sqrt(tau) N from the
    start's foot along the line. A hit past the apex is refused, any other
    kept by _exit_ratio_plan; a round draws _PROPOSALS proposals and keeps
    the first that passes (the uniforms of those after it are drawn, not
    transformed), and for m = 1 (one half-plane) its one proposal.
    The draws are those of `lanes._exit_draw`, in its order. It works at
    radius times 2^-k, the start radius in [0.5, 1), so that the exit time
    from radius 1e-150 a hair off a ray does not underflow.
    """
    k = math.frexp(rel.r)[1]
    r0 = math.ldexp(rel.r, -k)
    sd = math.ldexp(math.sqrt(horizon), -k)
    lines = []  # for m = 1 the lower one only
    for side, angle in ((Side.MINUS, rel.theta),
                        (Side.PLUS, sub.opening - rel.theta))[:min(m, 2)]:
        d = r0 * math.sin(angle)
        lines.append((side, d, r0 * math.cos(angle), float(log_ndtr(-(d / sd)))))
    if m == 1:
        _, d, foot, log_w = lines[0]
        root = d / -float(ndtri_exp(log_w - rng.exponential()))  # sqrt tau
        r = foot + root * rng.normal()
        side, r = Side.MINUS if r > 0.0 else Side.PLUS, abs(r)
    else:
        # w_minus / (w_minus + w_plus), a logistic of the gap of the log weights
        p_minus = float(expit(lines[0][3] - lines[1][3]))
        side = None
        while side is None:
            for left in range(_PROPOSALS - 1, -1, -1):
                line, d, foot, log_w = lines[rng.uniform() >= p_minus]
                q = d / -float(ndtri_exp(log_w - rng.exponential()))
                x = foot + q * rng.normal()
                u = rng.uniform()
                if x > 0.0 and u <= 1.0 + sum(
                        w * math.exp(-x * r0 / (q * q) * h)
                        for w, h in _exit_ratio_plan(sub, rel.theta, line)):
                    side, r, root = line, x, q
                    # the rest of the round is drawn, to keep the stream
                    # in step, but not transformed
                    for _ in range(4 * left):
                        rng.uniform()
                    break
    try:
        return side, math.ldexp(r, k), math.ldexp(root * root, 2 * k)
    except OverflowError:
        raise ValueError(f"start radius {rel.r:g} is too large for the exit "
                         f"law: its exit radius or time overflows") from None


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
    start = wedge.place(start)
    th = start.theta - wedge.alpha_minus
    r_n = start.r
    # starting on the boundary means tau = 0; the apex, which belongs to
    # both rays, is reported on the lower one whatever its angle
    if r_n == 0.0 or th <= 0.0 or th >= alpha:
        ray = wedge.alpha_minus if r_n == 0.0 or th <= alpha - th else wedge.alpha_plus
        return _stopped_sample(PolarPoint(r_n, ray), 0.0, True, 0)
    theta_cap, m_sub, sub, _ = _pass_plan(alpha)
    t_n = 0.0
    for n in range(1, iteration_cap + 1):
        beta_lo = min(max(th - theta_cap / 2.0, 0.0), alpha - theta_cap)
        rel = PolarPoint(r_n, th - beta_lo)
        t_rem = T - t_n
        if t_rem < math.inf:
            surv = _survivor_trial(rel, sub, m_sub,
                                   image_angles(rel.theta, sub, m_sub), t_rem, rng)
            if surv is not None:
                end = PolarPoint(surv.r, wedge.alpha_minus + beta_lo + surv.theta)
                return _stopped_sample(end, T, False, n)
        side, r_new, tau = _exit_draw(rel, t_rem, sub, m_sub, rng)
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
            if t_n < T:
                continue
            # an exit that took all the time left ends on an inner ray
            return _stopped_sample(PolarPoint(r_n, wedge.alpha_minus + th), T, False, n)
        return _stopped_sample(end, min(t_n, T), True, n)
    partial = PathSample(endpoint=PolarPoint(r_n, wedge.alpha_minus + th),
                         elapsed=t_n, hit_boundary=False, folds=iteration_cap)
    raise FoldCapExceeded(
        f"stopped recursion exceeded {iteration_cap} passes", partial)


def algorithm_reflected(start, T, wedge, rng, epsilon=DEFAULT_EPSILON,
                        fold_cap=DEFAULT_FOLD_CAP):
    """Endpoint at T of the normally reflected motion in the wedge.

    A path at the apex (a start there, or a radius underflowed onto it)
    ends with one draw from the corner kernel (see corner.sample_corner),
    which is exact there. epsilon > 0 enables the corner termination:
    whenever the squared radius over the remaining time drops below epsilon
    (checked before every pass, including the first), the path ends with
    the same draw and approx_used is set. epsilon = 0 is the exact mode;
    its pass count has infinite mean, hence the cap with a structured fault.

    Every path carries the endpoint of its driving Brownian motion (drift
    reweighting needs it): the pre-folding displacement of every pass is
    accumulated into it, and the corner draw's free Gaussian step is the
    displacement of its terminal pass. An apex start reports 0 folds.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if not epsilon >= 0:  # NaN included
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    alpha = wedge.opening
    start = wedge.place(start)
    th = start.theta - wedge.alpha_minus
    r_n = start.r
    base = wedge.alpha_minus
    theta_cap, m_sub, sub, mid_images = _pass_plan(alpha)
    outer = WedgeSpec(0.0, alpha) if base > 0.0 else wedge
    wx, wy = (0.0, 0.0)  # accumulated driving displacement, internal frame
    t_n = 0.0
    approx = False
    # an apex start ends at once, in the corner draw of pass 0
    for n in range(0 if r_n == 0.0 else 1, fold_cap + 1):
        t_rem = T - t_n
        at_apex = r_n <= APEX_RADIUS_FLOOR
        if at_apex or corner_triggered(r_n, t_rem, epsilon):
            r_end, th_end, dx, dy = sample_corner(r_n, t_rem, alpha, rng)
            # the step is drawn in the frame of the current point's ray
            c, s = math.cos(th), math.sin(th)
            wx += c * dx - s * dy
            wy += s * dx + c * dy
            r_n, th = r_end, th_end
            approx = not at_apex
            break
        # every pass starts on the bisector of its sub-wedge
        beta_lo = th - theta_cap / 2.0
        rel = PolarPoint(r_n, theta_cap / 2.0)
        surv = _survivor_trial(rel, sub, m_sub, mid_images, t_rem, rng)
        if surv is not None:
            r_new, pre_fold = surv.r, beta_lo + surv.theta
        else:
            side, r_new, tau = _exit_draw(rel, t_rem, sub, m_sub, rng)
            pre_fold = beta_lo if side is Side.MINUS else beta_lo + theta_cap
            t_n += tau
        wx += r_new * math.cos(pre_fold) - r_n * math.cos(th)
        wy += r_new * math.sin(pre_fold) - r_n * math.sin(th)
        th = fold_into_wedge(pre_fold, outer)
        r_n = r_new
        # a kept survivor ends the path; so does an exit that took all the
        # time that was left
        if surv is not None or t_n >= T:
            break
    else:
        partial = PathSample(endpoint=PolarPoint(r_n, base + th), elapsed=t_n,
                             hit_boundary=False, folds=fold_cap)
        raise FoldCapExceeded(
            f"reflected recursion exceeded {fold_cap} folds "
            f"(expected for epsilon = 0)", partial)
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
