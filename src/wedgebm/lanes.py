"""Both exact recursions over a batch of paths, one numpy lane per path.

`stopped_paths` and `reflected_paths` run `samplers.algorithm_stopped` and
`samplers.algorithm_reflected` for a batch of path indices of one seed,
branch for branch: every pass runs once for all the lanes still going, as
array operations, and the lanes that finish leave after it. A refused
survivor trial draws its exit in rejection rounds over the lanes still
pending, each lane with the ratio plan of its own start angle and exit
side, at its radius times 2^-k. Boundary and apex starts,
APEX_RADIUS_FLOOR, the corner ending, the fold into the wedge, the pass
caps with their partial state, the overflow `ValueError` and the driving
endpoint are those of the scalar recursions.

Lane j draws from its path's Philox stream (`rng.LaneDraws`) what the
scalar recursion draws from `RngStream(seed).derive(i)`, in its order: a
survivor trial 3 uniforms (two normals by `ndtri`, the acceptance), an exit
proposal 4 (the side, the tail Z >= a by `-ndtri_exp(log u +
log_ndtr(-a))`, a normal along the line, the acceptance), made
`samplers._PROPOSALS` a round and all drawn whichever is kept first, and a
corner draw 3 (two normals, the angle). While at most _AHEAD_LANES lanes
are pending, an exit draw requests up to LANE_BUFFER // 2 uniforms, 4
rounds, at once and hands back to each lane the rounds after the one that
kept its proposal, so a lane draws what it would round by round, in fewer
rounds of numpy calls. A larger set draws a round at a time: most of its
lanes keep a proposal in the first round, and rounds drawn ahead for them
would be transformed for nothing. When m = 1 the half-plane is the
wedge: one proposal of 2 uniforms (the tail, the normal), kept. So the
scalar recursion reproduces lane i path for path, to the last bits of
numpy's and the C library's elementary functions. A path does not depend
on its batch, and its image sums (`samplers._image_sum_arrays`) and exit
ratio terms are made in blocks of at most `samplers._IMAGE_CAP` values.
"""

import math

import numpy as np
from scipy import special

from .geometry import TWO_PI, PolarPoint
from .rng import LANE_BUFFER, LaneDraws
from .samplers import (_PROPOSALS, APEX_RADIUS_FLOOR, PathSample,
                       _absolute_driving, _chunks, _image_sum_arrays,
                       _pass_plan, _stopped_sample)

# pending lanes at most for which an exit draw draws rounds ahead
_AHEAD_LANES = 64


def _survivor(r0, rel, horizon, u, alpha):
    """The survivor trials of lanes at radius r0 and angle rel in the pi/m
    sub-wedge of opening alpha's plan, with time horizon left (arrays over
    the lanes), from the uniforms u (3, lanes): (kept, radius, angle in the
    sub-wedge), as `samplers._survivor_trial` does it one path at a time."""
    theta_cap, m, _, _ = _pass_plan(alpha)
    sd = np.sqrt(horizon)
    normals = special.ndtri(u[:2])
    x = r0 * np.cos(rel) + sd * normals[0]
    y = r0 * np.sin(rel) + sd * normals[1]
    # the sector fold into the sub-wedge (samplers._sector_fold)
    phi = np.arctan2(y, x) % TWO_PI
    j = np.minimum(np.floor(phi / theta_cap), 2 * m - 1)
    th = np.where(j % 2 == 0, phi - j * theta_cap, (j + 1) * theta_cap - phi)
    np.clip(th, 0.0, theta_cap, out=th)
    r = np.hypot(x, y)
    # the image sums of samplers._survivor_trial
    signed, total = _image_sum_arrays(th - rel, rel, r, r0, horizon, alpha)
    return u[2] * total <= np.maximum(signed, 0.0), r, th


def _exit_draw(draws, lanes, r, rel, horizon, alpha):
    """The exits of `lanes` from radius r and angle rel in the pi/m
    sub-wedge, conditioned on time <= horizon (arrays over the lanes):
    (plus side, radius, time), by `samplers._exit_draw`'s proposals, in
    rounds over the lanes with no kept proposal yet."""
    theta_cap, m, _, _ = _pass_plan(alpha)
    mant, k = np.frexp(r)  # r = mant 2^k, mant in [0.5, 1)
    sd = np.ldexp(np.sqrt(horizon), -k)
    # per line, [0] that of the lower ray and [1] that of the upper (m = 1
    # has one line): the start's angle from the ray, its distance to the
    # line, its foot along it and the log of the line's weight
    # P(tau <= horizon)
    phi = np.stack((rel, theta_cap - rel)[:1 if m == 1 else 2])
    dist = mant * np.sin(phi)
    lines = np.stack((phi, dist, mant * np.cos(phi),
                      special.log_ndtr(-(dist / sd))))
    if m > 1:
        p_minus = special.expit(lines[3, 0] - lines[3, 1])
        steps = (TWO_PI / m) * np.arange(1, m)[:, None, None]
    per = 2 if m == 1 else 4  # uniforms a proposal takes
    count = 1 if m == 1 else _PROPOSALS  # m = 1 keeps every proposal
    # rounds one request draws for a small pending set (m = 1 needs one)
    ahead = 1 if m == 1 else LANE_BUFFER // 2 // (per * count)
    plus = np.zeros(len(r), dtype=bool)
    hit = np.empty(len(r))
    root = np.empty(len(r))
    pending = np.arange(len(r))
    while pending.size:
        rounds = ahead if pending.size <= _AHEAD_LANES else 1
        # rounds x count proposals for each pending lane, row q proposal q
        u = draws.take(lanes[pending], per * count * rounds).reshape(
            count * rounds, per, -1)
        if m == 1:
            line = np.zeros((count, pending.size), dtype=np.intp)
        else:
            line = (u[:, 0] >= p_minus[pending]).astype(np.intp)
            u = u[:, 1:]
        g0, d, foot, log_w = lines[:, line, pending]
        z = -special.ndtri_exp(np.log(u[:, 0]) + log_w)  # Z >= a
        rt = d / z  # the square root of the exit time
        x = foot + rt * special.ndtri(u[:, 1])
        if m == 1:
            keep = np.ones(x.shape, dtype=bool)
        else:
            # past the apex is refused; the rest are kept with the wedge's
            # exit density over the half-plane's (samplers._exit_ratio_plan),
            # its sum over k = 1 .. m - 1 the same for either side. Its terms
            # are at most 1 where x > 0; elsewhere they may overflow, unread
            keep = x > 0.0
            ratio = np.ones(x.shape)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scaled = x * mant[pending] / (rt * rt)
                for part in _chunks(pending.size, len(x) * (m - 1)):
                    g = g0[:, part] + steps
                    terms = (np.sin(g) / np.sin(g0[:, part]) * np.exp(
                        -scaled[:, part] * (np.cos(g0[:, part]) - np.cos(g))))
                    ratio[:, part] += np.add.accumulate(terms, axis=0)[-1]
            keep &= u[:, 2] <= ratio
        # each lane's first kept proposal; the rounds drawn after its round
        # go back to its stream, as a round-by-round draw never makes them
        got = keep.any(axis=0)
        first = keep.argmax(axis=0)[got]
        at = (first, np.flatnonzero(got))
        done = pending[got]
        if rounds > 1:
            draws._rewind(lanes[done],
                          per * count * (rounds - 1 - first // count))
        plus[done] = x[at] <= 0.0 if m == 1 else line[at] == 1
        hit[done] = np.abs(x[at])
        root[done] = rt[at]
        pending = pending[~got]
    with np.errstate(over="ignore"):
        radius = np.ldexp(hit, k)
        tau = np.ldexp(root * root, 2 * k)
    bad = ~(np.isfinite(radius) & np.isfinite(tau))
    if bad.any():
        raise ValueError(f"start radius {r[bad][0]:g} is too large for the "
                         f"exit law: its exit radius or time overflows")
    return plus, radius, tau


class _Batch:
    """The per-lane results of one batch, filled as lanes finish."""

    def __init__(self, n, r, th, cap):
        self.r = np.full(n, float(r))
        self.th = np.full(n, float(th))  # from the wedge's lower ray
        self.t = np.zeros(n)
        self.folds = np.full(n, cap)
        self.hit = np.zeros(n, dtype=bool)
        self.faulted = np.ones(n, dtype=bool)


def stopped_paths(start, T, wedge, seed, indices, iteration_cap):
    """The (PathSample, faulted) pairs of `samplers.algorithm_stopped` for
    the paths `indices` of `seed`, in index order, each drawn from its lane
    stream: an iterator, whose samples are made as they are read. A path
    that exceeds the pass cap gives its partial state with faulted=True."""
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    alpha = wedge.opening
    start = wedge.place(start)
    th0 = start.theta - wedge.alpha_minus
    n = len(indices)
    out = _Batch(n, start.r, th0, iteration_cap)
    end = np.full(n, math.nan)  # the endpoint's absolute angle
    if start.r == 0.0 or th0 <= 0.0 or th0 >= alpha:
        # tau = 0; the apex is reported on the lower ray
        ray = (wedge.alpha_minus if start.r == 0.0 or th0 <= alpha - th0
               else wedge.alpha_plus)
        return ((_stopped_sample(PolarPoint(start.r, ray), 0.0, True, 0),
                 False) for _ in range(n))
    theta_cap, _, _, _ = _pass_plan(alpha)
    draws = LaneDraws(seed, indices)
    live = np.arange(n)
    for p in range(1, iteration_cap + 1):
        if not live.size:
            break
        r, th, t = out.r[live], out.th[live], out.t[live]
        beta = np.clip(th - theta_cap / 2.0, 0.0, alpha - theta_cap)
        rel = th - beta
        t_rem = T - t
        if T < math.inf:
            kept, r_s, th_s = _survivor(r, rel, t_rem, draws.take(live, 3), alpha)
            done = live[kept]
            out.r[done] = r_s[kept]
            end[done] = wedge.alpha_minus + beta[kept] + th_s[kept]
            out.t[done] = T
            out.folds[done] = p
            out.faulted[done] = False
            refused = ~kept
            live, r, beta, rel, t, t_rem = (live[refused], r[refused],
                                            beta[refused], rel[refused],
                                            t[refused], t_rem[refused])
            if not live.size:
                break
        plus, r_new, tau = _exit_draw(draws, live, r, rel, t_rem, alpha)
        t = t + tau
        on_minus = ~plus & (beta == 0.0)
        on_plus = plus & (beta == alpha - theta_cap)
        apex = ~(on_minus | on_plus) & (r_new <= APEX_RADIUS_FLOOR)
        th = np.where(plus, beta + theta_cap, beta)
        hit = on_minus | on_plus | apex
        inner_end = ~hit & (t >= T)
        out.r[live] = np.where(apex, 0.0, r_new)
        out.th[live] = th
        out.t[live] = np.where(hit, np.minimum(t, T), t)
        out.hit[live] = hit
        end[live] = np.where(on_plus, wedge.alpha_plus,
                             np.where(hit, wedge.alpha_minus,
                                      wedge.alpha_minus + th))
        over = hit | inner_end
        done = live[over]
        out.t[live[inner_end]] = T
        out.folds[done] = p
        out.faulted[done] = False
        live = live[~over]
    return _stopped_samples(wedge, out, end)


def _stopped_samples(wedge, out, end):
    """The (PathSample, faulted) pairs of a stopped batch, made one at a
    time as they are read."""
    for r, th, t, hit, folds, fault, angle in zip(*(c.tolist() for c in (
            out.r, out.th, out.t, out.hit, out.folds, out.faulted, end))):
        if fault:
            yield PathSample(endpoint=PolarPoint(r, wedge.alpha_minus + th),
                             elapsed=t, hit_boundary=False, folds=folds), True
        else:
            yield _stopped_sample(PolarPoint(r, angle), t, hit, folds), False


def reflected_paths(start, T, wedge, seed, indices, epsilon, fold_cap):
    """The (PathSample, faulted) pairs of `samplers.algorithm_reflected`
    for the paths `indices` of `seed`, in index order, each drawn from its
    lane stream: an iterator, as for `stopped_paths`. A path that exceeds
    the fold cap gives its partial state with faulted=True."""
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if not epsilon >= 0:  # NaN included
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    alpha = wedge.opening
    start = wedge.place(start)
    base = wedge.alpha_minus
    n = len(indices)
    out = _Batch(n, start.r, start.theta - base, fold_cap)
    approx = np.zeros(n, dtype=bool)
    wx, wy = np.zeros(n), np.zeros(n)  # driving displacement, internal frame
    theta_cap, _, _, _ = _pass_plan(alpha)
    half = theta_cap / 2.0
    mid = np.full(n, half)  # every pass starts on its sub-wedge's bisector
    draws = LaneDraws(seed, indices)
    live = np.arange(n)
    # an apex start ends at once, in the corner draw of pass 0
    for p in range(0 if start.r == 0.0 else 1, fold_cap + 1):
        if not live.size:
            break
        r, th, t = out.r[live], out.th[live], out.t[live]
        t_rem = T - t
        at_apex = r <= APEX_RADIUS_FLOOR
        with np.errstate(over="ignore"):  # r^2 / t' past any double: no corner
            corner = (at_apex | (r * r / t_rem < epsilon) if epsilon > 0.0
                      else at_apex)
        if corner.any():
            lanes = live[corner]
            u = draws.take(lanes, 3)
            # samplers.sample_corner: one free Gaussian step, in the frame
            # of the current point's ray, and a uniform angle
            sd = np.sqrt(t_rem[corner])
            dx, dy = sd * special.ndtri(u[0]), sd * special.ndtri(u[1])
            c, s = np.cos(th[corner]), np.sin(th[corner])
            wx[lanes] += c * dx - s * dy
            wy[lanes] += s * dx + c * dy
            out.r[lanes] = np.hypot(r[corner] + dx, dy)
            out.th[lanes] = alpha * u[2]
            approx[lanes] = ~at_apex[corner]
            out.folds[lanes] = p
            out.faulted[lanes] = False
            going = ~corner
            live, r, th, t, t_rem = (live[going], r[going], th[going],
                                     t[going], t_rem[going])
            if not live.size:
                break
        kept, r_new, th_s = _survivor(r, mid[:live.size], t_rem,
                                      draws.take(live, 3), alpha)
        pre_fold = (th - half) + th_s
        refused = ~kept
        if refused.any():
            plus, r_e, tau = _exit_draw(draws, live[refused], r[refused],
                                        mid[:refused.sum()], t_rem[refused],
                                        alpha)
            beta = th[refused] - half
            r_new[refused] = r_e
            pre_fold[refused] = np.where(plus, beta + theta_cap, beta)
            t[refused] += tau
        wx[live] += r_new * np.cos(pre_fold) - r * np.cos(th)
        wy[live] += r_new * np.sin(pre_fold) - r * np.sin(th)
        # geometry.fold_into_wedge, into <0, alpha>
        out.th[live] = np.where(pre_fold < 0.0, -pre_fold,
                                np.where(pre_fold > alpha, 2.0 * alpha - pre_fold,
                                         pre_fold))
        out.r[live] = r_new
        out.t[live] = t
        # a kept survivor ends the path; so does an exit that took all the
        # time that was left
        over = kept | (t >= T)
        done = live[over]
        out.folds[done] = p
        out.faulted[done] = False
        live = live[~over]
    return _reflected_samples(start, T, base, out, approx, wx, wy)


def _reflected_samples(start, T, base, out, approx, wx, wy):
    """The (PathSample, faulted) pairs of a reflected batch, made one at a
    time as they are read."""
    for r, th, t, folds, fault, corner, dx, dy in zip(*(c.tolist() for c in (
            out.r, out.th, out.t, out.folds, out.faulted, approx, wx, wy))):
        end = PolarPoint(r, base + th)
        if fault:
            yield PathSample(endpoint=end, elapsed=t, hit_boundary=False,
                             folds=folds), True
        else:
            yield PathSample(
                endpoint=end, elapsed=T, hit_boundary=False, folds=folds,
                approx_used=corner,
                driving_endpoint=_absolute_driving(start, base, dx, dy)), False
