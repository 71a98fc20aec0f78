"""Both exact recursions over a batch of paths, one numpy lane per path.

`stopped_paths` and `reflected_paths` run `samplers.algorithm_stopped` and
`samplers.algorithm_reflected` for a batch of path indices of one seed,
branch for branch: every pass runs once for all the lanes still going, as
array operations, and the lanes that finish leave after it. A pass holds
only the live lanes' state, compressed as lanes end, and each lane's
results are written once, when it ends (a capped lane's after the last
pass), all under one floating-point scope a batch. A batch returns its
`samplers.PathColumns`, made from those arrays with no object per path.
A refused survivor trial draws its exit in rejection rounds over the lanes
still pending, at its radius times 2^-k, from line tables and ratio
coefficients made once a draw, or on a reflected pass, which starts on the
bisector, once an opening (`samplers.PassPlan.mid_exit`). Boundary and
apex starts, APEX_RADIUS_FLOOR, the corner ending, the fold into the
wedge, the pass caps with their partial state, the overflow `ValueError`
and the driving endpoint are those of the scalar recursions.

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
on its batch, and its image sums (`samplers._image_sum_arrays`), exit ratio
coefficients and terms are made in blocks of at most `samplers._IMAGE_CAP`
values.
"""

import math

import numpy as np
from scipy import special

from .geometry import TWO_PI
from .rng import LANE_BUFFER, LaneDraws
from .samplers import (_IMAGE_CAP, _PROPOSALS, APEX_RADIUS_FLOOR, PathColumns,
                       _absolute_driving, _chunks, _image_sum_arrays,
                       _pass_plan, _ratio_table)

# pending lanes at most for which an exit draw draws rounds ahead
_AHEAD_LANES = 64


def _survivor(r0, rel, horizon, u, alpha):
    """The survivor trials of lanes at radius r0 and angle rel in the pi/m
    sub-wedge of opening alpha's plan, with time horizon left (arrays over
    the lanes), from the uniforms u (3, lanes): (kept, radius, angle in the
    sub-wedge), as `samplers._survivor_trial` does it one path at a time."""
    theta_cap, m = _pass_plan(alpha).theta_cap, _pass_plan(alpha).m
    sd = np.sqrt(horizon)
    normals = special.ndtri(u[:2])
    x = r0 * np.cos(rel) + sd * normals[0]
    y = r0 * np.sin(rel) + sd * normals[1]
    # the sector fold into the sub-wedge (samplers._sector_fold)
    phi = np.arctan2(y, x) % TWO_PI
    j = np.minimum(np.floor(phi / theta_cap), 2 * m - 1)
    th = np.where(j % 2 == 0, phi - j * theta_cap, (j + 1) * theta_cap - phi)
    # np.clip, less the cost of its Python wrapper
    np.minimum(np.maximum(th, 0.0, out=th), theta_cap, out=th)
    r = np.hypot(x, y)
    # the image sums of samplers._survivor_trial
    signed, total = _image_sum_arrays(th - rel, rel, r, r0, horizon, alpha)
    return u[2] * total <= np.maximum(signed, 0.0), r, th


def _exit_draw(draws, lanes, r, rel, horizon, alpha):
    """The exits of `lanes` from radius r and angle rel in the pi/m
    sub-wedge, conditioned on time <= horizon (arrays over the lanes; rel
    None where every lane starts on the bisector, as on a reflected pass):
    (plus side, radius, time), by `samplers._exit_draw`'s proposals, in
    rounds over the lanes with no kept proposal yet. The lanes' line tables
    and ratio coefficients are made once, and each round picks them by the
    line it drew; on the bisector the two lines are alike, and the
    coefficients are the opening's own."""
    plan = _pass_plan(alpha)
    theta_cap, m = plan.theta_cap, plan.m
    if rel is None:
        sin_phi, cos_phi, ratio_table = plan.mid_exit
    else:
        if m > 1 and len(r) > max(1, _IMAGE_CAP // (2 * (m - 1))):
            # a block of lanes at a time, within _IMAGE_CAP coefficients;
            # a lane draws the same in any block
            parts = [_exit_draw(draws, lanes[p], r[p], rel[p], horizon[p],
                                alpha) for p in _chunks(len(r), 2 * (m - 1))]
            return tuple(np.concatenate(c) for c in zip(*parts))
        # per line, [0] that of the lower ray and [1] that of the upper
        # (m = 1 has one), and per lane: the start's angle from the line
        phi = np.array((rel, theta_cap - rel)[:1 if m == 1 else 2])
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        ratio_table = _ratio_table(phi, m) if m > 1 else None
    two_lines = len(sin_phi) > 1  # the lines differ: off the bisector, m > 1
    mant, k = np.frexp(r)  # r = mant 2^k, mant in [0.5, 1)
    sd = np.ldexp(np.sqrt(horizon), -k)
    # per line and lane: the start's distance to the line, its foot along
    # it and the log of the line's weight P(tau <= horizon)
    dist = mant * sin_phi
    table = np.array((dist, mant * cos_phi, special.log_ndtr(-(dist / sd))))
    # the lower line's share of the proposals (on the bisector a half)
    p_minus = special.expit(table[2, 0] - table[2, 1]) if two_lines else 0.5
    per = 2 if m == 1 else 4  # uniforms a proposal takes
    count = 1 if m == 1 else _PROPOSALS  # m = 1 keeps every proposal
    # rounds one request draws for a small pending set (m = 1 needs one)
    ahead = 1 if m == 1 else LANE_BUFFER // 2 // (per * count)
    plus = np.empty(len(r), dtype=bool)
    hit = np.empty(len(r))
    root = np.empty(len(r))
    # the places of the lanes with no kept proposal yet; their inputs
    # (lanes, mant and the tables) are compressed as lanes keep one
    pending = np.arange(len(r))
    while pending.size:
        rounds = ahead if pending.size <= _AHEAD_LANES else 1
        # rounds x count proposals for each pending lane, row q proposal q
        u = draws.take(lanes, per * count * rounds).reshape(
            count * rounds, per, -1)
        if m > 1:
            line = u[:, 0] >= p_minus  # the upper ray's line
            u = u[:, 1:]
        d, foot, log_w = (np.where(line, table[:, 1, None],
                                   table[:, 0, None])
                          if two_lines else table[:, 0])
        z = -special.ndtri_exp(np.log(u[:, 0]) + log_w)  # Z >= a
        rt = d / z  # the square root of the exit time
        x = foot + rt * special.ndtri(u[:, 1])
        if m == 1:
            keep = np.ones(x.shape, dtype=bool)
        else:
            # past the apex is refused; the rest are kept with the wedge's
            # exit density over the half-plane's, its sum over k = 1 .. m - 1
            # the same for either side. Its terms are at most 1 where x > 0;
            # elsewhere they may overflow, unread
            keep = x > 0.0
            ratio = np.empty(x.shape)
            scaled = x * mant / (rt * rt)
            for part in _chunks(pending.size, len(x) * (m - 1)):
                coef, rise = (np.where(line[:, part],
                                       ratio_table[:, :, 1, None, part],
                                       ratio_table[:, :, 0, None, part])
                              if two_lines else ratio_table)
                terms = coef * np.exp(scaled[:, part] * rise)
                np.add(1.0, np.add.accumulate(terms, axis=0)[-1],
                       out=ratio[:, part])
            keep &= u[:, 2] <= ratio
        # each lane's first kept proposal; the rounds drawn after its round
        # go back to its stream, as a round-by-round draw never makes them
        got = keep.any(axis=0)
        cols = got.nonzero()[0]
        first = keep.argmax(axis=0)[cols]
        at = (first, cols)
        if rounds > 1:
            draws._rewind(lanes[cols],
                          per * count * (rounds - 1 - first // count))
        done = pending[cols]
        plus[done] = x[at] <= 0.0 if m == 1 else line[at]
        hit[done] = np.abs(x[at])
        root[done] = rt[at]
        if cols.size == pending.size:
            break
        left = ~got
        pending, lanes, mant = pending[left], lanes[left], mant[left]
        table = table[:, :, left]
        if two_lines:
            p_minus, ratio_table = p_minus[left], ratio_table[..., left]
    radius = np.ldexp(hit, k)
    tau = np.ldexp(root * root, 2 * k)
    bad = ~np.isfinite(np.maximum(radius, tau))
    if bad.any():
        raise ValueError(f"start radius {r[bad][0]:g} is too large for the "
                         f"exit law: its exit radius or time overflows")
    return plus, radius, tau


class _Batch:
    """The per-lane results of one batch: the state, folds and fault flag,
    a stopped path's hit, and a reflected path's corner flag and driving
    displacement (internal frame)."""

    def __init__(self, n, cap):
        self.r, self.th, self.t = np.empty(n), np.empty(n), np.empty(n)
        self.folds = np.full(n, cap)
        self.faulted = np.ones(n, dtype=bool)
        self.hit = np.zeros(n, dtype=bool)
        self.approx = np.zeros(n, dtype=bool)
        self.wx, self.wy = np.zeros(n), np.zeros(n)

    def write(self, lanes, r, th, t, folds=None):
        """The state of `lanes` (th from the wedge's lower ray), ended at
        pass `folds`, or with folds None their partial state at the cap."""
        self.r[lanes], self.th[lanes], self.t[lanes] = r, th, t
        if folds is not None:
            self.folds[lanes] = folds
            self.faulted[lanes] = False

    def columns(self, theta, elapsed, driving):
        """The batch's `PathColumns`, its endpoints at absolute angles
        theta; a faulted lane has no driving endpoint."""
        return PathColumns(
            r=self.r, theta=theta, elapsed=elapsed, hit=self.hit,
            folds=self.folds, faulted=self.faulted, approx=self.approx,
            weight=np.ones(len(self.r)),
            driving=np.where(self.faulted, math.nan, driving))


# a batch's own floating-point flags: an exit ratio's terms past x <= 0,
# r^2 / t' past any double (no corner) and the exit law's overflow, which
# is checked, are all unread
_BATCH_ERRORS = dict(divide="ignore", over="ignore", invalid="ignore")


def stopped_paths(start, T, wedge, seed, indices, iteration_cap):
    """The `PathColumns` of `samplers.algorithm_stopped` for the paths
    `indices` of `seed`, in index order, each drawn from its lane stream. A
    path that exceeds the pass cap gives its partial state, faulted."""
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    alpha = wedge.opening
    start = wedge.place(start)
    th0 = start.theta - wedge.alpha_minus
    n = len(indices)
    out = _Batch(n, iteration_cap)
    end = np.full(n, math.nan)  # the endpoint's absolute angle
    if start.r == 0.0 or th0 <= 0.0 or th0 >= alpha:
        # tau = 0; the apex is reported on the lower ray
        out.write(slice(None), start.r, th0, 0.0, 0)
        out.hit[:] = True
        end[:] = (wedge.alpha_minus if start.r == 0.0 or th0 <= alpha - th0
                  else wedge.alpha_plus)
        return _stopped_columns(wedge, out, end)
    theta_cap = _pass_plan(alpha).theta_cap
    draws = LaneDraws(seed, indices)
    # the live lanes and their state, compressed as lanes end
    live = np.arange(n)
    r, th, t = np.full(n, start.r), np.full(n, th0), np.zeros(n)
    with np.errstate(**_BATCH_ERRORS):
        for p in range(1, iteration_cap + 1):
            if not live.size:
                break
            beta = np.minimum(np.maximum(th - theta_cap / 2.0, 0.0),
                              alpha - theta_cap)  # np.clip
            rel = th - beta
            t_rem = T - t
            if T < math.inf:
                kept, r_s, th_s = _survivor(r, rel, t_rem, draws.take(live, 3),
                                            alpha)
                if kept.any():
                    done = live[kept]
                    out.write(done, r_s[kept], th[kept], T, p)
                    end[done] = wedge.alpha_minus + beta[kept] + th_s[kept]
                    refused = ~kept
                    live, r, th, beta, rel, t, t_rem = (
                        a[refused] for a in (live, r, th, beta, rel, t, t_rem))
                    if not live.size:
                        break
            plus, r, tau = _exit_draw(draws, live, r, rel, t_rem, alpha)
            t = t + tau
            on_minus = ~plus & (beta == 0.0)
            on_plus = plus & (beta == alpha - theta_cap)
            apex = ~(on_minus | on_plus) & (r <= APEX_RADIUS_FLOOR)
            th = np.where(plus, beta + theta_cap, beta)
            hit = on_minus | on_plus | apex
            over = hit | (t >= T)
            if over.any():
                done = live[over]
                out.write(done, np.where(apex, 0.0, r)[over], th[over],
                          np.minimum(t[over], T), p)
                out.hit[done] = hit[over]
                end[done] = np.where(on_plus, wedge.alpha_plus,
                                     np.where(hit, wedge.alpha_minus,
                                              wedge.alpha_minus + th))[over]
                going = ~over
                live, r, th, t = (a[going] for a in (live, r, th, t))
    out.write(live, r, th, t)
    return _stopped_columns(wedge, out, end)


def _stopped_columns(wedge, out, end):
    """The columns of a stopped batch whose ended lanes end at absolute
    angles `end`; a stopped path's driving endpoint is its endpoint."""
    theta = np.where(out.faulted, wedge.alpha_minus + out.th, end)
    with np.errstate(**_BATCH_ERRORS):
        return out.columns(theta, out.t,
                           (out.r * np.cos(theta), out.r * np.sin(theta)))


def reflected_paths(start, T, wedge, seed, indices, epsilon, fold_cap):
    """The `PathColumns` of `samplers.algorithm_reflected` for the paths
    `indices` of `seed`, in index order, each drawn from its lane stream. A
    path that exceeds the fold cap gives its partial state, faulted."""
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if not epsilon >= 0:  # NaN included
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    alpha = wedge.opening
    start = wedge.place(start)
    base = wedge.alpha_minus
    n = len(indices)
    out = _Batch(n, fold_cap)
    theta_cap = _pass_plan(alpha).theta_cap
    half = theta_cap / 2.0
    mid = np.full(n, half)  # every pass starts on its sub-wedge's bisector
    draws = LaneDraws(seed, indices)
    # the live lanes and their state, compressed as lanes end
    live = np.arange(n)
    r, th, t = np.full(n, start.r), np.full(n, start.theta - base), np.zeros(n)
    wx, wy = np.zeros(n), np.zeros(n)  # the driving displacement
    with np.errstate(**_BATCH_ERRORS):
        # an apex start ends at once, in the corner draw of pass 0
        for p in range(0 if start.r == 0.0 else 1, fold_cap + 1):
            if not live.size:
                break
            t_rem = T - t
            at_apex = r <= APEX_RADIUS_FLOOR
            corner = (at_apex | (r * r / t_rem < epsilon) if epsilon > 0.0
                      else at_apex)
            if corner.any():
                lanes = live[corner]
                u = draws.take(lanes, 3)
                # samplers.sample_corner: one free Gaussian step, in the
                # frame of the current point's ray, and a uniform angle
                sd = np.sqrt(t_rem[corner])
                dx, dy = sd * special.ndtri(u[0]), sd * special.ndtri(u[1])
                c, s = np.cos(th[corner]), np.sin(th[corner])
                out.wx[lanes] = wx[corner] + (c * dx - s * dy)
                out.wy[lanes] = wy[corner] + (s * dx + c * dy)
                out.approx[lanes] = ~at_apex[corner]
                out.write(lanes, np.hypot(r[corner] + dx, dy), alpha * u[2],
                          t[corner], p)
                going = ~corner
                live, r, th, t, t_rem, wx, wy = (
                    a[going] for a in (live, r, th, t, t_rem, wx, wy))
                if not live.size:
                    break
            kept, r_new, th_s = _survivor(r, mid[:live.size], t_rem,
                                          draws.take(live, 3), alpha)
            pre_fold = (th - half) + th_s
            n_kept = np.count_nonzero(kept)
            if n_kept < live.size:
                # the refused lanes, as a view when that is all of them
                out_of = ~kept if n_kept else slice(None)
                plus, r_e, tau = _exit_draw(draws, live[out_of], r[out_of],
                                            None, t_rem[out_of], alpha)
                beta = th[out_of] - half
                r_new[out_of] = r_e
                pre_fold[out_of] = np.where(plus, beta + theta_cap, beta)
                t[out_of] += tau
            wx = wx + (r_new * np.cos(pre_fold) - r * np.cos(th))
            wy = wy + (r_new * np.sin(pre_fold) - r * np.sin(th))
            # geometry.fold_into_wedge, into <0, alpha>
            th = np.where(pre_fold < 0.0, -pre_fold,
                          np.where(pre_fold > alpha, 2.0 * alpha - pre_fold,
                                   pre_fold))
            r = r_new
            # a kept survivor ends the path; so does an exit that took all
            # the time that was left
            over = kept | (t >= T)
            if over.any():
                done = live[over]
                out.write(done, r[over], th[over], t[over], p)
                out.wx[done], out.wy[done] = wx[over], wy[over]
                going = ~over
                live, r, th, t, wx, wy = (
                    a[going] for a in (live, r, th, t, wx, wy))
    out.write(live, r, th, t)
    with np.errstate(**_BATCH_ERRORS):
        return out.columns(base + out.th, np.where(out.faulted, out.t, T),
                           _absolute_driving(start, base, out.wx, out.wy))
