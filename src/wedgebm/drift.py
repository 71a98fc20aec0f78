"""Drifted sampling: Girsanov reweighting and wedge-aware Euler schemes.

Constant drift is handled exactly: run the driftless sampler, then weight
each path by the change-of-measure factor

    exp( b . (W_end - W_start) - |b|^2 elapsed / 2 )

evaluated on the driving Brownian motion. Using the displacement rather than
the raw endpoint makes the weight a mean-one martingale regardless of where
the path starts; with a start at the origin the two agree.

State-dependent coefficients go through a frozen-coefficient Euler scheme:
on each grid cell the drift and diffusion are frozen at the left endpoint,
the cell is mapped to standard-Brownian wedge coordinates by the inverse of
the frozen diffusion matrix (plus a rotation bringing the lower ray image to
angle zero), and the exact drifted sampler runs on the sub-interval. For the
reflected variant the reflection is normal in the decorrelated frame of each
cell, which coincides with normal reflection in the original frame whenever
the frozen diffusion is a scalar multiple of a rotation (in particular for
identity diffusion).
"""

import math
from dataclasses import dataclass

from .geometry import PolarPoint, WedgeSpec
from .samplers import (DEFAULT_EPSILON, DEFAULT_FOLD_CAP, PathSample,
                       algorithm_reflected, algorithm_stopped)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DriftSpec:
    b: tuple

    def __post_init__(self):
        if len(self.b) != 2 or not all(math.isfinite(v) for v in self.b):
            raise ValueError(f"drift must be a finite 2-vector, got {self.b}")

    @property
    def is_zero(self):
        return self.b[0] == 0.0 and self.b[1] == 0.0


def girsanov_log_weight(drift, driving_endpoint, elapsed, start=(0.0, 0.0)):
    """Log of the drift reweighting factor for one path.

    driving_endpoint is the terminal value of the driving Brownian motion;
    start is where that motion began (the factor only depends on the
    displacement between the two).
    """
    if elapsed < 0:
        raise ValueError(f"elapsed must be nonnegative, got {elapsed}")
    bx, by = drift.b
    dx = driving_endpoint[0] - start[0]
    dy = driving_endpoint[1] - start[1]
    return bx * dx + by * dy - 0.5 * (bx * bx + by * by) * elapsed


def girsanov_weight(drift, driving_endpoint, elapsed, start=(0.0, 0.0)):
    return math.exp(girsanov_log_weight(drift, driving_endpoint, elapsed, start))


def stopped_with_drift(start, drift, T, wedge, rng, iteration_cap=DEFAULT_FOLD_CAP):
    """Stopped sampler under constant drift, via exact reweighting.

    With drift.b = (0, 0) this reproduces the driftless sampler draw for
    draw, with weight exactly 1.
    """
    sample = algorithm_stopped(start, T, wedge, rng, iteration_cap=iteration_cap)
    sample.weight = girsanov_weight(drift, sample.driving_endpoint, sample.elapsed,
                                    start.cartesian())
    return sample


def reflected_with_drift(start, drift, T, wedge, rng, epsilon=DEFAULT_EPSILON,
                         fold_cap=DEFAULT_FOLD_CAP):
    """Reflected sampler under constant drift: the driftless path, which
    carries its driving endpoint like every reflected path (see
    algorithm_reflected), reweighted by that endpoint.
    """
    sample = algorithm_reflected(start, T, wedge, rng, epsilon=epsilon,
                                 fold_cap=fold_cap)
    sample.weight = girsanov_weight(drift, sample.driving_endpoint, T,
                                    start.cartesian())
    return sample


# ---------------------------------------------------------------------------
# Euler schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientField:
    """Drift and diffusion fields b(x, t) -> R^2, sigma(x, t) -> 2x2."""

    drift: object
    diffusion: object


def linear_field(mu, kappa, sigma):
    """The mean-reverting family dY = -mu * (Y - kappa) dt + sigma dW
    (componentwise mu), with a constant diffusion matrix."""
    mu = tuple(mu)
    kappa = tuple(kappa)
    sig = tuple(tuple(row) for row in sigma)

    def b(x, _t):
        return (-mu[0] * (x[0] - kappa[0]), -mu[1] * (x[1] - kappa[1]))

    def s(_x, _t):
        return sig

    return CoefficientField(drift=b, diffusion=s)


@dataclass(frozen=True)
class TimeGrid:
    times: tuple

    def __post_init__(self):
        ts = self.times
        if len(ts) < 2 or ts[0] != 0.0:
            raise ValueError("grid must start at 0 and contain at least two times")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("grid times must be strictly increasing")

    @property
    def horizon(self):
        return self.times[-1]

    @classmethod
    def uniform(cls, T, steps):
        if steps < 1 or T <= 0:
            raise ValueError("need steps >= 1 and T > 0")
        times = [T * k / steps for k in range(steps)]
        times.append(T)  # exact right endpoint
        return cls(times=tuple(times))


def _cell_frame(sigma_mat, wedge):
    """Standard-coordinate frame for one frozen-coefficient cell.

    Maps both wedge rays through sigma^{-1}, locates the image of the wedge
    interior (the candidate cone containing the image of the bisector), and
    rotates its lower edge onto angle zero. Returns (forward 2x2, inverse
    2x2, the image wedge).
    """
    (a, b), (c, d) = sigma_mat
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0 or abs(det) < 1e-12 * scale * scale:
        raise ValueError(f"diffusion matrix {sigma_mat} is singular")
    inv = ((d / det, -b / det), (-c / det, a / det))

    def apply(mat, vx, vy):
        return (mat[0][0] * vx + mat[0][1] * vy, mat[1][0] * vx + mat[1][1] * vy)

    lo, hi = wedge.alpha_minus, wedge.alpha_plus
    p0 = apply(inv, math.cos(lo), math.sin(lo))
    p1 = apply(inv, math.cos(hi), math.sin(hi))
    mid = 0.5 * (lo + hi)
    pm = apply(inv, math.cos(mid), math.sin(mid))
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


def _apply2(mat, v):
    return (mat[0][0] * v[0] + mat[0][1] * v[1], mat[1][0] * v[0] + mat[1][1] * v[1])


def _cell_start(fwd, pos, cell_wedge):
    u, v = _apply2(fwd, pos)
    p = PolarPoint.from_cartesian(u, v)
    th = p.theta
    if th <= cell_wedge.alpha_plus:
        return p
    # round-off can push a point sitting near a ray to a hair outside;
    # clamp onto whichever ray is closer, otherwise it is a real error
    over = th - cell_wedge.alpha_plus
    under = TWO_PI - th
    if min(over, under) > 1e-9:
        raise ValueError("cell start outside the mapped wedge")
    return PolarPoint(p.r, cell_wedge.alpha_plus if over <= under else 0.0)


def euler_stopped(coeffs, start, grid, wedge, rng, fold_cap=DEFAULT_FOLD_CAP):
    """Frozen-coefficient Euler scheme for the stopped diffusion.

    start is a PolarPoint in the wedge. Returns the exact within-cell hit
    state of the first cell that reports a boundary hit; the weight collects
    the per-cell drift reweighting factors in log space. fold_cap bounds the
    recursion passes of each cell.
    """
    return _euler(coeffs, start, grid, wedge, rng, False, None, fold_cap)


def euler_reflected(coeffs, start, grid, wedge, rng, epsilon=DEFAULT_EPSILON,
                    fold_cap=DEFAULT_FOLD_CAP):
    """Frozen-coefficient Euler scheme for the reflected diffusion.

    Reflection is normal in each cell's decorrelated frame (exact for
    rotation-like diffusion matrices; see the module docstring). epsilon and
    fold_cap apply to each cell's exact sub-path.
    """
    return _euler(coeffs, start, grid, wedge, rng, True, epsilon, fold_cap)


def _euler(coeffs, start, grid, wedge, rng, reflected, epsilon, fold_cap):
    """The Euler loop of both schemes; `reflected` picks the exact sampler
    each cell runs."""
    pos = start.cartesian()
    log_w = 0.0
    folds = 0
    approx = False
    times = grid.times
    frame_sigma = frame = None
    for k in range(len(times) - 1):
        t_k = times[k]
        dt = times[k + 1] - t_k
        b_k = coeffs.drift(pos, t_k)
        (a, b), (c, d) = s_k = coeffs.diffusion(pos, t_k)
        # the frame depends on sigma alone: keep it while sigma is unchanged
        # (compared entry by entry, so any 2x2 sequence, arrays too, works)
        if (a, b, c, d) != frame_sigma:
            frame_sigma, frame = (a, b, c, d), _cell_frame(s_k, wedge)
        fwd, bwd, cell_wedge = frame
        cell_start = _cell_start(fwd, pos, cell_wedge)
        b_cell = DriftSpec(_apply2(fwd, b_k))
        if reflected:
            sub = algorithm_reflected(cell_start, dt, cell_wedge, rng,
                                      epsilon=epsilon, fold_cap=fold_cap)
        else:
            sub = algorithm_stopped(cell_start, dt, cell_wedge, rng,
                                    iteration_cap=fold_cap)
        # a reflected sub-path always runs the whole cell: elapsed == dt
        log_w += girsanov_log_weight(b_cell, sub.driving_endpoint, sub.elapsed,
                                     cell_start.cartesian())
        pos = _apply2(bwd, sub.cartesian_endpoint())
        folds += sub.folds
        approx = approx or sub.approx_used
        if sub.hit_boundary:
            return PathSample(endpoint=PolarPoint.from_cartesian(*pos),
                              elapsed=t_k + sub.elapsed, hit_boundary=True,
                              folds=folds, weight=math.exp(log_w),
                              approx_used=approx)
    return PathSample(endpoint=PolarPoint.from_cartesian(*pos),
                      elapsed=grid.horizon, hit_boundary=False, folds=folds,
                      weight=math.exp(log_w), approx_used=approx)
