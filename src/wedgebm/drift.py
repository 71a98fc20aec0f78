"""Drifted sampling: Girsanov reweighting and wedge-aware Euler schemes.

Constant drift b is handled exactly: the driftless sampler runs and the path
is weighted by the change-of-measure factor

    exp( b . (W_end - W_start) - |b|^2 elapsed / 2 )

evaluated on the driving Brownian motion. Using the displacement rather than
the raw endpoint makes the weight a mean-one martingale regardless of where
the path starts. `girsanov_log_weight` is that factor's one definition:
`montecarlo.simulate` weights every exact path with it (zero drift gives
weight 1 exactly), and each Euler cell below adds its own.

State-dependent coefficients go through a frozen-coefficient Euler scheme
on the uniform grid of `steps` cells over [0, horizon]: on each cell the
drift and diffusion are frozen at the left endpoint,
the cell is mapped to standard-Brownian wedge coordinates by
`geometry.standard_frame` of the frozen diffusion matrix (its inverse, plus
a rotation bringing the lower ray image to angle zero), and the exact
drifted sampler runs on the sub-interval. For the reflected variant the
reflection is normal in the decorrelated frame of each cell, which
coincides with normal reflection in the original frame whenever the frozen
diffusion is a scalar multiple of a rotation (in particular for identity
diffusion).
"""

import math
from dataclasses import dataclass

from .geometry import PolarPoint, mat_vec, standard_frame
from .samplers import (DEFAULT_EPSILON, DEFAULT_FOLD_CAP, PathSample,
                       algorithm_reflected, algorithm_stopped)


def girsanov_log_weight(b, driving_endpoint, elapsed, start):
    """Log of the reweighting factor of constant drift b, a 2-tuple, for one
    path: b . (W_end - W_start) - |b|^2 elapsed / 2, where driving_endpoint
    and start are the end and start of the driving Brownian motion.
    """
    if elapsed < 0:
        raise ValueError(f"elapsed must be nonnegative, got {elapsed}")
    bx, by = b
    dx = driving_endpoint[0] - start[0]
    dy = driving_endpoint[1] - start[1]
    return bx * dx + by * dy - 0.5 * (bx * bx + by * by) * elapsed


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


def euler_stopped(coeffs, start, horizon, steps, wedge, rng,
                  fold_cap=DEFAULT_FOLD_CAP):
    """Frozen-coefficient Euler scheme for the stopped diffusion.

    start is a PolarPoint in the wedge; cell k of the `steps` cells starts at
    horizon * k / steps and the last ends at horizon. Returns the exact
    within-cell hit state of the first cell that reports a boundary hit; the
    weight collects the per-cell drift reweighting factors in log space.
    fold_cap bounds the recursion passes of each cell.
    """
    return _euler(coeffs, start, horizon, steps, wedge, rng, False, None,
                  fold_cap)


def euler_reflected(coeffs, start, horizon, steps, wedge, rng,
                    epsilon=DEFAULT_EPSILON, fold_cap=DEFAULT_FOLD_CAP):
    """Frozen-coefficient Euler scheme for the reflected diffusion.

    Reflection is normal in each cell's decorrelated frame (exact for
    rotation-like diffusion matrices; see the module docstring). epsilon and
    fold_cap apply to each cell's exact sub-path.
    """
    return _euler(coeffs, start, horizon, steps, wedge, rng, True, epsilon,
                  fold_cap)


def _euler(coeffs, start, horizon, steps, wedge, rng, reflected, epsilon,
           fold_cap):
    """The Euler loop of both schemes; `reflected` picks the exact sampler
    each cell runs."""
    if not (steps >= 1 and 0.0 < horizon < math.inf):
        raise ValueError(f"need steps >= 1 and 0 < horizon < inf, got "
                         f"steps={steps}, horizon={horizon}")
    pos = wedge.place(start).cartesian()
    log_w = 0.0
    folds = 0
    approx = False
    frame_sigma = frame = None
    t_next = 0.0
    for k in range(steps):
        t_k = t_next
        t_next = horizon * (k + 1) / steps if k + 1 < steps else horizon
        dt = t_next - t_k
        b_k = coeffs.drift(pos, t_k)
        (a, b), (c, d) = s_k = coeffs.diffusion(pos, t_k)
        # the frame depends on sigma alone: keep it while sigma is unchanged
        # (compared entry by entry, so any 2x2 sequence, arrays too, works)
        if (a, b, c, d) != frame_sigma:
            frame_sigma, frame = (a, b, c, d), standard_frame(s_k, wedge)
        fwd, bwd, cell_wedge = frame
        # round-off can put a point on a ray a hair off it in the cell frame
        cell_start = cell_wedge.place(PolarPoint.from_cartesian(*mat_vec(fwd, pos)))
        b_cell = mat_vec(fwd, b_k)  # mu (x - kappa) can overflow mid-path
        if not (math.isfinite(b_cell[0]) and math.isfinite(b_cell[1])):
            raise ValueError(f"drift must be a finite 2-vector, got {b_cell}")
        if reflected:
            sub = algorithm_reflected(cell_start, dt, cell_wedge, rng,
                                      epsilon=epsilon, fold_cap=fold_cap)
        else:
            sub = algorithm_stopped(cell_start, dt, cell_wedge, rng,
                                    iteration_cap=fold_cap)
        # a reflected sub-path always runs the whole cell: elapsed == dt
        log_w += girsanov_log_weight(b_cell, sub.driving_endpoint, sub.elapsed,
                                     cell_start.cartesian())
        pos = mat_vec(bwd, sub.cartesian_endpoint())
        folds += sub.folds
        approx = approx or sub.approx_used
        if sub.hit_boundary:
            return PathSample(endpoint=PolarPoint.from_cartesian(*pos),
                              elapsed=t_k + sub.elapsed, hit_boundary=True,
                              folds=folds, weight=math.exp(log_w),
                              approx_used=approx)
    return PathSample(endpoint=PolarPoint.from_cartesian(*pos),
                      elapsed=horizon, hit_boundary=False, folds=folds,
                      weight=math.exp(log_w), approx_used=approx)
