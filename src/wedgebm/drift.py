"""Drifted sampling: Girsanov reweighting and wedge-aware Euler schemes.

Constant drift b is handled exactly: the driftless sampler runs and the path
is weighted by the change-of-measure factor

    exp( b . (W_end - W_start) - |b|^2 elapsed / 2 )

evaluated on the driving Brownian motion. Using the displacement rather than
the raw endpoint makes the weight a mean-one martingale regardless of where
the path starts. `girsanov_log_weight` is that factor's one definition:
`montecarlo.map_paths` weights every exact path with it (zero drift gives
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

How cells run. Cell k owns one triple of variates, uniforms 3k to 3k + 2 of
the path's stream: two normals (by the inverse normal CDF) and the uniform
of its first survivor trial. A block takes the triples of the next cells
at once and, with the frame frozen, puts each cell's free endpoint at its
start plus sqrt(dt) times its normals. A cell is plain when the recursion
would end it there after one kept survivor trial with no fold
(`samplers._plain_cells`); a plain cell just moves to its endpoint and adds
its Girsanov factor. Every other cell, a fallback, runs `algorithm_stopped`
or `algorithm_reflected` on its own triple, its normals turned into the
frame of its first pass, so that the recursion proposes the very endpoint
the block refused; whatever else it draws comes from one side stream of
the path, derived the first time a fallback needs it. Either way a cell
uses its own triple, independent of everything before it, so every cell is
exact, and the path does not depend on how the cells are cut into blocks.

A block ends after _BLOCK cells, at a fallback (the cells after it start
from the fallback's endpoint) and where the frozen diffusion changes. A
change of diffusion builds a new frame, whose first cell runs the recursion
too, before any block; so a diffusion that changes with the state, which
changes the frame at every cell, runs every cell as a fallback through the
same loop. The coefficient field is evaluated once per cell, at its start,
in cell order.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .geometry import PolarPoint, mat_vec, standard_frame
from .samplers import (DEFAULT_EPSILON, DEFAULT_FOLD_CAP, PathSample,
                       _plain_cells, algorithm_reflected, algorithm_stopped)

_BLOCK = 256  # cells a block draws and tries at once; paths do not depend on it


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
    """Drift and diffusion fields b(x, t) -> R^2, sigma(x, t) -> 2x2.

    An Euler scheme calls both once per cell, at the cell's start x (a
    2-tuple in the input frame) and time t, in cell order. It compares each
    sigma with the last entry by entry; a change builds a new cell frame,
    ends the current block of cells and runs the cell by the recursion (see
    the module docstring), so a sigma that changes with x or t runs every
    cell that way.
    """

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
    """The Euler loop of both schemes; `reflected` picks the recursion a
    fallback cell runs."""
    if not (steps >= 1 and 0.0 < horizon < math.inf):
        raise ValueError(f"need steps >= 1 and 0 < horizon < inf, got "
                         f"steps={steps}, horizon={horizon}")
    draws = _CellDraws(rng, steps)
    x = wedge.place(start).cartesian()  # the cell's start, input frame
    log_w = 0.0
    folds = 0
    approx = False
    frame_sigma = None
    for k in range(steps):
        t_k = horizon * k / steps
        dt = (horizon * (k + 1) / steps if k + 1 < steps else horizon) - t_k
        b_k = coeffs.drift(x, t_k)
        (a, b), (c, d) = s_k = coeffs.diffusion(x, t_k)
        # the frame depends on sigma alone: keep it while sigma is unchanged
        # (compared entry by entry, so any 2x2 sequence, arrays too, works)
        if (a, b, c, d) != frame_sigma:
            frame_sigma = (a, b, c, d)
            fwd, bwd, cell_wedge = standard_frame(s_k, wedge)
            pos = mat_vec(fwd, x)  # the cell's start, cell frame
            # the frame's first cell runs the recursion, whatever its triple
            # (so any turn of its normals will do), and blocks start after
            # it: a sigma that changes with the state changes the frame at
            # every cell, where a block would hold one cell
            plain, base, j = (False,), (0.0,), 0
        b_cell = mat_vec(fwd, b_k)  # mu (x - kappa) can overflow mid-path
        if not (math.isfinite(b_cell[0]) and math.isfinite(b_cell[1])):
            raise ValueError(f"drift must be a finite 2-vector, got {b_cell}")
        if j == len(plain):
            plain, base, ends = _block(draws, pos, k, min(_BLOCK, steps - k),
                                       horizon, steps, cell_wedge.opening,
                                       reflected, epsilon)
            j = 0
        if plain[j]:
            end = ends[j + 1]
            log_w += girsanov_log_weight(b_cell, end, dt, pos)
            folds += 1
            j += 1
        else:
            # round-off can put a point on a ray a hair off it
            cell_start = cell_wedge.place(PolarPoint.from_cartesian(*pos))
            draws.replay(k, base[j])
            if reflected:
                sub = algorithm_reflected(cell_start, dt, cell_wedge, draws,
                                          epsilon=epsilon, fold_cap=fold_cap)
            else:
                sub = algorithm_stopped(cell_start, dt, cell_wedge, draws,
                                        iteration_cap=fold_cap)
            # a reflected sub-path always runs the whole cell: elapsed == dt
            log_w += girsanov_log_weight(b_cell, sub.driving_endpoint,
                                         sub.elapsed, cell_start.cartesian())
            end = sub.cartesian_endpoint()
            folds += sub.folds
            approx = approx or sub.approx_used
            if sub.hit_boundary:
                return PathSample(
                    endpoint=PolarPoint.from_cartesian(*mat_vec(bwd, end)),
                    elapsed=t_k + sub.elapsed, hit_boundary=True, folds=folds,
                    weight=math.exp(log_w), approx_used=approx)
            plain, j = (), 0  # the block's later cells start elsewhere
        pos = end
        x = mat_vec(bwd, pos)
    return PathSample(endpoint=PolarPoint.from_cartesian(*x),
                      elapsed=horizon, hit_boundary=False, folds=folds,
                      weight=math.exp(log_w), approx_used=approx)


def _block(draws, pos, k, n, horizon, steps, alpha, reflected, epsilon):
    """Cells k .. k + n - 1 run in one frame from pos, the start of cell k,
    each to its free endpoint: (plain flags, first-pass bases, the n + 1
    cell starts and ends as [x, y]), as lists; see samplers._plain_cells."""
    triples = draws.block(k, n)
    t = horizon * np.arange(k, k + n + 1) / steps
    if k + n == steps:
        t[-1] = horizon
    dt = t[1:] - t[:-1]
    # the start goes first, so each sum adds one cell's step to the start
    # of that cell, as a cell-by-cell loop would
    ends = np.empty((n + 1, 2))
    ends[0] = pos
    np.multiply(np.sqrt(dt)[:, None], triples[:, :2], out=ends[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(ends, axis=0, out=ends)
        plain, base = _plain_cells(ends[:, 0], ends[:, 1], dt, triples[:, 2],
                                   alpha, reflected, epsilon)
    return plain.tolist(), base.tolist(), ends.tolist()


class _CellDraws:
    """The variates of one Euler path's cells, and the stream that its
    fallback cells draw from.

    Cell k's triple is uniforms 3k, 3k + 1 and 3k + 2 of the path's
    stream, the first two turned into normals by the inverse normal CDF;
    `block` draws them as far ahead as a block needs. A fallback cell's
    recursion draws from this object after `replay`: its first two normals
    are the cell's own, turned into the frame of the recursion's first
    pass, its first uniform is the cell's own, and every later draw comes
    from one side stream of the path, derived on first use.
    """

    def __init__(self, rng, cells):
        self._rng = rng
        self._cells = cells  # the path's
        self._side = None
        self._first = 0  # the cell of the first triple held
        self._triples = np.empty((0, 3))
        self._normals = []
        self._uniforms = []

    def block(self, k, n):
        """The (n, 3) array of the triples of cells k .. k + n - 1; a draw
        takes at least a block's worth, if the path has that many cells."""
        held = self._triples[k - self._first:]
        if len(held) < n:
            short = min(max(n, _BLOCK), self._cells - k) - len(held)
            fresh = self._rng.uniforms(3 * short).reshape(short, 3)
            fresh[:, :2] = ndtri(fresh[:, :2])
            self._triples, self._first = np.concatenate((held, fresh)), k
            held = self._triples
        return held[:n]

    def replay(self, k, base):
        """Serve cell k's triple to its recursion, whose first pass runs in
        the cell frame turned by -base."""
        n1, n2, u = self.block(k, 1)[0].tolist()
        c, s = math.cos(base), math.sin(base)
        self._normals = [c * n2 - s * n1, c * n1 + s * n2]  # x is drawn first
        self._uniforms = [u]

    def normal(self):
        return self._normals.pop() if self._normals else self._stream().normal()

    def uniform(self):
        return self._uniforms.pop() if self._uniforms else self._stream().uniform()

    def exponential(self):
        return self._stream().exponential()

    def _stream(self):
        if self._side is None:
            self._side = self._rng.derive(0)
        return self._side
