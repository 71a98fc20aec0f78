"""Drifted sampling: Girsanov reweighting and wedge-aware Euler schemes.

Constant drift b is handled exactly: the driftless sampler runs and the path
is weighted by the change-of-measure factor

    exp( b . (W_end - W_start) - |b|^2 elapsed / 2 )

evaluated on the driving Brownian motion. Using the displacement rather than
the raw endpoint makes the weight a mean-one martingale regardless of where
the path starts. `girsanov_log_weight` is that factor's one definition:
`montecarlo.map_paths` weights every exact path with it (zero drift gives
weight 1 exactly), and each Euler cell below adds its own.

Mean-reverting drift, the field of `linear_field`, goes through a
frozen-coefficient Euler scheme on the uniform grid of `steps` cells over
[0, horizon]: on each cell the drift is frozen at the left endpoint, and
the exact drifted sampler runs on the sub-interval in standard-Brownian
wedge coordinates. The field's diffusion sigma is constant, so one frame,
`geometry.standard_frame` of sigma (its inverse, plus a rotation bringing
the lower ray image to angle zero), serves every cell of every path of an
`euler_paths` call. For the reflected variant the reflection is normal in
that decorrelated frame, which coincides with normal reflection in the
original frame whenever sigma is a scalar multiple of a rotation (in
particular for identity diffusion).

How cells run. Cell k owns one triple of variates, uniforms 3k to 3k + 2 of
the path's stream: two normals (by the inverse normal CDF) and the uniform
of its first survivor trial. A cell is plain when the recursion would end
it at its free endpoint, its start plus sqrt(dt) times its normals, after
one kept survivor trial with no fold (`samplers._plain_cells`); it just
moves there and adds its Girsanov factor. Every other cell, a fallback,
runs `algorithm_stopped` or `algorithm_reflected` on its own triple, its
normals turned into the frame of its first pass, so that the recursion
proposes the very endpoint the plain test refused; whatever else it draws
comes from one side stream of the path, derived on first use. Either way a
cell uses its own triple, independent of everything before it, so every
cell is exact.

Each pass of the path's loop moves one fallback cell, at whose start the
field's scalar drift is evaluated, then the run of plain cells after it.
The path's first cell is its first fallback, its normals unturned: a
convention of the stream, which the golden digests pin. A block takes the
triples of the next _BLOCK cells at once, places their free endpoints by a
cumulative sum from the block's start, and asks `samplers._plain_cells`
for the length of the plain run that starts it and the first-pass base of
the fallback after it. The loop takes blocks while a whole block is plain,
so the path does not depend on where blocks end. A block tests every
cell's geometry, but makes the survivor trial's image sums only for the
cells before the first that fails it, and not for those that a certified
screen shows to be exactly 1 (`samplers._sure_survivors`), which at 5000
steps is most of them; the sums hold at most `samplers._IMAGE_CAP` terms
at once, whatever the opening.

`_run_log_weight` takes each run whole, whatever its length: the
input-frame starts, the drift at each (the field's `drift`, given the
array of them), its cell-frame form and each cell's Girsanov term are
arrays, made by the IEEE operations of `mat_vec`, the drift and
`girsanov_log_weight` in their order, and the terms are added to the
log-weight one at a time, in cell order. So every sampled float is the
one a cell by cell loop gives; the tests hold every run to such a loop.

`euler_paths` has the shape of `lanes.stopped_paths` and
`lanes.reflected_paths`: a seed and path indices in, a `PathColumns`
record of the paths out. Each path ends as one tuple of its column
entries, at the horizon, at a boundary hit or, faulted, in a cell whose
recursion passes fold_cap; its endpoint is the `PolarPoint` of its
input-frame point, and it has no driving endpoint.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .geometry import PolarPoint, mat_vec, standard_frame
from .rng import RngStream
from .samplers import (FoldCapExceeded, PathColumns, _plain_cells,
                       algorithm_reflected, algorithm_stopped)

_BLOCK = 256  # cells a block draws and tries at once; paths do not depend on it


def girsanov_log_weight(b, driving_endpoint, elapsed, start):
    """Log of the reweighting factor of constant drift b, a 2-tuple, for one
    path: b . (W_end - W_start) - |b|^2 elapsed / 2, where driving_endpoint
    and start are the end and start of the driving Brownian motion. Given
    arrays of driving endpoints (x over y) and of elapsed times, it gives
    the array of the paths' factors, each the float of its own call.
    """
    if (elapsed < 0).any() if isinstance(elapsed, np.ndarray) else elapsed < 0:
        raise ValueError(f"elapsed must be nonnegative, got {elapsed}")
    bx, by = b
    dx = driving_endpoint[0] - start[0]
    dy = driving_endpoint[1] - start[1]
    return bx * dx + by * dy - 0.5 * (bx * bx + by * by) * elapsed


# ---------------------------------------------------------------------------
# Euler schemes
# ---------------------------------------------------------------------------

def linear_field(mu, kappa, sigma):
    """The mean-reverting family dY = -mu * (Y - kappa) dt + sigma dW
    (componentwise mu), with a constant diffusion matrix."""
    return _LinearField(tuple(mu), tuple(kappa),
                        tuple(tuple(row) for row in sigma))


@dataclass(frozen=True)
class _LinearField:
    """The field of `linear_field`: its constant diffusion `sigma` and its
    drift at a point x. Given a (2, n) array of n points, x over y, `drift`
    gives the pair of arrays of their drifts, each float that of its own
    point's call."""

    mu: tuple
    kappa: tuple
    sigma: tuple

    def drift(self, x):
        mu, kappa = self.mu, self.kappa
        return (-mu[0] * (x[0] - kappa[0]), -mu[1] * (x[1] - kappa[1]))


def check_grid(horizon, steps):
    """Refuse, naming T and steps, a grid of `steps` cells over [0, horizon]
    with a point that is not finite or a cell of length 0. Within these
    bounds each point horizon * k / steps past 0 is a normal float rounded
    twice, by at most 2**-53 of itself each time, and neighbours lie
    horizon / steps > horizon * 2**-51 apart."""
    if not (1 <= steps < 2 ** 51 and 0.0 < horizon < math.inf
            and horizon / steps >= sys.float_info.min
            and horizon * steps < math.inf):
        raise ValueError(f"an Euler grid needs 1 <= steps < 2**51, 0 < T, "
                         f"T / steps >= {sys.float_info.min} and T * steps "
                         f"< inf; got T={horizon}, steps={steps}")


def euler_paths(field, start, horizon, steps, wedge, seed, indices,
                reflected, epsilon, fold_cap):
    """Paths `indices` of `seed` of the Euler scheme of `field`, a
    `linear_field`, as a `PathColumns` record in index order, with no
    driving endpoints; path i draws from `RngStream(seed).derive(i)`.

    start is a PolarPoint in the wedge; cell k of the `steps` cells starts
    at horizon * k / steps and the last ends at horizon. A stopped path ends
    at the exact hit state of its first cell that hits the boundary; a
    reflected one reflects in the frame of sigma, with corner threshold
    epsilon. The weight holds the cells' Girsanov factors, and the endpoint
    is `PolarPoint.from_cartesian` of the input-frame one. A cell past
    fold_cap passes ends its path, faulted, with the path's state where the
    cell's recursion stopped: its clock and folds, the weight of the cells
    before, and its point in the input frame. The grid goes through
    `check_grid` before any path.
    """
    check_grid(horizon, steps)
    x = wedge.place(start).cartesian()
    fwd, bwd, cell_wedge = standard_frame(field.sigma, wedge)
    # the columns of bwd and fwd, as (2, 1) arrays, for runs of cells
    columns = np.array((bwd, fwd)).transpose(0, 2, 1)[..., None]
    frame = fwd, bwd, cell_wedge, columns
    root = RngStream(seed)
    rows = [_euler(field, frame, x, horizon, steps, root.derive(i), reflected,
                   epsilon, fold_cap) for i in indices]
    # flags and fold counts pass through the float array exactly
    r, theta, elapsed, hit, folds, faulted, approx, weight = np.array(
        rows, dtype=float).reshape(len(rows), 8).T
    return PathColumns(r=r, theta=theta, elapsed=elapsed, hit=hit == 1.0,
                       folds=folds.astype(int), faulted=faulted == 1.0,
                       approx=approx == 1.0, weight=weight,
                       driving=np.full((2, len(rows)), math.nan))


def _euler(field, frame, x, horizon, steps, rng, reflected, epsilon,
           fold_cap):
    """One Euler path from x (input frame), drawn from rng, as the tuple
    (r, theta, elapsed, hit, folds, faulted, approx, weight) of its
    `PathColumns` entries. `frame` is (fwd, bwd, cell wedge, columns)
    of `euler_paths`; `reflected` picks the recursion a fallback cell runs."""
    fwd, bwd, cell_wedge, columns = frame
    draws = _CellDraws(rng, steps)
    pos = mat_vec(fwd, x)  # the cell's start, cell frame
    log_w = 0.0
    folds = 0
    approx = False

    def ending(xy, elapsed, hit=False, faulted=False):
        # the path's state as it ends at xy, input frame: its folds, the
        # weight of its cells and whether any used the corner ending
        end = PolarPoint.from_cartesian(*xy)
        return (end.r, end.theta, elapsed, hit, folds, faulted, approx,
                math.exp(log_w))

    # the first cell is the first fallback, its normals unturned (base 0)
    # and its drift taken at x as given: a convention of the stream, which
    # EULER_TABLE3_DIGEST pins
    k, base = 0, 0.0
    while k < steps:
        t_k = horizon * k / steps
        dt = (horizon * (k + 1) / steps if k + 1 < steps else horizon) - t_k
        b_cell = mat_vec(fwd, field.drift(x))  # mu (x - kappa) can overflow
        if not (math.isfinite(b_cell[0]) and math.isfinite(b_cell[1])):
            raise _drift_error(b_cell)
        # round-off can put a point on a ray a hair off it
        cell_start = cell_wedge.place(PolarPoint.from_cartesian(*pos))
        draws.replay(k, base)
        try:
            if reflected:
                sub = algorithm_reflected(cell_start, dt, cell_wedge, draws,
                                          epsilon=epsilon, fold_cap=fold_cap)
            else:
                sub = algorithm_stopped(cell_start, dt, cell_wedge, draws,
                                        iteration_cap=fold_cap)
        except FoldCapExceeded as fault:
            # the path's state, not the cell's: the earlier cells' weight,
            # and the cell's partial state on the path's clock and folds,
            # in the input frame
            cell = fault.partial
            folds += cell.folds
            return ending(mat_vec(bwd, cell.cartesian_endpoint()),
                          t_k + cell.elapsed, faulted=True)
        # a reflected sub-path always runs the whole cell: elapsed == dt
        log_w += girsanov_log_weight(b_cell, sub.driving_endpoint,
                                     sub.elapsed, cell_start.cartesian())
        pos = sub.cartesian_endpoint()
        folds += sub.folds
        approx = approx or sub.approx_used
        if sub.hit_boundary:
            return ending(mat_vec(bwd, pos), t_k + sub.elapsed, hit=True)
        k += 1
        # then the plain cells after it, while a whole block is plain
        run = size = 0
        while run == size and k < steps:
            size = min(_BLOCK, steps - k)
            run, base, cells = _block(draws, pos, k, size, horizon, steps,
                                      cell_wedge.opening, reflected, epsilon)
            if run:
                log_w = _run_log_weight(log_w, field.drift, columns, cells,
                                        run)
                folds += run
                k += run
                pos = cells[0][:, run].tolist()
        x = mat_vec(bwd, pos)
    return ending(x, horizon)


def _drift_error(b_cell):
    return ValueError(f"drift must be a finite 2-vector, got {b_cell}")


def _run_log_weight(log_w, drift_at, columns, cells, e):
    """log_w plus the Girsanov terms of plain cells 0 .. e - 1 of a block,
    added one at a time in cell order. `columns` holds the columns of the
    frame's backward and forward matrices as (2, 1) arrays, and `cells` the
    block's cell starts and ends, as a (2, n + 1) array, and its cell
    lengths. Each term is the float of `girsanov_log_weight` at the cell's
    drift (the field's drift at its start mapped back by bwd, then mapped
    by fwd), from the same operations in the same order, and a drift that
    is not finite raises `_drift_error` at the first such cell."""
    ends, dt = cells
    starts = ends[:, :e]
    (a, b), (c, d) = columns
    with np.errstate(over="ignore", invalid="ignore"):
        drift = drift_at(a * starts[0] + b * starts[1])  # input frame
        drift = c * drift[0] + d * drift[1]  # cell frame
        moved = drift * (ends[:, 1:e + 1] - starts)
        sq = drift * drift
        terms = moved[0] + moved[1] - 0.5 * (sq[0] + sq[1]) * dt[:e]
    for term in terms.tolist():
        log_w += term
    # a drift that is not finite makes its term, and so the sum, not finite
    if not math.isfinite(log_w):
        bad = ~(np.isfinite(drift[0]) & np.isfinite(drift[1]))
        if bad.any():
            i = int(np.argmax(bad))
            raise _drift_error((float(drift[0, i]), float(drift[1, i])))
    return log_w


def _block(draws, pos, k, n, horizon, steps, alpha, reflected, epsilon):
    """Cells k .. k + n - 1 run in one frame from pos, the start of cell k,
    each to its free endpoint: the number of plain cells that start the
    block, the first-pass base of the cell after them (see
    samplers._plain_cells), and (all n + 1 starts and ends as a
    (2, n + 1) array, the cell lengths)."""
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
        run, base = _plain_cells(ends[:, 0], ends[:, 1], dt, triples[:, 2],
                                 alpha, reflected, epsilon)
    return run, base, (ends.T, dt)


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
