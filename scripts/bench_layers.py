"""Per-layer timings of wedgebm, in microseconds per call.

Run from the root of a source checkout:

    PYTHONPATH=src python3 scripts/bench_layers.py [--out BENCH_<n>.json]

The figures go to stdout; --out also writes the JSON record to that file.

Every layer runs on fixed inputs drawn from fixed seeds, so each repeat does
the same work. A layer's figure is the median over repeats of its mean time
per call. The geometry is the Table 1 and Table 3 one: opening 0.9 (passes
in its pi/4 sub-wedge), start (1.5, 0.3); the Euler rows use the `ito
--table3-*` parameters and their cell length dt = 1/5000 (`drift.*_cell_us`,
60 paths, the reflected and the stopped scheme taking turns path by path),
and again on a 20-step grid (`drift.*_cell_us_20steps`, 250 paths, the
schemes taking turns every 25 paths), where most runs of plain cells are
short. The corner draw runs from radius 0.05 with time 1 left, as in a
first-pass corner ending.

The lane layers time what the exact modes run: a refill of the Philox
streams of 1000 lanes (ns per double) and of the 8 lanes of a batch's tail
(us per refill), 16 blocks a lane, and one batch of 1000 paths of each
Table 1 recursion (us per path, the batch's time over its paths): stopped
at T = 1, reflected at eps 0.03, and the exact-mode fold row (eps 0, fold
cap 150). For each batch they also count the requests of the conditional
exit draw (a round, or up to 4 rounds drawn ahead for a few pending lanes)
per pass that draws one. A batch's tail runs pass after pass for a few
lanes: `lanes.*_pass_us` time one 8-lane batch of the reflected and the
exact-mode fold row (us per pass, the batch's time over its last lane's
passes, 40 batches a repeat). And a path run as a batch of one lane
(`lanes.one_lane_reflected_path_us`) is set beside the scalar recursion on
its own stream (`samplers.scalar_reflected_path_us`, `derive` included),
400 reflected paths at eps 0.03 from the Table 1 start.

The reduction (`montecarlo.reduce_us_per_path`) is what `estimate` does
after the engine: the Girsanov weights, the endpoints in the input frame,
the test function and the sums, per path, on the columns of one batch of
1000 paths of the Table 1 reflected row under drift (0.3, -0.2), which the
engine hands back again on every call.

The JSON record holds the figures, the seed, the repeat count, the number of
cores this process may run on and the Python, numpy and scipy versions.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import replace

import numpy as np
import scipy

from wedgebm import lanes, montecarlo
from wedgebm.corner import sample_corner
from wedgebm.densities import killed_density_series
from wedgebm.drift import euler_paths, linear_field
from wedgebm.geometry import PolarPoint, WedgeSpec
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, estimate
from wedgebm.rng import LANE_BUFFER, LaneDraws, RngStream
from wedgebm.samplers import (_exit_draw, _pass_plan, _survivor_trial,
                              algorithm_reflected)

SEED = 16
WEDGE = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)
STEPS = 5000
DT = 1.0 / STEPS
FIELD = linear_field((0.1, 0.2), (0.7, 0.5), ((1.0, 0.0), (0.0, 1.0)))
LANES = 1000
LANE_BATCHES = {
    "stopped": lambda: lanes.stopped_paths(START, 1.0, WEDGE, SEED,
                                           range(LANES), 10 ** 6),
    "reflected": lambda: lanes.reflected_paths(START, 1.0, WEDGE, SEED,
                                               range(LANES), 0.03, 10 ** 6),
    "exact_folds": lambda: lanes.reflected_paths(START, 1.0, WEDGE, SEED,
                                                 range(LANES), 0.0, 150),
}
TAIL_LANES = 8
TAIL_BATCHES = {"reflected": 0.03, "exact_folds": 0.0}
ONE_LANE_PATHS = 400


def _per_call_us(run, calls, repeats):
    """Median over repeats of the mean microseconds per call of run(i)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            run(i)
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def exit_rounds_per_pass(batch):
    """Exit-draw requests per exit draw (one per pass that draws one) of a
    lane batch, counted by wrapping the draw and the lane streams."""
    counts = {"draws": 0, "rounds": 0, "inside": False}
    draw, take = lanes._exit_draw, LaneDraws.take

    def counted_draw(*args):
        counts["draws"] += 1
        counts["inside"] = True
        try:
            return draw(*args)
        finally:
            counts["inside"] = False

    def counted_take(self, lane_ids, j):
        counts["rounds"] += counts["inside"]
        return take(self, lane_ids, j)

    lanes._exit_draw, LaneDraws.take = counted_draw, counted_take
    try:
        batch()
    finally:
        lanes._exit_draw, LaneDraws.take = draw, take
    return counts["rounds"] / counts["draws"]


def refill_us(n, calls, repeats):
    """us per refill of the LANE_BUFFER uniforms of n lanes."""
    draws, ids = LaneDraws(SEED, range(n)), np.arange(n)

    def refill(_i):
        draws._at[:] = LANE_BUFFER  # every buffer empty
        draws.take(ids, 1)
    return _per_call_us(refill, calls, repeats)


def reduce_us(repeats):
    """us per path from a batch's columns to its McReport: `estimate` of
    the drifted Table 1 reflected row at LANES paths (one batch), its
    engine handing back the columns it returned once."""
    config = EstimatorConfig(mode=Mode.REFLECTED, func=TestFunction.RADIUS_SQ,
                             horizon=1.0, n_samples=LANES, seed=SEED,
                             wedge=WEDGE, start=START, drift=(0.3, -0.2))
    batch = montecarlo.reflected_paths(START, 1.0, WEDGE, SEED, range(LANES),
                                       0.03, 10 ** 6)
    engine = montecarlo.reflected_paths
    # a fresh record each call: map_paths sets the weights and the endpoint
    montecarlo.reflected_paths = lambda *_args, **_kwargs: replace(
        batch, weight=batch.weight.copy())
    try:
        return _per_call_us(lambda _i: estimate(config), 20, repeats) / LANES
    finally:
        montecarlo.reflected_paths = engine


def lane_layers(repeats):
    out = {}
    out["lanes.philox_ns_per_double"] = 1e3 * refill_us(
        LANES, 20, repeats) / (LANES * LANE_BUFFER)
    out["lanes.tail_refill_us"] = refill_us(8, 2000, repeats)
    for name, batch in LANE_BATCHES.items():
        out[f"lanes.{name}_path_us"] = _per_call_us(
            lambda _i: batch(), 1, repeats) / LANES
        out[f"lanes.{name}_exit_rounds_per_pass"] = exit_rounds_per_pass(batch)
    for name, epsilon in TAIL_BATCHES.items():
        def tail(_i, epsilon=epsilon):
            return lanes.reflected_paths(START, 1.0, WEDGE, SEED,
                                         range(TAIL_LANES), epsilon, 150)
        passes = int(tail(0).folds.max())
        out[f"lanes.{name}_pass_us"] = _per_call_us(tail, 40, repeats) / passes
    out["montecarlo.reduce_us_per_path"] = reduce_us(repeats)
    root = RngStream(SEED)
    out["lanes.one_lane_reflected_path_us"] = _per_call_us(
        lambda i: lanes.reflected_paths(START, 1.0, WEDGE, SEED, [i], 0.03,
                                        10 ** 6),
        ONE_LANE_PATHS, repeats)
    out["samplers.scalar_reflected_path_us"] = _per_call_us(
        lambda i: algorithm_reflected(START, 1.0, WEDGE, root.derive(i),
                                      epsilon=0.03, fold_cap=10 ** 6),
        ONE_LANE_PATHS, repeats)
    return out


def layers(repeats):
    plan = _pass_plan(WEDGE.opening)
    theta_cap, m, sub, mid_images = (plan.theta_cap, plan.m, plan.sub,
                                     plan.mid_images)
    rel = PolarPoint(START.r, theta_cap / 2.0)  # a reflected pass's start
    root = RngStream(SEED)
    out = {}
    out["rng.derive_us"] = _per_call_us(root.derive, 2000, repeats)

    def draws(fn, calls):
        def run(_i, rng=RngStream(SEED)):
            fn(rng)
        return _per_call_us(run, calls, repeats)

    for name, t in (("dt", DT), ("t1", 1.0)):
        out[f"samplers.survivor_trial_{name}_us"] = draws(
            lambda rng, t=t: _survivor_trial(rel, sub, m, mid_images, t, rng), 5000)
    for name, t in (("dt", DT), ("tinf", math.inf)):
        out[f"samplers.exit_draw_{name}_us"] = draws(
            lambda rng, t=t: _exit_draw(rel, t, sub, m, rng), 5000)
    out["corner.sample_us"] = draws(
        lambda rng: sample_corner(0.05, 1.0, WEDGE.opening, rng), 5000)

    def cells(steps, paths, group):
        """us per cell of each scheme over Euler paths 0 .. paths - 1, the
        schemes taking turns every `group` paths, so that both see the same
        machine; a stopped path ends at its hit."""
        took, ran = {True: 0.0, False: 0.0}, {True: 0, False: 0}
        for lo in range(0, paths, group):
            for reflected in (True, False):
                t0 = time.perf_counter()
                rows = euler_paths(FIELD, START, 1.0, steps, WEDGE, SEED,
                                   range(lo, lo + group), reflected, 0.01,
                                   10 ** 6)
                took[reflected] += time.perf_counter() - t0
                ran[reflected] += int(np.where(
                    rows.hit, np.ceil(rows.elapsed * steps), steps).sum())
        return {reflected: took[reflected] / ran[reflected] * 1e6
                for reflected in took}

    out.update(lane_layers(repeats))
    for suffix, steps, paths, group in (("", STEPS, 60, 1),
                                        ("_20steps", 20, 250, 25)):
        runs = [cells(steps, paths, group) for _ in range(repeats)]
        for reflected, name in ((True, "reflected"), (False, "stopped")):
            out[f"drift.{name}_cell_us{suffix}"] = statistics.median(
                run[reflected] for run in runs)

    targets = [PolarPoint(0.5 + 0.25 * i, 0.9 * (j + 0.5) / 6)
               for i in range(8) for j in range(6)]
    out["densities.series_t1_us"] = _per_call_us(
        lambda i: killed_density_series(WEDGE, targets[i % len(targets)], START, 1.0),
        480, repeats)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="also write the JSON record here")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    record = {
        "seed": SEED,
        "repeats": args.repeats,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "layers_us": layers(args.repeats),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    json.dump(record["layers_us"], sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
