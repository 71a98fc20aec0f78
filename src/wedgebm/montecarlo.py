"""Monte Carlo harness: configuration, the path engine, estimation, fold
diagnostics.

`map_paths` cuts the path indices of a configuration into batches of
LANE_BATCH and hands each batch to the engine of its mode:
`lanes.stopped_paths` and `lanes.reflected_paths` run the exact modes as
numpy lanes, and `drift.euler_paths` runs the Euler modes one path after
another. Each takes the seed and a batch's indices and returns the batch
as a `samplers.PathColumns` record, a numpy array per field over its
paths, path i drawing from its own stream of the seed; a path past its
fold cap comes back faulted, with its partial state. A worker thread runs
one batch at a time. `map_paths` joins the batches in index order, and
`estimate`, `folding_stats` and the `sample-*` commands reduce those
columns: the test functions are array expressions, and every sum is a
`math.fsum` over the paths in index order, so no Python object is made
per path. So results are byte-reproducible for a fixed (config, seed)
however the paths are batched and however many workers run them.
"""

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from numbers import Integral

import numpy as np

from .drift import (check_grid, euler_paths, girsanov_log_weight,
                    linear_field)
from .geometry import PolarPoint, WedgeSpec, mat_vec, standard_frame
from .lanes import reflected_paths, stopped_paths
from .samplers import DEFAULT_EPSILON, DEFAULT_FOLD_CAP, PathColumns

IDENTITY = ((1.0, 0.0), (0.0, 1.0))

# paths one batch of lanes runs; the results do not depend on it, and a
# batch's working memory is bounded by it, not by the number of paths
LANE_BATCH = 1024


class Mode(Enum):
    STOPPED = "stopped"
    REFLECTED = "reflected"
    EULER_STOPPED = "euler_stopped"
    EULER_REFLECTED = "euler_reflected"


class TestFunction(Enum):
    __test__ = False  # keep pytest from trying to collect this
    RADIUS_SQ = "radius_sq"
    SIN_SQ_THETA = "sin_sq_theta"
    COORD_1 = "coord_1"
    INDICATOR_SURVIVAL = "indicator_survival"
    CONSTANT_1 = "constant_1"
    ELAPSED_TIME = "elapsed_time"


def apply_test_function(func, x, y, elapsed, hit):
    """The values of `func` at the paths whose input-frame endpoints are
    (x, y), their elapsed times and hit flags (arrays over the paths)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if func is TestFunction.RADIUS_SQ:
            return x * x + y * y
        if func is TestFunction.SIN_SQ_THETA:
            # the squares overflow past |x| ~1.3e154: there, by hypot
            r2 = x * x + y * y
            return np.where(r2 == 0.0, 0.0, np.where(
                r2 < math.inf, y * y / r2, (y / np.hypot(x, y)) ** 2))
    if func is TestFunction.COORD_1:
        return x
    if func is TestFunction.INDICATOR_SURVIVAL:
        return np.where(hit, 0.0, 1.0)
    if func is TestFunction.CONSTANT_1:
        return np.ones(len(x))
    if func is TestFunction.ELAPSED_TIME:
        return elapsed
    raise ValueError(f"unknown test function {func}")


class FaultFractionExceeded(RuntimeError):
    """More than the tolerated fraction of paths faulted; carries counts."""

    def __init__(self, message, n_faults, n_samples):
        super().__init__(message)
        self.n_faults = n_faults
        self.n_samples = n_samples


@dataclass(frozen=True)
class EstimatorConfig:
    mode: Mode
    func: TestFunction
    horizon: float
    n_samples: int
    seed: int
    wedge: WedgeSpec = None
    start: PolarPoint = None
    setup: object = None  # CorrelatedSetup, in place of wedge and start
    drift: tuple = (0.0, 0.0)  # constant drift, in the input frame
    epsilon: float = DEFAULT_EPSILON
    fold_cap: int = DEFAULT_FOLD_CAP
    steps: int = 0
    mu: tuple = (0.0, 0.0)
    kappa: tuple = (0.0, 0.0)
    workers: int = 1

    def __post_init__(self):
        for name in ("n_samples", "seed", "steps", "fold_cap", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.mode is Mode.REFLECTED and not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be positive and finite, got "
                             f"{self.horizon}")
        if not self.epsilon >= 0:  # NaN included
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.fold_cap < 1:
            raise ValueError(f"fold_cap must be at least 1, got {self.fold_cap}")
        if self.setup is None and (self.wedge is None or self.start is None):
            raise ValueError("either a correlated setup or wedge+start is required")
        if self.setup is not None and (self.wedge is not None
                                       or self.start is not None):
            raise ValueError("give a correlated setup or a wedge and a start, "
                             "not both")
        if self.mode in (Mode.EULER_STOPPED, Mode.EULER_REFLECTED):
            check_grid(self.horizon, self.steps)
            if any(self.drift):
                raise ValueError("Euler modes take drift through mu and kappa; "
                                 "a constant drift would be ignored")
        elif self.steps or any(self.mu) or any(self.kappa):
            raise ValueError("steps, mu and kappa belong to the Euler modes; "
                             "an exact mode would ignore them")
        for name in ("drift", "mu", "kappa"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not all(map(math.isfinite, pair)):
                raise ValueError(f"{name} must be a finite 2-vector, got {pair}")
        # a finite drift can overflow through the decorrelating map
        drift = run_frame(self)[2]
        if not all(map(math.isfinite, drift)):
            raise ValueError(f"drift must be a finite 2-vector in the frame "
                             f"the paths run in, got {drift}")


def run_frame(config):
    """The coordinates the paths of `config` run in: (wedge, start, drift,
    sigma, backward), where sigma is the noise factor and backward maps an
    endpoint back to the input frame (None when they coincide).

    A correlated setup in an exact mode runs in the standard frame of
    (setup.sigma, setup.wedge), with its start and config.drift mapped
    forward. sigma^{-1} keeps the x-axis, so that frame needs no rotation;
    scripts/oracles/decorrelation_reference.py derives and checks the closed
    forms of its opening. An Euler run, which has no constant drift, stays in
    the setup's frame with noise setup.sigma, and `drift.euler_paths`
    decorrelates it in the standard frame of setup.sigma.
    """
    setup = config.setup
    if setup is None:
        return config.wedge, config.start, config.drift, IDENTITY, None
    if config.mode in (Mode.EULER_STOPPED, Mode.EULER_REFLECTED):
        return (setup.wedge, PolarPoint.from_cartesian(*setup.x0),
                config.drift, setup.sigma, None)
    fwd, bwd, wedge = standard_frame(setup.sigma, setup.wedge)
    start = wedge.place(PolarPoint.from_cartesian(*mat_vec(fwd, setup.x0)))
    return wedge, start, mat_vec(fwd, config.drift), IDENTITY, bwd


@dataclass(frozen=True)
class McReport:
    estimate: float
    half_width_95: float
    n_samples: int
    n_faults: int
    mean_folds: float
    mean_weight: float
    ess: float
    wall_time_seconds: float
    seed: int


def map_paths(config):
    """The `PathColumns` of every path of `config`, in index order, with x
    and y, each endpoint mapped back to the input frame (r, theta and the
    driving endpoint stay in the frame the paths ran in).

    An exact path that did not fault is weighted by the Girsanov factor of
    the constant drift, `math.exp` of its log; zero drift leaves every
    weight 1.0 and reads no driving endpoint. Path i's draws depend on the
    seed and i alone, so the columns depend neither on LANE_BATCH nor on
    config.workers.
    """
    wedge, start, drift, sigma, backward = run_frame(config)
    start = wedge.place(start)  # the driving motion starts where the path does
    n, seed, T = config.n_samples, config.seed, config.horizon
    if config.mode is Mode.STOPPED:
        run = partial(stopped_paths, start, T, wedge, seed,
                      iteration_cap=config.fold_cap)
    elif config.mode is Mode.REFLECTED:
        run = partial(reflected_paths, start, T, wedge, seed,
                      epsilon=config.epsilon, fold_cap=config.fold_cap)
    else:
        # the weights are the Girsanov factors of the paths' cells
        run = partial(euler_paths,
                      linear_field(config.mu, config.kappa, sigma), start, T,
                      config.steps, wedge, seed,
                      reflected=config.mode is Mode.EULER_REFLECTED,
                      epsilon=config.epsilon, fold_cap=config.fold_cap)
    jobs = [range(lo, min(lo + LANE_BATCH, n))
            for lo in range(0, n, LANE_BATCH)]
    if config.workers <= 1:
        parts = list(map(run, jobs))
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(run, jobs))
    paths = PathColumns.join(parts)
    exact = config.mode in (Mode.STOPPED, Mode.REFLECTED)
    if exact and any(drift):
        kept = ~paths.faulted
        with np.errstate(over="ignore", invalid="ignore"):
            log_w = girsanov_log_weight(drift, paths.driving[:, kept],
                                        paths.elapsed[kept], start.cartesian())
        paths.weight[kept] = [math.exp(v) for v in log_w.tolist()]
    paths.x = paths.r * np.cos(paths.theta)
    paths.y = paths.r * np.sin(paths.theta)
    if backward is not None:
        paths.x, paths.y = mat_vec(backward, (paths.x, paths.y))
    return paths


def estimate(config):
    """Run the configured Monte Carlo estimate and return an McReport.

    Faulted paths (recursion cap) are excluded from the estimate and
    counted; more than 10% of them aborts the run. Kept paths whose weights
    are all 0, and an estimate or half-width that overflows, are a
    ValueError. Every sum is `math.fsum` over the kept paths in index order.
    """
    t0 = time.perf_counter()
    func = config.func
    paths = map_paths(config)
    n = config.n_samples
    kept = ~paths.faulted
    weight = paths.weight[kept]
    m = len(weight)
    n_faults = n - m
    if n_faults > 0.1 * n:
        raise FaultFractionExceeded(
            f"{n_faults} of {n} paths exceeded the recursion cap "
            f"(> 10%); raise fold_cap or epsilon", n_faults, n)
    wsum = math.fsum(weight.tolist())
    if wsum == 0:
        raise ValueError(f"the weights of all {m} kept paths are 0: "
                         f"their Girsanov factors round to 0, so the estimate "
                         f"would read 0 whatever the law")
    values = apply_test_function(func, paths.x, paths.y, paths.elapsed,
                                 paths.hit)[kept]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (values * weight).tolist()
        wsq = math.fsum((weight * weight).tolist())
    # float ** 2 and fsum raise OverflowError where other sums give inf
    try:
        mean = math.fsum(vals) / m
        half = (1.96 * math.sqrt(math.fsum((v - mean) ** 2 for v in vals)
                                 / (m - 1) / m) if m > 1 else math.inf)
    except OverflowError:
        mean = math.inf
    if not math.isfinite(mean) or (m > 1 and not math.isfinite(half)):
        raise ValueError(f"the estimate of {func.value} overflows: its values "
                         f"at these endpoints are out of floating-point range")
    return McReport(
        estimate=mean,
        half_width_95=half,
        n_samples=n,
        n_faults=n_faults,
        mean_folds=math.fsum(paths.folds[kept].tolist()) / m,
        mean_weight=wsum / m,
        ess=(wsum * wsum / wsq) if wsq > 0 else 0.0,
        wall_time_seconds=time.perf_counter() - t0,
        seed=config.seed)


# ---------------------------------------------------------------------------
# folding diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldingStats:
    counts: dict
    overflow: int
    mean: float
    quantiles: dict = field(default_factory=dict)
    n_samples: int = 0


def folding_stats(config):
    """Histogram of the reflected fold count, with capped paths reported in
    an explicit overflow bucket (they enter the mean at the cap value)."""
    if config.mode is not Mode.REFLECTED:
        raise ValueError("folding stats are defined for the REFLECTED mode")
    paths = map_paths(config)
    counts = Counter(paths.folds[~paths.faulted].tolist())
    folds_all = np.sort(np.where(paths.faulted, config.fold_cap,
                                 paths.folds)).tolist()
    n = len(folds_all)
    quant = {q: folds_all[min(n - 1, int(q * n))] for q in (0.5, 0.9, 0.99)}
    return FoldingStats(counts=counts,
                        overflow=int(np.count_nonzero(paths.faulted)),
                        mean=math.fsum(folds_all) / n, quantiles=quant,
                        n_samples=n)


def eps_sweep(config, eps_values):
    """Mean fold count as a function of epsilon, using the same sub-streams
    for every epsilon so the comparison is coupled."""
    out = []
    for eps in eps_values:
        stats = folding_stats(replace(config, epsilon=float(eps)))
        out.append((float(eps), stats.mean))
    return out
