"""Monte Carlo harness: configuration, the path engine, estimation, fold
diagnostics.

`map_paths` cuts the path indices of a configuration into batches of
LANE_BATCH and hands each batch to the engine of its mode:
`lanes.stopped_paths` and `lanes.reflected_paths` run the exact modes as
numpy lanes, and `drift.euler_paths` runs the Euler modes one path after
another. Each takes the seed and a batch's indices and returns a
(PathSample, faulted) pair per path, path i drawing from its own stream of
the seed; a path past its fold cap comes back faulted, with its partial
state. A worker thread runs one batch at a time. So results are
byte-reproducible for a fixed (config, seed) however the paths are batched
and however many workers run them; the reduction always runs in index
order.
"""

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from itertools import chain

from .drift import euler_paths, girsanov_log_weight, linear_field
from .geometry import PolarPoint, WedgeSpec, mat_vec, standard_frame
from .lanes import reflected_paths, stopped_paths
from .samplers import DEFAULT_EPSILON, DEFAULT_FOLD_CAP

IDENTITY = ((1.0, 0.0), (0.0, 1.0))

# paths one batch of lanes runs; the results do not depend on it, and a
# run's memory is bounded by it, not by the number of paths
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


def apply_test_function(func, sample, endpoint_xy):
    x, y = endpoint_xy
    if func is TestFunction.RADIUS_SQ:
        return x * x + y * y
    if func is TestFunction.SIN_SQ_THETA:
        r2 = x * x + y * y
        return 0.0 if r2 == 0.0 else y * y / r2
    if func is TestFunction.COORD_1:
        return x
    if func is TestFunction.INDICATOR_SURVIVAL:
        return 0.0 if sample.hit_boundary else 1.0
    if func is TestFunction.CONSTANT_1:
        return 1.0
    if func is TestFunction.ELAPSED_TIME:
        return sample.elapsed
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
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
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
            if self.steps < 1:
                raise ValueError("Euler modes need steps >= 1")
            if not math.isfinite(self.horizon):
                raise ValueError("Euler modes need a finite horizon")
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


def map_paths(config, fn):
    """[fn(index, sample, faulted, xy) for every path index of `config`].

    xy is the sample's endpoint mapped back to the input frame. An exact
    path is weighted by the Girsanov factor of the constant drift, which is
    1 exactly for zero drift. Path i's draws depend on the seed and i alone,
    so the list depends neither on LANE_BATCH nor on config.workers.
    """
    wedge, start, drift, sigma, backward = run_frame(config)
    start = wedge.place(start)  # the driving motion starts where the path does
    x0 = start.cartesian()
    n, seed, T = config.n_samples, config.seed, config.horizon
    if config.mode is Mode.STOPPED:
        run = partial(stopped_paths, start, T, wedge, seed,
                      iteration_cap=config.fold_cap)
    elif config.mode is Mode.REFLECTED:
        run = partial(reflected_paths, start, T, wedge, seed,
                      epsilon=config.epsilon, fold_cap=config.fold_cap)
    else:
        # the sample carries the Girsanov factors of its cells
        run = partial(euler_paths,
                      linear_field(config.mu, config.kappa, sigma), start, T,
                      config.steps, wedge, seed,
                      reflected=config.mode is Mode.EULER_REFLECTED,
                      epsilon=config.epsilon, fold_cap=config.fold_cap)
    exact = config.mode in (Mode.STOPPED, Mode.REFLECTED)
    jobs = [range(lo, min(lo + LANE_BATCH, n))
            for lo in range(0, n, LANE_BATCH)]
    if config.workers <= 1:
        parts = map(run, jobs)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(run, jobs))
    out = []
    for index, (sample, faulted) in enumerate(chain.from_iterable(parts)):
        if exact and not faulted:
            sample.weight = math.exp(girsanov_log_weight(
                drift, sample.driving_endpoint, sample.elapsed, x0))
        xy = sample.cartesian_endpoint()
        if backward is not None:
            xy = mat_vec(backward, xy)
        out.append(fn(index, sample, faulted, xy))
    return out


def estimate(config):
    """Run the configured Monte Carlo estimate and return an McReport.

    Faulted paths (recursion cap) are excluded from the estimate and
    counted; more than 10% of them aborts the run. Kept paths whose weights
    are all 0, and an estimate or half-width that overflows, are a
    ValueError.
    """
    t0 = time.perf_counter()
    func = config.func

    def row(_index, sample, faulted, xy):
        if faulted:
            return None
        value = apply_test_function(func, sample, xy)
        return value * sample.weight, sample.folds, sample.weight

    rows = map_paths(config, row)
    n = config.n_samples
    good = [r for r in rows if r is not None]
    n_faults = n - len(good)
    if n_faults > 0.1 * n:
        raise FaultFractionExceeded(
            f"{n_faults} of {n} paths exceeded the recursion cap "
            f"(> 10%); raise fold_cap or epsilon", n_faults, n)
    weights = [r[2] for r in good]
    wsum = math.fsum(weights)
    if wsum == 0:
        raise ValueError(f"the weights of all {len(good)} kept paths are 0: "
                         f"their Girsanov factors round to 0, so the estimate "
                         f"would read 0 whatever the law")
    vals = [r[0] for r in good]
    m = len(vals)
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
    wsq = math.fsum(w * w for w in weights)
    return McReport(
        estimate=mean,
        half_width_95=half,
        n_samples=n,
        n_faults=n_faults,
        mean_folds=math.fsum(r[1] for r in good) / m,
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
    done = map_paths(config, lambda _i, sample, faulted, _xy:
                     None if faulted else sample.folds)
    counts = Counter(f for f in done if f is not None)
    overflow = done.count(None)
    folds_all = sorted(config.fold_cap if f is None else f for f in done)
    n = len(folds_all)
    quant = {q: folds_all[min(n - 1, int(q * n))] for q in (0.5, 0.9, 0.99)}
    return FoldingStats(counts=counts, overflow=overflow,
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
