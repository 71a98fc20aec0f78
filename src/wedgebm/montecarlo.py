"""Monte Carlo harness: configuration, the path engine, estimation, fold
diagnostics.

`simulate` draws one path of a configuration and `map_paths` runs it for
every path index. Every path owns the sub-stream derived from its index, so
results are byte-reproducible for a fixed (config, seed) no matter how many
worker threads execute the paths; the reduction always runs in index order.
"""

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

from .drift import (CoefficientField, DriftSpec, TimeGrid, euler_reflected,
                    euler_stopped, linear_field, reflected_with_drift,
                    stopped_with_drift)
from .geometry import PolarPoint, WedgeSpec, decorrelate
from .rng import RngStream
from .samplers import (DEFAULT_EPSILON, DEFAULT_FOLD_CAP, FoldCapExceeded,
                       algorithm_reflected, algorithm_stopped)

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


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
    setup: object = None  # CorrelatedSetup; decorrelated on resolve()
    drift: tuple = (0.0, 0.0)
    epsilon: float = DEFAULT_EPSILON
    fold_cap: int = DEFAULT_FOLD_CAP
    steps: int = 0
    mu: tuple = (0.0, 0.0)
    kappa: tuple = (0.0, 0.0)
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.epsilon >= 0:  # NaN included
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.setup is None and (self.wedge is None or self.start is None):
            raise ValueError("either a correlated setup or wedge+start is required")
        if self.mode in (Mode.EULER_STOPPED, Mode.EULER_REFLECTED):
            if self.steps < 1:
                raise ValueError("Euler modes need steps >= 1")
            if not math.isfinite(self.horizon):
                raise ValueError("Euler modes need a finite horizon")

    def resolve(self):
        """Returns (wedge, start, drift, problem) where problem is the
        DecorrelatedProblem carrying the frame maps (None if the input was
        already in standard coordinates)."""
        if self.setup is None:
            return self.wedge, self.start, self.drift, None
        prob = decorrelate(self.setup)
        return prob.wedge, prob.start, prob.drift, prob


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


def _frame_coeffs(coeffs, problem):
    """Push a user-frame coefficient field through the decorrelation map F:
    for Z = F Y the drift becomes F b(F^{-1} z) and the diffusion F sigma."""
    fwd = problem.forward_map

    def b(z, t):
        return problem.apply(coeffs.drift(problem.inverse(z), t))

    def s(z, t):
        (a, bb), (c, d) = coeffs.diffusion(problem.inverse(z), t)
        return ((fwd[0][0] * a + fwd[0][1] * c, fwd[0][0] * bb + fwd[0][1] * d),
                (fwd[1][0] * a + fwd[1][1] * c, fwd[1][0] * bb + fwd[1][1] * d))

    return CoefficientField(drift=b, diffusion=s)


def simulate(config, resolved, rng):
    """One path of `config` drawn from `rng`: returns (PathSample, faulted).

    resolved holds the per-run constants built by `map_paths`: (wedge,
    start, DriftSpec, Euler coefficient field, Euler time grid), all in
    standard coordinates. A path that exceeds the fold cap returns its
    partial state with faulted=True.
    """
    wedge, start, drift, coeffs, grid = resolved
    T, cap, eps = config.horizon, config.fold_cap, config.epsilon
    mode = config.mode
    try:
        if mode is Mode.STOPPED:
            if drift.is_zero:
                sample = algorithm_stopped(start, T, wedge, rng, iteration_cap=cap)
            else:
                sample = stopped_with_drift(start, drift, T, wedge, rng,
                                            iteration_cap=cap)
        elif mode is Mode.REFLECTED:
            if drift.is_zero:
                sample = algorithm_reflected(start, T, wedge, rng, epsilon=eps,
                                             fold_cap=cap)
            else:
                sample = reflected_with_drift(start, drift, T, wedge, rng,
                                              epsilon=eps, fold_cap=cap)
        elif mode is Mode.EULER_STOPPED:
            sample = euler_stopped(coeffs, start, grid, wedge, rng, fold_cap=cap)
        else:
            sample = euler_reflected(coeffs, start, grid, wedge, rng, epsilon=eps,
                                     fold_cap=cap)
    except FoldCapExceeded as fault:
        return fault.partial, True
    return sample, False


def map_paths(config, fn):
    """[fn(index, sample, faulted, xy) for every path index of `config`].

    xy is the sample's endpoint mapped back to the input frame. Path i draws
    from sub-stream i of the seed, whichever worker thread runs it, so the
    list does not depend on config.workers.
    """
    wedge, start, drift, problem = config.resolve()
    coeffs = grid = None
    if config.mode in (Mode.EULER_STOPPED, Mode.EULER_REFLECTED):
        coeffs = linear_field(config.mu, config.kappa, IDENTITY)
        if problem is not None:
            coeffs = _frame_coeffs(coeffs, problem)
        grid = TimeGrid.uniform(config.horizon, config.steps)
    resolved = (wedge, start, DriftSpec(tuple(drift)), coeffs, grid)
    root = RngStream(config.seed)

    def one(index):
        sample, faulted = simulate(config, resolved, root.derive(index))
        xy = sample.cartesian_endpoint()
        if problem is not None:
            xy = problem.inverse(xy)
        return fn(index, sample, faulted, xy)

    indices = range(config.n_samples)
    if config.workers <= 1:
        return [one(i) for i in indices]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(one, indices))


def estimate(config):
    """Run the configured Monte Carlo estimate and return an McReport.

    Faulted paths (recursion cap) are excluded from the estimate and
    counted; more than 10% of them aborts the run.
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
    vals = [r[0] for r in good]
    m = len(vals)
    mean = math.fsum(vals) / m
    if m > 1:
        var = math.fsum((v - mean) ** 2 for v in vals) / (m - 1)
        half = 1.96 * math.sqrt(var / m)
    else:
        half = math.inf
    weights = [r[2] for r in good]
    wsum = math.fsum(weights)
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


def double_barrier_constants(m):
    """Mean and variance of the folding clock of an opening pi/m:
    (pi^2 / 4m^2, (2/3)(pi/2m)^4)."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    half = math.pi / (2.0 * m)
    return half * half, (2.0 / 3.0) * half ** 4
