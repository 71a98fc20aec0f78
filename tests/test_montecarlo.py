import math

import numpy as np
import pytest

from wedgebm.geometry import (CorrelatedSetup, PolarPoint, RegionCase,
                              WedgeSpec, mat_vec, standard_frame)
from wedgebm.montecarlo import (IDENTITY, EstimatorConfig,
                                FaultFractionExceeded, Mode, TestFunction,
                                apply_test_function, eps_sweep, estimate,
                                folding_stats, run_frame)
from wedgebm.rng import RngStream
from wedgebm.samplers import PathSample

W09 = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)


def table1_config(**overrides):
    base = dict(mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ, horizon=1.0,
                n_samples=400, seed=123, wedge=W09, start=START)
    base.update(overrides)
    return EstimatorConfig(**base)


# ---------------------------------------------------------------------------
# rng streams
# ---------------------------------------------------------------------------

def test_rng_reproducible():
    a = RngStream(5)
    b = RngStream(5)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_rng_derive_by_index_is_stable_and_distinct():
    base = RngStream(5)
    first = [base.derive(i).uniform() for i in range(6)]
    second = [RngStream(5).derive(i).uniform() for i in range(6)]
    assert first == second
    assert len(set(first)) == len(first)


def test_rng_nested_derivation_order_matters():
    a = RngStream(5).derive(1).derive(2).uniform()
    b = RngStream(5).derive(2).derive(1).uniform()
    assert a != b


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_apply_test_function_values():
    # paths ending at (1, 2) on a ray and inside, both at time 0.7, and a
    # path ending at the apex
    x, y = np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0, 0.0])
    elapsed, hit = np.full(3, 0.7), np.array([True, False, False])

    def values(func):
        return apply_test_function(func, x, y, elapsed, hit).tolist()

    assert values(TestFunction.RADIUS_SQ) == [5.0, 5.0, 0.0]
    assert values(TestFunction.SIN_SQ_THETA) == pytest.approx([0.8, 0.8, 0.0])
    assert values(TestFunction.COORD_1) == [1.0, 1.0, 0.0]
    assert values(TestFunction.INDICATOR_SURVIVAL) == [0.0, 1.0, 1.0]
    assert values(TestFunction.CONSTANT_1) == [1.0, 1.0, 1.0]
    assert values(TestFunction.ELAPSED_TIME) == [0.7, 0.7, 0.7]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_deterministic_across_workers():
    r1 = estimate(table1_config(workers=1))
    r4 = estimate(table1_config(workers=4))
    assert r1.estimate == r4.estimate
    assert r1.half_width_95 == r4.half_width_95
    assert r1.mean_folds == r4.mean_folds
    assert r1.n_faults == r4.n_faults
    assert r1.seed == 123


def test_estimate_fields_for_driftless_run():
    r = estimate(table1_config())
    assert r.n_samples == 400
    assert r.n_faults == 0
    assert r.mean_weight == 1.0
    assert r.ess == 400.0
    assert r.half_width_95 > 0
    assert r.wall_time_seconds > 0


def test_estimate_girsanov_weights_shrink_ess():
    r = estimate(table1_config(drift=(0.3, -0.2), func=TestFunction.CONSTANT_1))
    assert 0 < r.ess < r.n_samples
    assert r.mean_weight == pytest.approx(1.0, abs=0.05)


def test_estimate_se_scaling():
    small = estimate(table1_config(n_samples=1000, seed=7))
    big = estimate(table1_config(n_samples=4000, seed=7))
    ratio = big.half_width_95 / small.half_width_95
    assert 0.4 <= ratio <= 0.6


def test_estimate_excludes_faulted_paths():
    # cap 15 makes a handful of reflected paths fault (deterministic by seed)
    r = estimate(table1_config(mode=Mode.REFLECTED, epsilon=0.03, fold_cap=15))
    assert 0 < r.n_faults <= 0.1 * r.n_samples
    assert math.isfinite(r.estimate)


def test_estimate_aborts_on_fault_fraction():
    with pytest.raises(FaultFractionExceeded) as info:
        estimate(table1_config(mode=Mode.REFLECTED, epsilon=0.0, fold_cap=5))
    assert info.value.n_faults > 0.1 * info.value.n_samples


def test_config_validation():
    with pytest.raises(ValueError):
        table1_config(n_samples=0)
    with pytest.raises(ValueError):
        table1_config(horizon=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ,
                        horizon=1.0, n_samples=10, seed=0)
    with pytest.raises(ValueError):
        table1_config(mode=Mode.EULER_STOPPED, steps=0)
    with pytest.raises(ValueError):
        table1_config(mode=Mode.EULER_REFLECTED, steps=10, horizon=math.inf)


@pytest.mark.parametrize("name, value", [
    ("n_samples", 2.5), ("fold_cap", 2.5), ("steps", 2.5), ("seed", 1.5),
    ("n_samples", True), ("workers", 1.5), ("workers", 2.5),
    ("workers", True)])
def test_counts_must_be_integers(name, value):
    # 2.5 used to fail deep in the run, seed 1.5 ran seed 1's streams and
    # reported 1.5, n_samples True ran one path, and workers 1.5, 2.5 or
    # True were taken without a word
    mode = Mode.EULER_STOPPED if name == "steps" else Mode.STOPPED
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        table1_config(mode=mode, **{name: value})


def test_a_reflected_run_needs_a_finite_horizon():
    # an exact reflected run with T = inf used to be refused only by the
    # lanes, once it started
    with pytest.raises(ValueError, match="horizon must be positive and "
                                         "finite, got inf"):
        table1_config(mode=Mode.REFLECTED, horizon=math.inf)
    # the stopped mode takes it: the path runs to its exit
    assert table1_config(horizon=math.inf).horizon == math.inf


@pytest.mark.parametrize("geometry", [dict(wedge=W09), dict(start=START),
                                      dict(wedge=W09, start=START)])
def test_a_setup_with_a_wedge_or_a_start_is_refused(geometry):
    # the setup used to win without a word
    setup = CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.0,
                            slope=math.tan(0.9), region_case=RegionCase.AND_POS,
                            x0=START.cartesian())
    with pytest.raises(ValueError, match="not both"):
        EstimatorConfig(mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ,
                        horizon=1.0, n_samples=10, seed=0, setup=setup,
                        **geometry)


@pytest.mark.parametrize("mode", [Mode.EULER_STOPPED, Mode.EULER_REFLECTED])
def test_euler_modes_refuse_a_constant_drift(mode):
    # the Euler schemes take drift from mu and kappa alone; a constant drift
    # used to be dropped without a word
    with pytest.raises(ValueError, match="drift"):
        table1_config(mode=mode, steps=20, drift=(5.0, -5.0))
    setup = CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.0,
                            slope=math.tan(0.9), region_case=RegionCase.AND_POS,
                            x0=START.cartesian())
    with pytest.raises(ValueError, match="drift"):
        EstimatorConfig(mode=mode, func=TestFunction.RADIUS_SQ, horizon=1.0,
                        n_samples=10, seed=0, steps=20, setup=setup,
                        drift=(5.0, -5.0))


SLANTED_SETUP = CorrelatedSetup(sigma1=1.2, sigma2=0.8, rho=0.4, slope=2.0,
                                region_case=RegionCase.AND_POS, x0=(1.0, 0.5))


@pytest.mark.parametrize("overrides", [
    # a third entry used to be dropped: the decorrelating map read two
    dict(setup=SLANTED_SETUP, wedge=None, start=None, drift=(0.1, 0.2, 99.0)),
    # one entry used to end in an IndexError inside the drift
    dict(mode=Mode.EULER_STOPPED, steps=5, mu=(0.1,)),
    dict(mode=Mode.EULER_STOPPED, steps=5, kappa=(0.1, 0.2, 0.3)),
    dict(drift=(0.1, math.nan)),
])
def test_drift_mu_and_kappa_must_be_finite_2_vectors(overrides):
    with pytest.raises(ValueError, match="must be a finite 2-vector"):
        table1_config(**overrides)


@pytest.mark.parametrize("overrides", [dict(steps=7, mu=(5.0, 5.0)),
                                       dict(steps=7), dict(mu=(5.0, 5.0)),
                                       dict(kappa=(0.0, 1.0))])
@pytest.mark.parametrize("mode", [Mode.STOPPED, Mode.REFLECTED])
def test_exact_modes_refuse_euler_inputs(mode, overrides):
    # an exact mode used to run and ignore them
    with pytest.raises(ValueError, match="belong to the Euler modes"):
        table1_config(mode=mode, **overrides)


@pytest.mark.parametrize("overrides", [
    # |b|^2 of a finite drift overflows, so every Girsanov factor is 0
    dict(n_samples=5, drift=(1e200, 0.0)),
    dict(n_samples=2, mode=Mode.EULER_STOPPED, steps=3, mu=(1e308, 0.0)),
])
def test_an_estimate_whose_weights_are_all_0_is_an_error(overrides):
    # it used to report 0 +- 0, with mean weight and ess 0
    with pytest.raises(ValueError, match="weights of all .* are 0"):
        estimate(table1_config(**overrides))


@pytest.mark.parametrize("horizon", [1e160, 1e300])
def test_an_estimate_whose_spread_overflows_is_an_error(horizon):
    # |x|^2 near T is finite, but its squared deviation from the mean is
    # not: `** 2` raised OverflowError, past the estimate's own check
    with pytest.raises(ValueError, match="estimate of radius_sq overflows"):
        estimate(table1_config(mode=Mode.REFLECTED, horizon=horizon,
                               n_samples=3, seed=0))


def test_correlated_identity_setup_matches_plain_wedge():
    # sigma = I, rho = 0: decorrelation is the identity, so the setup-based
    # run must agree exactly with the equivalent plain-wedge run
    slope = math.tan(0.9)
    setup = CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.0, slope=slope,
                            region_case=RegionCase.AND_POS,
                            x0=START.cartesian())
    via_setup = estimate(EstimatorConfig(
        mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ, horizon=1.0,
        n_samples=300, seed=11, setup=setup))
    wedge = WedgeSpec(0.0, math.atan(slope))
    direct = estimate(EstimatorConfig(
        mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ, horizon=1.0,
        n_samples=300, seed=11, wedge=wedge,
        start=PolarPoint.from_cartesian(*START.cartesian())))
    assert via_setup.estimate == pytest.approx(direct.estimate, rel=1e-12)


def test_a_drift_given_with_a_setup_weights_the_paths():
    # a drift given with a correlated setup was once dropped, leaving every
    # weight 1; through the identity setup it must weight the paths as the
    # plain-wedge run does
    slope = math.tan(0.9)
    setup = CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.0, slope=slope,
                            region_case=RegionCase.AND_POS,
                            x0=START.cartesian())
    common = dict(mode=Mode.STOPPED, func=TestFunction.RADIUS_SQ, horizon=1.0,
                  n_samples=300, seed=11, drift=(0.3, -0.2))
    via_setup = estimate(EstimatorConfig(setup=setup, **common))
    direct = estimate(EstimatorConfig(
        wedge=WedgeSpec(0.0, math.atan(slope)),
        start=PolarPoint.from_cartesian(*START.cartesian()), **common))
    assert via_setup.mean_weight != 1.0
    assert via_setup.mean_weight == pytest.approx(direct.mean_weight, rel=1e-12)
    assert via_setup.estimate == pytest.approx(direct.estimate, rel=1e-12)


def test_correlated_setup_euler_runs():
    # with mu = kappa = 0 every Euler cell runs the exact sampler, so the
    # correlated Euler run must reproduce the exact survival probability
    setup = CorrelatedSetup(sigma1=1.0, sigma2=1.0, rho=0.8, slope=math.tan(0.9),
                            region_case=RegionCase.AND_POS,
                            x0=START.cartesian())
    common = dict(func=TestFunction.INDICATOR_SURVIVAL, horizon=1.0,
                  n_samples=2000, seed=11, setup=setup)
    exact = estimate(EstimatorConfig(mode=Mode.STOPPED, **common))
    euler = estimate(EstimatorConfig(mode=Mode.EULER_STOPPED, steps=2, **common))
    assert euler.n_faults == 0
    assert abs(euler.estimate - exact.estimate) <= \
        exact.half_width_95 + euler.half_width_95


def test_run_frame_picks_the_coordinates_of_each_kind_of_run():
    # plain: the input as given
    plain = table1_config(drift=(0.5, -0.2))
    assert run_frame(plain) == (W09, START, (0.5, -0.2), IDENTITY, None)
    # correlated, exact: the standard frame of the setup, start and the
    # config's drift mapped forward, endpoints mapped back
    setup = CorrelatedSetup(sigma1=2.0, sigma2=1.0, rho=0.3, slope=0.7,
                            region_case=RegionCase.AND_POS, x0=(1.0, 0.2))
    fwd, bwd, cell = standard_frame(setup.sigma, setup.wedge)
    common = dict(func=TestFunction.RADIUS_SQ, horizon=1.0, n_samples=1,
                  seed=0)
    exact = run_frame(EstimatorConfig(mode=Mode.REFLECTED, setup=setup,
                                      drift=(0.4, 0.1), **common))
    assert exact == (cell, PolarPoint.from_cartesian(*mat_vec(fwd, setup.x0)),
                     mat_vec(fwd, (0.4, 0.1)), IDENTITY, bwd)
    # correlated, Euler: the setup's own frame and noise; each cell frames it
    euler = run_frame(EstimatorConfig(mode=Mode.EULER_STOPPED, steps=3,
                                      setup=setup, **common))
    assert euler == (setup.wedge, PolarPoint.from_cartesian(1.0, 0.2),
                     (0.0, 0.0), setup.sigma, None)


# ---------------------------------------------------------------------------
# folding diagnostics
# ---------------------------------------------------------------------------

def test_folding_stats_histogram_accounts_for_every_path():
    cfg = table1_config(mode=Mode.REFLECTED, func=TestFunction.CONSTANT_1,
                        epsilon=0.0, fold_cap=150)
    stats = folding_stats(cfg)
    assert sum(stats.counts.values()) + stats.overflow == cfg.n_samples
    assert stats.overflow > 0  # exact mode has a heavy tail
    assert stats.quantiles[0.5] <= stats.quantiles[0.9] <= stats.quantiles[0.99]
    total = sum(k * v for k, v in stats.counts.items()) + 150 * stats.overflow
    assert stats.mean == pytest.approx(total / cfg.n_samples)


def test_exact_runs_make_no_object_per_path(monkeypatch):
    # the engines return columns and the reductions read them: a run makes
    # as many PathSample and PolarPoint objects at n = 10 as at n = 2000
    made = []
    for cls, name in ((PathSample, "__init__"), (PolarPoint, "__post_init__")):
        def counted(self, *args, original=getattr(cls, name), **kwargs):
            made.append(type(self))
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    counts = []
    for n in (10, 2000):
        made.clear()
        estimate(table1_config(n_samples=n))
        estimate(table1_config(mode=Mode.REFLECTED, n_samples=n,
                               drift=(0.3, -0.2)))
        folding_stats(table1_config(mode=Mode.REFLECTED, n_samples=n,
                                    epsilon=0.0, fold_cap=150))
        counts.append(len(made))
    assert counts[0] == counts[1]


def test_folding_stats_requires_reflected_mode():
    with pytest.raises(ValueError):
        folding_stats(table1_config(mode=Mode.STOPPED))


def test_eps_sweep_monotone():
    cfg = table1_config(mode=Mode.REFLECTED, func=TestFunction.CONSTANT_1)
    rows = eps_sweep(cfg, (0.01, 0.02, 0.05, 0.1))
    means = [mean for _eps, mean in rows]
    assert means == sorted(means, reverse=True)
    assert all(a > b for a, b in zip(means, means[1:]))
