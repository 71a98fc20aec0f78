"""The numpy lanes of the exact recursions (`wedgebm.lanes`) and their
Philox streams (`wedgebm.rng.LaneDraws`).

The streams must be numpy's own Philox-4x64 outputs, whatever the order and
the sizes of the requests. A run must not depend on how its paths are cut
into batches or spread over workers. The edge cases of the scalar
recursions, which are the lanes' oracle, must hold in the lanes too: on
values where the recursion draws nothing, on laws (two-sample KS against
the scalar recursion, or a closed form) where it does. Path counts, seeds
and the p threshold were fixed before the first run.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from wedgebm import montecarlo
from wedgebm.cli import run_cli
from wedgebm.geometry import PolarPoint, WedgeSpec
from wedgebm.lanes import reflected_paths, stopped_paths
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, map_paths
from wedgebm.rng import LANE_BUFFER, LaneDraws, RngStream, stream_key
from wedgebm.samplers import (APEX_RADIUS_FLOOR, DEFAULT_FOLD_CAP,
                              FoldCapExceeded, algorithm_reflected,
                              algorithm_stopped)

W09 = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)
T1 = ["--alpha", "0.9", "--start", "1.5,0.3", "--T", "1"]
CAP = DEFAULT_FOLD_CAP
N_LAW = 4000
P_MIN = 1e-3


def philox_uniforms(seed, index, count):
    """The first `count` uniforms of path `index`'s lane stream, from
    numpy's own Philox."""
    key = np.array([stream_key(seed), index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_lane_draws_are_numpys_philox_under_uneven_consumption():
    seed, indices = 42, [0, 7, 1, 2 ** 40, 2 ** 63 + 5]
    draws = LaneDraws(seed, indices)
    got = [[] for _ in indices]
    gen = np.random.default_rng(3)
    # requests of every size, from ever-changing subsets of the lanes,
    # starting with a lane that draws 3 then a whole half buffer
    requests = [([0], 3), ([0, 1], LANE_BUFFER // 2), ([2, 3, 4], 1)]
    for _ in range(300):
        lanes = np.flatnonzero(gen.random(len(indices)) < 0.6)
        if lanes.size:
            requests.append((lanes, int(gen.integers(1, LANE_BUFFER // 2 + 1))))
    for lanes, j in requests:
        lanes = np.asarray(lanes)
        block = draws.take(lanes, j)
        assert block.shape == (j, lanes.size)
        for col, lane in enumerate(lanes):
            got[lane].extend(block[:, col].tolist())
    for lane, index in enumerate(indices):
        assert got[lane] == philox_uniforms(seed, index, len(got[lane])).tolist()
    assert all(len(g) > 1000 for g in got)


def test_a_python_list_key_is_another_stream():
    # numpy reads a list key otherwise than the uint64 array the lanes use
    k = int(stream_key(42))
    listed = np.random.Philox(key=[k, 3]).random_raw(4)
    keyed = np.random.Philox(key=np.array([k, 3], dtype=np.uint64)).random_raw(4)
    assert not np.array_equal(listed, keyed)


def test_lane_uniforms_lie_strictly_inside_the_unit_interval():
    u = LaneDraws(0, range(64)).take(np.arange(64), 16)
    assert (u > 0.0).all() and (u < 1.0).all()


# ---------------------------------------------------------------------------
# batches and workers
# ---------------------------------------------------------------------------

BATCH_CASES = {
    "estimate_table1_reflected": ["estimate", "--table1-reflected", "--n",
                                  "300", "--seed", "5"],
    "estimate_table1_exit": ["estimate", "--table1-exit", "--n", "300",
                             "--seed", "5"],
    "sample_reflected_faults": ["sample-reflected"] + T1 + [
        "--n", "60", "--eps", "0", "--fold-cap", "5", "--seed", "5"],
    "sample_stopped_drift": ["sample-stopped"] + T1 + [
        "--n", "60", "--drift", "0.3,-0.2", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_output_does_not_depend_on_batch_size_or_workers(name, tmp_path,
                                                         monkeypatch):
    argv = BATCH_CASES[name]
    worker_counts = ("1", "3") if argv[0] == "estimate" else (None,)
    outputs = set()
    for batch in (1, 7, montecarlo.LANE_BATCH):
        monkeypatch.setattr(montecarlo, "LANE_BATCH", batch)
        for workers in worker_counts:
            out = tmp_path / f"{batch}_{workers}.csv"
            extra = ["--workers", workers] if workers else []
            assert run_cli(argv + extra + ["--out", str(out)]) == 0
            outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_a_batch_holds_its_image_terms_in_bounded_blocks():
    # opening 0.01 has m = 315: one block of the 2m image terms of 1024 lanes
    # would be 5 MB an array (a batch peaked at 15.6 MB so); the blocks hold
    # at most lanes._IMAGE_CAP values
    wedge, start = WedgeSpec(0.0, 0.01), PolarPoint(1.0, 0.005)
    tracemalloc.start()
    try:
        # the lanes run when called; only the samples are made as read
        stopped_paths(start, 1e-5, wedge, 1, range(1024), CAP)
        reflected_paths(start, 1e-5, wedge, 1, range(1024), 0.03, CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# parity with the scalar recursions
# ---------------------------------------------------------------------------

def scalar_samples(stopped, start, T, wedge, n, seed, **kwargs):
    root = RngStream(seed)
    if stopped:
        return [algorithm_stopped(start, T, wedge, root.derive(i), **kwargs)
                for i in range(n)]
    return [algorithm_reflected(start, T, wedge, root.derive(i), **kwargs)
            for i in range(n)]


def lane_samples(stopped, start, T, wedge, n, seed, epsilon=0.03, cap=CAP):
    if stopped:
        rows = stopped_paths(start, T, wedge, seed, range(n), cap)
    else:
        rows = reflected_paths(start, T, wedge, seed, range(n), epsilon, cap)
    return list(rows)


def ks_p(a, b):
    return stats.ks_2samp(np.asarray(a, dtype=float),
                          np.asarray(b, dtype=float)).pvalue


def test_reflected_apex_start_is_one_corner_draw_with_no_folds():
    rows = lane_samples(False, PolarPoint(0.0, 0.0), 1.0, W09, N_LAW, 1801)
    assert not any(faulted for _s, faulted in rows)
    samples = [s for s, _f in rows]
    assert all(s.folds == 0 and not s.approx_used and s.elapsed == 1.0
               for s in samples)
    # the free Gaussian step from the apex: a Rayleigh radius and, in the
    # wedge, a uniform angle
    radii = [s.endpoint.r for s in samples]
    assert stats.kstest(radii, stats.rayleigh.cdf).pvalue > P_MIN
    angles = [s.endpoint.theta / 0.9 for s in samples]
    assert stats.kstest(angles, "uniform").pvalue > P_MIN


def test_reflected_start_below_the_apex_floor_ends_on_its_first_pass():
    start = PolarPoint(1e-151, 0.3)
    assert start.r < APEX_RADIUS_FLOOR
    samples = [s for s, _f in lane_samples(False, start, 1.0, W09, N_LAW, 1802)]
    assert all(s.folds == 1 and not s.approx_used for s in samples)
    radii = [s.endpoint.r for s in samples]
    assert stats.kstest(radii, stats.rayleigh.cdf).pvalue > P_MIN


def test_reflected_first_pass_corner_matches_the_scalar_recursion():
    start = PolarPoint(0.05, 0.3)
    lanes = [s for s, _f in lane_samples(False, start, 1.0, W09, N_LAW, 1803,
                                         epsilon=0.1)]
    assert all(s.folds == 1 and s.approx_used for s in lanes)
    scalar = scalar_samples(False, start, 1.0, W09, N_LAW, 1803, epsilon=0.1)
    for field in (lambda s: s.endpoint.r, lambda s: s.endpoint.theta,
                  lambda s: s.driving_endpoint[0],
                  lambda s: s.driving_endpoint[1]):
        assert ks_p([field(s) for s in lanes], [field(s) for s in scalar]) > P_MIN


@pytest.mark.parametrize("start", [PolarPoint(1.5, 0.0), PolarPoint(1.5, 0.9),
                                   PolarPoint(1.5, 0.9 + 1e-13),
                                   PolarPoint(1.5, -1e-13),
                                   PolarPoint(0.0, 2.0)])
def test_stopped_start_on_a_ray_is_the_scalar_value(start):
    # tau = 0: no draw, so lanes and recursion agree exactly
    want = algorithm_stopped(start, 1.0, W09, RngStream(0))
    for sample, faulted in lane_samples(True, start, 1.0, W09, 5, 0):
        assert not faulted
        assert sample == want
        assert sample.hit_boundary and sample.elapsed == 0.0 and sample.folds == 0


def test_start_a_hair_off_a_ray_reflected_matches_the_scalar_recursion():
    start = PolarPoint(1.5, 0.9 - 1e-13)  # placed on the upper ray
    lanes = [s for s, _f in lane_samples(False, start, 1.0, W09, N_LAW, 1804)]
    scalar = scalar_samples(False, start, 1.0, W09, N_LAW, 1804, epsilon=0.03)
    assert ks_p([s.endpoint.r for s in lanes], [s.endpoint.r for s in scalar]) > P_MIN
    assert ks_p([s.endpoint.theta for s in lanes],
                [s.endpoint.theta for s in scalar]) > P_MIN


@pytest.mark.parametrize("T", [1.0, math.inf])
def test_opening_above_pi_matches_the_scalar_recursion(T):
    # m = 1: every pass runs in a half-plane, one exit line, no refusals
    wedge, start = WedgeSpec(0.0, 4.0), PolarPoint(1.5, 2.0)
    lanes = [s for s, _f in lane_samples(True, start, T, wedge, N_LAW, 1805)]
    scalar = scalar_samples(True, start, T, wedge, N_LAW, 1805)
    for field in (lambda s: math.log(s.endpoint.r), lambda s: s.endpoint.theta,
                  lambda s: min(s.elapsed, 50.0), lambda s: s.folds):
        assert ks_p([field(s) for s in lanes], [field(s) for s in scalar]) > P_MIN
    hits = [s for s in lanes if s.hit_boundary]
    assert hits and all(s.endpoint.theta in (0.0, 4.0) for s in hits)


def test_exact_pi_over_3_opening_runs_one_pass_and_hits_the_rays_exactly():
    alpha = math.pi / 3
    wedge, start = WedgeSpec(0.0, alpha), PolarPoint(1.5, 0.3)
    lanes = [s for s, _f in lane_samples(True, start, 1.0, wedge, N_LAW, 1806)]
    assert all(s.folds == 1 for s in lanes)
    hits = [s for s in lanes if s.hit_boundary]
    assert hits and all(s.endpoint.theta in (0.0, alpha) for s in hits)
    scalar = scalar_samples(True, start, 1.0, wedge, N_LAW, 1806)
    p_hit = np.mean([s.hit_boundary for s in scalar])
    se = math.sqrt(2.0 * p_hit * (1.0 - p_hit) / N_LAW)
    assert abs(len(hits) / N_LAW - p_hit) <= 4.0 * se
    assert ks_p([s.endpoint.r for s in lanes], [s.endpoint.r for s in scalar]) > P_MIN


@pytest.mark.parametrize("T", [1.0, math.inf])
def test_stopped_exit_radius_underflowing_onto_the_apex(T):
    # from radius 3e-150 about 1% of the first exits fall below
    # APEX_RADIUS_FLOOR; the apex belongs to both rays and is reported on
    # the lower one
    start = PolarPoint(3e-150, 0.45)
    lanes = [s for s, _f in lane_samples(True, start, T, W09, N_LAW, 1810)]
    scalar = scalar_samples(True, start, T, W09, N_LAW, 1810)
    fractions = []
    for samples in (lanes, scalar):
        apex = [s for s in samples if s.endpoint.r == 0.0]
        assert apex
        assert all(s.hit_boundary and s.endpoint.theta == W09.alpha_minus
                   for s in apex)
        fractions.append(len(apex) / N_LAW)
    p = sum(fractions) / 2.0
    assert abs(fractions[0] - fractions[1]) <= \
        4.0 * math.sqrt(2.0 * p * (1.0 - p) / N_LAW)


@pytest.mark.parametrize("recursion", ["stopped", "reflected"])
def test_caps_fault_with_the_partial_state_of_the_scalar_recursion(recursion):
    stopped = recursion == "stopped"
    cap, eps = (1, 0.03) if stopped else (5, 0.0)
    rows = lane_samples(stopped, START, 1.0, W09, N_LAW, 1807, epsilon=eps,
                        cap=cap)
    faults = [s for s, faulted in rows if faulted]
    assert faults
    for s in faults:
        assert s.folds == cap and not s.hit_boundary and s.elapsed < 1.0
        assert s.driving_endpoint is None and s.weight == 1.0
    assert all(s.folds <= cap for s, faulted in rows if not faulted)
    # the fault fraction is the scalar recursion's
    n_scalar = 0
    root = RngStream(1807)
    for i in range(N_LAW):
        try:
            if stopped:
                algorithm_stopped(START, 1.0, W09, root.derive(i),
                                  iteration_cap=cap)
            else:
                algorithm_reflected(START, 1.0, W09, root.derive(i),
                                    epsilon=eps, fold_cap=cap)
        except FoldCapExceeded:
            n_scalar += 1
    p = n_scalar / N_LAW
    assert abs(len(faults) / N_LAW - p) <= 4.0 * math.sqrt(2.0 * p * (1 - p) / N_LAW)


def test_a_start_radius_past_the_exit_law_range_is_a_value_error():
    start = PolarPoint(1e160, 0.3)
    with pytest.raises(ValueError, match="too large for the exit law"):
        list(stopped_paths(start, math.inf, W09, 0, range(3), CAP))
    with pytest.raises(ValueError, match="too large for the exit law"):
        algorithm_stopped(start, math.inf, W09, RngStream(0))
    assert run_cli(["estimate", "--alpha", "0.9", "--start", "1e160,0.3",
                    "--T", "1", "--n", "2"]) == 2


@pytest.mark.parametrize("mode", [Mode.STOPPED, Mode.REFLECTED])
def test_drift_mass_row_has_mean_weight_one(mode):
    config = EstimatorConfig(mode=mode, func=TestFunction.CONSTANT_1,
                             horizon=1.0, n_samples=N_LAW, seed=1808,
                             wedge=W09, start=START, drift=(0.3, -0.2))
    weights = map_paths(config, lambda _i, sample, _f, _xy: sample.weight)
    se = np.std(weights, ddof=1) / math.sqrt(N_LAW)
    assert abs(np.mean(weights) - 1.0) <= 3.5 * se


def test_reflected_driving_endpoint_matches_the_scalar_recursion():
    lanes = [s for s, _f in lane_samples(False, START, 1.0, W09, N_LAW, 1809)]
    scalar = scalar_samples(False, START, 1.0, W09, N_LAW, 1809, epsilon=0.03)
    for axis in (0, 1):
        assert ks_p([s.driving_endpoint[axis] for s in lanes],
                    [s.driving_endpoint[axis] for s in scalar]) > P_MIN
    assert ks_p([s.folds for s in lanes], [s.folds for s in scalar]) > P_MIN
