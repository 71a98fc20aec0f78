"""The numpy lanes of the exact recursions (`wedgebm.lanes`) and their
Philox streams (`wedgebm.rng`).

The streams must be numpy's own Philox-4x64 outputs, whatever the order and
the sizes of the requests. A run must not depend on how its paths are cut
into batches or spread over workers. Lane path i must be the scalar
recursion run on `RngStream(seed).derive(i)`, path for path: the same
folds, hit, corner flag and fault, and the same floats to rounding. Where a
law has a closed form, the lanes are checked against it too. Path counts,
seeds and the p threshold were fixed before the first run.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from wedgebm import montecarlo
from wedgebm.cli import run_cli
from wedgebm.geometry import PolarPoint, WedgeSpec
from wedgebm.lanes import reflected_paths, stopped_paths
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, map_paths
from wedgebm.rng import (LANE_BUFFER, LaneDraws, RngStream, raw_to_uniforms,
                         stream_key)
from wedgebm.samplers import (APEX_RADIUS_FLOOR, DEFAULT_FOLD_CAP,
                              FoldCapExceeded, algorithm_reflected,
                              algorithm_stopped)

W09 = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)
T1 = ["--alpha", "0.9", "--start", "1.5,0.3", "--T", "1"]
CAP = DEFAULT_FOLD_CAP
N_LAW = 4000
P_MIN = 1e-3


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
        assert got[lane] == \
            RngStream(seed).derive(index).uniforms(len(got[lane])).tolist()
    assert all(len(g) > 1000 for g in got)


def _philox(seed, index, counter):
    """Uniforms of numpy's Philox keyed (stream_key(seed), index) from
    `counter`, a Python int."""
    key = np.array([stream_key(seed), index], dtype=np.uint64)
    return raw_to_uniforms(
        np.random.Philox(key=key, counter=counter).random_raw(100)).tolist()


def test_streams_are_disjoint_philox_counter_ranges():
    # the root draws at counter word 2 = 1, path i at counter 0 and its side
    # stream j at counter word 3 = j + 1, each range from block 0 on
    streams = {(): (0, 1 << 128), (0,): (0, 0), (5,): (5, 0),
               (5, 0): (5, 1 << 192), (5, 2): (5, 3 << 192)}
    draws = {}
    for key, (index, counter) in streams.items():
        stream = RngStream(11, key)
        draws[key] = [stream.uniform() for _ in range(100)]
        assert draws[key] == _philox(11, index, counter)
    side = RngStream(11).derive(5).derive(0)
    assert draws[(5, 0)] == [side.uniform() for _ in range(100)]
    assert len({tuple(d) for d in draws.values()}) == len(streams)
    with pytest.raises(ValueError, match="stream key"):
        RngStream(11).derive(1).derive(2).derive(3)
    with pytest.raises(ValueError, match="stream key"):
        RngStream(11).derive(-1)


def test_stream_draws_are_one_uniform_each_in_order():
    stream, plain = RngStream(4).derive(2), RngStream(4).derive(2)
    got = [stream.uniform(), stream.normal(), stream.exponential()]
    got += stream.uniforms(40).tolist() + [stream.normal()]
    u = plain.uniforms(44).tolist()
    assert got == [u[0], ndtri(u[1]), -math.log(u[2])] + u[3:43] + [ndtri(u[43])]


def test_a_python_list_key_is_another_stream():
    # numpy reads a list key otherwise than the uint64 array the lanes use
    k = int(stream_key(42))
    listed = np.random.Philox(key=[k, 3]).random_raw(4)
    keyed = np.random.Philox(key=np.array([k, 3], dtype=np.uint64)).random_raw(4)
    assert not np.array_equal(listed, keyed)


def test_lane_uniforms_lie_strictly_inside_the_unit_interval():
    u = LaneDraws(0, range(64)).take(np.arange(64), 16)
    assert (u > 0.0).all() and (u < 1.0).all()
    # the extreme raw words: 2^64 - 1 would round to 1.0 at 53 bits, where
    # ndtri is infinite
    u = raw_to_uniforms(np.array([0, 2 ** 64 - 1], dtype=np.uint64))
    assert u.tolist() == [2.0 ** -53, 1.0 - 2.0 ** -53]
    assert np.isfinite(ndtri(u)).all() and np.isfinite(np.log(u)).all()


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

def lane_samples(stopped, start, T, wedge, n, seed, epsilon=0.03, cap=CAP):
    if stopped:
        rows = stopped_paths(start, T, wedge, seed, range(n), cap)
    else:
        rows = reflected_paths(start, T, wedge, seed, range(n), epsilon, cap)
    return list(rows)


def scalar_sample(stopped, start, T, wedge, rng, epsilon, cap):
    """(PathSample, faulted) of the scalar recursion, the partial state of
    a cap fault included."""
    try:
        if stopped:
            return algorithm_stopped(start, T, wedge, rng, iteration_cap=cap), False
        return algorithm_reflected(start, T, wedge, rng, epsilon=epsilon,
                                   fold_cap=cap), False
    except FoldCapExceeded as exc:
        return exc.partial, True


def _close(a, b):
    """a and b agree to 1e-12 relative, as numbers or as plane points."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return np.hypot.reduce(a - b) <= 1e-12 * max(np.hypot.reduce(a),
                                                np.hypot.reduce(b))


W058, W4, W02 = WedgeSpec(0.0, 0.58), WedgeSpec(0.0, 4.0), WedgeSpec(0.0, 0.2)
PI_3 = WedgeSpec(0.0, math.pi / 3)
# name -> (stopped, start, T, wedge, epsilon, cap, paths)
PARITY = {
    "table1_stopped": (True, START, 1.0, W09, None, CAP, 1500),
    "table2_stopped": (True, PolarPoint(3.0, 0.4), 1.0, W058, None, CAP, 1500),
    "table1_exit": (True, START, math.inf, W09, None, CAP, 1500),
    "table1_reflected": (False, START, 1.0, W09, 0.03, CAP, 1500),
    "table2_reflected": (False, PolarPoint(3.0, 0.4), 1.0, W058, 0.03, CAP,
                         1500),
    "opening_4": (True, PolarPoint(1.5, 2.0), 1.0, W4, None, CAP, 1500),
    "opening_4_exit": (True, PolarPoint(1.5, 2.0), math.inf, W4, None, CAP,
                       1500),
    "exact_mode_cap_150": (False, START, 1.0, W09, 0.0, 150, 1500),
    "stopped_cap_1": (True, START, 1.0, W09, None, 1, 500),
    "reflected_cap_5": (False, START, 1.0, W09, 0.0, 5, 500),
    "pi_over_3": (True, START, 1.0, PI_3, None, CAP, 500),
    "apex_start": (False, PolarPoint(0.0, 0.0), 1.0, W09, 0.03, CAP, 300),
    "apex_floor": (False, PolarPoint(1e-151, 0.3), 1.0, W09, 0.03, CAP, 300),
    "apex_underflow": (True, PolarPoint(3e-150, 0.45), 1.0, W09, None, CAP,
                       500),
    "apex_underflow_exit": (True, PolarPoint(3e-150, 0.45), math.inf, W09,
                            None, CAP, 500),
    "corner_start": (False, PolarPoint(0.05, 0.3), 1.0, W09, 0.1, CAP, 300),
    "near_upper_ray_reflected": (False, PolarPoint(1.5, 0.9 - 1e-13), 1.0, W09,
                                 0.03, CAP, 500),
    "near_lower_ray_stopped": (True, PolarPoint(1.5, 1e-9), 1.0, W09, None,
                               CAP, 500),
    "alpha_0.2_stopped": (True, PolarPoint(1.0, 0.1), 0.05, W02, None, CAP,
                          500),
    "alpha_0.2_reflected": (False, PolarPoint(1.0, 0.1), 0.05, W02, 0.03, CAP,
                            500),
    "alpha_4.0_reflected": (False, PolarPoint(1.5, 2.0), 1.0, W4, 0.03, CAP,
                            500),
}


@pytest.mark.parametrize("name", sorted(PARITY))
def test_lane_path_i_is_the_scalar_recursion_on_stream_i(name):
    stopped, start, T, wedge, epsilon, cap, n = PARITY[name]
    seed = 1900 + sorted(PARITY).index(name)
    root = RngStream(seed)
    rows = lane_samples(stopped, start, T, wedge, n, seed, epsilon, cap)
    for i, (lane, faulted) in enumerate(rows):
        ref, ref_faulted = scalar_sample(stopped, start, T, wedge,
                                         root.derive(i), epsilon, cap)
        assert (lane.folds, lane.hit_boundary, lane.approx_used, faulted) == \
            (ref.folds, ref.hit_boundary, ref.approx_used, ref_faulted), i
        values = [(lane.endpoint.r, ref.endpoint.r),
                  (lane.endpoint.theta, ref.endpoint.theta),
                  (lane.elapsed, ref.elapsed), (lane.weight, ref.weight)]
        if faulted:
            assert lane.driving_endpoint is ref.driving_endpoint is None
        else:
            values.append((lane.driving_endpoint, ref.driving_endpoint))
        assert all(_close(a, b) for a, b in values), (i, values)


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


def test_exact_pi_over_3_opening_runs_one_pass_and_hits_the_rays_exactly():
    alpha = math.pi / 3
    wedge, start = WedgeSpec(0.0, alpha), PolarPoint(1.5, 0.3)
    lanes = [s for s, _f in lane_samples(True, start, 1.0, wedge, N_LAW, 1806)]
    assert all(s.folds == 1 for s in lanes)
    hits = [s for s in lanes if s.hit_boundary]
    assert hits and all(s.endpoint.theta in (0.0, alpha) for s in hits)


@pytest.mark.parametrize("T", [1.0, math.inf])
def test_stopped_exit_radius_underflowing_onto_the_apex(T):
    # from radius 3e-150 about 1% of the first exits fall below
    # APEX_RADIUS_FLOOR; the apex belongs to both rays and is reported on
    # the lower one
    start = PolarPoint(3e-150, 0.45)
    lanes = [s for s, _f in lane_samples(True, start, T, W09, N_LAW, 1810)]
    apex = [s for s in lanes if s.endpoint.r == 0.0]
    assert apex
    assert all(s.hit_boundary and s.endpoint.theta == W09.alpha_minus
               for s in apex)


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
