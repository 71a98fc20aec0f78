"""The numpy lanes of the exact recursions (`wedgebm.lanes`) and their
Philox streams (`wedgebm.rng`).

The streams must be numpy's own Philox-4x64 outputs, whatever the order and
the sizes of the requests and the draws handed back, and those of the
Philox-4x64-10 specification (a pure-Python oracle). A run must not depend
on how its paths are cut into batches or spread over workers, nor an exit
draw on how many rounds it draws at once. Lane path i must be the scalar
recursion run on `RngStream(seed).derive(i)`, path for path: the same
folds, hit, corner flag and fault, and the same floats to rounding. Where a
law has a closed form, the lanes are checked against it too. Path counts,
seeds and the p threshold were fixed before the first run.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats
from scipy.special import ndtri

from wedgebm import lanes as lane_module
from wedgebm import montecarlo, samplers
from wedgebm.cli import run_cli
from wedgebm.drift import euler_paths, linear_field
from wedgebm.geometry import TWO_PI, PolarPoint, WedgeSpec, image_angles
from wedgebm.lanes import _exit_draw as lane_exit_draw
from wedgebm.lanes import reflected_paths, stopped_paths
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, map_paths
from wedgebm.rng import (LANE_BUFFER, LaneDraws, RngStream, raw_to_uniforms,
                         stream_key)
from wedgebm.samplers import (_PROPOSALS, APEX_RADIUS_FLOOR,
                              DEFAULT_FOLD_CAP, FoldCapExceeded, _pass_plan,
                              algorithm_reflected, algorithm_stopped)

from columns import pairs

W09 = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)
T1 = ["--alpha", "0.9", "--start", "1.5,0.3", "--T", "1"]
CAP = DEFAULT_FOLD_CAP
N_LAW = 4000
P_MIN = 1e-3


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def seek(draws, numbers):
    """Set the lanes' next draw numbers, their buffers empty, as after as
    many draws."""
    draws._block[:] = (numbers >> 2) - LANE_BUFFER // 4
    draws._at[:] = LANE_BUFFER + (numbers & 3)


def drawn(draws):
    """The lanes' next draw numbers."""
    return (4 * draws._block + draws._at).tolist()


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
        # some lanes hand back up to the whole request, as an exit draw
        # does with the rounds it drew ahead
        back = (gen.integers(0, j + 1, lanes.size)
                * (gen.random(lanes.size) < 0.3))
        draws._rewind(lanes, back)
        for lane, b in zip(lanes, back.tolist()):
            del got[lane][len(got[lane]) - b:]
    for lane, index in enumerate(indices):
        assert got[lane] == \
            RngStream(seed).derive(index).uniforms(len(got[lane])).tolist()
    assert all(len(g) > 1000 for g in got)


# Philox-4x64-10 from its specification (Salmon et al. 2011; Random123's
# multipliers and key increments) in Python integers: the oracle of the
# streams, independent of numpy
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
MASK64 = 2 ** 64 - 1


def philox_4x64_10(counter, key):
    """The 4 words of the Philox-4x64-10 block of `counter` (4 words) under
    `key` (2 words)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
        p0, p2 = PHILOX_M[0] * c0, PHILOX_M[1] * c2
        c0, c1, c2, c3 = ((p2 >> 64) ^ c1 ^ k0, p2 & MASK64,
                          (p0 >> 64) ^ c3 ^ k1, p0 & MASK64)
    return [c0, c1, c2, c3]


def spec_uniforms(seed, index, block, blocks, words=(0, 0, 0)):
    """The uniforms ((x >> 12) + 0.5) 2^-52 of blocks block .. block +
    blocks - 1 of the stream keyed (stream_key(seed), index) whose counter
    words 1 to 3 are `words`: numpy raises counter word 0 before each
    block, so block b is the cipher of (b + 1, *words)."""
    key = (int(stream_key(seed)), index)
    return [((x >> 12) + 0.5) * 2.0 ** -52
            for b in range(block, block + blocks)
            for x in philox_4x64_10((b + 1, *words), key)]


def test_philox_oracle_gives_the_random123_known_answers():
    pi = ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0,
           0x082EFA98EC4E6C89), (0x452821E638D01377, 0xBE5466CF34E90C6C))
    answers = {
        ((0, 0, 0, 0), (0, 0)): (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
                                 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B),
        ((MASK64,) * 4, (MASK64,) * 2): (
            0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6,
            0xA09CAEBF594F0BA0),
        pi: (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5,
             0x57BD43B5E52B7FE6),
    }
    for (counter, key), words in answers.items():
        assert philox_4x64_10(counter, key) == list(words)


def test_lane_streams_are_philox_4x64_10_by_its_spec():
    seed = 7
    indices = [0, 1, 2 ** 32 + 3, 2 ** 63 + 5, 2 ** 64 - 2]
    draws = LaneDraws(seed, indices)
    lanes = np.arange(len(indices))
    got = draws.take(lanes, 8)
    for lane, index in enumerate(indices):
        assert got[:, lane].tolist() == spec_uniforms(seed, index, 0, 2)
    # block counters past 2^32, each lane two draws into its block (no run
    # draws that far, so the draw numbers are set)
    far = [2 ** 32 + 1, 2 ** 40 + 3, 2 ** 33, 5 * 2 ** 32 + 7, 2 ** 60]
    seek(draws, 4 * np.array(far) + 2)
    got = draws.take(lanes, 10)
    for lane, (index, block) in enumerate(zip(indices, far)):
        assert got[:, lane].tolist() == spec_uniforms(seed, index, block,
                                                      3)[2:12]


def test_rng_streams_are_philox_4x64_10_by_its_spec():
    # the root at counter word 2 = 1, path i at counter 0 and its side
    # stream j at counter word 3 = j + 1
    for stream, index, words in (
            (RngStream(7), 0, (0, 1, 0)),
            (RngStream(7).derive(2 ** 64 - 2), 2 ** 64 - 2, (0, 0, 0)),
            (RngStream(7).derive(2 ** 64 - 2).derive(4), 2 ** 64 - 2,
             (0, 0, 5)),
            (RngStream(7).derive(3).derive(0), 3, (0, 0, 1))):
        got = [stream.uniform() for _ in range(LANE_BUFFER + 8)]
        assert got == spec_uniforms(7, index, 0, LANE_BUFFER // 4 + 2, words)


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


@pytest.mark.parametrize("before", [10, 30])
def test_a_take_of_more_than_half_a_buffer_is_refused(before):
    # whatever a lane's place in its buffer, a request past LANE_BUFFER // 2
    # is a ValueError that draws nothing
    seed, indices = 3, [0, 5]
    draws, lanes = LaneDraws(seed, indices), np.arange(2)
    with pytest.raises(ValueError, match="uniforms a lane"):
        draws.take(lanes, LANE_BUFFER // 2 + 8)
    first = draws.take(lanes, before)
    with pytest.raises(ValueError, match="uniforms a lane"):
        draws.take(lanes, LANE_BUFFER // 2 + 8)
    rest = draws.take(lanes, LANE_BUFFER // 2)
    for lane, index in enumerate(indices):
        assert first[:, lane].tolist() + rest[:, lane].tolist() == \
            RngStream(seed).derive(index).uniforms(
                before + LANE_BUFFER // 2).tolist()


def test_lane_uniforms_lie_strictly_inside_the_unit_interval():
    u = LaneDraws(0, range(64)).take(np.arange(64), 16)
    assert (u > 0.0).all() and (u < 1.0).all()
    # the extreme raw words: 2^64 - 1 would round to 1.0 at 53 bits, where
    # ndtri is infinite
    u = raw_to_uniforms(np.array([0, 2 ** 64 - 1], dtype=np.uint64))
    assert u.tolist() == [2.0 ** -53, 1.0 - 2.0 ** -53]
    assert np.isfinite(ndtri(u)).all() and np.isfinite(np.log(u)).all()


# ---------------------------------------------------------------------------
# the exit draw's rounds
# ---------------------------------------------------------------------------

def exit_draw_round_by_round(draws, lane_ids, r, rel, horizon, alpha):
    """`lanes._exit_draw` one round of `_PROPOSALS` proposals at a time for
    every pending lane: the reference of the rounds it draws ahead."""
    plan = _pass_plan(alpha)
    theta_cap, m = plan.theta_cap, plan.m
    mant, k = np.frexp(r)
    sd = np.ldexp(np.sqrt(horizon), -k)
    phi = np.stack((rel, theta_cap - rel)[:1 if m == 1 else 2])
    dist = mant * np.sin(phi)
    lines = np.stack((phi, dist, mant * np.cos(phi),
                      special.log_ndtr(-(dist / sd))))
    if m > 1:
        p_minus = special.expit(lines[3, 0] - lines[3, 1])
        steps = (TWO_PI / m) * np.arange(1, m)[:, None, None]
    per, count = (2, 1) if m == 1 else (4, _PROPOSALS)
    plus = np.zeros(len(r), dtype=bool)
    hit, root = np.empty(len(r)), np.empty(len(r))
    pending = np.arange(len(r))
    while pending.size:
        u = draws.take(lane_ids[pending], per * count).reshape(count, per, -1)
        if m == 1:
            line = np.zeros((count, pending.size), dtype=np.intp)
        else:
            line = (u[:, 0] >= p_minus[pending]).astype(np.intp)
            u = u[:, 1:]
        g0, d, foot, log_w = lines[:, line, pending]
        rt = d / -special.ndtri_exp(np.log(u[:, 0]) + log_w)
        x = foot + rt * special.ndtri(u[:, 1])
        keep = np.ones(x.shape, dtype=bool)
        if m > 1:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scaled = x * mant[pending] / (rt * rt)
                g = g0 + steps
                terms = np.sin(g) / np.sin(g0) * np.exp(
                    -scaled * (np.cos(g0) - np.cos(g)))
                ratio = 1.0 + np.add.accumulate(terms, axis=0)[-1]
            keep = (x > 0.0) & (u[:, 2] <= ratio)
        got = keep.any(axis=0)
        at = (keep.argmax(axis=0)[got], np.flatnonzero(got))
        done = pending[got]
        plus[done] = x[at] <= 0.0 if m == 1 else line[at] == 1
        hit[done] = np.abs(x[at])
        root[done] = rt[at]
        pending = pending[~got]
    return plus, np.ldexp(hit, k), np.ldexp(root * root, 2 * k)


@pytest.mark.parametrize("alpha", [4.0, 0.9, math.pi / 2])  # m = 1, 4, 2
@pytest.mark.parametrize("n", [1, 7, 300, 1024])
def test_exit_rounds_drawn_ahead_are_the_round_by_round_draws(n, alpha):
    # 1 and 7 pending lanes draw rounds ahead from the start, 300 and 1024
    # once few are left. The lanes start anywhere in the sub-wedge, and
    # then all on its bisector (rel None), as on a reflected pass
    gen = np.random.default_rng(n)
    theta_cap = _pass_plan(alpha).theta_cap
    r = gen.uniform(0.2, 3.0, n)
    anywhere = theta_cap * gen.uniform(0.02, 0.98, n)
    horizon = np.choose(gen.integers(0, 3, n),
                        (np.full(n, 1e-4), gen.uniform(0.05, 2.0, n),
                         np.full(n, math.inf)))
    # the lanes start at uneven draw numbers, as after earlier passes
    numbers = gen.integers(0, 40, n)
    lane_ids = np.arange(n)
    for rel, want_rel in ((anywhere, anywhere),
                          (None, np.full(n, theta_cap / 2.0))):
        ahead, plain = LaneDraws(5, range(n)), LaneDraws(5, range(n))
        seek(ahead, numbers)
        seek(plain, numbers)
        for _ in range(3):  # one exit draw a pass
            # a batch's floating-point scope: the ratio terms past the apex
            # overflow, unread
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                got = lane_exit_draw(ahead, lane_ids, r, rel, horizon, alpha)
            want = exit_draw_round_by_round(plain, lane_ids, r, want_rel,
                                            horizon, alpha)
            assert repr([a.tolist() for a in got]) == \
                repr([a.tolist() for a in want])
            assert drawn(ahead) == drawn(plain)


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
    # the Euler modes are cut into the same batches
    "ito_table3_reflected": ["ito", "--table3-reflected", "--steps", "20",
                             "--n", "12"],
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_output_does_not_depend_on_batch_size_or_workers(name, tmp_path,
                                                         monkeypatch):
    argv = BATCH_CASES[name]
    worker_counts = ("1", "3") if argv[0] in ("estimate", "ito") else (None,)
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
    # would be 5 MB an array (a batch peaked at 15.6 MB so). Opening 1e-3 has
    # m = 3142, and its cells from (1000, 5e-4) lie too near the rays for
    # the survivor screen: one block of the terms of an Euler block's 256
    # cells would be 13 MB an array (two paths peaked at 37.2 MB so). The
    # blocks hold at most samplers._IMAGE_CAP values
    wedge, start = WedgeSpec(0.0, 0.01), PolarPoint(1.0, 0.005)
    field = linear_field((0.0, 0.0), (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    tracemalloc.start()
    try:
        stopped_paths(start, 1e-5, wedge, 1, range(1024), CAP)
        reflected_paths(start, 1e-5, wedge, 1, range(1024), 0.03, CAP)
        euler_paths(field, PolarPoint(1000.0, 5e-4), 1e-5, 300,
                    WedgeSpec(0.0, 1e-3), 1, range(2), True, 0.03, CAP)
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
    return pairs(rows)


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
# wedges whose lower ray is not at angle 0
W_ROT, W_ROT_WIDE = WedgeSpec(0.3, 1.2), WedgeSpec(2.0, TWO_PI)
# name -> (stopped, start, T, wedge, epsilon, cap, paths); path i of a case
# draws from seed 1900 + the case's place in sorted order, so a new case
# whose name sorts last leaves the seeds of the others as they were
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
    "wedge_rotated_stopped": (True, PolarPoint(1.5, 0.6), 1.0, W_ROT, None,
                              CAP, 1500),
    "wedge_rotated_exit": (True, PolarPoint(1.5, 0.6), math.inf, W_ROT, None,
                           CAP, 1500),
    "wedge_rotated_reflected": (False, PolarPoint(1.5, 0.6), 1.0, W_ROT, 0.03,
                                CAP, 1500),
    "wedge_rotated_wide_stopped": (True, PolarPoint(1.0, 4.0), 1.0,
                                   W_ROT_WIDE, None, CAP, 500),
    "wedge_rotated_wide_reflected": (False, PolarPoint(1.0, 4.0), 1.0,
                                     W_ROT_WIDE, 0.03, CAP, 500),
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


def test_an_exit_that_takes_all_the_time_left_ends_on_an_inner_ray(
        monkeypatch):
    # each path's first exit takes exactly the time left; the wrapped draw
    # still draws, so the streams stay in step. A path whose first
    # survivor is refused then ends at that exit, at T: on the lower ray,
    # hit, or on the inner ray pi/4, unhit, in both engines alike
    scalar_draw, lane_draw = samplers._exit_draw, lane_module._exit_draw
    first = []

    def scalar_exit(rel, horizon, sub, m, rng):
        side, r, tau = scalar_draw(rel, horizon, sub, m, rng)
        return (side, r, horizon) if first and first.pop() else (side, r, tau)

    def lane_exit(draws, lanes, r, rel, horizon, alpha):
        plus, radius, tau = lane_draw(draws, lanes, r, rel, horizon, alpha)
        return plus, radius, horizon.copy() if first and first.pop() else tau

    monkeypatch.setattr(samplers, "_exit_draw", scalar_exit)
    monkeypatch.setattr(lane_module, "_exit_draw", lane_exit)
    first[:] = [True]
    rows = lane_samples(True, START, 1.0, W09, 64, 1811)
    root = RngStream(1811)
    inner = 0
    for i, (lane, faulted) in enumerate(rows):
        first[:] = [True]
        ref = algorithm_stopped(START, 1.0, W09, root.derive(i))
        assert not faulted and repr(lane) == repr(ref), i
        assert lane.elapsed == 1.0 and lane.folds == 1
        if lane.endpoint.theta == math.pi / 4:
            assert not lane.hit_boundary
            inner += 1
    assert inner


def test_a_start_radius_past_the_exit_law_range_is_a_value_error():
    start = PolarPoint(1e160, 0.3)
    with pytest.raises(ValueError, match="too large for the exit law"):
        stopped_paths(start, math.inf, W09, 0, range(3), CAP)
    with pytest.raises(ValueError, match="too large for the exit law"):
        algorithm_stopped(start, math.inf, W09, RngStream(0))
    assert run_cli(["estimate", "--alpha", "0.9", "--start", "1e160,0.3",
                    "--T", "1", "--n", "2"]) == 2


def test_a_start_radius_past_the_overflow_of_4_r_keeps_its_survivor():
    # 4 r overflowed in the image sums, whose nearest term was then 0 times
    # inf: every survivor trial was refused, the scalar stopped recursion
    # raised ZeroDivisionError, and the lanes moved every path far off
    start = PolarPoint(1.7e308, 0.3)
    for sample in (algorithm_stopped(start, 1.0, W09, RngStream(1).derive(0)),
                   algorithm_reflected(start, 1.0, W09,
                                       RngStream(1).derive(0))):
        assert (sample.endpoint, sample.elapsed, sample.folds) == \
            (start, 1.0, 1)
    for paths in (stopped_paths(start, 1.0, W09, 1, range(3), CAP),
                  reflected_paths(start, 1.0, W09, 1, range(3), 0.03, CAP)):
        assert (paths.r.tolist(), paths.theta.tolist(), paths.folds.tolist(),
                paths.hit.any()) == ([1.7e308] * 3, [0.3] * 3, [1] * 3, False)


@pytest.mark.parametrize("reflected", [False, True])
def test_the_lanes_leave_the_bisector_image_list_unmade(reflected,
                                                        monkeypatch):
    # at m = 10^5 the bisector's 2m image angles are a list of 2 10^5
    # floats, which only the scalar reflected recursion reads
    alpha = math.pi / 10 ** 5
    wedge, start = WedgeSpec(0.0, alpha), PolarPoint(1.0, 0.3 * alpha)
    _pass_plan.cache_clear()
    plan = _pass_plan(alpha)
    assert plan.m == 10 ** 5
    if reflected:
        reflected_paths(start, 1e-11, wedge, 2, range(4), 0.03, CAP)
    else:
        stopped_paths(start, 1e-11, wedge, 2, range(4), CAP)
    assert _pass_plan(alpha) is plan and "mid_images" not in vars(plan)
    if reflected:
        # the scalar recursion's survivor trials read exactly those angles
        seen = []
        trial = samplers._survivor_trial
        monkeypatch.setattr(samplers, "_survivor_trial",
                            lambda rel, sub, m, images, *rest: seen.append(
                                images) or trial(rel, sub, m, images, *rest))
        algorithm_reflected(start, 1e-11, wedge, RngStream(2).derive(0))
        assert seen and all(images is plan.mid_images for images in seen)
        assert plan.mid_images == image_angles(plan.theta_cap / 2.0,
                                               plan.sub, plan.m)


@pytest.mark.parametrize("T", [math.inf, 0.0, -1.0, math.nan])
def test_reflected_lanes_need_a_positive_finite_horizon(T):
    with pytest.raises(ValueError, match="horizon must be positive and "
                                         "finite"):
        reflected_paths(START, T, W09, 1, range(2), 0.03, CAP)


@pytest.mark.parametrize("r, theta, message", [
    (math.inf, 0.3, "radius must be finite and nonnegative, got inf"),
    (math.nan, 0.3, "radius must be finite and nonnegative, got nan"),
    (-1.0, 0.3, "radius must be finite and nonnegative, got -1.0"),
    (1.0, math.inf, "angle must be finite, got inf"),
])
def test_a_column_record_holds_only_polar_points(r, theta, message):
    # one check a record raises PolarPoint's error for the first bad path
    paths = stopped_paths(START, 1.0, W09, 3, range(4), CAP)
    paths.r[1], paths.theta[1] = r, theta
    paths.r[3] = math.inf
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(paths)


@pytest.mark.parametrize("mode", [Mode.STOPPED, Mode.REFLECTED])
def test_drift_mass_row_has_mean_weight_one(mode):
    config = EstimatorConfig(mode=mode, func=TestFunction.CONSTANT_1,
                             horizon=1.0, n_samples=N_LAW, seed=1808,
                             wedge=W09, start=START, drift=(0.3, -0.2))
    weights = map_paths(config).weight
    se = np.std(weights, ddof=1) / math.sqrt(N_LAW)
    assert abs(np.mean(weights) - 1.0) <= 3.5 * se
