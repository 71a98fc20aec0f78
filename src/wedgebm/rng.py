"""Deterministic random streams: per-path PCG64 sub-streams and per-lane
Philox counter streams.

`RngStream` is built on numpy's SeedSequence/PCG64. A stream is identified
by (seed, key); `derive(i)` appends i to the key, which is numpy's documented
spawning mechanism. The Euler modes draw path i from `RngStream(seed)
.derive(i)`, one path at a time.

The exact recursions run a batch of paths as numpy lanes (see `lanes`), and
`LaneDraws` gives each lane its own counter-based stream with no generator
built per path: the k-th uniform of path i is ((x_k >> 11) + 0.5) 2^-53,
where x_k is the k-th `random_raw` output of numpy's Philox-4x64-10 keyed by
(stream_key(seed), i), computed here for many lanes at once in numpy
integers (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2,
3"). Either way path i receives the same draws however paths are split
into batches or spread over workers.
"""

import numpy as np


class RngStream:
    def __init__(self, seed, _key=()):
        self.seed = int(seed)
        self.key = tuple(_key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def derive(self, index):
        """Independent sub-stream number `index` of this stream."""
        return RngStream(self.seed, self.key + (int(index),))

    def uniform(self):
        return self._gen.random()

    def uniforms(self, k):
        """An array of k uniforms on [0, 1): the doubles that k successive
        uniform() calls would return."""
        return self._gen.random(k)

    def normal(self):
        return self._gen.standard_normal()

    def exponential(self):
        return self._gen.standard_exponential()

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"


# Philox-4x64-10 (Random123): the multipliers of counter words 0 and 2 (and
# their 32-bit halves) and the key increments, as columns
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_M_LO, _M_HI = _M & _LO32, _M >> _S32
_ROUNDS = 10

# uniforms a lane holds between refills, a multiple of the 4 of a block
LANE_BUFFER = 64
# Philox blocks one call computes, which bounds its temporaries
_REFILL_BLOCKS = 2048


def stream_key(seed):
    """The first Philox key word of every lane stream of `seed`."""
    return np.random.SeedSequence(int(seed)).generate_state(1, np.uint64)[0]


def philox_uniforms(key, index, block, blocks):
    """The uniforms of Philox blocks block .. block + blocks - 1 of the
    streams keyed (key, index[j]): an array (len(index), 4 blocks), row j
    holding draws 4 block[j] onwards of stream j.

    numpy's Philox, from counter 0, raises the counter before each block,
    so block b is the cipher of the counter (b + 1, 0, 0, 0). Counter words
    0 and 2 are the rows of one array, multiplied 64 x 64 -> 128 bits in
    32-bit halves, and words 1 and 3 the rows of another.
    """
    n = len(index)
    even = np.zeros((2, n * blocks), dtype=np.uint64)  # counter words 0, 2
    even[0] = (block.astype(np.uint64)[:, None] + np.uint64(1)
               + np.arange(blocks, dtype=np.uint64)).ravel()
    odd = np.zeros_like(even)  # counter words 1, 3
    keys = np.empty_like(even)
    keys[0] = key
    keys[1] = np.repeat(index, blocks)
    x_lo, x_hi, t, scratch, hi = (np.empty_like(even) for _ in range(5))
    for r in range(_ROUNDS):
        if r:
            keys += _W
        # hi = the high word of M x: with x = x_hi 2^32 + x_lo,
        # t = M_hi x_lo + (M_lo x_lo >> 32), w = (t mod 2^32) + M_lo x_hi,
        # hi = M_hi x_hi + (t >> 32) + (w >> 32), none of which overflows
        np.bitwise_and(even, _LO32, out=x_lo)
        np.right_shift(even, _S32, out=x_hi)
        np.multiply(_M_LO, x_lo, out=t)
        np.right_shift(t, _S32, out=t)
        t += np.multiply(_M_HI, x_lo, out=x_lo)
        np.multiply(_M_HI, x_hi, out=hi)
        hi += np.right_shift(t, _S32, out=scratch)
        np.bitwise_and(t, _LO32, out=t)
        t += np.multiply(_M_LO, x_hi, out=x_hi)
        hi += np.right_shift(t, _S32, out=t)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        lo = np.multiply(_M, even, out=even)[::-1].copy()
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= keys
        odd = lo
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
    return (((words >> np.uint64(11)).astype(np.float64) + 0.5)
            * 2.0 ** -53).reshape(n, 4 * blocks)


class LaneDraws:
    """The lane streams of paths `indices` of `seed`, lane j drawing from
    path indices[j]'s stream.

    Each lane holds up to LANE_BUFFER of its uniforms. `take` serves a
    request for any subset of lanes. When one of them runs short it refills
    every lane of the request whose buffer is half empty, so that lanes
    that draw at different rates refill together, in one Philox call per
    _REFILL_BLOCKS blocks. A lane's k-th draw is the k-th uniform of its
    stream whenever its buffer is filled.
    """

    def __init__(self, seed, indices):
        self._key = stream_key(seed)
        self._index = np.asarray(indices, dtype=np.uint64)
        n = len(self._index)
        self._buf = np.empty((n, LANE_BUFFER))
        self._first = np.zeros(n, dtype=np.int64)  # the draw number of buf[:, 0]
        self._end = np.zeros(n, dtype=np.int64)  # one past the last one held
        self._next = np.zeros(n, dtype=np.int64)  # the next draw's number

    def take(self, lanes, j):
        """The next j uniforms of each lane of the index array `lanes`, as an
        array (j, len(lanes)); j is at most LANE_BUFFER // 2."""
        k = self._next[lanes]
        left = self._end[lanes] - k
        if (left < j).any():
            low = left < LANE_BUFFER // 2
            refill = lanes[low]
            first = k[low] & ~3  # whole blocks
            self._first[refill] = first
            self._end[refill] = first + LANE_BUFFER
            step = _REFILL_BLOCKS * 4 // LANE_BUFFER
            for lo in range(0, refill.size, step):
                part = slice(lo, lo + step)
                self._buf[refill[part]] = philox_uniforms(
                    self._key, self._index[refill[part]], first[part] >> 2,
                    LANE_BUFFER // 4)
        self._next[lanes] = k + j
        offset = k - self._first[lanes]
        return self._buf[lanes, offset + np.arange(j)[:, None]]
