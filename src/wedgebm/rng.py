"""Deterministic random streams, all of numpy's Philox-4x64-10 (Salmon et
al. 2011, "Parallel random numbers: as easy as 1, 2, 3").

Every stream of `seed` is keyed by (stream_key(seed), w), and
`raw_to_uniforms` turns its raw words into uniforms. `RngStream` runs
numpy's C Philox: the root at w = 0 from counter word 2 = 1, path i
(`derive(i)`) at w = i from counter 0, and its side stream j at w = i from
counter word 3 = j + 1; counter word 0 counts the blocks, so the ranges are
disjoint short of 2^64 blocks. `normal()` is ndtri(u) and `exponential()`
-log u, of one uniform u each. `LaneDraws` gives lane j of a batch the
stream of path indices[j], refilling a lane's buffer from the same C
Philox set to its key and block. So path i draws the same in its lane, in
the scalar recursions on `RngStream(seed).derive(i)`, and however paths are
batched or spread over workers.
"""

import functools
import math

import numpy as np
from scipy.special import ndtri


# the shift that keeps 52 bits of a raw word, and the bits of the double 1.0
_SHIFT = np.uint64(12)
_ONE = np.uint64(0x3FF0000000000000)


def raw_to_uniforms(raw):
    """The uniforms ((x >> 12) + 0.5) 2^-52 of an array of raw Philox words
    x: exact, and strictly inside (0, 1), from 2^-53 to 1 - 2^-53. They
    are made in raw's memory, which they overwrite: x >> 12 under the
    exponent bits of 1.0 is the double 1 + (x >> 12) 2^-52, and less
    1 - 2^-53 it is exact (Sterbenz's lemma: it lies within a factor 2 of
    1 - 2^-53)."""
    raw >>= _SHIFT
    raw |= _ONE
    u = raw.view(np.float64)
    u -= 1.0 - 2.0 ** -53
    return u


@functools.lru_cache(maxsize=16)
def stream_key(seed):
    """The first Philox key word of every stream of `seed`."""
    return np.random.SeedSequence(int(seed)).generate_state(1, np.uint64)[0]


class RngStream:
    """Stream `key` of `seed`: the root (), path (i,) or its side stream (i, j)."""

    def __init__(self, seed, _key=()):
        self.seed = int(seed)
        self.key = tuple(int(i) for i in _key)
        if len(self.key) > 2 or not all(0 <= i < 2 ** 64 - 1 for i in self.key):
            raise ValueError(f"stream key must be (), (path) or (path, side) "
                             f"in [0, 2^64 - 1), got {self.key}")
        # key word 1 and the counter, whose word c starts at bit 64 c
        path, side = (self.key + (-1, -1))[:2]
        word, counter = (0, 1 << 128) if path < 0 else (path, side + 1 << 192)
        self._bits = np.random.Philox(key=np.array(
            [stream_key(self.seed), word], dtype=np.uint64), counter=counter)
        self._buf = []
        self._at = 0

    def derive(self, index):
        """Path `index` of the root, or side stream `index` of a path."""
        return RngStream(self.seed, self.key + (int(index),))

    def uniform(self):
        if self._at == len(self._buf):
            self._buf = raw_to_uniforms(
                self._bits.random_raw(LANE_BUFFER)).tolist()
            self._at = 0
        self._at += 1
        return self._buf[self._at - 1]

    # normal() and exponential() read the buffer by this name: a wrapper of
    # uniform() (the benchmark's draw counter) counts one draw a call
    _next = uniform

    def uniforms(self, k):
        """An array of k uniforms: the doubles that k successive uniform()
        calls would return."""
        held = self._buf[self._at:self._at + k]
        self._at += len(held)
        fresh = raw_to_uniforms(self._bits.random_raw(k - len(held)))
        return np.concatenate((held, fresh)) if held else fresh

    def normal(self):
        return float(ndtri(self._next()))

    def exponential(self):
        return -math.log(self._next())

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"


# uniforms a lane or a stream holds between refills, whole blocks of 4
LANE_BUFFER = 64
# the places of a take's draws after each lane's first, one row a draw
_GRID = np.arange(LANE_BUFFER // 2)[:, None]


class LaneDraws:
    """The lane streams of paths `indices` of `seed`, lane j drawing from
    path indices[j]'s stream.

    Each lane holds up to LANE_BUFFER of its uniforms and the place of its
    next draw there; `take` reads at each lane's place and moves it on, and
    `_rewind` moves it back, so draws handed back are drawn again. `take`
    serves up to LANE_BUFFER // 2 uniforms a lane for any subset of lanes.
    When one of them runs short it refills every lane of the request whose
    buffer is half empty, from the block of its next draw, so that lanes
    that draw at different rates refill together. A refill points the
    instance's own numpy Philox at each lane's key and block in turn (one
    generator per instance, as batches may run on threads), so its cost
    follows the lanes it refills. A lane's k-th draw is the k-th uniform of
    its stream.
    """

    def __init__(self, seed, indices):
        key = int(stream_key(seed))
        self._index = [int(i) for i in indices]
        n = len(self._index)
        self._bits = np.random.Philox(key=np.array([key, 0], dtype=np.uint64))
        # numpy raises the counter before each block, so a counter of b
        # makes block b next, the cipher of (b + 1, 0, 0, 0)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": [key, 0]},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        self._buf = np.empty((n, LANE_BUFFER))
        # buf[j] holds lane j's blocks _block[j] on, and _at[j] is the place
        # of its next draw there: at LANE_BUFFER, buf holds no draw
        self._block = np.full(n, -(LANE_BUFFER // 4), dtype=np.int64)
        self._at = np.full(n, LANE_BUFFER, dtype=np.intp)

    def take(self, lanes, j):
        """The next j uniforms of each lane of the index array `lanes`, as an
        array (j, len(lanes)); j is at most LANE_BUFFER // 2."""
        if not 0 <= j <= LANE_BUFFER // 2:
            raise ValueError(f"a take serves 0 to {LANE_BUFFER // 2} "
                             f"uniforms a lane, not {j}")
        at = self._at[lanes]
        if at.max(initial=0) > LANE_BUFFER - j:
            low = at > LANE_BUFFER // 2
            refill = lanes[low]
            block = self._block[refill] + (at[low] >> 2)  # whole blocks
            self._block[refill] = block
            at[low] &= 3
            raw = np.empty((refill.size, LANE_BUFFER), dtype=np.uint64)
            state, bits = self._state, self._bits
            for row, lane, b in zip(raw, refill.tolist(), block.tolist()):
                state["state"]["key"][1] = self._index[lane]
                state["state"]["counter"][0] = b
                bits.state = state
                row[:] = bits.random_raw(LANE_BUFFER)
            self._buf[refill] = raw_to_uniforms(raw)
        self._at[lanes] = at + j
        return self._buf[lanes, at + _GRID[:j]]

    def _rewind(self, lanes, back):
        """Hand back the last `back` draws (an array over `lanes`, each no
        more than that lane's last `take` served) to be drawn again."""
        self._at[lanes] -= back
