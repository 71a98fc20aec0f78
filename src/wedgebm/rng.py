"""Deterministic random streams with per-path sub-streams.

Built on numpy's SeedSequence/PCG64. A stream is identified by (seed, key);
`derive(i)` appends i to the key, which is numpy's documented spawning
mechanism, so path i always receives the same draws no matter how paths are
distributed over workers.
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
