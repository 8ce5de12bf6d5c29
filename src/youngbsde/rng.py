"""Deterministic parallel random streams.

Every Monte Carlo sample draws from its own counter-based stream whose key
depends only on (master seed, sample index).  This makes batches bit-stable
under chunking, re-runs, and any worker scheduling, and enlarging the sample
count never perturbs the streams already drawn.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def hash64(*words: int) -> int:
    """Mix integer words into a single 64-bit stream key (splitmix64 core)."""
    h = 0x9E3779B97F4A7C15
    for w in words:
        h = (h + (int(w) & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, indices); counter-based (Philox)."""
    return np.random.Generator(np.random.Philox(key=hash64(seed, *indices)))
