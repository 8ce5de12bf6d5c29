"""Deterministic parallel random streams.

Monte Carlo samples draw from counter-based streams whose key depends only
on (master seed, block index), one stream per fixed block of 1024 samples
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011):
global sample j is row j mod 1024 of the C-order standard normals of
`stream(seed, j // 1024)`, Philox with key hash64(seed, j // 1024) and
counter 0 (see `diffusion._normal_increments`).  A shorter draw is a prefix
of the full block, so batches are bit-stable under chunking, re-runs, and
any worker scheduling, and enlarging the sample count never perturbs the
streams already drawn.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _word(w):
    """A word reduced mod 2**64: a Python int, or a uint64 array for an
    integer array (the cast wraps negative entries mod 2**64)."""
    if np.ndim(w) == 0:
        return int(w) & _MASK64
    return np.asarray(w).astype(np.uint64)


def hash64(*words):
    """Mix integer words into a single 64-bit stream key (splitmix64 core).

    Integer words give a Python int.  An integer array word gives one key
    per element, as a uint64 array equal elementwise to the scalar keys.
    """
    h = 0x9E3779B97F4A7C15
    for w in words:
        h = (h + _word(w)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, indices); counter-based (Philox)."""
    return np.random.Generator(np.random.Philox(key=hash64(seed, *indices)))
