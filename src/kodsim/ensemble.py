"""Ensemble driver shared by both instruments.

Trajectory ``i`` reads only its own stream ``stream(seed, i)`` and is always
computed in the block of rows ``[BLOCK*(i // BLOCK), BLOCK*(i // BLOCK) +
BLOCK)``: batches are :data:`BATCH` rows, a whole number of blocks, and
thread bounds sit on block edges.  A kernel whose output row depends only
on its own input row and its fixed place in a fixed-shape block, such as
one BLAS product per block, is then byte-identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import DomainError
from .records import stream

# rows per block: trajectory i always sits at row i % BLOCK of block i // BLOCK
BLOCK = 64
# rows per batch, whole blocks: the draws of one batch held at a time
BATCH = 64 * BLOCK


def run_ensemble(draw, evolve, n_traj: int, seed: int, n_threads: int, dtype):
    """Results of ``n_traj`` trajectories as one array of ``dtype``.

    ``draw`` takes trajectory i's stream and returns its draws; ``evolve``
    maps the stacked draws of consecutive trajectories to their results.
    Whole blocks are split about evenly over ``n_threads >= 1`` worker
    threads, and each worker evolves its share in batches of :data:`BATCH`
    rows, so every batch starts on a block edge and only the last one may
    end inside a block.
    """
    if n_threads < 1:
        raise DomainError(f"need n_threads >= 1, got {n_threads}")
    n_blocks = -(-n_traj // BLOCK)
    bounds = np.minimum(np.linspace(0, n_blocks, n_threads + 1).astype(int) * BLOCK, n_traj)

    def chunk(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo, dtype=dtype)
        for b0 in range(lo, hi, BATCH):
            b1 = min(b0 + BATCH, hi)
            draws = np.stack([draw(stream(seed, i)) for i in range(b0, b1)])
            out[b0 - lo : b1 - lo] = evolve(draws)
        return out

    pairs = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=max(1, len(pairs))) as pool:
        parts = list(pool.map(lambda b: chunk(*b), pairs))
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
