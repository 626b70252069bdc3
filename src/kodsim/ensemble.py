"""Ensemble driver shared by both instruments and the norm-collapse floor
of the samplers.

Trajectory ``i`` reads only its own stream ``stream(seed, i)`` and is always
computed in the block of rows ``[BLOCK*(i // BLOCK), BLOCK*(i // BLOCK) +
BLOCK)``: batch sizes round up to whole blocks and thread bounds sit on
block edges.  A kernel whose output row depends only on its own input row
and its fixed place in a fixed-shape block, such as one BLAS product per
block, is then byte-identical for any thread count or batch size.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .records import stream

# smallest trace (squared norm, for a vector) a sampler may renormalize
NORM_COLLAPSE = 1e-14
# rows per block: trajectory i always sits at row i % BLOCK of block i // BLOCK
BLOCK = 64


def run_ensemble(draw, evolve, n_traj: int, seed: int, n_threads: int, batch: int, dtype):
    """Results of ``n_traj`` trajectories as one array of ``dtype``.

    ``draw`` takes trajectory i's stream and returns its draws; ``evolve``
    maps the stacked draws of consecutive trajectories to their results.
    ``batch`` is rounded up to a multiple of :data:`BLOCK`, and whole blocks
    are split about evenly over ``n_threads`` worker threads, so every batch
    starts on a block edge and only the last one may end inside a block.
    """
    batch = BLOCK * max(1, -(-batch // BLOCK))
    n_blocks = -(-n_traj // BLOCK)
    edges = np.linspace(0, n_blocks, max(1, n_threads) + 1).astype(int) * BLOCK
    bounds = np.minimum(edges, n_traj)

    def chunk(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo, dtype=dtype)
        for b0 in range(lo, hi, batch):
            b1 = min(b0 + batch, hi)
            draws = np.stack([draw(stream(seed, i)) for i in range(b0, b1)])
            out[b0 - lo : b1 - lo] = evolve(draws)
        return out

    pairs = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(pairs) <= 1:
        parts = [chunk(lo, hi) for lo, hi in pairs]
    else:
        with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
            parts = list(pool.map(lambda b: chunk(*b), pairs))
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
