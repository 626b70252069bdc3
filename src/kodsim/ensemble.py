"""Ensemble driver shared by both instruments.

Trajectory ``i`` reads only its own stream ``stream(seed, i)``, and every
kernel the driver runs is row-wise: a trajectory's result depends on its
own draws alone, never on which rows share its batch.  Results are then
byte-identical for any thread count and any batch size.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import DomainError
from .records import stream

# rows per batch: the draws of one batch held at a time
BATCH = 4096


def run_ensemble(draw, evolve, n_traj: int, seed: int, n_threads: int, dtype):
    """Results of ``n_traj`` trajectories as one array of ``dtype``.

    ``draw`` takes trajectory i's stream and returns its draws; ``evolve``
    maps the stacked draws of consecutive trajectories to their results.
    Trajectories are split about evenly over ``n_threads >= 1`` worker
    threads, and each worker evolves its share in batches of :data:`BATCH`
    rows.
    """
    if n_threads < 1:
        raise DomainError(f"need n_threads >= 1, got {n_threads}")
    bounds = np.linspace(0, n_traj, n_threads + 1).astype(int)

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


def draw_levels(pops: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One Fock level per uniform, by inverse CDF of the populations
    ``pops`` (negative roundoff clipped): the least m whose cumulative
    population exceeds the uniform times the total."""
    levels = np.cumsum(np.clip(pops, 0.0, None))
    return np.minimum(np.searchsorted(levels, uniforms * levels[-1], side="right"), pops.size - 1)
