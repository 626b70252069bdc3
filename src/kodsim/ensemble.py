"""Ensemble driver shared by both instruments.

A run draws every trajectory's uniforms at once from its one trajectory
stream, row-major, so trajectory ``i`` reads row ``i`` whatever the
trajectory count.  Every kernel the driver runs is row-wise: a trajectory's
result depends on its own row alone, never on which rows share its batch.
Results are then byte-identical for any thread count and any batch size,
and the first k trajectories of a run are a k-trajectory run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import DomainError
from .records import STREAM_IDS, stream

# most rows a kernel evolves at once: it bounds the kernels' working arrays
BATCH = 4096


def run_ensemble(evolve, k: int, n_traj: int, seed: int, n_threads: int) -> np.ndarray:
    """Results of ``n_traj`` trajectories, trajectory i evolved from row i of
    ``stream(seed, STREAM_IDS["trajectories"]).random((n_traj, k))``.

    ``evolve`` maps consecutive rows to their results; each slice of at
    most :data:`BATCH` rows is one task for a pool of ``n_threads >= 1``
    worker threads.
    """
    if n_threads < 1:
        raise DomainError(f"need n_threads >= 1, got {n_threads}")
    if n_traj < 0:
        raise DomainError(f"need n_traj >= 0, got {n_traj}")
    uniforms = stream(seed, STREAM_IDS["trajectories"]).random((n_traj, k))
    # no trajectories still make one empty slice, so the result has evolve's dtype
    slices = [uniforms[b : b + BATCH] for b in range(0, max(n_traj, 1), BATCH)]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return np.concatenate(list(pool.map(evolve, slices)))


def draw_levels(pops: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One Fock level per uniform, by inverse CDF of the populations
    ``pops`` (negative roundoff clipped): the least m whose cumulative
    population exceeds the uniform times the total."""
    levels = np.cumsum(np.clip(pops, 0.0, None))
    return np.minimum(np.searchsorted(levels, uniforms * levels[-1], side="right"), pops.size - 1)
