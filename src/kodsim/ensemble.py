"""Ensemble driver shared by both instruments and the norm-collapse floor
of the samplers.  The heterodyne batch sampler renormalizes nothing: after k
steps its conditional state is ``e^{-a^dag a kappa_o t_k/2} e^{c a} rho
(...)^dag`` normalized, with ``c = phi conj(zeta_k)`` fixed by the record
functional so far, so it reads the drift ``Tr(a rho_k)`` from the Born
weight polynomial in c instead of evolving a state.

Trajectory ``i`` reads only its own stream ``stream(seed, i)``, so the
thread count and the batch size only partition the work: results are
byte-identical for any choice of either.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .records import stream

# smallest trace (squared norm, for a vector) a sampler may renormalize
NORM_COLLAPSE = 1e-14


def run_ensemble(draw, evolve, n_traj: int, seed: int, n_threads: int, batch: int, dtype):
    """Results of ``n_traj`` trajectories as one array of ``dtype``.

    ``draw`` takes trajectory i's stream and returns its draws; ``evolve``
    maps the stacked draws of up to ``batch`` consecutive trajectories to
    their results.  Index ranges of about equal size run on ``n_threads``
    worker threads.
    """

    def chunk(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo, dtype=dtype)
        for b0 in range(lo, hi, batch):
            b1 = min(b0 + batch, hi)
            draws = np.stack([draw(stream(seed, i)) for i in range(b0, b1)])
            out[b0 - lo : b1 - lo] = evolve(draws)
        return out

    bounds = np.linspace(0, n_traj, max(1, n_threads) + 1).astype(int)
    pairs = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(pairs) <= 1:
        parts = [chunk(lo, hi) for lo, hi in pairs]
    else:
        with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
            parts = list(pool.map(lambda b: chunk(*b), pairs))
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
