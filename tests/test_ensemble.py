"""Shared ensemble driver and the renormalization guard."""

import numpy as np
import pytest

from kodsim import ensemble
from kodsim.exceptions import NumericError
from oracles import renormalize_density


def test_batch_is_whole_blocks():
    assert ensemble.BATCH % ensemble.BLOCK == 0


def test_partition_and_batching_do_not_change_results(monkeypatch):
    def draw(rng):
        return rng.random(3)

    def evolve(draws):
        return draws.sum(axis=1)

    n_traj = 2 * ensemble.BLOCK + 5
    base = ensemble.run_ensemble(draw, evolve, n_traj, 4, 1, float)
    for batch in (ensemble.BLOCK, 2 * ensemble.BLOCK, 64 * ensemble.BLOCK):
        monkeypatch.setattr(ensemble, "BATCH", batch)
        for threads in (1, 3, 4):
            other = ensemble.run_ensemble(draw, evolve, n_traj, 4, threads, float)
            assert np.array_equal(base, other), (batch, threads)
    empty = ensemble.run_ensemble(draw, evolve, 0, 4, 2, np.int64)
    assert empty.shape == (0,) and empty.dtype == np.int64


def test_renormalize_guards_fire_on_collapse_and_nan():
    with pytest.raises(NumericError):
        renormalize_density(np.diag([1e-20, 0.0]).astype(complex), step=3)
    with pytest.raises(NumericError):
        renormalize_density(np.diag([np.nan, 0.0]).astype(complex), step=3)
