"""Shared ensemble driver and the renormalization guard."""

import numpy as np
import pytest

from kodsim import ensemble
from kodsim.exceptions import NumericError
from oracles import renormalize_density


def test_partition_and_batching_do_not_change_results():
    def draw(rng):
        return rng.random(3)

    def evolve(draws):
        return draws.sum(axis=1)

    base = ensemble.run_ensemble(draw, evolve, 10, 4, 1, 8192, float)
    for threads, batch in ((3, 8192), (1, 2), (4, 3)):
        other = ensemble.run_ensemble(draw, evolve, 10, 4, threads, batch, float)
        assert np.array_equal(base, other)
    empty = ensemble.run_ensemble(draw, evolve, 0, 4, 2, 8192, np.int64)
    assert empty.shape == (0,) and empty.dtype == np.int64


def test_renormalize_guards_fire_on_collapse_and_nan():
    with pytest.raises(NumericError):
        renormalize_density(np.diag([1e-20, 0.0]).astype(complex), step=3)
    with pytest.raises(NumericError):
        renormalize_density(np.diag([np.nan, 0.0]).astype(complex), step=3)
