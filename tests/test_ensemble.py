"""Shared ensemble driver, its row-wise kernels, and the renormalization guard."""

import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from kodsim import ensemble, fock, heterodyne as het, photodetector as pd, records
from kodsim.exceptions import DomainError, NumericError
from kodsim.params import InstrumentParams
from oracles import renormalize_density


def test_partition_and_batching_do_not_change_results(monkeypatch):
    def evolve(rows):
        return rows.sum(axis=1)

    n_traj = 133
    base = ensemble.run_ensemble(evolve, 3, n_traj, 4, 1)
    rows = records.stream(4, records.STREAM_IDS["trajectories"]).random((n_traj, 3))
    assert np.array_equal(base, rows.sum(axis=1))
    for batch in (1, 7, 64, ensemble.BATCH):
        monkeypatch.setattr(ensemble, "BATCH", batch)
        for threads in (1, 3, 4):
            other = ensemble.run_ensemble(evolve, 3, n_traj, 4, threads)
            assert np.array_equal(base, other), (batch, threads)
            # the first k trajectories of a run are a k-trajectory run
            assert np.array_equal(ensemble.run_ensemble(evolve, 3, 50, 4, threads), base[:50])
    empty = ensemble.run_ensemble(lambda rows: rows[:, 0].astype(np.int64), 2, 0, 4, 2)
    assert empty.shape == (0,) and empty.dtype == np.int64


def test_batch_by_batch_draws_are_one_draw():
    # each slice's rows drawn in turn are the rows of one draw, bit for bit
    n_traj, k = 2 * ensemble.BATCH + 3, 5
    rows = records.stream(9, records.STREAM_IDS["trajectories"]).random((n_traj, k))
    for threads in (1, 2, 3):
        drawn = ensemble.run_ensemble(lambda u: u.copy(), k, n_traj, 9, threads)
        assert np.array_equal(drawn.view(np.int64), rows.view(np.int64)), threads


def test_a_run_holds_the_uniforms_of_the_slices_in_flight_only():
    n_traj, k, threads = 10 * ensemble.BATCH, 42, 2
    slice_bytes = ensemble.BATCH * k * 8
    tracemalloc.start()
    try:
        ensemble.run_ensemble(lambda u: u[:, 0].copy(), k, n_traj, 9, threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the slices in flight and the one being drawn, plus the results and their
    # concatenation; the whole uniform array alone is 10 slices
    assert peak < (threads + 1) * slice_bytes + 2 * n_traj * 8, peak


@pytest.mark.parametrize("run", [pd.run_photo_ensemble, het.run_het_ensemble])
def test_a_negative_count_or_seed_is_a_domain_error(run):
    # numpy raised its own untyped ValueError on each: "negative dimensions
    # are not allowed" and "expected non-negative integer"
    rho = fock.density(fock.coherent_state(8, 0.5))
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=0.5, dt=1e-3, dim=8)
    with pytest.raises(DomainError, match="need n_traj >= 0, got -1"):
        run(rho, p, -1, seed=1)
    with pytest.raises(DomainError, match="need seed >= 0, got -2"):
        run(rho, p, 5, seed=-2)
    with pytest.raises(DomainError, match="need seed >= 0"):
        records.stream(-1, records.STREAM_IDS["method-c"])


# everything the two ensembles run per batch or per trajectory
KERNELS = (ensemble.run_ensemble, ensemble.draw_levels, pd.run_photo_ensemble,
           het._husimi_circles, het._phase_cdf, het._husimi_phase, het._husimi_amplitudes,
           het.run_het_ensemble)
# products that reduce across rows, through BLAS or a contraction that may call it
CROSS_ROW = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "einsum_path"}


@pytest.mark.parametrize("kernel", KERNELS, ids=[k.__qualname__ for k in KERNELS])
def test_ensemble_kernels_are_row_wise(kernel):
    tree = ast.parse(inspect.getsource(kernel))
    for node in ast.walk(tree):
        assert not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.MatMult)
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        assert name not in CROSS_ROW, name


def test_renormalize_guards_fire_on_collapse_and_nan():
    with pytest.raises(NumericError):
        renormalize_density(np.diag([1e-20, 0.0]).astype(complex), step=3)
    with pytest.raises(NumericError):
        renormalize_density(np.diag([np.nan, 0.0]).astype(complex), step=3)
