"""Instrument parameter validation, and the step grid's place."""

import ast
import inspect
import pathlib

import numpy as np
import pytest

import kodsim
from kodsim import heterodyne as het, photodetector as pd, stepped
from kodsim.exceptions import DomainError, InvalidDimensionError, InvalidRecordError
from kodsim.params import InstrumentParams
from test_cli import PRODUCTION, module_names


def test_valid_params():
    p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=0.5, dim=40)
    assert p.n_steps == 500
    assert p.kappa_dt == 1e-3


def test_rejects_off_grid_horizon():
    with pytest.raises(DomainError):
        InstrumentParams(kappa_o=1.0, dt=1e-3, T=np.log(2.0), dim=10)


def test_fit_steps_keeps_horizon_exact():
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=np.log(2.0), dt=1e-3, dim=10)
    assert p.T == np.log(2.0)
    assert p.n_steps == 693
    assert abs(p.dt - 1e-3) < 1e-6


def test_rejects_bad_scalars():
    with pytest.raises(DomainError):
        InstrumentParams(kappa_o=0.0, dt=1e-3, T=1.0, dim=10)
    with pytest.raises(DomainError):
        InstrumentParams(kappa_o=1.0, dt=-1e-3, T=1.0, dim=10)
    with pytest.raises(DomainError):
        InstrumentParams(kappa_o=1.0, dt=1e-3, T=-1.0, dim=10)
    with pytest.raises(InvalidDimensionError):
        InstrumentParams(kappa_o=1.0, dt=1e-3, T=1.0, dim=1)


def test_zero_horizon_has_no_steps():
    p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=0.0, dim=5)
    assert p.n_steps == 0


def test_no_horizon_function_takes_a_step_grid():
    # the instrument at the horizon is fixed by kappa_o and T alone: a
    # function that takes T takes no InstrumentParams, whose dt and T it
    # would ignore
    offenders = []
    for module in (pd, het):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                params = inspect.signature(fn, eval_str=True).parameters
                if "T" in params and any(
                    q.annotation is InstrumentParams for q in params.values()
                ):
                    offenders.append(f"{module.__name__}.{name}")
    assert offenders == []
    # nor does any production module but params read the grid's step or
    # name the stepped module, and the ensembles read their p as p.T and
    # p.kappa_o alone
    src = pathlib.Path(kodsim.__file__).parent
    for module in PRODUCTION:
        path = src / f"{module}.py"
        attrs = {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute)}
        if module != "params":
            assert not attrs & {"dt", "n_steps", "kappa_dt"}, module
        assert "stepped" not in set(module_names(path)), module
    for ensemble in (pd.run_photo_ensemble, het.run_het_ensemble):
        tree = ast.parse(inspect.getsource(ensemble))
        reads = [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "p"]
        names = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "p"]
        assert set(reads) == {"T", "kappa_o"} and len(reads) == len(names), ensemble.__name__


def test_a_record_is_checked_against_its_own_grid():
    # a record carries its grid and is checked against it when built: ten
    # increments at dt 1e-3 do not fill a dt 5e-3 grid of the same horizon
    fine = InstrumentParams(kappa_o=1.0, dt=1e-3, T=1e-2, dim=8)
    coarse = InstrumentParams(kappa_o=1.0, dt=5e-3, T=1e-2, dim=8)
    increments = np.full(fine.n_steps, 0.01 + 0.02j)
    assert stepped.HeterodyneRecord(increments, fine).p == fine
    with pytest.raises(InvalidRecordError):
        stepped.HeterodyneRecord(increments, coarse)
    # a jump off the grid, at no time, before 0, on the step at the horizon
    # (where a time a roundoff short of T also sits), or two on one step
    for times in ([0.5 * fine.dt], [np.nan], [-fine.dt], [fine.T], [fine.T - 1e-13],
                  [fine.dt, fine.dt * (1 + 1e-9)]):
        with pytest.raises(InvalidRecordError):
            stepped.PhotoRecord(np.array(times), fine)
    # so no stepped function takes a grid next to a record
    records = {stepped.PhotoRecord, stepped.HeterodyneRecord}
    for name, fn in vars(stepped).items():
        if inspect.isfunction(fn) and fn.__module__ == stepped.__name__:
            kinds = [q.annotation for q in inspect.signature(fn, eval_str=True).parameters.values()]
            if records & set(kinds):
                assert kinds in ([stepped.PhotoRecord], [stepped.HeterodyneRecord]), name
