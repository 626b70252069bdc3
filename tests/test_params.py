"""Instrument parameter validation, and the step grid's place."""

import inspect

import numpy as np
import pytest

from kodsim import heterodyne as het, photodetector as pd
from kodsim.exceptions import DomainError, InvalidDimensionError
from kodsim.params import InstrumentParams


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
