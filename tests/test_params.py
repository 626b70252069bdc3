"""Instrument parameter validation."""

import numpy as np
import pytest

from kodsim.exceptions import DomainError, InvalidDimensionError
from kodsim.params import InstrumentParams


def test_valid_params():
    p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=0.5, dim=40)
    assert p.n_steps == 500
    assert p.kappa_dt == 1e-3


def test_rejects_strong_coupling_step():
    with pytest.raises(DomainError):
        InstrumentParams(kappa_o=100.0, dt=1e-3, T=0.1, dim=10)


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


def test_fit_steps_rounds_up_only_past_the_coupling_bound():
    # nearest rounding gives 69 steps and kappa_o*dt = 0.01004... > 0.01
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=np.log(2.0), dt=0.01, dim=10)
    assert p.n_steps == 70
    assert p.kappa_dt <= 0.01
    assert p.T == np.log(2.0)
