"""The step grid of records, and the screened integral ``1 - exp(-kappa_o T)``
that parameterizes both instruments' distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InvalidDimensionError


def screened_integral(T: float, kappa_o: float) -> float:
    """``1 - exp(-kappa_o T)``, the screened rate integrated over [0, T]: the
    photon count's effective mean lambda(T) and the heterodyne amplitude's
    effective covariance Sigma(T).  The horizon gate of both instruments: it
    raises DomainError unless ``T`` and ``kappa_o`` are both finite and >= 0."""
    if not (0.0 <= T < np.inf and 0.0 <= kappa_o < np.inf):  # also catches NaN
        raise DomainError(f"need finite T >= 0 and kappa_o >= 0, got {T} and {kappa_o}")
    return float(-np.expm1(-kappa_o * T))


@dataclass(frozen=True)
class InstrumentParams:
    """Observation rate, temporal resolution, horizon and truncation: the
    step grid a record of :mod:`kodsim.stepped` carries.  The instrument at
    the horizon is fixed by ``kappa_o`` and ``T`` alone, so only that module
    reads ``dt``; the ensembles take a grid but read only its ``T`` and
    ``kappa_o``.

    The horizon must sit on the step grid (an integer number of ``dt``
    steps); use :meth:`fit_steps` to round a nominal ``dt`` onto a grid
    that divides ``T`` exactly.
    """

    kappa_o: float
    dt: float
    T: float
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidDimensionError(f"need dim >= 2, got {self.dim}")
        if not (np.isfinite(self.kappa_o) and self.kappa_o > 0.0):
            raise DomainError(f"need kappa_o > 0, got {self.kappa_o}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"need dt > 0, got {self.dt}")
        if not (np.isfinite(self.T) and self.T >= 0.0):
            raise DomainError(f"need T >= 0, got {self.T}")
        if abs(self.n_steps * self.dt - self.T) > 1e-9 * max(self.T, self.dt):
            raise DomainError(
                f"T = {self.T} is not an integer multiple of dt = {self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt) if self.T > 0.0 else 0

    @property
    def kappa_dt(self) -> float:
        return self.kappa_o * self.dt

    @classmethod
    def fit_steps(
        cls, kappa_o: float, T: float, dt: float, dim: int
    ) -> "InstrumentParams":
        """Round the step count so the grid divides ``T`` exactly.

        Keeps the horizon (and hence the effective mean / covariance) exact
        while moving ``dt`` by at most half a step.
        """
        if not (np.isfinite(T) and T > 0.0):
            raise DomainError(f"need T > 0 to fit a grid, got {T}")
        if not (np.isfinite(dt) and dt > 0.0):
            raise DomainError(f"need dt > 0, got {dt}")
        steps = max(1, round(T / dt))
        return cls(kappa_o=kappa_o, dt=T / steps, T=T, dim=dim)
