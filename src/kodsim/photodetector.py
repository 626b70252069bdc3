"""Photon-counting instrument at the horizon: the Poisson distribution of
Kraus operators with its screened evolution, POVM elements, Born
statistics, and the ensemble sampler.  A record reduces to its count n
(:mod:`kodsim.stepped` holds records, their reduction and the step
operators), and at the horizon the POVM is binomial thinning of the photon
number, ``E_T(n) = sum_m Binom(n; m, lambda) |m><m|`` with
``lambda = 1 - e^{-kappa_o T}``: the pure-loss channel of transmissivity
lambda, whose lost populations (:func:`fock.lost_populations`) are the Born
pmf.  So the sampler draws the reduced record itself, one uniform per
trajectory, by inverse CDF of those populations.  Both read a state as its
checked ``rho`` (:func:`fock.density`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import draw_levels, run_ensemble
from .exceptions import (
    DomainError,
    InvalidDimensionError,
    NumericError,
    TruncationError,
)
from .fock import (
    lost_populations,
    lowering_power,
    number_exp,
    projector,
    subblock_norm_diff,
)
from .params import InstrumentParams, screened_integral
from .special import log_factorial, xlogy

KOD_MASS_TOL = 1e-10  # largest mass drift evolve_kod_poisson allows at any step


def screened_rate(t: float | np.ndarray, kappa_o: float):
    """Effective observation rate ``kappa(t) = kappa_o exp(-kappa_o t)``."""
    return kappa_o * np.exp(-kappa_o * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class PoissonKOD:
    """Distribution of Kraus-operator classes over jump counts.

    ``lam`` parameterizes the analytic form exp(-lam) lam^n / n!;
    ``weights`` optionally carries a numerically evolved counterpart.
    """

    lam: float
    weights: np.ndarray | None = None

    def log_pmf(self, n) -> np.ndarray:
        return xlogy(n, self.lam) - log_factorial(n) - self.lam

    def pmf(self, n) -> np.ndarray:
        return np.exp(self.log_pmf(n))

    def pmf_array(self, n_max: int) -> np.ndarray:
        """pmf at n = 0..n_max, each ``lam/n`` times the one before from
        ``e^{-lam}``: one rounding per factor, where ``exp(log_pmf)`` loses
        about ``|log_pmf|`` ulps to its argument."""
        factors = np.concatenate(([math.exp(-self.lam)], self.lam / np.arange(1.0, n_max + 1)))
        return np.cumprod(factors)


def kod_poisson(T: float, kappa_o: float) -> PoissonKOD:
    """Analytic Kraus-operator distribution, Poisson with mean lambda(T)."""
    return PoissonKOD(lam=screened_integral(T, kappa_o))


def _kod_generator(t: float, weights: np.ndarray, kappa_o: float) -> np.ndarray:
    # dD(n)/dt = kappa(t) (D(n-1) - D(n)); top bin keeps its mass so the
    # generator stays conservative under truncation.
    k = float(screened_rate(t, kappa_o))
    out = -k * weights
    out[1:] += k * weights[:-1]
    out[-1] += k * weights[-1]
    return out


def evolve_kod_poisson(T: float, kappa_o: float, n_max: int, steps: int) -> PoissonKOD:
    """Integrate the screened birth equation for the jump-count weights.

    Classical 4th-order fixed-step integration from D_0(n) = delta_{n,0}.
    Raises TruncationError if mass reaches the top bin, NumericError if the
    conservative generator fails to conserve mass to ``KOD_MASS_TOL`` at any
    step.
    """
    if steps < 100:
        raise DomainError(f"need steps >= 100, got {steps}")
    if n_max < 30:
        raise DomainError(f"need n_max >= 30, got {n_max}")
    lam = screened_integral(T, kappa_o)
    weights = np.zeros(n_max + 1)
    weights[0] = 1.0
    h = T / steps
    for i in range(steps):
        t = i * h
        k1 = _kod_generator(t, weights, kappa_o)
        k2 = _kod_generator(t + 0.5 * h, weights + 0.5 * h * k1, kappa_o)
        k3 = _kod_generator(t + 0.5 * h, weights + 0.5 * h * k2, kappa_o)
        k4 = _kod_generator(t + h, weights + h * k3, kappa_o)
        weights = weights + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not abs(float(np.sum(weights)) - 1.0) <= KOD_MASS_TOL:  # also catches NaN
            raise NumericError(f"mass drifted beyond {KOD_MASS_TOL:g} at step {i}")
    if weights[-1] > 1e-8:
        raise TruncationError(
            f"mass {weights[-1]} at n_max={n_max}; enlarge the range"
        )
    if float(np.min(weights)) < -1e-12:
        raise NumericError("negative weight beyond the roundoff floor")
    return PoissonKOD(lam=lam, weights=weights)


def kraus_class(n: int, T: float, kappa_o: float, dim: int) -> np.ndarray:
    """Class Kraus operator ``K_T(n) = e^{lam/2} e^{-a^dag a kappa_o T/2} a^n``."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"need 0 <= n < dim, got n={n}")
    lam = screened_integral(T, kappa_o)
    return np.exp(0.5 * lam) * (number_exp(dim, 0.5 * kappa_o * T) @ lowering_power(dim, n))


def povm_element(n: int, T: float, kappa_o: float, dim: int) -> np.ndarray:
    """POVM element ``E_T(n) = D_T(n) K_T(n)^dag K_T(n)``."""
    k = kraus_class(n, T, kappa_o, dim)
    d_n = float(kod_poisson(T, kappa_o).pmf(n))
    return d_n * (k.conj().T @ k)


def povm_completeness(T: float, kappa_o: float, dim: int, sub_dim: int) -> float:
    """Subblock defect of ``sum_n E_T(n)``, n < dim, against the identity."""
    total = sum(povm_element(n, T, kappa_o, dim) for n in range(dim))
    return subblock_norm_diff(total, np.eye(dim), sub_dim)


def projector_convergence(n: int, T: float, kappa_o: float, dim: int, sub_dim: int) -> float:
    """Subblock norm of ``E_T(n) - |n><n|``; decays like n e^{-kappa_o T}."""
    if n >= sub_dim:
        raise InvalidDimensionError(f"need n < sub_dim, got n={n}, sub_dim={sub_dim}")
    return subblock_norm_diff(povm_element(n, T, kappa_o, dim), projector(dim, n), sub_dim)


def _lost_counts(rho: np.ndarray, T: float, kappa_o: float, n_max: int) -> np.ndarray:
    """Lost populations (:func:`fock.lost_populations`) at lambda(T), n = 0..n_max,
    of ``Re diag rho`` with negative roundoff clipped: the law the sampler draws."""
    pops = np.clip(np.diagonal(rho).real, 0.0, None)
    if not 0 <= n_max < pops.size:
        raise InvalidDimensionError(f"need 0 <= n_max < dim, got n_max={n_max}, dim={pops.size}")
    return lost_populations(pops, screened_integral(T, kappa_o))[: n_max + 1]


def born_pmf(rho: np.ndarray, T: float, kappa_o: float, n_max: int | None = None) -> np.ndarray:
    """Jump-count statistics ``P(n|rho) = D_T(n) Tr(K_T(n)^dag K_T(n) rho)``,
    ``sum_m p_m Binom(n; m, lambda)``: the populations of rho after the
    pure-loss channel of transmissivity lambda(T), with no factorial formed."""
    return _lost_counts(rho, T, kappa_o, rho.shape[0] - 1 if n_max is None else n_max)


def ostensible_weights(rho: np.ndarray, T: float, kappa_o: float, n_max: int) -> np.ndarray:
    """Importance weights ``Tr(K_T(n)^dag K_T(n) rho)`` for n = 0..n_max,
    :func:`born_pmf` over ``D_T(n)``, divided in log space.

    Pairing these with draws from D_T(n) reproduces :func:`born_pmf`.  They
    grow like ``m!/(m-n)!``; one that overflows raises NumericError.  At
    kappa_o T = 0 every one past n = 0 is 0/0, since D_T(n > 0) = 0, and
    n_max >= 1 raises DomainError.
    """
    lam = screened_integral(T, kappa_o)
    if lam == 0.0 and n_max >= 1:
        raise DomainError(f"ostensible weights past n = 0 need kappa_o T > 0, got {kappa_o * T}")
    log_d = PoissonKOD(lam).log_pmf(np.arange(n_max + 1))
    with np.errstate(all="ignore"):
        weights = np.exp(np.log(_lost_counts(rho, T, kappa_o, n_max)) - log_d)
    if not np.all(np.isfinite(weights)):
        bad = int(np.argmin(np.isfinite(weights)))
        raise NumericError(f"ostensible weight overflows from n = {bad}")
    return weights


def ostensible_pmf(draws: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Method C: the pmf over 0..n_max of Poisson ``draws`` from D_T, each
    weighted by ``weights[draw]``, as count times weight per bin (one
    rounding per bin, not per draw); draws beyond ``n_max = weights.size -
    1`` carry no weight."""
    est = np.bincount(draws[draws < weights.size], minlength=weights.size) * weights
    total = float(np.sum(est))
    return est / (total if total > 0 else 1.0)


def run_photo_ensemble(rho: np.ndarray, p: InstrumentParams, n_traj: int, seed: int,
                       n_threads: int = 1) -> np.ndarray:
    """Jump counts at the horizon for ``n_traj`` trajectories, trajectory i
    drawn by :func:`ensemble.draw_levels` from the lost populations (the
    Born pmf) and the one uniform of row i of the run's uniforms
    (:func:`ensemble.run_ensemble`).  Pure and mixed states alike enter
    through their populations ``Re diag rho``.  Only ``p.T`` and ``p.kappa_o``
    are read: the reduced record has no steps."""
    lost = _lost_counts(rho, p.T, p.kappa_o, rho.shape[0] - 1)
    return run_ensemble(lambda u: draw_levels(lost, u[:, 0]), 1, n_traj, seed, n_threads)
