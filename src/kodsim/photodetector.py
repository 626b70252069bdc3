"""Photon-counting instrument: per-step Kraus operators, record reduction,
the Poisson distribution of Kraus operators with its screened evolution,
POVM elements, Born statistics, a dense trajectory sampler, and the
count-indexed jump sampler of the ensembles.  Photon counting is blind to
coherences and the state after n jumps does not depend on their times, so
pure and mixed states share one table of jump probabilities over (step, n).

Conventions fixed here:

* Records live on the step grid; a jump "at time t" means the step whose
  left endpoint is t.
* A jump step applies the no-jump contraction together with the jump,
  ``K0 K1``.  With that composition the time-ordered product of step
  operators collapses *exactly* (not just to O(dt)) onto the standard form
  ``sqrt(weight) * exp(-a^dag a kappa_o T / 2) * a^n``, which is what
  :func:`reduce_record` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.stats

from .ensemble import NORM_COLLAPSE, renormalize_density, run_ensemble
from .exceptions import (
    DomainError,
    InvalidDimensionError,
    InvalidRecordError,
    NumericError,
    TruncationError,
)
from .fock import (
    lowering_power,
    make_lowering,
    number_diag,
    number_exp,
    projector,
    subblock_norm_diff,
    validate_density,
    validate_state,
)
from .params import InstrumentParams, screened_integral


def screened_rate(t: float | np.ndarray, kappa_o: float):
    """Effective observation rate ``kappa(t) = kappa_o exp(-kappa_o t)``."""
    return kappa_o * np.exp(-kappa_o * np.asarray(t, dtype=float))


def kraus_jump(p: InstrumentParams) -> np.ndarray:
    """Jump Kraus operator ``K1 = a sqrt(kappa_o dt)``."""
    return np.sqrt(p.kappa_dt) * make_lowering(p.dim)


def kraus_no_jump(p: InstrumentParams) -> np.ndarray:
    """No-jump Kraus operator ``K0 = exp(-a^dag a kappa_o dt / 2)``."""
    return number_exp(p.dim, 0.5 * p.kappa_dt)


def jump_step_operator(p: InstrumentParams) -> np.ndarray:
    """Full operator applied on a jump step, ``K0 K1``."""
    return kraus_no_jump(p) @ kraus_jump(p)


@dataclass(frozen=True)
class PhotoRecord:
    """Jump times within [0, T), strictly increasing, on the step grid."""

    jump_times: np.ndarray
    T: float

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        object.__setattr__(self, "jump_times", times)
        if times.size and (np.any(np.diff(times) <= 0.0) or times[0] < 0.0):
            raise InvalidRecordError("jump times must be strictly increasing, >= 0")
        if times.size and times[-1] >= self.T:
            raise InvalidRecordError(
                f"jump at t={times[-1]} is not before the horizon T={self.T}"
            )

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)


def _grid_indices(rec: PhotoRecord, p: InstrumentParams) -> np.ndarray:
    if abs(rec.T - p.T) > 1e-9 * max(p.T, p.dt):
        raise InvalidRecordError(f"record horizon {rec.T} != params horizon {p.T}")
    steps = rec.jump_times / p.dt
    idx = np.round(steps).astype(int)
    if np.any(np.abs(steps - idx) > 1e-6):
        raise InvalidRecordError("jump times must sit on the dt grid")
    return idx


def reduce_record(rec: PhotoRecord, p: InstrumentParams) -> tuple[int, float]:
    """Reduce a record to standard order: jump count and scalar weight.

    The represented operation is
    ``weight * O(exp(-a^dag a kappa_o T / 2) a^n)`` with
    ``weight = (kappa_o dt)^n exp(-kappa_o sum(T_i))``.
    """
    _grid_indices(rec, p)
    n = rec.n_jumps
    weight = p.kappa_dt**n * float(np.exp(-p.kappa_o * np.sum(rec.jump_times)))
    return n, weight


def time_ordered_product(rec: PhotoRecord, p: InstrumentParams) -> np.ndarray:
    """Brute-force product of the per-step Kraus operators, latest leftmost."""
    idx = set(_grid_indices(rec, p).tolist())
    k0 = kraus_no_jump(p)
    kj = jump_step_operator(p)
    out = np.eye(p.dim, dtype=complex)
    for k in range(p.n_steps):
        out = (kj if k in idx else k0) @ out
    return out


def standard_form_kraus(rec: PhotoRecord, p: InstrumentParams) -> np.ndarray:
    """``sqrt(weight) * exp(-a^dag a kappa_o T/2) a^n`` for the record."""
    n, weight = reduce_record(rec, p)
    if n >= p.dim:
        raise InvalidRecordError(f"{n} jumps exceed the truncation {p.dim}")
    return np.sqrt(weight) * (
        number_exp(p.dim, 0.5 * p.kappa_o * p.T) @ lowering_power(p.dim, n)
    )


@dataclass(frozen=True)
class PoissonKOD:
    """Distribution of Kraus-operator classes over jump counts.

    ``lam`` parameterizes the analytic form exp(-lam) lam^n / n!;
    ``weights`` optionally carries a numerically evolved counterpart.
    """

    lam: float
    weights: np.ndarray | None = None

    def pmf(self, n) -> np.ndarray:
        return scipy.stats.poisson.pmf(n, self.lam)

    def pmf_array(self, n_max: int) -> np.ndarray:
        return self.pmf(np.arange(n_max + 1))


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


def evolve_kod_poisson(
    T: float, kappa_o: float, n_max: int = 40, steps: int = 1000
) -> PoissonKOD:
    """Integrate the screened birth equation for the jump-count weights.

    Classical 4th-order fixed-step integration from D_0(n) = delta_{n,0}.
    Raises TruncationError if mass reaches the top bin, NumericError if the
    conservative generator fails to conserve mass to 1e-10 at any step.
    """
    if steps < 100:
        raise DomainError(f"need steps >= 100, got {steps}")
    if n_max < 30:
        raise DomainError(f"need n_max >= 30, got {n_max}")
    if T < 0.0:
        raise DomainError(f"need T >= 0, got {T}")
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
        if abs(float(np.sum(weights)) - 1.0) > 1e-10:
            raise NumericError(f"mass drifted beyond 1e-10 at step {i}")
    if weights[-1] > 1e-8:
        raise TruncationError(
            f"mass {weights[-1]} at n_max={n_max}; enlarge the range"
        )
    if float(np.min(weights)) < -1e-12:
        raise NumericError("negative weight beyond the roundoff floor")
    return PoissonKOD(lam=screened_integral(T, kappa_o), weights=weights)


def kraus_class(n: int, T: float, p: InstrumentParams) -> np.ndarray:
    """Class Kraus operator ``K_T(n) = e^{lam/2} e^{-a^dag a kappa_o T/2} a^n``."""
    if not 0 <= n < p.dim:
        raise InvalidDimensionError(f"need 0 <= n < dim, got n={n}")
    lam = screened_integral(T, p.kappa_o)
    return np.exp(0.5 * lam) * (
        number_exp(p.dim, 0.5 * p.kappa_o * T) @ lowering_power(p.dim, n)
    )


def povm_element(n: int, T: float, p: InstrumentParams) -> np.ndarray:
    """POVM element ``E_T(n) = D_T(n) K_T(n)^dag K_T(n)``."""
    k = kraus_class(n, T, p)
    d_n = float(kod_poisson(T, p.kappa_o).pmf(n))
    return d_n * (k.conj().T @ k)


def povm_completeness(T: float, p: InstrumentParams, sub_dim: int) -> float:
    """Subblock defect of ``sum_n E_T(n)``, n < dim, against the identity."""
    total = sum(povm_element(n, T, p) for n in range(p.dim))
    return subblock_norm_diff(total, np.eye(p.dim), sub_dim)


def projector_convergence(n: int, T: float, p: InstrumentParams, sub_dim: int) -> float:
    """Subblock norm of ``E_T(n) - |n><n|``; decays like n e^{-kappa_o T}."""
    if n >= sub_dim:
        raise InvalidDimensionError(f"need n < sub_dim, got n={n}, sub_dim={sub_dim}")
    return subblock_norm_diff(povm_element(n, T, p), projector(p.dim, n), sub_dim)


def _count_rows(pop0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``w[n]``, the populations after n jumps normalized (``w[0] =
    pop0``), and ``s[n]``, row n's sum before normalizing (``s[0] = 1``).
    The populations ``(m+n)!/m! pop0[m+n]`` are ``s[1] ... s[n] w[n]``, but
    row n is built from row n-1, so no factorial overflows."""
    dim = pop0.size
    m = np.arange(dim, dtype=float)
    w = np.zeros((dim, dim))
    s = np.ones(dim)
    w[0] = pop0
    for n in range(1, dim):
        row = m[1:] * w[n - 1, 1:]
        s[n] = np.sum(row)
        w[n, :-1] = row / (s[n] or 1.0)
    return w, s


def _damped_rows(rho: np.ndarray, T: float, p: InstrumentParams, n_max: int):
    """``w[n] . e^{-m kappa_o T}`` and ``s[n]`` for n = 0..n_max from the
    populations of rho (photon counting is blind to coherences)."""
    pop0 = np.real(np.diag(validate_density(rho)))
    if n_max >= pop0.size:
        raise InvalidDimensionError(f"need n_max < dim, got n_max={n_max}, dim={pop0.size}")
    w, s = _count_rows(pop0)
    damp = np.exp(-p.kappa_o * T * np.arange(pop0.size))
    return w[: n_max + 1] @ damp, s[: n_max + 1]


def born_pmf(
    rho: np.ndarray, T: float, p: InstrumentParams, n_max: int | None = None
) -> np.ndarray:
    """Jump-count statistics ``P(n|rho) = D_T(n) Tr(K_T(n)^dag K_T(n) rho)``,
    which is ``c_n w[n] . e^{-m kappa_o T}`` with the running product
    ``c_n = c_{n-1} lambda s[n] / n`` (``c_0 = 1``): finite at any truncation."""
    if n_max is None:
        n_max = p.dim - 1
    damped, s = _damped_rows(rho, T, p, n_max)
    lam = screened_integral(T, p.kappa_o)
    pmf = np.cumprod(np.append(1.0, lam * s[1:] / np.arange(1, n_max + 1))) * damped
    if float(np.min(pmf)) < -1e-10:
        raise NumericError(f"negative probability {np.min(pmf)}")
    return np.clip(pmf, 0.0, None)


def ostensible_weights(rho: np.ndarray, T: float, p: InstrumentParams, n_max: int) -> np.ndarray:
    """Importance weights ``Tr(K_T(n)^dag K_T(n) rho)`` for n = 0..n_max.

    Pairing these with draws from D_T(n) reproduces :func:`born_pmf`.  They
    grow like ``(m+n)!/m!``; one that overflows raises NumericError.
    """
    damped, s = _damped_rows(rho, T, p, n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = float(np.exp(screened_integral(T, p.kappa_o))) * np.cumprod(s) * damped
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


def sample_trajectory(
    rho: np.ndarray, p: InstrumentParams, rng: np.random.Generator
) -> PhotoRecord:
    """Sequential conditional evolution of a (possibly mixed) state.

    Each step jumps with probability ``Tr(K1^dag K1 rho_t)`` and applies the
    selected operation renormalized.  One uniform is consumed per step, so
    a record is a pure function of the stream.
    """
    rho = validate_density(rho).copy()
    n = number_diag(p.dim)
    decay = np.exp(-0.5 * p.kappa_dt * n)
    outer_decay = np.outer(decay, decay)
    jump_times = []
    for k in range(p.n_steps):
        p_jump = p.kappa_dt * float(np.real(np.sum(n * np.diag(rho))))
        if rng.random() < p_jump:
            lowered = np.zeros_like(rho)
            root = np.sqrt(np.outer(n[1:], n[1:]))
            lowered[:-1, :-1] = root * rho[1:, 1:]
            rho = lowered * outer_decay
            jump_times.append(k * p.dt)
        else:
            rho = rho * outer_decay
        renormalize_density(rho, k)
    return PhotoRecord(jump_times=np.array(jump_times), T=p.T)


def _jump_table(pop0: np.ndarray, p: InstrumentParams):
    """``prob[k, n]``, the jump probability at step k after n jumps, and
    ``collapse[k, n, jumped]``, the transitions that leave a trace (squared
    norm) below ``NORM_COLLAPSE`` (None when no trajectory can take one).  A
    collapsing jump has probability below
    ``kappa_o dt * NORM_COLLAPSE / stay[k, n+1]``, about 1e-16 or less, so in
    practice only a uniform of exactly 0.0 (odds 2^-53) takes one.

    Row n of ``w`` holds the normalized populations after n jumps
    (:func:`_count_rows`); each step damps and renormalizes the rows as a
    trajectory does.  Staying leaves the norm ``stay[k, n]``,
    jumping ``prob[k, n] / (kappa_o dt) * stay[k, n+1]``.
    """
    dim = pop0.size
    m = np.arange(dim, dtype=float)
    w, _ = _count_rows(pop0)
    live = np.any(w != 0.0, axis=1)
    decay = np.exp(-p.kappa_dt * m)
    prob = np.empty((p.n_steps, dim))
    stay = np.ones((p.n_steps, dim + 1))
    for k in range(p.n_steps):
        prob[k] = p.kappa_dt * (w @ m)
        w *= decay
        stay[k, :-1] = np.sum(w, axis=1)
        w /= np.where(stay[k, :-1] > 0.0, stay[k, :-1], 1.0)[:, None]
    jumped = (prob > 0.0) & ~(prob / p.kappa_dt * stay[:, 1:] >= NORM_COLLAPSE)
    collapse = np.stack([~(stay[:, :-1] >= NORM_COLLAPSE), jumped], axis=-1) & live[:, None]
    return prob, (collapse if collapse.any() else None)


def _count_jumps(table, uniforms: np.ndarray) -> np.ndarray:
    """Jump counts of a batch from its ``(n_traj, n_steps)`` uniforms."""
    prob, collapse = table
    counts = np.zeros(uniforms.shape[0], dtype=np.int64)
    for k, u in enumerate(uniforms.T):
        jump = u < prob[k][counts]
        if collapse is not None and np.any(collapse[k, counts, jump.view(np.int8)]):
            raise NumericError(f"state norm collapsed at step {k}")
        counts += jump
    return counts


def run_photo_ensemble(initial: np.ndarray, p: InstrumentParams, n_traj: int, seed: int,
                       n_threads: int = 1, batch: int = 8192) -> np.ndarray:
    """Jump counts for ``n_traj`` trajectories, one stream per index.

    Trajectory i jumps at step k when uniform k of ``stream(seed, i)`` is
    below the jump table's entry for its count so far, so results are
    byte-identical for any thread count or batch size.  Pure and mixed
    states share the table, which reads only the initial populations.
    """
    state = np.asarray(initial, dtype=complex)
    if state.ndim == 1:
        pop0 = np.abs(validate_state(state)) ** 2
    else:
        pop0 = np.real(np.diag(validate_density(state)))
    table = _jump_table(pop0 / np.sum(pop0), p)
    return run_ensemble(lambda rng: rng.random(p.n_steps), lambda u: _count_jumps(table, u),
                        n_traj, seed, n_threads, batch, np.int64)
