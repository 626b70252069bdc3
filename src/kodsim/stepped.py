"""Records on the step grid, their reduction to standard order, and the
brute-force products of per-step operators that check it.  A record carries
its grid (:class:`~kodsim.params.InstrumentParams`) and is checked against it
when built, so every function here takes the record alone.  Only
:mod:`~kodsim.verify`'s record-reduction checks and the tests read this
module: the instruments at the horizon read ``T`` and ``kappa_o`` alone.

Conventions fixed here:

* A jump "at time t" means the step whose left endpoint is t.  A jump step
  applies the no-jump contraction together with the jump, ``K0 K1``, so the
  time-ordered product of step operators collapses *exactly* (not just to
  O(dt)) onto :func:`standard_form_kraus`.
* The complex Wiener measure is ``exp(-|dw|^2/dt) d^2(dw) / (pi dt)``; real
  and imaginary parts are independent with variance dt/2 each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidRecordError, NumericError
from .fock import lowering_power, make_lowering, number_diag, number_exp
from .heterodyne import kraus_class_het
from .params import InstrumentParams


def matrix_exp(op: np.ndarray) -> np.ndarray:
    """General dense matrix exponential (scaling-and-squaring Pade).

    Used as the oracle route for identity checks; the structured
    constructors of :mod:`kodsim.fock` are the fast routes it gets compared
    against.
    """
    op = np.asarray(op, dtype=complex)
    if not np.all(np.isfinite(op)):
        raise NumericError("matrix_exp input has non-finite entries")
    import scipy.linalg  # on first use: ensemble and KOD runs never load it
    out = scipy.linalg.expm(op)
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix_exp overflowed")
    return out


def kraus_jump(p: InstrumentParams) -> np.ndarray:
    """Jump Kraus operator ``K1 = a sqrt(kappa_o dt)``."""
    return np.sqrt(p.kappa_dt) * make_lowering(p.dim)


def kraus_no_jump(p: InstrumentParams) -> np.ndarray:
    """No-jump Kraus operator ``K0 = exp(-a^dag a kappa_o dt / 2)``."""
    return number_exp(p.dim, 0.5 * p.kappa_dt)


def jump_step_operator(p: InstrumentParams) -> np.ndarray:
    """Full operator applied on a jump step, ``K0 K1``."""
    return kraus_no_jump(p) @ kraus_jump(p)


def kraus_increment(dw: complex, p: InstrumentParams) -> np.ndarray:
    """Conditional operator ``L(dw) = exp(-a^dag a kappa_o dt/2 + a sqrt(kappa_o) dw*)``.

    Exact exponential of the combined triangular generator, so identity
    checks see no first-order splitting artifact.
    """
    gen = -0.5 * p.kappa_dt * np.diag(number_diag(p.dim)).astype(complex)
    gen += np.sqrt(p.kappa_o) * np.conj(dw) * make_lowering(p.dim)
    return matrix_exp(gen)


def lowering_drag(r: float) -> float:
    """Coefficient ``(1 - e^{-r})/r`` from pulling ``a`` out of the mixed
    exponential: exp(-n r + a c) = exp(-n r) exp(a c (1-e^{-r})/r)."""
    if r == 0.0:
        return 1.0
    return float(-np.expm1(-r) / r)


@dataclass(frozen=True)
class PhotoRecord:
    """Jump times on the step grid ``p``, strictly increasing within [0, T)."""

    jump_times: np.ndarray
    p: InstrumentParams

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        object.__setattr__(self, "jump_times", times)
        steps = times / self.p.dt
        if not np.all(np.abs(steps - np.round(steps)) <= 1e-6):  # also catches NaN
            raise InvalidRecordError("jump times must sit on the dt grid")
        steps = np.round(steps)
        if steps.size and (np.any(np.diff(steps) <= 0.0) or steps[0] < 0.0):
            raise InvalidRecordError("jump steps must be strictly increasing, >= 0")
        if steps.size and steps[-1] >= self.p.n_steps:
            raise InvalidRecordError(f"jump at t={times[-1]} is not before the horizon {self.p.T}")

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    @property
    def weight(self) -> float:
        """Scalar weight of the record reduced to standard order, which represents
        ``weight * O(exp(-a^dag a kappa_o T / 2) a^n)``:
        ``(kappa_o dt)^n exp(-kappa_o sum(T_i))``."""
        return self.p.kappa_dt**self.n_jumps * float(
            np.exp(-self.p.kappa_o * np.sum(self.jump_times)))


def standard_form_kraus(rec: PhotoRecord) -> np.ndarray:
    """``sqrt(weight) * exp(-a^dag a kappa_o T/2) a^n`` for the record."""
    n, p = rec.n_jumps, rec.p
    if n >= p.dim:
        raise InvalidRecordError(f"{n} jumps exceed the truncation {p.dim}")
    return np.sqrt(rec.weight) * (
        number_exp(p.dim, 0.5 * p.kappa_o * p.T) @ lowering_power(p.dim, n)
    )


def time_ordered_product(rec: PhotoRecord) -> np.ndarray:
    """Brute-force product of the per-step Kraus operators, latest leftmost."""
    p = rec.p
    jumps = set(np.round(rec.jump_times / p.dt).astype(int).tolist())
    k0 = kraus_no_jump(p)
    kj = jump_step_operator(p)
    out = np.eye(p.dim, dtype=complex)
    for k in range(p.n_steps):
        out = (kj if k in jumps else k0) @ out
    return out


@dataclass(frozen=True)
class HeterodyneRecord:
    """Complex Wiener increments, one on each step of the grid ``p``."""

    increments: np.ndarray
    p: InstrumentParams

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=complex)
        object.__setattr__(self, "increments", inc)
        if inc.size != self.p.n_steps:
            raise InvalidRecordError(f"{inc.size} increments on a grid of {self.p.n_steps} steps")
        if not np.all(np.isfinite(inc)):
            raise InvalidRecordError("non-finite increment")


def record_functional(rec: HeterodyneRecord) -> complex:
    """``zeta = sum_t sqrt(kappa_o) dw_t e^{-kappa_o t / 2}`` (left endpoints).

    Weights the *beginning* of the record: only early increments carry
    information about the initial state.
    """
    p = rec.p
    damp = np.exp(-0.5 * p.kappa_o * (np.arange(p.n_steps) * p.dt))
    return complex(np.sqrt(p.kappa_o) * np.sum(rec.increments * damp))


def standard_form_kraus_het(rec: HeterodyneRecord) -> np.ndarray:
    """Exact standard order of the time-ordered increment product.

    Equals ``K_T(phi * zeta)`` with ``zeta`` the record functional and
    ``phi = (1 - e^{-kappa_o dt/2})/(kappa_o dt/2)``; the drag factor
    ``phi = 1 - kappa_o dt/4 + ...`` is the discretization gap between the
    product and ``K_T(zeta)`` itself.
    """
    p = rec.p
    phi = lowering_drag(0.5 * p.kappa_dt)
    return kraus_class_het(phi * record_functional(rec), p.T, p.kappa_o, p.dim)


def time_ordered_product_het(rec: HeterodyneRecord) -> np.ndarray:
    """Brute-force product of per-increment operators, latest leftmost."""
    out = np.eye(rec.p.dim, dtype=complex)
    for dw in rec.increments:
        out = kraus_increment(dw, rec.p) @ out
    return out
