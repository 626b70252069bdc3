"""Truncated Fock-space operator toolkit.

Operators are dense complex ``(d, d)`` arrays in the number basis
``|0>, ..., |d-1>``; states are length-``d`` complex vectors or ``(d, d)``
density matrices, and :func:`density` is the one place that tells them
apart.  Everything here is a pure function of its inputs and returns fresh
arrays.

Truncation artifacts collect in the top rows/columns (raising operators
and displacements leak amplitude into the highest levels), so operator
comparisons go through :func:`subblock_norm_diff`, which restricts to the
truncation-safe top-left corner.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .exceptions import DomainError, InvalidDimensionError

STATE_NORM_TOL = 1e-10  # see density
DENSITY_TRACE_TOL = 1e-8  # see density


def make_lowering(dim: int) -> np.ndarray:
    """Lowering operator ``a`` with elements a[n-1, n] = sqrt(n)."""
    if dim < 2:
        raise InvalidDimensionError(f"need dim >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def number_diag(dim: int) -> np.ndarray:
    """Diagonal of the number operator, ``0, 1, ..., dim-1``."""
    if dim < 2:
        raise InvalidDimensionError(f"need dim >= 2, got {dim}")
    return np.arange(dim, dtype=float)


def number_exp(dim: int, r: float) -> np.ndarray:
    """Number-operator exponential ``exp(-r a^dag a)``, diagonal entries e^{-n r}.

    Only contractions are allowed: r < 0 raises, since the instruments built
    on top of this never amplify.
    """
    r = float(r)
    if not np.isfinite(r) or r < 0.0:
        raise DomainError(f"need finite r >= 0, got {r}")
    return np.diag(np.exp(-number_diag(dim) * r)).astype(complex)


def exp_lowering(dim: int, c: complex) -> np.ndarray:
    """Exponential ``exp(c a)`` from its finite nilpotent series.

    The series terminates after ``dim`` terms, so this is exact in the
    truncated space.  Entries are filled per diagonal with the closed form
    ``c^j sqrt((m+j)!/m!) / j!`` at ``(m, m+j)``, which stays accurate for
    large dimensions where accumulating matrix powers would not.
    """
    if dim < 2:
        raise InvalidDimensionError(f"need dim >= 2, got {dim}")
    out = np.eye(dim, dtype=complex)
    c = complex(c)
    if c == 0.0:
        return out
    vals = np.ones(dim, dtype=complex)
    for j in range(1, dim):
        m = np.arange(dim - j)
        vals = vals[: dim - j] * (c * np.sqrt(m + j) / j)
        out[m, m + j] = vals
        if np.max(np.abs(vals)) < 1e-300:
            break
    return out


def lowering_power(dim: int, n: int) -> np.ndarray:
    """``a^n`` built analytically: entries sqrt((m+n)!/m!) at (m, m+n)."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    out = np.zeros((dim, dim), dtype=complex)
    if n == 0:
        return np.eye(dim, dtype=complex)
    m = np.arange(dim - n)
    vals = np.ones(dim - n)
    for j in range(1, n + 1):
        vals = vals * np.sqrt(m + j)
    out[m, m + n] = vals
    return out


def displacement_unitary(dim: int, alpha: complex) -> np.ndarray:
    """Displacement via eigendecomposition of its tridiagonal generator.

    The generator ``alpha a^dag - alpha* a`` is phase-gauged to ``-iT`` with
    ``T`` real symmetric tridiagonal, so ``D_alpha = P V e^{-i theta} V^T P*``
    with an ordinary Hermitian eigensolve.  All intermediates stay bounded,
    which keeps this usable at amplitudes where the disentangled product
    ``e^{-|alpha|^2/2} e^{alpha a^dag} e^{-alpha* a}`` loses every digit
    (|alpha|^2 approaching dim).
    """
    if dim < 2:
        raise InvalidDimensionError(f"need dim >= 2, got {dim}")
    alpha = complex(alpha)
    mag = abs(alpha)
    if mag == 0.0:
        return np.eye(dim, dtype=complex)
    phase = alpha / mag
    off = mag * np.sqrt(np.arange(1, dim))
    theta, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(dim), off)
    gauge = (1j * phase) ** np.arange(dim)
    basis = gauge[:, None] * vecs
    return (basis * np.exp(-1j * theta)) @ basis.conj().T


def coherent_state(dim: int, alpha: complex) -> np.ndarray:
    """Coherent state amplitudes ``e^{-|alpha|^2/2} alpha^n / sqrt(n!)``."""
    if dim < 2:
        raise InvalidDimensionError(f"need dim >= 2, got {dim}")
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise DomainError(f"need a finite amplitude, got {alpha}")
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return np.exp(-0.5 * abs(alpha) ** 2) * amps


def fock_state(dim: int, n: int) -> np.ndarray:
    """Number state ``|n>``."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


def projector(dim: int, n: int) -> np.ndarray:
    """Rank-one projector ``|n><n|``."""
    vec = fock_state(dim, n)
    return np.outer(vec, vec.conj())


def subblock_norm_diff(op_a: np.ndarray, op_b: np.ndarray, sub_dim: int) -> float:
    """Spectral norm of the top-left ``sub_dim`` block of ``A - B``."""
    if sub_dim < 1 or sub_dim > min(op_a.shape[0], op_b.shape[0]):
        raise InvalidDimensionError(
            f"subblock {sub_dim} exceeds operator dimensions "
            f"{op_a.shape[0]}, {op_b.shape[0]}"
        )
    diff = op_a[:sub_dim, :sub_dim] - op_b[:sub_dim, :sub_dim]
    return float(np.linalg.norm(diff, ord=2))


def density(state: np.ndarray) -> np.ndarray:
    """Density matrix of a state vector or density matrix, checked.

    A vector ``psi`` becomes ``psi psi^dag``, not normalized, and its norm
    must not exceed 1 + STATE_NORM_TOL; a matrix is taken as given.  Either
    must then be Hermitian to 1e-12 per entry, of unit trace to
    DENSITY_TRACE_TOL (coherent states lose a truncation tail) and positive
    down to an eigenvalue floor of -1e-10."""
    rho = np.array(state, dtype=complex)
    if rho.ndim == 1:
        norm = float(np.linalg.norm(rho))
        if norm > 1.0 + STATE_NORM_TOL:
            raise DomainError(f"state norm {norm} exceeds 1 + {STATE_NORM_TOL}")
        rho = np.outer(rho, rho.conj())
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
        raise InvalidDimensionError(f"bad density shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise DomainError("density matrix has non-finite entries")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > 1e-12:
        raise DomainError(f"hermiticity defect {herm} > 1e-12")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise DomainError(f"trace {tr} deviates from 1 by more than {DENSITY_TRACE_TOL}")
    eigmin = float(np.min(scipy.linalg.eigvalsh(rho)))
    if eigmin < -1e-10:
        raise DomainError(f"negative eigenvalue {eigmin} below -1e-10")
    return rho
