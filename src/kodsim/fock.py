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

from .exceptions import DomainError, InvalidDimensionError
from .special import log_factorial, xlogy

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


def log_lowering(dim: int) -> np.ndarray:
    """``log g_j(m)`` at [j, m] (``-inf`` where ``m + j >= dim``), with
    ``g_j(m) = sqrt((m+j)!/m!)/j!`` the coefficient of ``c^j`` at (m, m+j) in
    ``exp(c a)``, from one log-factorial vector; column 0 is ``-ln(j!)/2``."""
    if dim < 2:
        raise InvalidDimensionError(f"need dim >= 2, got {dim}")
    log_fact = log_factorial(np.arange(2 * dim - 1))
    j, m = np.ogrid[:dim, :dim]
    return np.where(m + j < dim, 0.5 * (log_fact[m + j] - log_fact[m]) - log_fact[j], -np.inf)


def loss_amplitudes(dim: int, eta: float) -> np.ndarray:
    """Kraus amplitudes ``k[m, j] = <j|A_m|m+j> = sqrt((1-eta)^m eta^j C(m+j, m))``
    (0 where ``m + j >= dim``) of the pure-loss channel of transmissivity
    ``eta``, ``A_m = sqrt((1-eta)^m/m!) eta^{N/2} a^m``, from
    :func:`log_lowering` in log space; ``0^0 = 1`` at eta = 0 and 1."""
    table = log_lowering(dim)
    m, j = np.ogrid[:dim, :dim]
    half_log = xlogy(m, 1.0 - eta) + xlogy(j, eta)
    return np.exp(table.T - table[:, 0] + 0.5 * half_log)


def lost_state(rho: np.ndarray, eta: float) -> np.ndarray:
    """``sum_m A_m rho A_m^dag`` of the pure-loss channel: entry [j, l] sums
    ``k[m, j] k[m, l] rho[m+j, m+l]`` (:func:`loss_amplitudes`) one level m
    at a time, in O(d^2) memory."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDimensionError(f"need a square density matrix, got shape {rho.shape}")
    dim = rho.shape[0]
    k = loss_amplitudes(dim, eta)
    out = np.zeros((dim, dim), dtype=complex)
    for level in range(dim):
        top = dim - level
        out[:top, :top] += np.outer(k[level, :top], k[level, :top]) * rho[level:, level:]
    return out


def lost_populations(pops: np.ndarray, eta: float) -> np.ndarray:
    """Diagonal of :func:`lost_state` from the populations alone,
    ``sum_m k[m, j]^2 p_{m+j}``, in O(d^2) with no loop over levels: the
    binomial thinning of ``pops`` with success probability ``eta``."""
    if pops.ndim != 1:
        raise InvalidDimensionError(f"need a vector of populations, got shape {pops.shape}")
    dim = pops.size
    m, j = np.ogrid[:dim, :dim]
    shifted = np.concatenate([pops, np.zeros(dim)])[m + j]
    return np.sum(loss_amplitudes(dim, eta) ** 2 * shifted, axis=0)


def scaled_powers(c, j: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """``c^j e^{log_scale}`` for an array of amplitudes and integer powers ``j``
    on trailing axes: one exponential of ``j log|c| + log_scale`` times a
    Vandermonde of ``c/|c|`` (0 at c = 0, leaving ``c^0 = 1``), so nothing
    overflows or underflows before the product does."""
    c = np.asarray(c, dtype=complex)
    radius = np.abs(c)
    safe = np.where(radius > 0.0, radius, 1.0)
    # by parts: a complex quotient overflows when |c| is subnormal
    unit = c.real / safe + 1j * (c.imag / safe)
    units = np.vander(unit.ravel(), np.max(j) + 1, increasing=True)
    out = np.take(units.reshape(c.shape + (-1,)), j, axis=-1)
    del units
    out *= np.exp(log_scale + j * np.log(safe).reshape(c.shape + (1,) * j.ndim))
    return out


def exp_lowering(dim: int, c) -> np.ndarray:
    """``exp(c a)``, exact in the truncated space, for an array of amplitudes:
    shape ``np.shape(c) + (dim, dim)``, entry (m, m+j) ``c^j g_j(m)`` from
    :func:`scaled_powers`, so it overflows or underflows only with its value."""
    table = log_lowering(dim)
    m, s = np.indices(table.shape)
    j = np.maximum(s - m, 0)
    return scaled_powers(c, j, np.where(s >= m, table[j, m], -np.inf))


def lowering_power(dim: int, n: int) -> np.ndarray:
    """``a^n``: entries ``sqrt((m+n)!/m!) = n! g_n(m)`` at (m, m+n)."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    table = log_lowering(dim)
    return np.diag(np.exp(table[n, : dim - n] - 2.0 * table[n, 0]), n).astype(complex)


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
    import scipy.linalg  # on first use: ensemble and KOD runs never load it
    phase = alpha / mag
    off = mag * np.sqrt(np.arange(1, dim))
    theta, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(dim), off)
    gauge = (1j * phase) ** np.arange(dim)
    basis = gauge[:, None] * vecs
    # einsum, not BLAS: the product's bits do not depend on the BLAS thread count
    return np.einsum("ik,jk->ij", basis * np.exp(-1j * theta), basis.conj())


def coherent_state(dim: int, alpha) -> np.ndarray:
    """Coherent states ``e^{-|alpha|^2/2} alpha^n / sqrt(n!)`` of an array of
    amplitudes, shape ``np.shape(alpha) + (dim,)``, each row with the bits of
    its scalar call: the recurrence rounds as numpy's scalar complex ops do."""
    if dim < 2:
        raise InvalidDimensionError(f"need dim >= 2, got {dim}")
    alpha = np.asarray(alpha, dtype=complex)
    if not np.all(np.isfinite(alpha)):
        raise DomainError(f"need finite amplitudes, got {alpha}")
    x, y = alpha.real, alpha.imag
    amps = np.ones(alpha.shape + (dim,), dtype=complex)
    re, im = amps.real, amps.imag
    for n in range(1, dim):
        # amps[n-1] * alpha, then Smith's division by sqrt(n) + 0j
        a, b = re[..., n - 1] * x - im[..., n - 1] * y, re[..., n - 1] * y + im[..., n - 1] * x
        scale = 1.0 / np.sqrt(n)
        re[..., n], im[..., n] = (a + b * 0.0) * scale, (b - a * 0.0) * scale
    return np.exp(-0.5 * np.reshape([abs(z) ** 2 for z in alpha.ravel().tolist()],
                                    alpha.shape + (1,))) * amps


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
    eigmin = float(np.min(np.linalg.eigvalsh(rho)))
    if eigmin < -1e-10:
        raise DomainError(f"negative eigenvalue {eigmin} below -1e-10")
    return rho
