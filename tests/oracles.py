"""Brute-force references the tests check the package against.

Each builds by the textbook route what a package function computes by a
faster one: dense per-step conditional evolution of a density matrix (one
``scipy.linalg.expm`` per heterodyne increment, through
:func:`kodsim.verify.kraus_increment`), the stepped trajectory samplers of
both instruments, the disentangled displacement product, the 2-D
diffusion solved by one dense matrix exponential of the mirror-closure
Laplacian built by reflection, the Born density's moments by quadrature, the
pure-loss channel as a dense Kraus sum, the Husimi phase by bisection
alone, and the CSV writer that formats one cell at a time.  Nothing in
``kodsim`` imports them.

The stepped samplers take a trajectory through every step of the grid, as
the instrument evolves, where the package draws the reduced record at the
horizon from the Born law.  They keep the claim that trajectories
reproduce that law under test.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg

from kodsim import heterodyne as het, records
from kodsim.ensemble import BATCH
from kodsim.exceptions import DomainError, NumericError
from kodsim.fock import density, exp_lowering, number_diag
from kodsim.heterodyne import HeterodyneRecord
from kodsim.params import InstrumentParams, screened_integral
from kodsim.photodetector import PhotoRecord
from kodsim.verify import kraus_increment

# smallest trace a dense sampler may renormalize
NORM_COLLAPSE = 1e-14
# largest kappa_o dt a stepped sampler takes: its per-step jump probability
# kappa_o dt <n> is first order in the step, so it stays O(1e-2 n)
MAX_KAPPA_DT = 0.01


def weak_coupling(p: InstrumentParams) -> None:
    """Assert that the grid's step is inside the stepped samplers' regime."""
    assert p.kappa_dt <= MAX_KAPPA_DT * (1.0 + 1e-12), f"kappa_o*dt = {p.kappa_dt}"


def renormalize_density(rho: np.ndarray, step: int) -> None:
    """Scale a density matrix to unit trace, in place."""
    tr = float(np.real(np.trace(rho)))
    if not tr >= NORM_COLLAPSE:  # also catches NaN
        raise NumericError(f"state norm collapsed to {tr} at step {step}")
    rho /= tr


def wiener_increment(rng: np.random.Generator, dt: float) -> complex:
    """Complex Wiener increment: E[dw]=0, E[|dw|^2]=dt, E[dw^2]=0."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise DomainError(f"need dt > 0, got {dt}")
    g = rng.standard_normal(2)
    return complex(g[0], g[1]) * np.sqrt(0.5 * dt)


def displacement(dim: int, alpha: complex) -> np.ndarray:
    """Displacement ``D_alpha = exp(alpha a^dag - alpha* a)``.

    Computed through the disentangled product
    ``e^{-|alpha|^2/2} e^{alpha a^dag} e^{-alpha* a}`` with exact triangular
    factors.  Valid for ``|alpha|^2 << dim``; the factors cancel
    catastrophically once the displaced state reaches the truncation edge,
    so callers probing large amplitudes should audit unitarity with
    :func:`kodsim.fock.subblock_norm_diff`.
    """
    alpha = complex(alpha)
    return np.exp(-0.5 * abs(alpha) ** 2) * (
        exp_lowering(dim, alpha).T @ exp_lowering(dim, -np.conj(alpha))
    )


def sample_trajectory(
    rho: np.ndarray, p: InstrumentParams, rng: np.random.Generator
) -> PhotoRecord:
    """Sequential conditional evolution of a (possibly mixed) state.

    Each step jumps with probability ``Tr(K1^dag K1 rho_t)`` and applies the
    selected operation renormalized.  One uniform is consumed per step, so
    a record is a pure function of the stream.
    """
    weak_coupling(p)
    rho = density(rho).copy()
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


def sample_het_trajectory(
    rho: np.ndarray, p: InstrumentParams, rng: np.random.Generator
) -> HeterodyneRecord:
    """Conditional evolution under the true-statistics increment law.

    Each step draws dw from a complex Gaussian with mean
    ``sqrt(kappa_o) Tr(a rho_t) dt`` and variance dt (exact to O(dt)), then
    applies L(dw) renormalized.  Two normal variates are consumed per step.
    """
    weak_coupling(p)
    rho = density(rho).copy()
    root = np.sqrt(np.arange(1, p.dim))
    incs = np.empty(p.n_steps, dtype=complex)
    sqk = np.sqrt(p.kappa_o)
    for k in range(p.n_steps):
        a_mean = complex(np.sum(root * np.diag(rho, k=-1)))
        dw = sqk * a_mean * p.dt + wiener_increment(rng, p.dt)
        op = kraus_increment(dw, p)
        rho = op @ rho @ op.conj().T
        renormalize_density(rho, k)
        incs[k] = dw
    return HeterodyneRecord(increments=incs, dt=p.dt, T=p.T)


def per_trajectory(draw, evolve, n_traj: int, seed: int) -> np.ndarray:
    """``evolve`` over batches of :data:`BATCH` trajectories, trajectory i
    drawing from its own stream ``stream(seed, i)``, one thread."""
    return np.concatenate([
        evolve(np.stack([draw(records.stream(seed, i)) for i in range(b, min(b + BATCH, n_traj))]))
        for b in range(0, n_traj, BATCH)
    ])


def oracle_counts(rho, p, n_traj, seed):
    """Jump counts of the dense density-matrix sampler, trajectory by trajectory."""
    return np.array(
        [sample_trajectory(rho, p, records.stream(seed, i)).n_jumps for i in range(n_traj)]
    )


def count_rows(rho: np.ndarray) -> np.ndarray:
    """``w[n]``, the populations ``(m+n)!/m! w[0][m+n]`` after n jumps,
    normalized, with ``w[0] = Re diag rho``.  Row n is built from row n-1,
    so no factorial overflows."""
    w0 = np.diagonal(rho).real
    dim = w0.size
    m = np.arange(dim, dtype=float)
    w = np.zeros((dim, dim))
    w[0] = w0
    for n in range(1, dim):
        row = m[1:] * w[n - 1, 1:]
        w[n, :-1] = row / (np.sum(row) or 1.0)
    return w


def jump_table(rho: np.ndarray, p: InstrumentParams) -> np.ndarray:
    """``prob[k, n]``, the jump probability at step k after n jumps.

    Each step damps and renormalizes the count rows as a trajectory does.
    A trajectory's state after n jumps is row n, whatever the jump times,
    and :func:`count_rows` builds every row normalized, so no trajectory
    renormalizes a state of its own and none can collapse.
    """
    weak_coupling(p)
    w = count_rows(rho)
    m = np.arange(w.shape[0], dtype=float)
    decay = np.exp(-p.kappa_dt * m)
    prob = np.empty((p.n_steps, m.size))
    for k in range(p.n_steps):
        prob[k] = p.kappa_dt * (w @ m)
        w *= decay
        norm = np.sum(w, axis=1)
        w /= np.where(norm > 0.0, norm, 1.0)[:, None]
    return prob


def count_jumps(prob: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Jump counts of a batch from its ``(n_traj, n_steps)`` uniforms."""
    counts = np.zeros(uniforms.shape[0], dtype=np.int64)
    for k, u in enumerate(uniforms.T):
        counts += u < prob[k][counts]
    return counts


def stepped_counts(rho: np.ndarray, p: InstrumentParams, n_traj: int, seed: int) -> np.ndarray:
    """Jump counts of the stepped count sampler: trajectory i jumps at step k
    when uniform k of ``stream(seed, i)`` is below the jump table's entry
    for its count so far."""
    prob = jump_table(rho, p)
    return per_trajectory(lambda rng: rng.random(p.n_steps), lambda u: count_jumps(prob, u),
                          n_traj, seed)


def born_coeffs(rho: np.ndarray) -> np.ndarray:
    """``C[m, j, l] = g_j(m) g_l(m) rho[m+j, m+l]``, zero where ``m+j`` or
    ``m+l`` leaves the truncation, ``g_j(m) = sqrt((m+j)!/m!)/j!``: the
    Born weight's coefficient table at any time t is ``sum_m e^{-m kappa_o
    t} C[m]``, in d^3 memory."""
    dim = rho.shape[0]
    m = np.arange(dim)[:, None]
    j = np.arange(dim)[None, :]
    steps = np.where(j > 0, np.sqrt(m + j) / np.maximum(j, 1), 1.0)
    g = np.where(m + j < dim, np.cumprod(steps, axis=1), 0.0)
    idx = np.minimum(m + j, dim - 1)
    return g[:, :, None] * g[:, None, :] * rho[idx[:, :, None], idx[:, None, :]]


def born_table(coeffs: np.ndarray, t: float, kappa_o: float) -> np.ndarray:
    """The Born weight's coefficient table ``T_t[j, l]``, of weight
    ``sum_{j,l} c^j conj(c)^l T_t[j, l]``, from :func:`born_coeffs`."""
    dim = coeffs.shape[0]
    return np.einsum("m,mjl->jl", np.exp(-kappa_o * t * np.arange(dim)), coeffs)


def evolve_het_batch(coeffs: np.ndarray, p: InstrumentParams, normals: np.ndarray) -> np.ndarray:
    """Record functionals of a batch from its normals, ``normals[i, k]`` the
    two of trajectory i at step k.

    After a record with partial functional ``zeta_k`` the conditional state
    is ``K rho K^dag`` normalized, ``K = e^{-a^dag a kappa_o t_k/2} e^{c a}``
    with ``c = phi conj(zeta_k)`` and ``phi = lowering_drag(kappa_o dt/2)``.
    So each increment's drift ``sqrt(kappa_o) Tr(a rho_k) dt``, with
    ``Tr(a rho_k) = e^{-kappa_o t_k/2} dW/dc / W``, reads the Born weight
    alone, and no state is evolved.
    """
    weak_coupling(p)
    jj = np.arange(1, coeffs.shape[0])
    phi = het.lowering_drag(0.5 * p.kappa_dt)
    sqk = np.sqrt(p.kappa_o)
    noise = np.sqrt(0.5 * p.dt)
    times = np.arange(p.n_steps) * p.dt
    damp = np.exp(-0.5 * p.kappa_o * times)
    zeta = np.zeros(normals.shape[0], dtype=complex)
    for k in range(p.n_steps):
        table = born_table(coeffs, times[k], p.kappa_o)
        powers = np.vander(phi * np.conj(zeta), table.shape[0], increasing=True)
        q = powers.conj() @ table.T
        w = np.einsum("nj,nj->n", powers, q).real
        if not np.all(np.isfinite(w) & (w > 0.0)):
            raise NumericError(f"Born weight left (0, inf) at step {k}")
        dwdc = np.einsum("nj,j,nj->n", powers[:, :-1], jj, q[:, 1:])
        dw = sqk * (damp[k] * dwdc / w) * p.dt + (normals[:, k, 0] + 1j * normals[:, k, 1]) * noise
        zeta += sqk * dw * damp[k]
    return zeta


def stepped_zetas(state: np.ndarray, p: InstrumentParams, n_traj: int, seed: int) -> np.ndarray:
    """Record functionals of the stepped heterodyne sampler, trajectory i
    reading ``2 n_steps`` normals from ``stream(seed, i)``."""
    coeffs = born_coeffs(density(state))
    return per_trajectory(
        lambda rng: rng.standard_normal(2 * p.n_steps),
        lambda draws: evolve_het_batch(coeffs, p, draws.reshape(-1, p.n_steps, 2)),
        n_traj, seed,
    )


def mirror_laplacian(n):
    """``12 h^2 L`` as a dense matrix: the stencil ``[-1, 16, -30, 16, -1]``
    on n points, each index past an end reflected half a cell beyond the
    last point (``v[-1] = v[0]``, ``v[-2] = v[1]``), entry by entry."""
    lap = np.zeros((n, n))
    for i in range(n):
        for offset, weight in zip(range(-2, 3), (-1.0, 16.0, -30.0, 16.0, -1.0)):
            j = i + offset
            j = -1 - j if j < 0 else 2 * n - 1 - j if j >= n else j
            lap[i, j] += weight
    return lap


def expm_2d(T, kappa_o, h, extent, sigma0_sq=1e-3, resolve_scale=1.5):
    """Oracle: the 2-D semi-discrete solution on the full grid, one dense
    ``scipy.linalg.expm(tau (L x I + I x L))`` of the Kronecker-sum Laplacian
    applied to the same widened initial Gaussian as ``evolve_kod_diffusion``,
    built in 2-D, with L the mirror-closure Laplacian of
    :func:`mirror_laplacian` and ``tau = (Sigma(T) - Sigma(t_start)) /
    (48 h^2)``.  The dense matrix has n^4 entries: keep n = 2 round(extent/h)
    + 1 to about 41."""
    sig = lambda t: float(-np.expm1(-kappa_o * t))
    resolved_sq = 2.0 * (resolve_scale * h) ** 2
    t_start, start_sq = 0.0, sigma0_sq
    if kappa_o > 0.0 and sigma0_sq < resolved_sq:
        t_start = min(T, float(-np.log1p(sigma0_sq - resolved_sq) / kappa_o))
        start_sq = sigma0_sq + sig(t_start)
    n_side = round(extent / h)
    sq = ((np.arange(2 * n_side + 1) - n_side) * h) ** 2
    u = np.exp(-(sq[:, None] + sq[None, :]) / start_sq) / start_sq
    u /= np.sum(u) * h**2 / np.pi
    lap = mirror_laplacian(sq.size)
    eye = np.eye(sq.size)
    tau = (sig(T) - sig(t_start)) / (48.0 * h**2)
    prop = scipy.linalg.expm(tau * (np.kron(lap, eye) + np.kron(eye, lap)))
    return (prop @ u.ravel()).reshape(u.shape)


def born_pdf_quadrature(rho, T, kappa_o, quad_order):
    """(total mass, mean, central covariance) of the Born density by
    Gauss-Hermite quadrature: the rule integrates against e^{-|zeta|^2/Sigma},
    so the integrand is ``born_pdf Sigma e^{|zeta|^2/Sigma}``."""
    sigma = screened_integral(T, kappa_o)
    points, weights = het._hermite_2d(quad_order)
    zet = np.sqrt(sigma) * points
    wgt = weights / np.pi
    vals = het.born_pdf(rho, zet, T, kappa_o) * sigma * np.exp(np.abs(zet) ** 2 / sigma)
    total = float(np.sum(wgt * vals))
    mean = complex(np.sum(wgt * vals * zet) / total)
    cov = float(np.sum(wgt * vals * np.abs(zet - mean) ** 2) / total)
    return total, mean, cov


def dense_lost_state(rho: np.ndarray, eta: float) -> np.ndarray:
    """``sum_m A_m rho A_m^dag`` of the pure-loss channel of transmissivity
    ``eta``, with dense ``A_m = sqrt((1-eta)^m/m!) eta^{N/2} a^m``."""
    dim = rho.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    keep = np.diag(eta ** (0.5 * np.arange(dim)))
    out = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        op = math.sqrt((1.0 - eta) ** m / math.factorial(m)) * keep
        op = op @ np.linalg.matrix_power(a, m)
        out += op @ rho @ op.conj().T
    return out


def bisect_phase(c: np.ndarray, u: np.ndarray, steps: int = 52) -> np.ndarray:
    """The Husimi phase at which each row's phase CDF reaches ``u``, by
    ``steps`` bisections of [0, 2 pi]: 52 halve it below the spacing of
    doubles there.  ``c`` holds one row of the phase series of
    :func:`kodsim.heterodyne._husimi_circles` per uniform; the CDF is
    summed by Horner's rule on real arrays, as the package sums it."""
    dim = c.shape[1]
    scale = np.pi * np.arange(1, dim) * c.real[:, :1]
    b_re, b_im = c.imag[:, 1:] / scale, -c.real[:, 1:] / scale
    shift = np.sum(b_re, axis=1)
    b_re, b_im = b_re.T.copy(), b_im.T.copy()
    lo = np.zeros(u.size)
    hi = np.full(u.size, 2.0 * np.pi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        z_re, z_im = np.cos(mid), np.sin(mid)
        s_re, s_im = b_re[-1], b_im[-1]
        for coef_re, coef_im in zip(b_re[-2::-1], b_im[-2::-1]):
            s_re, s_im = s_re * z_re - s_im * z_im + coef_re, s_re * z_im + s_im * z_re + coef_im
        below = mid / (2.0 * np.pi) + (s_re * z_re - s_im * z_im - shift) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def fmt_cell(value) -> str:
    """One CSV cell as text: a string as given, an integer (a bool too, numpy's
    included) as its digits, ``None`` as empty, any other number as
    ``repr(float(v))``."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return "" if value is None else repr(float(value))


def write_csv_rows(path: str, header: list[str], rows) -> None:
    """Write a table row by row, each cell through :func:`fmt_cell`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])
