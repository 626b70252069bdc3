"""Heterodyne instrument: Wiener-increment Kraus operators, the record
functional, the Gaussian distribution of Kraus operators with its screened
diffusion, POVM completeness, the polar/Cartan coordinate change of the
class operators, the trace identity it implies, and covariance cooling.

Sign convention: the complex Wiener measure is the normalizable Gaussian
``exp(-|dw|^2/dt) d^2(dw) / (pi dt)``; real and imaginary parts are
independent with variance dt/2 each.  The diffusion equation is written in
``x = Re zeta, y = Im zeta`` with coefficient ``kappa(t)/4`` per
coordinate, the unique choice consistent with the closed-form density
``(1/Sigma) exp(-|zeta|^2/Sigma)`` at covariance ``Sigma(T) = <|zeta|^2>``.

The instrument evolves on its own: after a record with partial functional
``zeta_k`` the conditional state is ``K rho K^dag`` normalized, with
``K = e^{-a^dag a kappa_o t_k/2} e^{c a}`` and ``c = phi conj(zeta_k)``.  The
system enters only through the Born weight ``W(c) = Tr(K^dag K rho)``, a
polynomial in (c, c*) whose coefficients :func:`_weight_coeffs` builds once
per call.  It gives the Born references and, through
``Tr(a rho_k) = e^{-kappa_o t_k/2} dW/dc / W``, the drift of the ensemble
sampler, which therefore evolves no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ensemble import renormalize_density, run_ensemble
from .exceptions import (
    DomainError,
    ExtentError,
    InvalidDimensionError,
    InvalidRecordError,
    NumericError,
)
from .fock import (
    coherent_state,
    displacement_unitary,
    exp_lowering,
    make_lowering,
    matrix_exp,
    number_diag,
    number_exp,
    pure_density,
    subblock_norm_diff,
    validate_density,
    validate_state,
)
from .params import InstrumentParams, screened_integral

RESOLVE_SCALE = 1.5  # see evolve_kod_diffusion
CARTAN_SUB_DIM = 20  # subblock of the polar-decomposition defect


def _density_width(T: float, kappa_o: float) -> float:
    """Sigma(T), the covariance of D_T, which has no density at T = 0."""
    sigma = screened_integral(T, kappa_o)
    if sigma <= 0.0:
        raise DomainError("need T > 0")
    return sigma


def wiener_increment(rng: np.random.Generator, dt: float) -> complex:
    """Complex Wiener increment: E[dw]=0, E[|dw|^2]=dt, E[dw^2]=0."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise DomainError(f"need dt > 0, got {dt}")
    g = rng.standard_normal(2)
    return complex(g[0], g[1]) * np.sqrt(0.5 * dt)


@dataclass(frozen=True)
class HeterodyneRecord:
    """Complex Wiener increments on the dt grid over [0, T)."""

    increments: np.ndarray
    dt: float
    T: float

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=complex)
        object.__setattr__(self, "increments", inc)
        n_steps = round(self.T / self.dt)
        if inc.size != n_steps:
            raise InvalidRecordError(
                f"{inc.size} increments but T/dt = {self.T / self.dt}"
            )
        if inc.size and not np.all(np.isfinite(inc)):
            raise InvalidRecordError("non-finite increment")

    def step_times(self) -> np.ndarray:
        return np.arange(self.increments.size) * self.dt


def record_functional(rec: HeterodyneRecord, kappa_o: float) -> complex:
    """``zeta = sum_t sqrt(kappa_o) dw_t e^{-kappa_o t / 2}`` (left endpoints).

    Weights the *beginning* of the record: only early increments carry
    information about the initial state.
    """
    damp = np.exp(-0.5 * kappa_o * rec.step_times())
    return complex(np.sqrt(kappa_o) * np.sum(rec.increments * damp))


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
class GaussianKOD:
    """Distribution of Kraus-operator classes over complex amplitudes.

    ``sigma`` parameterizes the analytic density (1/sigma) e^{-|z|^2/sigma}
    taken against d^2 z / pi; ``grid`` optionally carries a numerically
    evolved counterpart on a square mesh of spacing ``h``.  sigma == 0 flags
    the initial delta distribution, which has no density.
    """

    sigma: float
    grid: np.ndarray | None = None
    h: float | None = None
    regularization: float | None = None

    @property
    def is_delta(self) -> bool:
        return self.sigma == 0.0

    def density(self, zeta) -> np.ndarray:
        if self.is_delta:
            raise DomainError("delta distribution has no density")
        zeta = np.asarray(zeta, dtype=complex)
        return np.exp(-np.abs(zeta) ** 2 / self.sigma) / self.sigma

    def axis(self) -> np.ndarray:
        if self.grid is None:
            raise DomainError("no grid attached")
        n_side = (self.grid.shape[0] - 1) // 2
        return (np.arange(self.grid.shape[0]) - n_side) * self.h

    def grid_mass(self) -> float:
        if self.grid is None:
            raise DomainError("no grid attached")
        return float(np.sum(self.grid) * self.h**2 / np.pi)


def kod_gaussian(T: float, kappa_o: float) -> GaussianKOD:
    """Analytic Kraus-operator distribution; delta-flagged at T = 0."""
    return GaussianKOD(sigma=screened_integral(T, kappa_o))


def _heat_banded(n: int, coef: float) -> np.ndarray:
    """Banded form of ``I - coef * 12 h^2 L`` for solve_banded, with L the
    conservative 4th-order Neumann Laplacian (coef = c / (12 h^2))."""
    main = np.full(n, -30.0)
    main[[0, -1]] = -15.0
    main[[1, -2]] = -31.0
    ab = np.empty((5, n))
    ab[0] = coef
    ab[1] = -16.0 * coef
    ab[2] = 1.0 - coef * main
    ab[3] = -16.0 * coef
    ab[4] = coef
    return ab


def _heat_apply(u: np.ndarray, coef: float) -> np.ndarray:
    """Apply ``I + coef * 12 h^2 L`` to a 1-D profile (same L as above)."""
    n = u.size
    main = np.full(n, -30.0)
    main[[0, -1]] = -15.0
    main[[1, -2]] = -31.0
    v = main * u
    v[:-1] += 16.0 * u[1:]
    v[1:] += 16.0 * u[:-1]
    v[:-2] -= u[2:]
    v[2:] -= u[:-2]
    return u + coef * v


def evolve_kod_diffusion(
    T: float,
    kappa_o: float,
    h: float = 0.05,
    extent: float = 5.0,
    steps: int = 200,
    sigma0_sq: float = 1e-3,
) -> GaussianKOD:
    """Integrate the screened diffusion of the amplitude density.

    Alternating-direction implicit stepping (unconditionally stable); the
    time-dependent coefficient is integrated exactly within each step, so
    only spatial and Crank-Nicolson errors remain.  The delta initial
    condition is regularized to a Gaussian of covariance ``sigma0_sq``;
    compare the result against the analytic density of covariance
    ``Sigma(T) + sigma0_sq``.

    The ADI step is the tensor product of one 1-D operator with itself
    (the diffusion is isotropic with no cross term), and the initial
    Gaussian is separable, ``g(x) g(y)``.  The 2-D iterate is therefore
    exactly ``outer(v, v)`` with ``v`` the 1-D profile stepped by that
    operator, so only ``v`` is evolved; its mass is ``(sum v)^2 h^2 / pi``.

    A Gaussian narrower than the mesh aliases several percent of its mass
    when sampled (sigma0_sq = 1e-3 puts ~0.45 h of standard deviation on an
    h = 0.05 grid), which survives to a ~1e-3 error at the horizon.  Since
    Gaussians diffuse in closed form, the initial condition is therefore
    widened analytically until its per-axis standard deviation reaches
    ``RESOLVE_SCALE * h`` and the discrete stepping starts from there; the
    covariance bookkeeping is exact and only the discrete-operator error
    remains.

    The reflecting far boundary conserves mass exactly; if the evolved
    density actually reaches the boundary ring the extent was too small and
    an ExtentError is raised.
    """
    if extent < 5.0:
        raise ExtentError(f"need extent >= 5, got {extent}")
    if h <= 0.0 or steps < 1:
        raise DomainError(f"need h > 0 and steps >= 1, got h={h}, steps={steps}")
    if not 0.0 < sigma0_sq < 1.0:
        raise DomainError(f"need 0 < sigma0_sq < 1, got {sigma0_sq}")
    if kappa_o < 0.0 or T < 0.0:
        raise DomainError("need kappa_o >= 0 and T >= 0")
    sig = lambda t: screened_integral(t, kappa_o)
    resolved_sq = 2.0 * (RESOLVE_SCALE * h) ** 2
    t_start = 0.0
    start_sigma_sq = sigma0_sq
    if kappa_o > 0.0 and sigma0_sq < resolved_sq:
        if sig(T) + sigma0_sq < resolved_sq:
            raise ExtentError(
                f"mesh h={h} cannot resolve the final covariance "
                f"{sig(T) + sigma0_sq}"
            )
        t_start = min(T, float(-np.log1p(sigma0_sq - resolved_sq) / kappa_o))
        start_sigma_sq = sigma0_sq + sig(t_start)
    n_side = round(extent / h)
    axis = (np.arange(2 * n_side + 1) - n_side) * h
    v = np.exp(-(axis**2) / start_sigma_sq) / np.sqrt(start_sigma_sq)
    v /= np.sum(v) * h / np.sqrt(np.pi)
    for k in range(steps):
        t0 = t_start + k * (T - t_start) / steps
        t1 = t_start + (k + 1) * (T - t_start) / steps
        dtau = (sig(t1) - sig(t0)) / 4.0
        coef = 0.5 * dtau / (12.0 * h**2)
        if coef == 0.0:
            continue
        ab = _heat_banded(axis.size, coef)
        v = scipy.linalg.solve_banded((2, 2), ab, _heat_apply(v, coef))
        mass = float(np.sum(v)) ** 2 * h**2 / np.pi
        if abs(mass - 1.0) > 1e-8:
            raise NumericError(f"mass drifted to {mass} at step {k}")
    u = np.outer(v, v)
    ring = np.sum(u[0]) + np.sum(u[-1]) + np.sum(u[1:-1, 0]) + np.sum(u[1:-1, -1])
    if ring * h**2 / np.pi > 1e-6:
        raise ExtentError("density reached the boundary ring; enlarge extent")
    return GaussianKOD(sigma=sig(T), grid=u, h=h, regularization=sigma0_sq)


def kraus_class_het(zeta: complex, T: float, p: InstrumentParams) -> np.ndarray:
    """Class Kraus operator ``K_T(zeta) = e^{-a^dag a kappa_o T/2} e^{a zeta*}``."""
    return number_exp(p.dim, 0.5 * p.kappa_o * T) @ exp_lowering(p.dim, np.conj(zeta))


def standard_form_kraus_het(
    rec: HeterodyneRecord, p: InstrumentParams
) -> np.ndarray:
    """Exact standard order of the time-ordered increment product.

    Equals ``K_T(phi * zeta)`` with ``zeta`` the record functional and
    ``phi = (1 - e^{-kappa_o dt/2})/(kappa_o dt/2)``; the drag factor
    ``phi = 1 - kappa_o dt/4 + ...`` is the discretization gap between the
    product and ``K_T(zeta)`` itself.
    """
    phi = lowering_drag(0.5 * p.kappa_dt)
    zeta = record_functional(rec, p.kappa_o)
    return kraus_class_het(phi * zeta, rec.T, p)


def time_ordered_product_het(
    rec: HeterodyneRecord, p: InstrumentParams
) -> np.ndarray:
    """Brute-force product of per-increment operators, latest leftmost."""
    out = np.eye(p.dim, dtype=complex)
    for dw in rec.increments:
        out = kraus_increment(dw, p) @ out
    return out


def povm_element_het(zeta: complex, T: float, p: InstrumentParams) -> np.ndarray:
    """POVM density ``E(zeta) = D_T(zeta) K_T(zeta)^dag K_T(zeta)``
    against d^2 zeta / pi."""
    kod = kod_gaussian(T, p.kappa_o)
    k = kraus_class_het(zeta, T, p)
    return float(kod.density(zeta)) * (k.conj().T @ k)


def povm_completeness_het(
    T: float, p: InstrumentParams, sub_dim: int, quad_order: int = 32
) -> float:
    """Subblock defect of the POVM quadrature against the identity.

    Gauss-Hermite nodes rescaled to the Gaussian width absorb the
    distribution factor; the remaining integrand is polynomial in
    (zeta, zeta*), which the product rule integrates exactly on the safe
    subblock.
    """
    sigma = _density_width(T, p.kappa_o)
    nodes, wts = np.polynomial.hermite.hermgauss(quad_order)
    decay = np.exp(-p.kappa_o * T * number_diag(p.dim))
    total = np.zeros((p.dim, p.dim), dtype=complex)
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            zeta = np.sqrt(sigma) * complex(x, y)
            e_low = exp_lowering(p.dim, np.conj(zeta))
            total += (wts[i] * wts[j]) * (e_low.conj().T @ (decay[:, None] * e_low))
    total /= np.pi
    return subblock_norm_diff(total, np.eye(p.dim), sub_dim)


def projector_convergence_het(
    zeta: complex, T: float, p: InstrumentParams, sub_dim: int
) -> float:
    """Subblock norm of ``E(zeta) - |zeta><zeta|``; decays like e^{-kappa_o T}."""
    cs = coherent_state(p.dim, zeta)
    target = np.outer(cs, cs.conj())
    return subblock_norm_diff(povm_element_het(zeta, T, p), target, sub_dim)


def povm_left_invariance_defect(
    alpha: complex, T: float, p: InstrumentParams, sub_dim: int
) -> float:
    """Defect of ``Sigma E(zeta(alpha))`` against ``D_alpha e^{-a^dag a kappa_o T} D_alpha^{-1}``.

    In alpha = zeta/Sigma coordinates the POVM density is a displaced
    number-exponential, manifestly invariant under left multiplication by
    displacements.
    """
    sigma = screened_integral(T, p.kappa_o)
    disp = displacement_unitary(p.dim, alpha)
    target = disp @ number_exp(p.dim, p.kappa_o * T) @ disp.conj().T
    return subblock_norm_diff(
        sigma * povm_element_het(sigma * alpha, T, p), target, sub_dim
    )


def _weight_coeffs(rho: np.ndarray) -> np.ndarray:
    """Coefficients ``C[m, j, l] = g_j(m) g_l(m) rho[m+j, m+l]`` of the Born
    weight, zero where ``m+j`` or ``m+l`` leaves the truncation, with
    ``g_j(m) = sqrt((m+j)!/m!)/j!``.

    With ``T_t = sum_m e^{-m kappa_o t} C[m]`` the weight of the class
    operator ``e^{-a^dag a kappa_o t/2} e^{c a}`` is
    ``W_t(c) = Tr(K^dag K rho) = sum_{j,l} c^j conj(c)^l T_t[j, l]``; it is
    entire in (c, c*) because the class operators are lowering-only.
    """
    dim = rho.shape[0]
    m = np.arange(dim)[:, None]
    j = np.arange(dim)[None, :]
    steps = np.where(j > 0, np.sqrt(m + j) / np.maximum(j, 1), 1.0)
    g = np.where(m + j < dim, np.cumprod(steps, axis=1), 0.0)
    idx = np.minimum(m + j, dim - 1)
    return g[:, :, None] * g[:, None, :] * rho[idx[:, :, None], idx[:, None, :]]


def _weight_table(coeffs: np.ndarray, t: float, kappa_o: float) -> np.ndarray:
    """``T_t[j, l] = sum_m e^{-m kappa_o t} C[m, j, l]``, summed over m in
    order on the real and imaginary parts (real arithmetic is 3-4x faster)."""
    dim = coeffs.shape[0]
    damp = np.exp(-kappa_o * t * np.arange(dim))
    flat = np.einsum("m,mx->x", damp, coeffs.reshape(dim, -1).view(float))
    return flat.view(complex).reshape(dim, dim)


def _powers(c: np.ndarray, dim: int) -> np.ndarray:
    """Rows ``(1, c, c^2, ..., c^{dim-1})``, one per entry of ``c``.

    Each row is accumulated along itself, never down a column, so its bits
    do not depend on how many rows share the array.
    """
    steps = np.empty((c.size, dim), dtype=complex)
    steps[:, 0] = 1.0
    steps[:, 1:] = c[:, None]
    return np.cumprod(steps, axis=1)


def _weight_terms(table: np.ndarray, c: np.ndarray):
    """``(powers, q, W)`` per row: the powers of c, ``q = T conj(powers)``
    and the weight ``W(c) = Re sum_j c^j q_j``."""
    powers = _powers(c, table.shape[0])
    q = np.einsum("jl,nl->nj", table, powers.conj())
    return powers, q, np.einsum("nj,nj->n", powers, q).real


def het_born_weights(
    rho: np.ndarray, zetas: np.ndarray, T: float, p: InstrumentParams
) -> np.ndarray:
    """``Tr(K_T(zeta)^dag K_T(zeta) rho)`` for an array of amplitudes."""
    table = _weight_table(_weight_coeffs(validate_density(rho)), T, p.kappa_o)
    zetas = np.atleast_1d(np.asarray(zetas, dtype=complex))
    return _weight_terms(table, zetas.conj())[2]


def born_pdf(
    rho: np.ndarray, zeta, T: float, p: InstrumentParams
) -> float | np.ndarray:
    """Born density ``P(zeta|rho) = D_T(zeta) Tr(K_T(zeta)^dag K_T(zeta) rho)``
    against d^2 zeta / pi."""
    kod = kod_gaussian(T, p.kappa_o)
    zetas = np.atleast_1d(np.asarray(zeta, dtype=complex))
    vals = kod.density(zetas) * het_born_weights(rho, zetas, T, p)
    if float(np.min(vals)) < -1e-10:
        raise NumericError(f"negative density {np.min(vals)}")
    vals = np.clip(vals, 0.0, None)
    return float(vals[0]) if np.isscalar(zeta) or np.ndim(zeta) == 0 else vals


def born_pdf_quadrature(
    rho: np.ndarray, T: float, p: InstrumentParams, quad_order: int = 32
) -> tuple[float, complex, float]:
    """(total mass, mean, central covariance) of the Born density by
    Gauss-Hermite quadrature."""
    sigma = screened_integral(T, p.kappa_o)
    nodes, wts = np.polynomial.hermite.hermgauss(quad_order)
    zet = np.sqrt(sigma) * (nodes[:, None] + 1j * nodes[None, :]).ravel()
    wgt = (wts[:, None] * wts[None, :]).ravel() / np.pi
    vals = het_born_weights(rho, zet, T, p)
    total = float(np.sum(wgt * vals))
    mean = complex(np.sum(wgt * vals * zet) / total)
    cov = float(np.sum(wgt * vals * np.abs(zet - mean) ** 2) / total)
    return total, mean, cov


def born_bin_probs(rho: np.ndarray, edges_re, edges_im, T: float,
                   p: InstrumentParams) -> np.ndarray:
    """Born probability of each rectangular bin ``[edges_re[i], edges_re[i+1]]
    x [edges_im[j], edges_im[j+1]]``: an 8-point Gauss-Legendre rule per
    axis, with the density at every node of every bin from one call."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)

    def axis(edges):
        edges = np.asarray(edges, dtype=float)
        half = 0.5 * np.diff(edges)
        return 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * gl_x, half

    (x, half_x), (y, half_y) = axis(edges_re), axis(edges_im)
    vals = born_pdf(rho, (x.ravel()[:, None] + 1j * y.ravel()).ravel(), T, p)
    vals = vals.reshape(x.shape + y.shape)
    return np.einsum("k,l,ikjl->ij", gl_w, gl_w, vals) * np.outer(half_x, half_y) / np.pi


def sample_het_ostensible(
    T: float, kappa_o: float, rng: np.random.Generator
) -> complex:
    """Draw an amplitude from the state-independent density D_T."""
    sigma = _density_width(T, kappa_o)
    g = rng.standard_normal(2)
    return complex(g[0], g[1]) * np.sqrt(0.5 * sigma)


def sample_het_trajectory(
    rho: np.ndarray, p: InstrumentParams, rng: np.random.Generator
) -> HeterodyneRecord:
    """Conditional evolution under the true-statistics increment law.

    Each step draws dw from a complex Gaussian with mean
    ``sqrt(kappa_o) Tr(a rho_t) dt`` and variance dt (exact to O(dt)), then
    applies L(dw) renormalized.  Two normal variates are consumed per step.
    """
    rho = validate_density(rho).copy()
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


def _evolve_het_batch(coeffs: np.ndarray, p: InstrumentParams, normals: np.ndarray) -> np.ndarray:
    """Record functionals of a batch from its normals, ``normals[i, k]`` the
    two of trajectory i at step k, with the drift of :func:`run_het_ensemble`.
    Every operation is row-wise or a contraction within a row, so
    trajectories do not depend on their batchmates.
    """
    jj = np.arange(1, coeffs.shape[0])
    phi = lowering_drag(0.5 * p.kappa_dt)
    sqk = np.sqrt(p.kappa_o)
    noise = np.sqrt(0.5 * p.dt)
    times = p.step_times()
    damp = np.exp(-0.5 * p.kappa_o * times)
    zeta = np.zeros(normals.shape[0], dtype=complex)
    for k in range(p.n_steps):
        table = _weight_table(coeffs, times[k], p.kappa_o)
        powers, q, w = _weight_terms(table, phi * np.conj(zeta))
        if not np.all(np.isfinite(w) & (w > 0.0)):
            raise NumericError(f"Born weight left (0, inf) at step {k}")
        dwdc = np.einsum("nj,j,nj->n", powers[:, :-1], jj, q[:, 1:])
        dw = sqk * (damp[k] * dwdc / w) * p.dt + (normals[:, k, 0] + 1j * normals[:, k, 1]) * noise
        zeta += sqk * dw * damp[k]
    return zeta


def run_het_ensemble(
    initial: np.ndarray,
    p: InstrumentParams,
    n_traj: int,
    seed: int,
    n_threads: int = 1,
    batch: int = 4096,
) -> np.ndarray:
    """Record functionals of ``n_traj`` trajectories, one stream per index.

    The disentangled increments compose exactly: after k steps the
    conditional state is ``K rho K^dag`` normalized, with
    ``K = e^{-a^dag a kappa_o t_k/2} e^{c a}`` and ``c = phi conj(zeta_k)``,
    where ``zeta_k`` is the record functional so far and
    ``phi = lowering_drag(kappa_o dt/2)``.  So the state enters only through
    the Born weight ``W(c) = Tr(K^dag K rho)``, a polynomial in (c, c*), and
    the drift is ``Tr(a rho_k) = e^{-kappa_o t_k/2} dW/dc / W``.  Vectors
    (as their pure density) and density matrices share this one sampler;
    no state is evolved.  Trajectory i reads ``2 n_steps`` normals from
    ``stream(seed, i)`` and nothing else, so results are byte-identical for
    any batch size or thread count.
    """
    state = np.asarray(initial, dtype=complex)
    if state.ndim == 1:
        rho = pure_density(state / np.linalg.norm(validate_state(state)))
    else:
        rho = validate_density(state)
    coeffs = _weight_coeffs(rho)
    return run_ensemble(
        lambda rng: rng.standard_normal(2 * p.n_steps),
        lambda draws: _evolve_het_batch(coeffs, p, draws.reshape(-1, p.n_steps, 2)),
        n_traj, seed, n_threads, batch, complex,
    )


@dataclass(frozen=True)
class CartanCoordinates:
    """Left-invariant coordinates of a heterodyne class operator.

    beta = e^{-r} alpha and alpha Sigma_r = zeta hold exactly by
    construction; ``scalar_log`` is the exponent |zeta|^2 / (2 Sigma_r) of
    the scalar factor in the polar form.
    """

    alpha: complex
    beta: complex
    scalar_log: float
    r: float

    @property
    def sigma_r(self) -> float:
        return screened_integral(self.r, 2.0)


def cartan_transform(zeta: complex, r: float) -> CartanCoordinates:
    """Coordinates of ``e^{-a^dag a r} e^{a zeta*}`` in polar form.

    Sigma_r = 1 - e^{-2r} is singular at r = 0, where the polar form
    degenerates; r must be positive.
    """
    if not (np.isfinite(r) and r > 0.0):
        raise DomainError(f"need r > 0, got {r}")
    sigma_r = screened_integral(r, 2.0)
    alpha = complex(zeta) / sigma_r
    return CartanCoordinates(
        alpha=alpha,
        beta=float(np.exp(-r)) * alpha,
        scalar_log=abs(zeta) ** 2 / (2.0 * sigma_r),
        r=float(r),
    )


def cartan_dim(zeta: complex, r: float) -> int:
    """Truncation large enough for the polar factors at these coordinates.

    The displaced intermediates live near level |alpha|^2 with spread
    ~sqrt(|alpha|^2), far above |zeta| itself when r is small.
    """
    amp = abs(cartan_transform(zeta, r).alpha)
    return max(CARTAN_SUB_DIM + 20, math.ceil(amp**2 + 8.0 * amp + CARTAN_SUB_DIM + 10))


def cartan_identity_defect(zeta: complex, r: float, dim: int | None = None) -> float:
    """Subblock defect of the polar decomposition of ``e^{-a^dag a r} e^{a zeta*}``
    on the leading ``CARTAN_SUB_DIM`` levels.

    Compares against ``D_beta exp(-a^dag a r + scalar_log) D_alpha^{-1}``
    with every factor built in the truncated space.  Displacements use the
    tridiagonal-eigendecomposition route: the disentangled product loses
    all precision at the |alpha| = |zeta|/Sigma_r amplitudes reached for
    small r.
    """
    coords = cartan_transform(zeta, r)
    if dim is None:
        dim = cartan_dim(zeta, r)
    if dim < CARTAN_SUB_DIM:
        raise InvalidDimensionError(f"dim {dim} below sub_dim {CARTAN_SUB_DIM}")
    lhs = number_exp(dim, r) @ exp_lowering(dim, np.conj(zeta))
    mid = np.diag(np.exp(-np.arange(dim) * r + coords.scalar_log)).astype(complex)
    disp_beta = displacement_unitary(dim, coords.beta)
    disp_alpha_inv = displacement_unitary(dim, -coords.alpha)
    rhs = disp_beta @ mid @ disp_alpha_inv
    return subblock_norm_diff(lhs, rhs, CARTAN_SUB_DIM)


def trace_identity_defect(T: float, kappa_o: float, dim: int) -> float:
    """|Tr e^{-a^dag a kappa_o T} - 1/Sigma(T)|, compensated summation.

    The exact defect is the geometric tail sum_{n >= dim} e^{-n kappa_o T};
    compare against :func:`trace_tail_bound`.
    """
    sigma = _density_width(T, kappa_o)
    trace = math.fsum(math.exp(-n * kappa_o * T) for n in range(dim))
    return abs(trace - 1.0 / sigma)


def trace_tail_bound(T: float, kappa_o: float, dim: int) -> float:
    """Geometric tail ``e^{-dim kappa_o T} / (1 - e^{-kappa_o T})``."""
    return float(np.exp(-dim * kappa_o * T) / screened_integral(T, kappa_o))


def groundstate_completeness(T: float, kappa_o: float, dim: int) -> float:
    """Signed deviation of ``integral d^2alpha/pi <alpha|e^{-a^dag a kappa_o T}|alpha>``
    from ``1/Sigma(T)``, by a 32-point Gauss-Hermite rule per axis.

    The integrand equals e^{-|alpha|^2 Sigma}, so the quadrature reaches
    amplitudes |alpha|^2 ~ 2 u_max^2 / Sigma; the truncation must hold the
    coherent states there or the integral silently sags (ExtentError).
    """
    sigma = _density_width(T, kappa_o)
    nodes, wts = np.polynomial.hermite.hermgauss(32)
    peak = 2.0 * float(np.max(nodes)) ** 2 / sigma
    if dim < peak + 8.0 * np.sqrt(peak) + 10.0:
        raise ExtentError(
            f"dim {dim} cannot hold coherent states at |alpha|^2 ~ {peak:.1f}"
        )
    if np.exp(-0.5 * peak) == 0.0:
        raise ExtentError("coherent amplitudes underflow at this quadrature extent")
    alphas = ((nodes[:, None] + 1j * nodes[None, :]) / np.sqrt(sigma)).ravel()
    amps = np.empty((alphas.size, dim), dtype=complex)
    amps[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, dim):
        amps[:, n] = amps[:, n - 1] * alphas / np.sqrt(n)
    vals = (amps.real**2 + amps.imag**2) @ np.exp(-kappa_o * T * np.arange(dim))
    weight = (wts[:, None] * wts[None, :]).ravel()
    gauss = np.exp(np.abs(alphas * np.sqrt(sigma)) ** 2)
    integral = float(np.sum(weight * vals * gauss) / (np.pi * sigma))
    return integral - 1.0 / sigma


def covariance_cooling(
    T: float, kappa_o: float, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Empirical ``<alpha* alpha>`` and ``<beta* beta>`` under D_T.

    Expected values 1/Sigma(T) and 1/(e^{kappa_o T} - 1): the beta
    covariance cools along the Bose-Einstein occupation curve.
    """
    sigma = _density_width(T, kappa_o)
    g = rng.standard_normal((n_samples, 2))
    zetas = np.sqrt(0.5 * sigma) * (g[:, 0] + 1j * g[:, 1])
    # alpha = zeta / Sigma_r at r = kappa_o T / 2, where Sigma_r = Sigma(T)
    cov_alpha = float(np.mean(np.abs(zetas / sigma) ** 2))
    return cov_alpha, float(np.exp(-kappa_o * T)) * cov_alpha
