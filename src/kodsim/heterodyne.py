"""Heterodyne instrument at the horizon: the Gaussian distribution of Kraus
operators with its screened diffusion, POVM completeness, Born statistics,
the ensemble sampler, the polar/Cartan coordinate change of the class
operators, the trace identity it implies, and covariance cooling.  Records
of Wiener increments and their functional live in :mod:`kodsim.stepped`.

The diffusion equation is written in ``x = Re zeta, y = Im zeta`` with
coefficient ``kappa(t)/4`` per coordinate, the unique choice consistent
with the closed-form density ``(1/Sigma) exp(-|zeta|^2/Sigma)`` at
covariance ``Sigma(T) = <|zeta|^2>``.

The instrument evolves on its own, and the system enters only through the
Born rule at the horizon: a record reduces to its functional ``zeta``, of
Born weight ``W(c) = Tr(K^dag K rho)`` at ``c = conj(zeta)``, with
``K = e^{-a^dag a kappa_o T/2} e^{c a}``.  In ``alpha = zeta/Sigma(T)``
coordinates the POVM is a displaced thermal state of occupation
``nbar = 1/(e^{kappa_o T} - 1)`` (the left-invariance identity), the time of
the instrument standing in for a temperature.  The same law is the Husimi
function ``<gamma|rho_T|gamma>/Sigma`` at ``gamma = zeta/sqrt(Sigma)`` of
``rho_T``, rho after the pure-loss channel of transmissivity Sigma(T)
(:func:`fock.lost_state`; Cahill and Glauber's s-ordered quasiprobability).
The Born references read it so, and the ensemble sampler draws
``zeta = sqrt(Sigma) gamma`` directly, from three uniforms per trajectory,
with ``gamma`` from the Husimi function ``<gamma|rho_T|gamma>/pi``.
Both read a state as its checked density matrix ``rho`` (:func:`fock.density`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .ensemble import draw_levels, run_ensemble
from .exceptions import (
    DomainError,
    ExtentError,
    InvalidDimensionError,
    NumericError,
)
from .fock import (
    coherent_state,
    displacement_unitary,
    exp_lowering,
    log_lowering,
    lost_state,
    number_diag,
    number_exp,
    scaled_powers,
    subblock_norm_diff,
)
from .params import InstrumentParams, screened_integral
from .special import gamma_quantile, log_factorial, xlogy

RESOLVE_SCALE = 1.5  # see evolve_kod_diffusion
MIN_EXTENT = 5.0  # smallest extent evolve_kod_diffusion accepts
KOD_MASS_TOL = 1e-8  # largest mass drift evolve_kod_diffusion allows in its result
CARTAN_SUB_DIM = 20  # subblock of the polar-decomposition defect
CARTAN_TAIL = 1e-12  # amplitude cartan_dim leaves past its truncation, 1e-3 of the gate
PHASE_BRACKET_STEPS = 16  # bisections of [0, 2 pi] before Newton: a bracket of 2 pi / 65536
PHASE_NEWTON_STEPS = 2  # safeguarded Newton steps inside that bracket
PHASE_TOL = 1e-12  # largest backward error |CDF(theta) - u| a drawn phase may keep


def _density_width(T: float, kappa_o: float) -> float:
    """Sigma(T), the covariance of D_T, which has no density at kappa_o T = 0."""
    sigma = screened_integral(T, kappa_o)
    if sigma <= 0.0:
        raise DomainError(f"D_T has a density only at kappa_o T > 0, got {kappa_o * T}")
    return sigma


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


def _mirror_cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal DCT-II matrix ``C`` (row k the k-th cosine mode) and
    ``lam`` with ``12 h^2 L = C^T diag(lam) C``, L the 4th-order Laplacian on
    n points with the half-sample mirror closure (each end reflected half a
    cell beyond its last point): symmetric, of zero column sums, with end
    rows ``[-14, 15, -1]`` and ``[15, -30, 16, -1]`` (Strang, "The discrete
    cosine transform", SIAM Review 41, 135 (1999)).  ``lam_k = -30 + 32 c -
    2 cos(2 pi k/n) = -4 (1 - c)(7 - c)`` at ``c = cos(pi k/n)``, so lam_0 = 0
    and every lam_k <= 0."""
    k = np.arange(n)
    # cos(pi k (2j + 1) / 2n), the angle reduced exactly mod 2 pi
    basis = np.cos(np.pi / (2 * n) * (np.outer(k, 2 * k + 1) % (4 * n)))
    basis *= np.where(k == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))[:, None]
    c = np.cos(np.pi * k / n)
    return basis, -4.0 * (1.0 - c) * (7.0 - c)


def evolve_kod_diffusion(
    T: float, kappa_o: float, h: float, extent: float, sigma0_sq: float
) -> GaussianKOD:
    """Solve the screened diffusion of the amplitude density exactly in time.

    The delta initial condition is regularized to a Gaussian of covariance
    ``sigma0_sq``; compare the result against the analytic density of
    covariance ``Sigma(T) + sigma0_sq``.

    The 2-D propagator is the tensor product of one 1-D propagator with
    itself (the diffusion is isotropic with no cross term), and the initial
    Gaussian is separable, ``g(x) g(y)``.  The 2-D solution is therefore
    exactly ``outer(v, v)`` with ``v`` the 1-D profile evolved by that
    operator, so only ``v`` is evolved; its mass is ``(sum v)^2 h^2 / pi``.
    The basis ``C`` of :func:`_mirror_cosine_basis` diagonalizes the 4th-order
    Laplacian L, and every mode shares the one time dependence kappa(t)/4 of
    ``dv/dt = kappa(t)/4 L v``, so the semi-discrete solution is one factor
    per mode: ``s_T = exp(tau lam) C v`` with ``tau = (Sigma(T) -
    Sigma(t_start)) / (48 h^2)``, and ``v_T = C^T s_T``: no time error
    remains, only the spatial one.  lam_0 = 0 keeps mode 0, and so the mass,
    fixed, and every other factor lies in [0, 1].  The result's mass is checked against
    ``KOD_MASS_TOL``, which raises on a non-finite solve.  Both contractions
    are two-operand ``einsum``s, not BLAS, so no bit depends on the BLAS
    thread count.  With no time to evolve (kappa_o = 0, or a start at T), v
    is returned as it is.

    A Gaussian narrower than the mesh aliases several percent of its mass
    when sampled (sigma0_sq = 1e-3 puts ~0.45 h of standard deviation on an
    h = 0.05 grid), which survives to a ~1e-3 error at the horizon.  Since
    Gaussians diffuse in closed form, the initial condition is therefore
    widened analytically until its per-axis standard deviation reaches
    ``RESOLVE_SCALE * h`` and the discrete solve starts from there; the
    covariance bookkeeping is exact and only the discrete-operator error
    remains.

    The mirror closure conserves mass exactly; if the evolved
    density actually reaches the boundary ring the extent was too small and
    an ExtentError is raised.
    """
    if not (math.isfinite(h) and math.isfinite(extent)):
        raise DomainError(f"need finite h and extent, got h={h}, extent={extent}")
    if extent < MIN_EXTENT:
        raise ExtentError(f"need extent >= {MIN_EXTENT:g}, got {extent}")
    if h <= 0.0:
        raise DomainError(f"need h > 0, got h={h}")
    if not 0.0 < sigma0_sq < 1.0:
        raise DomainError(f"need 0 < sigma0_sq < 1, got {sigma0_sq}")
    sig = lambda t: screened_integral(t, kappa_o)
    sigma_T = sig(T)
    resolved_sq = 2.0 * (RESOLVE_SCALE * h) ** 2
    t_start = 0.0
    start_sigma_sq = sigma0_sq
    if kappa_o > 0.0 and sigma0_sq < resolved_sq:
        if sigma_T + sigma0_sq < resolved_sq:
            raise ExtentError(
                f"mesh h={h} cannot resolve the final covariance {sigma_T + sigma0_sq}"
            )
        t_start = min(T, float(-np.log1p(sigma0_sq - resolved_sq) / kappa_o))
        start_sigma_sq = sigma0_sq + sig(t_start)
    n_side = round(extent / h)
    axis = (np.arange(2 * n_side + 1) - n_side) * h
    v = np.exp(-(axis**2) / start_sigma_sq) / np.sqrt(start_sigma_sq)
    v /= np.sum(v) * h / np.sqrt(np.pi)
    tau = (sigma_T - sig(t_start)) / (48.0 * h**2)
    if tau != 0.0:
        basis, lam = _mirror_cosine_basis(axis.size)
        v = np.einsum("kj,k->j", basis, np.exp(tau * lam) * np.einsum("kj,j->k", basis, v))
    mass = (np.sum(v) * h) ** 2 / np.pi
    if not abs(mass - 1.0) <= KOD_MASS_TOL:  # also catches NaN
        raise NumericError(f"mass drifted to {mass}")
    u = np.outer(v, v)
    ring = np.sum(u[0]) + np.sum(u[-1]) + np.sum(u[1:-1, 0]) + np.sum(u[1:-1, -1])
    if ring * h**2 / np.pi > 1e-6:
        raise ExtentError("density reached the boundary ring; enlarge extent")
    return GaussianKOD(sigma=sigma_T, grid=u, h=h, regularization=sigma0_sq)


def kraus_class_het(zeta: complex, T: float, kappa_o: float, dim: int) -> np.ndarray:
    """Class Kraus operator ``K_T(zeta) = e^{-a^dag a kappa_o T/2} e^{a zeta*}``."""
    screened_integral(T, kappa_o)  # the horizon gate: number_exp alone takes T = kappa_o = -1
    return number_exp(dim, 0.5 * kappa_o * T) @ exp_lowering(dim, np.conj(zeta))


def povm_element_het(zeta: complex, T: float, kappa_o: float, dim: int) -> np.ndarray:
    """POVM density ``E(zeta) = D_T(zeta) K_T(zeta)^dag K_T(zeta)``
    against d^2 zeta / pi."""
    kod = kod_gaussian(T, kappa_o)
    k = kraus_class_het(zeta, T, kappa_o, dim)
    return float(kod.density(zeta)) * (k.conj().T @ k)


def _hermite_2d(quad_order: int) -> tuple[np.ndarray, np.ndarray]:
    """The product Gauss-Hermite rule on the plane: points ``x + iy`` and
    weights ``w_x w_y`` against ``e^{-x^2-y^2} dx dy``, x-major."""
    if quad_order < 1:
        raise DomainError(f"need quad_order >= 1, got {quad_order}")
    nodes, wts = hermgauss(quad_order)
    return (nodes[:, None] + 1j * nodes[None, :]).ravel(), (wts[:, None] * wts[None, :]).ravel()


def povm_completeness_het(
    T: float, kappa_o: float, dim: int, sub_dim: int, quad_order: int
) -> float:
    """Subblock defect of the POVM quadrature against the identity.

    Gauss-Hermite nodes rescaled to the Gaussian width absorb the
    distribution factor; the remaining integrand is polynomial in
    (zeta, zeta*), which the product rule integrates exactly on the safe
    subblock.  Each point's ``K^dag K`` is one product of its class
    operator, and the sum over points is einsum's, not BLAS's.
    """
    points, weights = _hermite_2d(quad_order)
    kraus = exp_lowering(dim, np.conj(np.sqrt(_density_width(T, kappa_o)) * points))
    kraus *= np.exp(-0.5 * kappa_o * T * number_diag(dim))[:, None]
    total = np.einsum("n,nij->ij", weights, kraus.conj().swapaxes(1, 2) @ kraus) / np.pi
    return subblock_norm_diff(total, np.eye(dim), sub_dim)


def projector_convergence_het(
    zeta: complex, T: float, kappa_o: float, dim: int, sub_dim: int
) -> float:
    """Subblock norm of ``E(zeta) - |zeta><zeta|``; decays like e^{-kappa_o T}."""
    cs = coherent_state(dim, zeta)
    target = np.outer(cs, cs.conj())
    return subblock_norm_diff(povm_element_het(zeta, T, kappa_o, dim), target, sub_dim)


def povm_left_invariance_defect(
    alpha: complex, T: float, kappa_o: float, dim: int, sub_dim: int
) -> float:
    """Defect of ``Sigma E(zeta(alpha))`` against ``D_alpha e^{-a^dag a kappa_o T} D_alpha^{-1}``.

    In alpha = zeta/Sigma coordinates the POVM density is a displaced
    number-exponential, manifestly invariant under left multiplication by
    displacements.
    """
    sigma = screened_integral(T, kappa_o)
    disp = displacement_unitary(dim, alpha)
    target = disp @ number_exp(dim, kappa_o * T) @ disp.conj().T
    return subblock_norm_diff(
        sigma * povm_element_het(sigma * alpha, T, kappa_o, dim), target, sub_dim
    )


def born_moments(rho: np.ndarray, T: float, kappa_o: float) -> tuple[complex, float]:
    """Mean and central covariance of the Born density, from the POVM's
    first two moments ``Sigma(T) a`` and ``Sigma(T) (1 + Sigma(T) a^dag a)``,
    with ``Tr(a rho) = sum_m sqrt(m+1) rho[m+1, m]``."""
    sigma = screened_integral(T, kappa_o)
    pops = np.diagonal(rho).real
    tr = float(np.sum(pops))
    lowered = np.sum(np.sqrt(np.arange(1, pops.size)) * np.diagonal(rho, -1))
    mean = complex(sigma * lowered / tr)
    second = sigma * (1.0 + sigma * float(np.sum(np.arange(pops.size) * pops)) / tr)
    return mean, second - abs(mean) ** 2


def _born_kernel(rho: np.ndarray, zetas: np.ndarray, T: float, kappa_o: float) -> np.ndarray:
    """``Sigma(T) P(zeta|rho)`` on a 1-D array: the Husimi function
    ``<gamma|rho_T|gamma>`` at ``gamma = zeta/sqrt(Sigma)`` of the lost state
    (:func:`fock.lost_state` at ``eta = Sigma``), contracted row by row (no
    BLAS), with the coherent amplitudes ``<j|gamma>`` formed in log space by
    :func:`fock.scaled_powers`, so it underflows only with its value."""
    dim = rho.shape[0]
    sigma = _density_width(T, kappa_o)
    j = np.arange(dim)
    log_norm = log_lowering(dim)[:, 0] - 0.5 * np.log(sigma) * j
    u = scaled_powers(zetas, j, log_norm - (0.5 / sigma) * np.abs(zetas)[:, None] ** 2)
    q = np.einsum("nl,jl->nj", u, lost_state(rho, sigma))
    # Re(u conj(q)) is Re(conj(u) q), with q conjugated in place of a copy of u
    return np.einsum("nj,nj->n", u, np.conjugate(q, out=q)).real


def born_pdf(rho: np.ndarray, zeta, T: float, kappa_o: float) -> float | np.ndarray:
    """Born density ``P(zeta|rho) = D_T(zeta) Tr(K_T(zeta)^dag K_T(zeta) rho)``
    against d^2 zeta / pi, the Born kernel over ``Sigma(T)``: finite wherever
    its closed form is, and 0 only where that underflows."""
    zetas = np.atleast_1d(np.asarray(zeta, dtype=complex))
    vals = _born_kernel(rho, zetas, T, kappa_o) / _density_width(T, kappa_o)
    if float(np.min(vals)) < -1e-10:
        raise NumericError(f"negative density {np.min(vals)}")
    vals = np.clip(vals, 0.0, None)
    return float(vals[0]) if np.isscalar(zeta) or np.ndim(zeta) == 0 else vals


def born_bin_probs(rho: np.ndarray, edges_re, edges_im, T: float, kappa_o: float) -> np.ndarray:
    """Born probability of each rectangular bin ``[edges_re[i], edges_re[i+1]]
    x [edges_im[j], edges_im[j+1]]``: an 8-point Gauss-Legendre rule per
    axis, with the density at every node of every bin from one call."""
    gl_x, gl_w = leggauss(8)

    def axis(edges):
        edges = np.asarray(edges, dtype=float)
        half = 0.5 * np.diff(edges)
        return 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * gl_x, half

    (x, half_x), (y, half_y) = axis(edges_re), axis(edges_im)
    vals = born_pdf(rho, (x.ravel()[:, None] + 1j * y.ravel()).ravel(), T, kappa_o)
    vals = vals.reshape(x.shape + y.shape)
    return np.einsum("k,l,ikjl->ij", gl_w, gl_w, vals) * np.outer(half_x, half_y) / np.pi


def sample_het_ostensible(
    T: float, kappa_o: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` amplitudes drawn from the state-independent density D_T."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    sigma = _density_width(T, kappa_o)
    g = rng.standard_normal((n, 2))
    return np.sqrt(0.5 * sigma) * (g[:, 0] + 1j * g[:, 1])


def _husimi_circles(rho: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The squared radius ``|gamma|^2`` and the phase series ``c`` (one row of
    d per row) of a Husimi draw, from the first two of its uniforms.

    The phase average leaves ``|gamma|^2`` the mixture
    ``sum_n rho_nn Gamma(n+1)``: ``uniforms[:, 0]`` picks n from ``diag rho``
    and ``uniforms[:, 1]`` inverts Gamma(n+1).  Given the radius r, the phase
    density is ``f / (2 pi c_0)`` with ``f(theta) = c_0 + 2 Re sum_k c_k
    e^{ik theta}``, ``c_k = sum_m rho[m, m+k] x_m x_{m+k}`` and
    ``x_m = r^m e^{-r^2/2}/sqrt(m!)`` formed in log space.
    """
    dim = rho.shape[0]
    n = draw_levels(np.diagonal(rho).real, uniforms[:, 0])
    radius_sq = gamma_quantile(n, uniforms[:, 1])
    m = np.arange(dim)
    r2 = radius_sq[:, None]
    x = np.exp(0.5 * (xlogy(m, r2) - r2 - log_factorial(m)))
    c = np.stack([np.sum(np.diagonal(rho, k) * x[:, : dim - k] * x[:, k:], axis=1)
                  for k in range(dim)], axis=1)
    # at r = 0 the phase of gamma = 0 is immaterial: draw it uniform
    c[radius_sq == 0.0] = np.eye(1, dim)
    if not np.all(c.real[:, 0] > 0.0):
        raise NumericError("the Husimi function vanishes on a drawn circle")
    return radius_sq, c


def _mul_add(a, z, c, out, tmp):
    """``out = a z + c`` for complex arrays held as (real, imaginary) pairs,
    in place: the same roundings as the expression, without its temporaries."""
    (a_re, a_im), (z_re, z_im), (out_re, out_im) = a, z, out
    np.multiply(a_re, z_re, out=out_re)
    np.multiply(a_im, z_im, out=tmp)
    out_re -= tmp
    out_re += c[0]
    np.multiply(a_re, z_im, out=out_im)
    np.multiply(a_im, z_re, out=tmp)
    out_im += tmp
    out_im += c[1]


def _phase_cdf(b_re, b_im, shift, theta, slope):
    """``CDF(theta) = theta/(2 pi) + Re sum_k b_k (e^{ik theta} - 1)`` and, if
    ``slope``, its density ``1/(2 pi) + Re sum_k ik b_k e^{ik theta}``.

    The series is summed by Horner's rule in ``z = e^{i theta}``, its
    derivative in z alongside (Horner's simultaneous derivative), on real
    arrays: numpy's complex multiply rounds a lone element differently from
    one in a longer array, which would tie a trajectory's bits to its batch.
    """
    z = np.cos(theta), np.sin(theta)
    s, s_next = (b_re[-1].copy(), b_im[-1].copy()), (np.empty_like(theta), np.empty_like(theta))
    d, d_next = (np.zeros_like(theta), np.zeros_like(theta)), (np.empty_like(theta), np.empty_like(theta))
    tmp = np.empty_like(theta)
    for coef in zip(b_re[-2::-1], b_im[-2::-1]):
        if slope:
            _mul_add(d, z, s, d_next, tmp)
            d, d_next = d_next, d
        _mul_add(s, z, coef, s_next, tmp)
        s, s_next = s_next, s
    cdf = theta / (2.0 * np.pi) + (s[0] * z[0] - s[1] * z[1] - shift)
    if not slope:
        return cdf, None
    # sum_k k b_k z^k = z (s + z s'), and the density is 1/(2 pi) - Im of it
    _mul_add(d, z, s, d_next, tmp)
    return cdf, 1.0 / (2.0 * np.pi) - (d_next[0] * z[1] + d_next[1] * z[0])


def _husimi_phase(c: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phase ``theta`` in [0, 2 pi] at which each row's phase CDF (see
    :func:`_husimi_circles`) reaches ``u``, and its backward error
    ``|CDF(theta) - u|``.

    A fixed schedule, the same on every row: :data:`PHASE_BRACKET_STEPS`
    bisections bracket the root, then :data:`PHASE_NEWTON_STEPS` Newton
    steps on ``CDF - u``, the first from the root of the chord across the
    bracket, run inside it, each evaluation shrinking it.  A step is
    clipped to [0, 2 pi], where the rounded CDF may cross ``u`` just
    outside, and a step that leaves the closed bracket bisects it instead.
    Near a node of the Husimi function, where the density vanishes and
    Newton converges only linearly, the long bracket phase keeps the
    backward error near roundoff.
    """
    dim = c.shape[1]
    # CDF(theta) = theta/(2 pi) + Re sum_k b_k (e^{ik theta} - 1), b_k = c_k/(i pi k c_0)
    scale = np.pi * np.arange(1, dim) * c.real[:, :1]
    b_re, b_im = c.imag[:, 1:] / scale, -c.real[:, 1:] / scale
    shift = np.sum(b_re, axis=1)
    b_re, b_im = b_re.T.copy(), b_im.T.copy()
    lo, cdf_lo = np.zeros(u.size), np.zeros(u.size)
    hi, cdf_hi = np.full(u.size, 2.0 * np.pi), np.ones(u.size)
    for _ in range(PHASE_BRACKET_STEPS):
        mid = 0.5 * (lo + hi)
        cdf = _phase_cdf(b_re, b_im, shift, mid, False)[0]
        below = cdf < u
        lo, cdf_lo = np.where(below, mid, lo), np.where(below, cdf, cdf_lo)
        hi, cdf_hi = np.where(below, hi, mid), np.where(below, cdf_hi, cdf)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Newton starts from the chord's root across the bracket, or its
        # midpoint where the CDF is flat to roundoff
        span = cdf_hi - cdf_lo
        chord = np.minimum(lo + (hi - lo) * ((u - cdf_lo) / span), hi)
        theta = np.where(span > 0.0, chord, 0.5 * (lo + hi))
        for _ in range(PHASE_NEWTON_STEPS):
            cdf, density = _phase_cdf(b_re, b_im, shift, theta, True)
            below = cdf < u
            lo = np.where(below, theta, lo)
            hi = np.where(below, hi, theta)
            step = np.clip(theta - (cdf - u) / density, 0.0, 2.0 * np.pi)
            theta = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
    return theta, np.abs(_phase_cdf(b_re, b_im, shift, theta, False)[0] - u)


def _husimi_amplitudes(rho: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Amplitudes ``gamma`` from the Husimi function ``<gamma|rho|gamma>/pi``,
    one per row of the ``(n, 3)`` uniforms, each by inverse CDF: the radius
    from the first two (:func:`_husimi_circles`), the phase from the third
    by a bracket and safeguarded Newton steps (:func:`_husimi_phase`).

    A phase whose backward error exceeds :data:`PHASE_TOL` raises
    NumericError rather than bias the draw.  Every operation is row-wise.
    """
    radius_sq, c = _husimi_circles(rho, uniforms)
    theta, error = _husimi_phase(c, uniforms[:, 2])
    if not np.all(error <= PHASE_TOL):
        bad = int(np.argmin(error <= PHASE_TOL))
        raise NumericError(
            f"phase backward error {error[bad]:.3g} above {PHASE_TOL:g} on the circle of "
            f"radius {math.sqrt(radius_sq[bad]):.6g}"
        )
    return np.sqrt(radius_sq) * (np.cos(theta) + 1j * np.sin(theta))


def run_het_ensemble(
    rho: np.ndarray, p: InstrumentParams, n_traj: int, seed: int, n_threads: int = 1
) -> np.ndarray:
    """Record functionals at the horizon for ``n_traj`` trajectories, trajectory
    i drawn as ``sqrt(Sigma(T)) gamma``, with gamma by :func:`_husimi_amplitudes`
    of the lost state (:func:`fock.lost_state`, built once per run) from row i
    of the run's uniforms (:func:`ensemble.run_ensemble`).  Only ``p.T`` and
    ``p.kappa_o`` are read: the reduced record has no steps."""
    sigma = screened_integral(p.T, p.kappa_o)
    lost = lost_state(rho, sigma)
    return run_ensemble(lambda u: math.sqrt(sigma) * _husimi_amplitudes(lost, u), 3,
                        n_traj, seed, n_threads)


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
    )


def cartan_dim(zeta: complex, r: float) -> int:
    """Truncation large enough for the polar factors at these coordinates.

    The displaced intermediates ``D_{-alpha}|j>``, j < CARTAN_SUB_DIM, hold
    Poisson(|alpha|^2) populations shifted up by at most CARTAN_SUB_DIM
    levels, far above |zeta| itself when r is small.  dim is CARTAN_SUB_DIM
    plus the first k > |alpha|^2 at which the tail bound ``P(N >= k) <=
    p_k (k+1)/(k+1-|alpha|^2)`` is at most ``CARTAN_TAIL^2``, so at most
    CARTAN_TAIL of amplitude lies past the truncation; at least
    ``CARTAN_SUB_DIM + 20``."""
    mean = abs(cartan_transform(zeta, r).alpha) ** 2
    k = math.floor(mean) + 1
    while mean > 0.0 and (k * math.log(mean) - mean - math.lgamma(k + 1) + math.log(
            (k + 1) / (k + 1 - mean))) > 2.0 * math.log(CARTAN_TAIL):
        k += 1
    return max(CARTAN_SUB_DIM + 20, CARTAN_SUB_DIM + k)


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
    # diagonal factors as row and column scales, the product by einsum, not
    # BLAS: the defect's bits do not depend on the BLAS thread count
    lhs = np.exp(-np.arange(dim) * r)[:, None] * exp_lowering(dim, np.conj(zeta))
    mid = np.exp(-np.arange(dim) * r + coords.scalar_log)
    disp_beta = displacement_unitary(dim, coords.beta)
    disp_alpha_inv = displacement_unitary(dim, -coords.alpha)
    rhs = np.einsum("ik,kj->ij", disp_beta * mid, disp_alpha_inv)
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
    points, weight = _hermite_2d(32)
    peak = 2.0 * float(np.max(points.real)) ** 2 / sigma
    if dim < peak + 8.0 * np.sqrt(peak) + 10.0:
        raise ExtentError(
            f"dim {dim} cannot hold coherent states at |alpha|^2 ~ {peak:.1f}"
        )
    if np.exp(-0.5 * peak) == 0.0:
        raise ExtentError("coherent amplitudes underflow at this quadrature extent")
    alphas = points / np.sqrt(sigma)
    amps = coherent_state(dim, alphas)
    vals = (amps.real**2 + amps.imag**2) @ np.exp(-kappa_o * T * np.arange(dim))
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
    zetas = sample_het_ostensible(T, kappa_o, n_samples, rng)
    sigma = screened_integral(T, kappa_o)
    # alpha = zeta / Sigma_r at r = kappa_o T / 2, where Sigma_r = Sigma(T)
    cov_alpha = float(np.mean(np.abs(zetas / sigma) ** 2))
    return cov_alpha, float(np.exp(-kappa_o * T)) * cov_alpha
