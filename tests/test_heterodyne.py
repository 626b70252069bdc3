"""Heterodyne instrument: increment algebra, record functionals, the evolved
amplitude density, POVM completeness, Born density, and samplers."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kodsim import ensemble, fock, heterodyne as het, records, stepped, verify
from kodsim.exceptions import (
    DomainError,
    ExtentError,
    InvalidDimensionError,
    InvalidRecordError,
    NumericError,
)
from kodsim.params import InstrumentParams, screened_integral
from oracles import (
    bisect_phase,
    born_coeffs,
    born_pdf_quadrature,
    dense_lost_state,
    evolve_het_batch,
    expm_2d,
    mirror_laplacian,
    sample_het_trajectory,
    stepped_zetas,
    wiener_increment,
)

LN2 = math.log(2.0)


def params(kappa_T=1.0, dim=40, dt=1e-3):
    return InstrumentParams.fit_steps(kappa_o=1.0, T=kappa_T, dt=dt, dim=dim)


def coherent_fock_mixture(dim, phase=0.7):
    return (0.5 * fock.density(fock.coherent_state(dim, np.exp(1j * phase)))
            + 0.5 * fock.projector(dim, 3))


def random_mixed(dim, seed=17):
    rng = records.stream(seed, 0)
    g = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def even_cat(dim, alpha):
    v = fock.coherent_state(dim, alpha) + fock.coherent_state(dim, -alpha)
    return v / np.linalg.norm(v)


def phase_cdf_by_sum(c, theta):
    """The phase CDF ``theta/(2 pi) + Re sum_k c_k (e^{ik theta} - 1)/(i pi k c_0)``
    on each row's circle, term by term in complex arithmetic."""
    k = np.arange(1, c.shape[1])
    b = c[:, 1:] / (1j * np.pi * k * c[:, :1].real)
    return theta / (2.0 * np.pi) + np.sum(b * np.expm1(1j * k * theta[:, None]), axis=1).real


# the states the phase solver is held to: coherent at two amplitudes, a
# Fock state, a cat whose Husimi function has nodes, and the mixed state of
# the benchmark's seed-1 `het` call (perfbench/workloads.py draws its phase)
PHASE_STATES = {
    "coherent-1": fock.coherent_state(40, 1.0),
    "coherent-3i": fock.coherent_state(40, 3j),
    "fock5": fock.fock_state(40, 5),
    "even-cat-3": even_cat(40, 3.0),
    "coherent-fock-mixture": coherent_fock_mixture(
        16, np.random.default_rng([1, 2022]).uniform(0.0, 2.0 * np.pi)),
}


def husimi_by_hand(rho, u):
    """gamma from three uniforms: the level by inverse CDF of diag rho, the
    squared radius as the Gamma(n+1) quantile, and the phase by a root of
    the quadrature CDF of <gamma|rho|gamma> on that circle."""
    pops = np.real(np.diag(rho))
    n = int(np.argmax(np.cumsum(pops) > u[0] * pops.sum()))
    r = math.sqrt(scipy.special.gammaincinv(n + 1, u[1]))

    def on_circle(theta):
        v = fock.coherent_state(rho.shape[0], r * np.exp(1j * theta))
        return float(np.real(v.conj() @ rho @ v))

    def cdf(theta):
        return scipy.integrate.quad(on_circle, 0.0, theta, epsabs=1e-14, epsrel=1e-13,
                                    limit=200)[0]

    total = cdf(2.0 * np.pi)
    theta = scipy.optimize.brentq(lambda t: cdf(t) / total - u[2], 0.0, 2.0 * np.pi,
                                  xtol=1e-13)
    return r * np.exp(1j * theta)


class TestWienerIncrements:
    def test_moments(self):
        rng = records.stream(31, 0)
        dt = 1e-3
        draws = np.array([wiener_increment(rng, dt) for _ in range(10**6)])
        assert abs(draws.mean()) < 4 * 10**-4.5
        second = np.mean(np.abs(draws) ** 2)
        assert abs(second / dt - 1.0) < 0.01
        # E[dw^2] = 0 by circular symmetry; 3 sigma of the estimator
        assert abs(np.mean(draws**2)) < 3.0 * dt / np.sqrt(draws.size)

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            wiener_increment(records.stream(0, 0), 0.0)


class TestKrausIncrement:
    def test_zero_increment_is_pure_decay(self):
        p = params(dim=12)
        assert_allclose(
            stepped.kraus_increment(0.0, p),
            fock.number_exp(12, 0.5 * p.kappa_dt),
            atol=1e-15,
        )

    def test_first_order_matrix_element(self):
        # <0|L(dw)|1> = sqrt(kappa) dw* (1 + O(kappa dt))
        p = params(dim=10)
        dw = 0.03 - 0.02j
        elem = stepped.kraus_increment(dw, p)[0, 1]
        lead = np.sqrt(p.kappa_o) * np.conj(dw)
        assert abs(elem / lead - 1.0) < p.kappa_dt

    def test_monte_carlo_completeness(self):
        # int dmu(dw) L(dw)^dag L(dw) = 1 + O(dt^2); sample average over
        # ostensible increments, assembled exactly from monomial moments of
        # the disentangled series
        p = params(dim=40)
        sub = 25
        n_samples = 10**5
        rng = records.stream(77, 0)
        g = rng.standard_normal((n_samples, 2))
        dw = (g[:, 0] + 1j * g[:, 1]) * np.sqrt(0.5 * p.dt)
        u = stepped.lowering_drag(0.5 * p.kappa_dt) * np.sqrt(p.kappa_o) * np.conj(dw)
        order = 16
        powers = np.empty((n_samples, order), dtype=complex)
        powers[:, 0] = 1.0
        for j in range(1, order):
            powers[:, j] = powers[:, j - 1] * u
        moments = (powers.conj().T @ powers) / n_samples
        decay = fock.number_exp(p.dim, p.kappa_dt)
        series = [fock.lowering_power(p.dim, j) / math.factorial(j) for j in range(order)]
        total = np.zeros((p.dim, p.dim), dtype=complex)
        for j in range(order):
            left = series[j].conj().T @ decay
            for k in range(order):
                total += moments[j, k] * (left @ series[k])
        defect = fock.subblock_norm_diff(total, np.eye(p.dim), sub)
        assert defect < 5.0 * p.kappa_dt**2 * sub**2


class TestRecordFunctionals:
    def test_zero_record(self):
        p = params(kappa_T=0.01, dim=4)
        rec = stepped.HeterodyneRecord(np.zeros(p.n_steps, complex), p)
        assert stepped.record_functional(rec) == 0.0

    def test_single_increment_weights(self):
        p = params(kappa_T=0.01, dim=4)
        incs = np.zeros(p.n_steps, complex)
        incs[0] = 0.2 + 0.1j
        rec = stepped.HeterodyneRecord(incs, p)
        assert stepped.record_functional(rec) == pytest.approx(0.2 + 0.1j)
        incs = np.zeros(p.n_steps, complex)
        incs[-1] = 0.2
        rec = stepped.HeterodyneRecord(incs, p)
        expected = 0.2 * np.exp(-0.5 * (p.n_steps - 1) * p.dt)
        assert stepped.record_functional(rec) == pytest.approx(expected, rel=1e-12)

    def test_rejects_wrong_length(self):
        p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=1.0, dim=4)
        with pytest.raises(InvalidRecordError):
            stepped.HeterodyneRecord(np.zeros(5, complex), p)

    def test_ostensible_second_moments(self):
        # E|zeta|^2 = Sigma(T) accumulated as sum kappa e^{-kappa t} dt;
        # the end-weighted functional has the same law by time reversal
        p = params(kappa_T=LN2, dim=4, dt=2e-3)
        runs = 10**5
        times = np.arange(p.n_steps) * p.dt
        damp_start = np.exp(-0.5 * times)
        damp_end = np.exp(-0.5 * (p.T - times))
        rng = records.stream(19, 0)
        zeta2 = 0.0
        nu2 = 0.0
        for _ in range(runs):
            g = rng.standard_normal((p.n_steps, 2))
            incs = (g[:, 0] + 1j * g[:, 1]) * np.sqrt(0.5 * p.dt)
            zeta2 += abs(np.sum(incs * damp_start)) ** 2
            nu2 += abs(np.sum(incs * damp_end)) ** 2
        zeta2 /= runs
        nu2 /= runs
        assert abs(zeta2 / 0.5 - 1.0) < 0.02
        assert abs(nu2 / zeta2 - 1.0) < 0.02


class TestEffectiveCovariance:
    def test_limits(self):
        assert screened_integral(0.0, 1.0) == 0.0
        assert screened_integral(LN2, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert screened_integral(1e6, 1.0) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(DomainError):
            screened_integral(-0.1, 1.0)


class TestGaussianKOD:
    def test_density_peak(self):
        kod = het.kod_gaussian(LN2, 1.0)
        assert kod.density(0.0) == pytest.approx(2.0, rel=1e-14)

    def test_isotropy(self):
        kod = het.kod_gaussian(1.0, 1.0)
        z = 0.37 + 0.21j
        for theta in (0.3, 1.1, 2.0):
            assert kod.density(z * np.exp(1j * theta)) == pytest.approx(
                float(kod.density(z)), rel=1e-12
            )

    def test_second_moment_by_quadrature(self):
        # 2-D Gauss-Hermite oracle for <|zeta|^2>
        kod = het.kod_gaussian(1.0, 1.0)
        nodes, wts = np.polynomial.hermite.hermgauss(40)
        z2 = 0.0
        norm = 0.0
        for i, x in enumerate(nodes):
            for j, y in enumerate(nodes):
                zeta = np.sqrt(kod.sigma) * complex(x, y)
                gauss = float(kod.density(zeta)) * np.exp(x**2 + y**2)
                z2 += wts[i] * wts[j] * gauss * abs(zeta) ** 2
                norm += wts[i] * wts[j] * gauss
        # d^2 zeta / pi = sigma du dv / pi under zeta = sqrt(sigma) (u + iv)
        z2 *= kod.sigma / np.pi
        norm *= kod.sigma / np.pi
        assert abs(norm - 1.0) < 1e-10
        assert abs(z2 - kod.sigma) < 1e-8

    def test_delta_flag(self):
        kod = het.kod_gaussian(0.0, 1.0)
        assert kod.is_delta
        with pytest.raises(DomainError):
            kod.density(0.1)
        # a function that needs the density names kappa_o T, at T = 0 or kappa_o = 0
        for T, kappa_o in ((0.0, 1.0), (1.0, 0.0)):
            with pytest.raises(DomainError, match="kappa_o T > 0"):
                het.trace_identity_defect(T, kappa_o, 10)


class TestDiffusion:
    def test_zero_rate_leaves_initial_condition(self):
        kod = het.evolve_kod_diffusion(1.0, 0.0, h=0.1, extent=5.0, sigma0_sq=0.04)
        ax = kod.axis()
        g = np.exp(-(ax**2) / 0.04) / np.sqrt(0.04)
        g /= np.sum(g) * 0.1 / np.sqrt(np.pi)
        assert np.max(np.abs(kod.grid - np.outer(g, g))) == 0.0
        # the 2-D expression of the same Gaussian rounds differently
        init = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / 0.04) / 0.04
        init /= np.sum(init) * 0.1**2 / np.pi
        assert np.max(np.abs(kod.grid - init)) <= 8 * np.spacing(np.max(init))

    @pytest.mark.parametrize("sigma0_sq", [1e-3, 0.3])
    def test_separable_solve_matches_2d_expm(self, sigma0_sq):
        # widened start (1e-3) and a start already resolved on the mesh (0.3);
        # h = 0.25 keeps the oracle's dense exponential at 1681 x 1681
        kod = het.evolve_kod_diffusion(LN2, 1.0, h=0.25, extent=5.0, sigma0_sq=sigma0_sq)
        oracle = expm_2d(LN2, 1.0, 0.25, 5.0, sigma0_sq)
        assert kod.grid.shape == oracle.shape
        assert np.max(np.abs(kod.grid - oracle)) <= 1e-13 * np.max(oracle)

    def test_matches_analytic_gaussian(self):
        kod = het.evolve_kod_diffusion(LN2, 1.0, h=0.05, extent=5.0, sigma0_sq=1e-3)
        assert verify.kod_error(kod) < 1e-3
        assert abs(kod.grid_mass() - 1.0) < 1e-8
        assert float(np.min(kod.grid)) > -1e-9

    def test_rejects_small_extent(self):
        with pytest.raises(ExtentError):
            het.evolve_kod_diffusion(1.0, 1.0, h=0.05, extent=3.0, sigma0_sq=1e-3)

    def test_halving_check_reads_the_mesh(self, monkeypatch):
        # h = 0.15 puts 33 cells, 4.95, on each side of a requested extent of 5
        kod = het.evolve_kod_diffusion(LN2, 1.0, h=0.15, extent=5.0, sigma0_sq=1e-3)
        assert kod.axis()[-1] < het.MIN_EXTENT
        # the check solves the h/2 mesh alone, at MIN_EXTENT; the KOD is the coarse one
        solves = []
        solve = het.evolve_kod_diffusion
        monkeypatch.setattr(het, "evolve_kod_diffusion",
                            lambda *args, **kw: solves.append(kw) or solve(*args, **kw))
        checks = verify.kod_checks(kod, LN2, 1.0, convergence=True)
        assert [c.name for c in checks][-1] == "kod-diffusion-h-halving"
        assert solves == [{"h": 0.075, "extent": het.MIN_EXTENT, "sigma0_sq": 1e-3}]

    def test_rejects_unresolvable_horizon(self):
        with pytest.raises(ExtentError):
            het.evolve_kod_diffusion(1e-4, 1.0, h=0.05, extent=5.0, sigma0_sq=1e-6)

    @pytest.mark.parametrize(
        "T, kappa_o", [(LN2, math.nan), (LN2, math.inf), (math.nan, 1.0), (math.inf, 1.0)]
    )
    def test_rejects_non_finite_horizon_and_rate(self, T, kappa_o):
        with pytest.raises(DomainError, match="finite"):
            het.evolve_kod_diffusion(T, kappa_o, h=0.05, extent=5.0, sigma0_sq=1e-3)

    @pytest.mark.parametrize("n", [21, 201])
    def test_cosine_basis_diagonalizes_the_mirror_closure(self, n):
        # the Laplacian built by reflection, entry by entry, is C^T diag(lam) C
        lap = mirror_laplacian(n)
        basis, lam = het._mirror_cosine_basis(n)
        assert np.array_equal(lap, lap.T)
        assert not np.any(np.sum(lap, axis=0))
        assert lam[0] == 0.0 and np.all(lam <= 0.0)
        roundoff = 30 * n * np.finfo(float).eps
        assert np.max(np.abs(basis @ basis.T - np.eye(n))) <= roundoff
        assert np.max(np.abs(basis.T @ (lam[:, None] * basis) - lap)) <= roundoff

    @pytest.mark.parametrize("extent", [2.0, 3.0, 4.0])
    def test_density_at_the_ring_raises(self, monkeypatch, extent):
        # past MIN_EXTENT's floor, a horizon of covariance ~1.5 spills onto the ring
        monkeypatch.setattr(het, "MIN_EXTENT", 1.0)
        with pytest.raises(ExtentError, match="density reached the boundary ring"):
            het.evolve_kod_diffusion(10.0, 1.0, h=0.1, extent=extent, sigma0_sq=0.5)

    def test_mass_drift_raises(self, monkeypatch):
        monkeypatch.setattr(het, "KOD_MASS_TOL", 0.0)
        with pytest.raises(NumericError, match="mass drifted to"):
            het.evolve_kod_diffusion(LN2, 1.0, h=0.05, extent=5.0, sigma0_sq=1e-3)

    def test_non_finite_solve_raises(self, monkeypatch):
        # a NaN spectrum must raise, not reach kod-mass as a failed gate
        cosine_basis = het._mirror_cosine_basis

        def nan_mode(n):
            basis, lam = cosine_basis(n)
            lam[1] = math.nan
            return basis, lam

        monkeypatch.setattr(het, "_mirror_cosine_basis", nan_mode)
        with pytest.raises(NumericError, match="mass drifted to nan"):
            het.evolve_kod_diffusion(LN2, 1.0, h=0.05, extent=5.0, sigma0_sq=1e-3)


class TestClassOperators:
    def test_identity_limits(self):
        assert_allclose(het.kraus_class_het(0.0, 0.0, 1.0, 10), np.eye(10), atol=0)

    def test_vacuum_fixed_point(self):
        vec = het.kraus_class_het(0.4 - 0.2j, 1.0, 1.0, 10) @ fock.fock_state(10, 0)
        assert_allclose(vec, fock.fock_state(10, 0), atol=1e-16)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=0.1, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_any_record_reduces_to_dragged_form(self, incs):
        p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=len(incs) * 1e-3, dim=20)
        rec = stepped.HeterodyneRecord(np.array(incs), p)
        brute = stepped.time_ordered_product_het(rec)
        dragged = stepped.standard_form_kraus_het(rec)
        scale = float(np.linalg.norm(dragged[:20, :20], 2))
        assert fock.subblock_norm_diff(brute, dragged, 20) / scale < 1e-12

    def test_record_product_reduces_to_class_operator(self):
        # brute-force product of increment operators against the dragged
        # standard form (exact) and the undragged one (O(kappa dt))
        p = params(dim=40)
        p3 = InstrumentParams(kappa_o=1.0, dt=p.dt, T=3 * p.dt, dim=40)
        rng = records.stream(23, 0)
        g = rng.standard_normal((3, 2))
        incs = (g[:, 0] + 1j * g[:, 1]) * np.sqrt(0.5 * p3.dt)
        rec = stepped.HeterodyneRecord(incs, p3)
        brute = stepped.time_ordered_product_het(rec)
        dragged = stepped.standard_form_kraus_het(rec)
        plain = het.kraus_class_het(stepped.record_functional(rec), p3.T, 1.0, 40)
        scale = np.linalg.norm(dragged[:25, :25], 2)
        assert fock.subblock_norm_diff(brute, dragged, 25) / scale < 1e-10
        assert fock.subblock_norm_diff(brute, plain, 25) / scale < p3.kappa_dt


class TestPOVM:
    def test_vacuum_matrix_element_is_density(self):
        kod = het.kod_gaussian(1.0, 1.0)
        for zeta in (0.1, 0.5 - 0.3j):
            element = het.povm_element_het(zeta, 1.0, 1.0, 30)
            assert abs(element[0, 0].real - float(kod.density(zeta))) < 1e-14

    def test_completeness_quadrature(self):
        assert het.povm_completeness_het(1.0, 1.0, 40, sub_dim=20, quad_order=32) < 1e-6

    def test_completeness_improves_with_order(self):
        defects = [
            het.povm_completeness_het(1.0, 1.0, 40, sub_dim=20, quad_order=q)
            for q in (16, 20, 24, 28, 32)
        ]
        for coarse, fine in zip(defects[:-1], defects[1:]):
            # monotone decrease until the roundoff floor
            assert fine <= coarse * 1.5 + 1e-11

    def test_projector_convergence_scaling(self):
        zeta = 0.5
        defects = [het.projector_convergence_het(zeta, kt, 1.0, 40, 20) for kt in (3.0, 4.0, 5.0)]
        # prefactor of the |zeta|^2 e^{-kappa T} law stays modest
        assert defects[0] / (abs(zeta) ** 2 * math.exp(-3.0)) < 10.0
        for a, b in zip(defects[:-1], defects[1:]):
            assert 0.5 * math.exp(-1.0) <= b / a <= 2.0 * math.exp(-1.0)

    def test_left_invariance(self):
        rng = records.stream(41, 0)
        for _ in range(5):
            alpha = 1.2 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert het.povm_left_invariance_defect(alpha, 1.0, 1.0, 40, 20) < 1e-8


class TestBornDensity:
    def test_vacuum_gives_ostensible(self):
        kod = het.kod_gaussian(1.0, 1.0)
        zs = np.array([0.0, 0.3 + 0.1j, -0.8j])
        assert_allclose(
            het.born_pdf(fock.density(fock.projector(20, 0)), zs, 1.0, 1.0),
            kod.density(zs),
            rtol=1e-12,
        )

    def test_coherent_closed_form(self):
        # complete-the-square oracle: Gaussian with mean Sigma alpha0 and
        # covariance Sigma
        alpha0 = 1.0
        rho = fock.density(fock.coherent_state(40, alpha0))
        sigma = screened_integral(LN2, 1.0)
        zs = (0.2 + 0.1j, 0.5, 0.9 - 0.4j)
        for zeta in zs:
            expected = np.exp(-abs(zeta - sigma * alpha0) ** 2 / sigma) / sigma
            assert abs(het.born_pdf(rho, zeta, LN2, 1.0) - expected) < 1e-8

    @pytest.mark.parametrize(
        "dim, kappa_T", [(16, 0.1), (16, LN2), (16, 3.0), (40, LN2)],
        ids=["mixed-kT0.1", "mixed-kTln2", "mixed-kT3", "fock30"],
    )
    def test_moments_match_quadrature(self, dim, kappa_T):
        # a random mixed state at d=16, Fock 30 at d=40: the POVM's moments
        # against the order-32 quadrature, exact for these polynomials
        if dim == 16:
            rho = random_mixed(dim)
        else:
            rho = fock.projector(dim, 30)
        rho = fock.density(rho)
        total, mean_q, cov_q = born_pdf_quadrature(rho, kappa_T, 1.0, verify.QUAD_ORDER)
        mean, cov = het.born_moments(rho, kappa_T, 1.0)
        assert abs(total - 1.0) < 1e-13
        assert abs(mean - mean_q) < 1e-13
        assert abs(cov - cov_q) < 1e-13

    def test_bin_probs_match_per_cell_rule(self):
        # one Born call over every node equals the rule applied bin by bin
        rng = records.stream(5, 0)
        raw = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rho = 0.5 * fock.density(raw / np.linalg.norm(raw)) + 0.5 * fock.projector(12, 1)
        edges_re = np.array([-1.5, -0.4, 0.0, 0.7, 2.0])
        edges_im = np.array([-1.0, 0.2, 1.1])
        gl_x, gl_w = np.polynomial.legendre.leggauss(8)
        rho = fock.density(rho)
        probs = het.born_bin_probs(rho, edges_re, edges_im, LN2, 1.0)
        assert probs.shape == (4, 2)
        for i in range(4):
            for j in range(2):
                hx = 0.5 * (edges_re[i + 1] - edges_re[i])
                hy = 0.5 * (edges_im[j + 1] - edges_im[j])
                xc = 0.5 * (edges_re[i] + edges_re[i + 1]) + hx * gl_x
                yc = 0.5 * (edges_im[j] + edges_im[j + 1]) + hy * gl_x
                vals = het.born_pdf(rho, (xc[:, None] + 1j * yc[None, :]).ravel(), LN2, 1.0)
                cell = np.einsum("k,l,kl->", gl_w, gl_w, vals.reshape(8, 8)) * hx * hy / np.pi
                assert abs(probs[i, j] - cell) <= 1e-13 * cell

    def test_born_factorization_random_state(self):
        # random low-excitation pure state: the density integrates to one and
        # matches the empirical trajectory amplitudes (8x8 chi-square)
        p = params(kappa_T=LN2, dim=16)
        rng = records.stream(99, 0)
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = np.zeros(16, dtype=complex)
        psi[:4] = raw / np.linalg.norm(raw)
        rho = fock.density(psi)
        total, _, _ = born_pdf_quadrature(rho, LN2, 1.0, verify.QUAD_ORDER)
        assert abs(total - 1.0) < 1e-6
        mean_ref, cov_ref = het.born_moments(rho, LN2, 1.0)

        n_traj = 10**4
        zetas = het.run_het_ensemble(rho, p, n_traj, seed=100, n_threads=4)
        half = 3.5 * np.sqrt(cov_ref / 2.0)
        edges_re = mean_ref.real + np.linspace(-half, half, 9)
        edges_im = mean_ref.imag + np.linspace(-half, half, 9)
        hist2d, _, _ = np.histogram2d(zetas.real, zetas.imag, bins=[edges_re, edges_im])
        probs = het.born_bin_probs(rho, edges_re, edges_im, LN2, 1.0)
        counts_flat = np.append(hist2d.ravel(), n_traj - hist2d.sum())
        probs_flat = np.append(probs.ravel(), max(0.0, 1.0 - probs.sum()))
        assert records.chi_square_gof(counts_flat, probs_flat) > 0.001


class TestSamplers:
    def test_vacuum_matches_ostensible_statistics(self):
        p = params(kappa_T=LN2, dim=4)
        zetas = het.run_het_ensemble(fock.density(fock.fock_state(4, 0)), p, 10**4, seed=3)
        sigma = screened_integral(LN2, 1.0)
        assert abs(np.mean(zetas)) < 3.0 * np.sqrt(sigma / 10**4)
        cov = float(np.mean(np.abs(zetas - zetas.mean()) ** 2))
        assert abs(cov / sigma - 1.0) < 0.03

    def test_coherent_mean(self):
        p = params(kappa_T=LN2, dim=16)
        rho = fock.density(fock.coherent_state(16, 1.0))
        zetas = het.run_het_ensemble(rho, p, 4000, seed=21)
        sigma = screened_integral(LN2, 1.0)
        assert abs(np.mean(zetas) - 0.5) < 3.0 * np.sqrt(sigma / 4000)

    def test_trajectory_deterministic_and_thread_invariant(self):
        p = params(kappa_T=0.05, dim=12)
        psi = fock.coherent_state(12, 0.8)
        base = het.run_het_ensemble(fock.density(psi), p, 300, seed=14)
        again = het.run_het_ensemble(fock.density(psi), p, 300, seed=14, n_threads=3)
        assert np.array_equal(base, again)

    def test_coherent_state_stays_coherent(self):
        # replay the conditioned state along a sampled record: purity 1 and
        # amplitude alpha0 e^{-kappa t/2} independent of the noise
        p = params(kappa_T=0.05, dim=25)
        rho0 = fock.density(fock.coherent_state(25, 1.0))
        rec = sample_het_trajectory(rho0, p, records.stream(6, 0))
        rho = rho0.copy()
        a = fock.make_lowering(25)
        for k, dw in enumerate(rec.increments):
            op = stepped.kraus_increment(dw, p)
            rho = op @ rho @ op.conj().T
            rho /= np.trace(rho).real
            purity = float(np.trace(rho @ rho).real)
            assert abs(purity - 1.0) < 1e-8
            amp = complex(np.trace(a @ rho))
            assert abs(amp - np.exp(-0.5 * (k + 1) * p.dt)) < 1e-8

    @pytest.mark.parametrize(
        "state",
        [
            fock.coherent_state(16, 0.8 + 0.3j),
            fock.fock_state(16, 3),
            fock.density(fock.coherent_state(16, 0.8 + 0.3j)),
            0.3 * fock.projector(16, 0) + 0.7 * fock.projector(16, 3),
            0.5 * fock.density(fock.coherent_state(16, np.exp(0.7j)))
            + 0.5 * fock.projector(16, 3),
        ],
        ids=["coherent", "fock3", "coherent-density", "fock-mixture", "coherent-fock-mixture"],
    )
    def test_batch_matches_dense_oracle_per_trajectory(self, state):
        # the stepped batch sampler reproduces the dense expm sampler draw for draw
        p = params(kappa_T=0.05, dim=16)
        rho = fock.density(state)
        zetas = stepped_zetas(state, p, 12, seed=8)
        for i, z in enumerate(zetas):
            rec = sample_het_trajectory(rho, p, records.stream(8, i))
            assert abs(z - stepped.record_functional(rec)) < 1e-12

    @pytest.mark.parametrize(
        "state",
        [fock.coherent_state(16, 0.8 + 0.3j), fock.fock_state(16, 3), coherent_fock_mixture(16),
         random_mixed(16)],
        ids=["coherent", "fock3", "coherent-fock-mixture", "random-mixed"],
    )
    def test_each_amplitude_is_its_own_husimi_draw(self, state):
        # trajectory i reads the three uniforms of row i of the run's
        # uniforms: sqrt(Sigma(T)) times gamma drawn by hand from the Husimi
        # function of the lost state, summed densely over the loss channel's
        # Kraus operators
        p = params(kappa_T=LN2, dim=16)
        sigma = screened_integral(LN2, 1.0)
        lost = dense_lost_state(fock.density(state), sigma)
        zetas = het.run_het_ensemble(fock.density(state), p, 6, seed=8)
        rows = records.stream(8, records.STREAM_IDS["trajectories"]).random((6, 3))
        for i, (z, u) in enumerate(zip(zetas, rows)):
            assert abs(z - math.sqrt(sigma) * husimi_by_hand(lost, u)) < 1e-9, i

    @pytest.mark.parametrize(
        "state", [fock.fock_state(16, 5), fock.coherent_state(16, 1.0), random_mixed(16)],
        ids=["fock5", "coherent", "random-mixed"],
    )
    def test_extreme_uniforms_give_finite_amplitudes(self, state, monkeypatch):
        # the run's own draw at the corners of [0, 1)^3: no uniform maps to
        # an infinite amplitude, and a radius uniform of 0 gives the origin
        top = 1.0 - 2.0**-53
        rows = np.array([[0.0] * 3, [top] * 3, [0.5, 0.5, top], [0.5, 0.5, 0.0],
                         [top, top, 0.0]])

        class Rows:
            def random(self, shape):
                assert shape == rows.shape
                return rows

        monkeypatch.setattr(ensemble, "stream", lambda seed, stream_id: Rows())
        zetas = het.run_het_ensemble(fock.density(state), params(kappa_T=LN2, dim=16), 5, 1)
        assert zetas.shape == (5,) and np.all(np.isfinite(zetas))
        assert zetas[0] == 0.0

    @pytest.mark.parametrize(
        "state", [fock.fock_state(16, 5), fock.coherent_state(16, 1.0), coherent_fock_mixture(16)],
        ids=["fock5", "coherent", "mixture"],
    )
    def test_zero_radius_uniform_gives_the_origin(self, state):
        # a Gamma quantile at a uniform of exactly 0 is r = 0, where the
        # phase is immaterial even when no phase density exists (Fock 5)
        uniforms = np.array([[0.3, 0.0, 0.7], [0.0, 0.0, 0.0], [0.9, 0.0, 1.0 - 2.0**-53]])
        gamma = het._husimi_amplitudes(fock.density(state), uniforms)
        assert np.array_equal(gamma, np.zeros(3, dtype=complex))

    def test_vanishing_husimi_circle_raises(self):
        # fock.density refuses the zero matrix, so it enters unchecked
        p = params(kappa_T=LN2, dim=4)
        zero = np.zeros((4, 4), dtype=complex)
        with pytest.raises(NumericError):
            het._husimi_amplitudes(zero, np.full((2, 3), 0.5))
        with pytest.raises(NumericError):
            het.run_het_ensemble(zero, p, 3, seed=1)

    @pytest.mark.parametrize("state", PHASE_STATES.values(), ids=PHASE_STATES)
    def test_phase_meets_its_backward_error_and_the_bisection_oracle(self, state):
        rho = fock.density(state)
        u = records.stream(23, 0).random((10**4, 3))
        radius_sq, c = het._husimi_circles(rho, u)
        theta, error = het._husimi_phase(c, u[:, 2])
        assert np.all((0.0 <= theta) & (theta <= 2.0 * np.pi))
        assert np.max(np.abs(phase_cdf_by_sum(c, theta) - u[:, 2])) <= 1e-14
        assert np.max(error) <= 1e-14
        oracle = np.sqrt(radius_sq) * np.exp(1j * bisect_phase(c, u[:, 2]))
        assert np.max(np.abs(het._husimi_amplitudes(rho, u) - oracle)) <= 1e-11

    @pytest.mark.parametrize("state", PHASE_STATES.values(), ids=PHASE_STATES)
    def test_edge_rows_give_finite_amplitudes(self, state):
        # u_3 at both ends of [0, 1), radius 0, and circles through or near
        # the cat's Husimi nodes at gamma = +-i pi/6, where the phase density
        # vanishes at theta = pi/2 and 3 pi/2 and its CDF reads 1/4 and 3/4
        top = 1.0 - 2.0**-53
        node = math.pi / 6.0
        rows = [[u0, u1, u3] for u0 in (0.0, 0.5, top) for u1 in (0.0, 0.5, top)
                for u3 in (0.0, 0.5, top)]
        rows += [[0.0, -math.expm1(-((node + dr) ** 2)), centre + du]
                 for dr in (0.0, 1e-12, -1e-9, 1e-6, -1e-4, 1e-2)
                 for centre in (0.25, 0.75) for du in (0.0, 1e-14, -1e-10, 1e-7, -1e-4, 1e-2)]
        rows = np.array(rows)
        rho = fock.density(state)
        radius_sq, c = het._husimi_circles(rho, rows)
        theta, error = het._husimi_phase(c, rows[:, 2])
        assert np.all((0.0 <= theta) & (theta <= 2.0 * np.pi))
        assert np.all(error <= het.PHASE_TOL)
        gamma = het._husimi_amplitudes(rho, rows)
        assert np.all(np.isfinite(gamma))
        assert np.all(gamma[radius_sq == 0.0] == 0.0)
        if state is PHASE_STATES["even-cat-3"]:
            on_node = (np.abs(radius_sq - node**2) < 1e-14) & (rows[:, 2] == 0.25)
            assert np.any(on_node)
            density = 1.0 + 2.0 * np.sum(c[on_node, 1:] / c[on_node, :1].real
                                         * 1j ** np.arange(1, c.shape[1]), axis=1).real
            assert np.max(np.abs(density)) < 1e-12

    def test_a_phase_the_bracket_alone_cannot_meet_raises(self, monkeypatch):
        # without Newton steps the chord across the bracket misses the
        # backward-error bound, which raises rather than bias the phase
        rho = fock.density(fock.coherent_state(40, 1.0))
        u = records.stream(23, 0).random((200, 3))
        monkeypatch.setattr(het, "PHASE_NEWTON_STEPS", 0)
        with pytest.raises(NumericError, match=r"circle of radius \d"):
            het._husimi_amplitudes(rho, u)
        with pytest.raises(NumericError, match="phase backward error"):
            het.run_het_ensemble(rho, params(kappa_T=LN2, dim=40), 200, seed=1)

    def test_vector_and_its_density_give_identical_trajectories(self):
        # a unit vector reaches the sampler only as its pure density
        p = params(kappa_T=0.05, dim=16)
        psi = np.zeros(16, dtype=complex)
        psi[[0, 3]] = [0.6, 0.8j]
        for state in (psi, fock.coherent_state(16, 0.8 + 0.3j)):
            assert np.linalg.norm(state) == 1.0
            zetas = het.run_het_ensemble(fock.density(state), p, 20, seed=4)
            again = het.run_het_ensemble(fock.density(fock.density(state)), p, 20, seed=4)
            assert np.array_equal(zetas, again)

    def test_overflowing_record_raises(self):
        p = params(kappa_T=0.05, dim=8)
        coeffs = born_coeffs(fock.density(fock.coherent_state(8, 0.5)))
        normals = np.full((3, p.n_steps, 2), 1e200)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            evolve_het_batch(coeffs, p, normals)

    def test_batch_size_and_threads_do_not_change_trajectories(self, monkeypatch):
        # every operation is row-wise, so a trajectory never sees its
        # batchmates.  An earlier sampler's batch-wide stopping test changed
        # 9 of these 600 at batch=1, 3 of them among the first 34
        p = params(kappa_T=LN2, dim=40)
        psi = (fock.fock_state(40, 0) + fock.fock_state(40, 12)) / math.sqrt(2.0)
        rho = fock.density(psi)
        base = het.run_het_ensemble(rho, p, 600, seed=3)
        monkeypatch.setattr(ensemble, "BATCH", 1)
        assert np.array_equal(het.run_het_ensemble(rho, p, 34, seed=3), base[:34])
        # batch=1 makes every row a lone row, which a sum down a column or
        # numpy's in-place complex multiply rounds unlike a row of a longer array
        for dim in (16, 40):
            rho, q = fock.density(random_mixed(dim)), params(kappa_T=0.05, dim=dim)
            monkeypatch.setattr(ensemble, "BATCH", 4096)
            base = het.run_het_ensemble(rho, q, 257, seed=9)
            for batch, n_traj in ((1, 12), (7, 40), (64, 257)):
                monkeypatch.setattr(ensemble, "BATCH", batch)
                for n_threads in (1, 2, 3):
                    again = het.run_het_ensemble(rho, q, n_traj, 9, n_threads)
                    assert np.array_equal(again, base[:n_traj]), (dim, batch, n_threads)

    def test_zero_state_rejected(self):
        p = params(kappa_T=0.02, dim=8)
        with pytest.raises(DomainError):
            het.run_het_ensemble(fock.density(np.zeros(8, dtype=complex)), p, 5, seed=2)
        with pytest.raises(DomainError):
            fock.density(math.sqrt(0.5) * fock.fock_state(8, 1))

    def test_ostensible_sampler_covariance(self):
        draws = het.sample_het_ostensible(LN2, 1.0, 10**5, records.stream(51, 0))
        assert draws.shape == (10**5,) and draws.dtype == complex
        assert abs(np.mean(np.abs(draws) ** 2) / 0.5 - 1.0) < 0.02

    def test_born_density_memory_is_quadratic(self):
        # Fock 319 at d=320: a d^3 complex coefficient array would be 0.5 GB
        dim = 320
        tracemalloc.start()
        try:
            rho = fock.density(fock.fock_state(dim, dim - 1))
            densities = het.born_pdf(rho, np.array([0.5 + 0.2j, -1.0]), LN2, 1.0)
            mean, cov = het.born_moments(rho, LN2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
        sigma = screened_integral(LN2, 1.0)
        assert mean == 0.0 and cov == pytest.approx(sigma * (1.0 + sigma * (dim - 1)), rel=1e-14)
        assert np.all(np.isfinite(densities))

    def test_born_density_is_row_wise(self):
        # each density reads its own amplitude only: a prefix of the nodes,
        # or one node alone, has the bits it has in the whole array
        rho = coherent_fock_mixture(40)
        rng = records.stream(53, 0)
        zetas = 1.5 * (rng.standard_normal(257) + 1j * rng.standard_normal(257))
        zetas[5] = 0.0
        full = het.born_pdf(rho, zetas, LN2, 1.0)
        for k in (1, 2, 3, 8, 17, 64, 256):
            assert het.born_pdf(rho, zetas[:k], LN2, 1.0).tobytes() == full[:k].tobytes(), k
        assert [het.born_pdf(rho, z, LN2, 1.0) for z in zetas[:12]] == list(full[:12])

    @pytest.mark.parametrize("n", [250, 300, 319])
    def test_high_truncation_weights_match_the_closed_form(self, n):
        # Fock n: W = sum_j e^{-(n-j) kappa_o T} g_j(n-j)^2 |zeta|^{2j}, with
        # g_j(n-j)^2 = n!/((n-j)! j!^2), summed in log space.  The density
        # D_T W reaches |zeta| = 30.3, where zeta^319 overflows a double: it
        # matches to 1e-12 where the closed form is a normal double and is 0
        # where the closed form underflows
        dim = 320
        j = np.arange(n + 1)
        zetas = np.array([0.5, 3.0, 9.0, 20.0, 30.3]) * np.exp(0.4j)
        for kappa_T in (0.05, 1.0):
            sigma = screened_integral(kappa_T, 1.0)
            densities = het.born_pdf(fock.projector(dim, n), zetas, kappa_T, 1.0)
            for k, zeta in enumerate(zetas):
                logs = (scipy.special.gammaln(n + 1) - scipy.special.gammaln(n - j + 1)
                        - 2.0 * scipy.special.gammaln(j + 1) - (n - j) * kappa_T
                        + 2.0 * j * math.log(abs(zeta)))
                log_w = scipy.special.logsumexp(logs)
                closed = math.exp(log_w - abs(zeta) ** 2 / sigma - math.log(sigma))
                if closed >= np.finfo(float).tiny:
                    assert densities[k] == pytest.approx(closed, rel=1e-12), (kappa_T, zeta)
                else:
                    assert densities[k] == 0.0, (kappa_T, zeta)

    def test_a_vector_is_not_read_as_a_density(self):
        # np.diagonal refuses a 1-D array, and the lost state raises a typed error
        p = params(kappa_T=LN2, dim=8)
        pops = np.full(8, 1.0 / 8)
        with pytest.raises(ValueError):
            het.born_moments(pops, LN2, 1.0)
        with pytest.raises(InvalidDimensionError):
            het.run_het_ensemble(pops, p, 5, seed=1)
        with pytest.raises(InvalidDimensionError):
            het.born_pdf(pops, np.array([0.5]), LN2, 1.0)

    def test_ostensible_weights_vacuum_unity(self):
        zs = np.array([0.1, 0.4 - 0.2j, 1.0j])
        vacuum = fock.density(fock.projector(12, 0))
        weights = het.born_pdf(vacuum, zs, LN2, 1.0) / het.kod_gaussian(LN2, 1.0).density(zs)
        assert_allclose(weights, np.ones(3), rtol=1e-13)

    def test_ostensible_importance_weighting(self):
        # weighted mean of D_T draws reproduces the Born mean Sigma alpha0
        rho = fock.density(fock.coherent_state(16, 1.0))
        rng = records.stream(52, 0)
        g = rng.standard_normal((10**5, 2))
        draws = np.sqrt(0.25) * (g[:, 0] + 1j * g[:, 1])
        weights = het.born_pdf(rho, draws, LN2, 1.0) / het.kod_gaussian(LN2, 1.0).density(draws)
        mean = np.sum(weights * draws) / np.sum(weights)
        assert abs(mean - 0.5) < 3.0 * np.sqrt(0.5 / 10**5) * 2.0


class TestCartan:
    def test_transform_trivial(self):
        c = het.cartan_transform(0.0, 1.3)
        assert (c.alpha, c.beta, c.scalar_log) == (0.0, 0.0, 0.0)

    def test_transform_large_r(self):
        c = het.cartan_transform(0.7 + 0.1j, 40.0)
        assert abs(c.alpha - (0.7 + 0.1j)) < 1e-15
        assert abs(c.beta) < 1e-15

    def test_transform_half_log_two(self):
        # Sigma_r = 3/4 at r = ln 2, so zeta = 1 maps to alpha = 4/3
        c = het.cartan_transform(1.0, LN2)
        assert c.alpha == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert c.beta == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert c.scalar_log == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_transform_rejects_nonpositive_r(self):
        with pytest.raises(DomainError):
            het.cartan_transform(1.0, 0.0)

    def test_identity_zero_amplitude(self):
        assert het.cartan_identity_defect(0.0, 0.9, dim=30) < 1e-13

    def test_identity_reference_point(self):
        assert het.cartan_identity_defect(1.0 + 0.5j, 0.7, dim=40) < 1e-9

    def test_identity_phase_covariance(self):
        base = het.cartan_identity_defect(1.3, 0.8)
        for theta in (0.7, 2.2, 4.0):
            rotated = het.cartan_identity_defect(1.3 * np.exp(1j * theta), 0.8)
            assert abs(rotated - base) < 1e-10

    def test_identity_small_r_large_amplitude(self):
        # alpha = zeta / Sigma_r reaches ~11 here; the truncation must follow
        assert het.cartan_identity_defect(2.0, 0.1) < 1e-9

    @pytest.mark.parametrize("seed, index", [(3, 3), (10, 53)])
    def test_identity_converged_in_dim_on_the_worst_draws(self, seed, index):
        # the worst draws of two seeds that failed the gate when the
        # truncation ignored the Poisson tail: 1.05e-9 and 2.07e-9 then
        rng = records.stream(seed, records.STREAM_IDS["cartan"])
        draws = [(0.1 + 2.9 * rng.random(), verify._random_disk(rng, 2.0)) for _ in range(100)]
        r, zeta = draws[index]
        dim = het.cartan_dim(zeta, r)
        at_dim = het.cartan_identity_defect(zeta, r, dim=dim)
        assert at_dim < 1e-2 * verify.CARTAN_TOL
        at_more = het.cartan_identity_defect(zeta, r, dim=dim + 20)
        assert abs(at_dim - at_more) < 1e-2 * verify.CARTAN_TOL

    def test_cartan_dim_meets_its_tail_bound(self):
        # the Poisson(|alpha|^2) tail past dim - CARTAN_SUB_DIM, summed
        # directly, is within CARTAN_TAIL^2, and one level less is not
        for zeta, r in [(2.0, 0.1), (1.0 + 0.5j, 0.7), (0.3, 2.5)]:
            mean = abs(het.cartan_transform(zeta, r).alpha) ** 2
            dim = het.cartan_dim(zeta, r)
            tail = lambda k: scipy.special.pdtrc(k - 1, mean)
            assert tail(dim - het.CARTAN_SUB_DIM) <= het.CARTAN_TAIL**2
            if dim > het.CARTAN_SUB_DIM + 20:
                assert tail(dim - het.CARTAN_SUB_DIM - 1) > het.CARTAN_TAIL**2 / 10


class TestTraceIdentity:
    def test_half_log_two_matches_tail(self):
        defect = het.trace_identity_defect(LN2, 1.0, 50)
        assert defect < 2.0 * het.trace_tail_bound(LN2, 1.0, 50)

    def test_unit_horizon(self):
        assert het.trace_identity_defect(1.0, 1.0, 40) <= het.trace_tail_bound(1.0, 1.0, 40)

    def test_tail_shrinks_geometrically(self):
        d40 = het.trace_identity_defect(0.2, 1.0, 40)
        d50 = het.trace_identity_defect(0.2, 1.0, 50)
        assert d50 <= d40 * math.exp(-10.0 * 0.2) * 1.01

    def test_groundstate_quadrature(self):
        dev = het.groundstate_completeness(LN2, 1.0, dim=340)
        assert abs(dev) < 1e-6

    def test_groundstate_integrand_closed_form(self):
        # <alpha|e^{-n kappa T}|alpha> = e^{-|alpha|^2 Sigma}
        sigma = screened_integral(LN2, 1.0)
        damp = np.exp(-LN2 * np.arange(60))
        for alpha in (0.0, 0.9, 1.4 - 0.6j):
            vec = fock.coherent_state(60, alpha)
            val = float(np.sum(np.abs(vec) ** 2 * damp))
            assert abs(val - np.exp(-abs(alpha) ** 2 * sigma)) < 1e-10

    def test_groundstate_rejects_small_dim(self):
        with pytest.raises(ExtentError):
            het.groundstate_completeness(LN2, 1.0, dim=40)


class TestCovarianceCooling:
    def test_half_log_two_values(self):
        cov_a, cov_b = het.covariance_cooling(LN2, 1.0, 10**5, records.stream(61, 0))
        assert abs(cov_a / 2.0 - 1.0) < 0.03
        assert abs(cov_b / 1.0 - 1.0) < 0.03

    def test_needs_a_sample(self):
        # an empty sample used to give NaN covariances
        with pytest.raises(DomainError):
            het.covariance_cooling(1.0, 1.0, 0, records.stream(61, 3))

    def test_beta_vanishes_at_long_times(self):
        _, cov_b = het.covariance_cooling(8.0, 1.0, 10**4, records.stream(61, 1))
        assert cov_b < 5e-3

    def test_exact_samplewise_ratio(self):
        cov_a, cov_b = het.covariance_cooling(1.3, 1.0, 10**4, records.stream(61, 2))
        assert cov_b == pytest.approx(math.exp(-1.3) * cov_a, rel=1e-12)
