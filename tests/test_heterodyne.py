"""Heterodyne instrument: increment algebra, record functionals, the evolved
amplitude density, POVM completeness, Born density, and samplers."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kodsim import fock, heterodyne as het, records, verify
from kodsim.exceptions import (
    DomainError,
    ExtentError,
    InvalidRecordError,
    NumericError,
)
from kodsim.params import InstrumentParams, screened_integral

LN2 = math.log(2.0)


def params(kappa_T=1.0, dim=40, dt=1e-3):
    return InstrumentParams.fit_steps(kappa_o=1.0, T=kappa_T, dt=dt, dim=dim)


class TestWienerIncrements:
    def test_moments(self):
        rng = records.stream(31, 0)
        dt = 1e-3
        draws = np.array([het.wiener_increment(rng, dt) for _ in range(10**6)])
        assert abs(draws.mean()) < 4 * 10**-4.5
        second = np.mean(np.abs(draws) ** 2)
        assert abs(second / dt - 1.0) < 0.01
        # E[dw^2] = 0 by circular symmetry; 3 sigma of the estimator
        assert abs(np.mean(draws**2)) < 3.0 * dt / np.sqrt(draws.size)

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            het.wiener_increment(records.stream(0, 0), 0.0)


class TestKrausIncrement:
    def test_zero_increment_is_pure_decay(self):
        p = params(dim=12)
        assert_allclose(
            het.kraus_increment(0.0, p),
            fock.number_exp(12, 0.5 * p.kappa_dt),
            atol=1e-15,
        )

    def test_first_order_matrix_element(self):
        # <0|L(dw)|1> = sqrt(kappa) dw* (1 + O(kappa dt))
        p = params(dim=10)
        dw = 0.03 - 0.02j
        elem = het.kraus_increment(dw, p)[0, 1]
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
        u = het.lowering_drag(0.5 * p.kappa_dt) * np.sqrt(p.kappa_o) * np.conj(dw)
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
        rec = het.HeterodyneRecord(np.zeros(p.n_steps, complex), p.dt, p.T)
        assert het.record_functional(rec, 1.0) == 0.0

    def test_single_increment_weights(self):
        p = params(kappa_T=0.01, dim=4)
        incs = np.zeros(p.n_steps, complex)
        incs[0] = 0.2 + 0.1j
        rec = het.HeterodyneRecord(incs, p.dt, p.T)
        assert het.record_functional(rec, 1.0) == pytest.approx(0.2 + 0.1j)
        incs = np.zeros(p.n_steps, complex)
        incs[-1] = 0.2
        rec = het.HeterodyneRecord(incs, p.dt, p.T)
        expected = 0.2 * np.exp(-0.5 * (p.n_steps - 1) * p.dt)
        assert het.record_functional(rec, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidRecordError):
            het.HeterodyneRecord(np.zeros(5, complex), 1e-3, 1.0)

    def test_ostensible_second_moments(self):
        # E|zeta|^2 = Sigma(T) accumulated as sum kappa e^{-kappa t} dt;
        # the end-weighted functional has the same law by time reversal
        p = params(kappa_T=LN2, dim=4, dt=2e-3)
        runs = 10**5
        damp_start = np.exp(-0.5 * p.step_times())
        damp_end = np.exp(-0.5 * (p.T - p.step_times()))
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


def adi_2d(T, kappa_o, h, extent, steps, sigma0_sq=1e-3, resolve_scale=1.5):
    """Oracle: the 2-D alternating-direction loop on the full grid, each
    step one implicit solve along axis 0 and one along axis 1, from the
    same widened initial Gaussian as ``evolve_kod_diffusion``."""
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
    main = np.full(sq.size, -30.0)
    main[[0, -1]] = -15.0
    main[[1, -2]] = -31.0

    def explicit_half(w, coef):  # I + coef 12 h^2 L along axis 0
        v = main[:, None] * w
        v[:-1] += 16.0 * w[1:]
        v[1:] += 16.0 * w[:-1]
        v[:-2] -= w[2:]
        v[2:] -= w[:-2]
        return w + coef * v

    for k in range(steps):
        t0 = t_start + k * (T - t_start) / steps
        t1 = t_start + (k + 1) * (T - t_start) / steps
        coef = 0.5 * (sig(t1) - sig(t0)) / 4.0 / (12.0 * h**2)
        ab = het._heat_banded(sq.size, coef)
        u = scipy.linalg.solve_banded((2, 2), ab, explicit_half(u, coef))
        u = scipy.linalg.solve_banded((2, 2), ab, explicit_half(u.T.copy(), coef)).T
    return u


class TestDiffusion:
    def test_zero_rate_leaves_initial_condition(self):
        kod = het.evolve_kod_diffusion(1.0, 0.0, h=0.1, extent=5.0, steps=50,
                                       sigma0_sq=0.04)
        ax = kod.axis()
        g = np.exp(-(ax**2) / 0.04) / np.sqrt(0.04)
        g /= np.sum(g) * 0.1 / np.sqrt(np.pi)
        assert np.max(np.abs(kod.grid - np.outer(g, g))) == 0.0
        # the 2-D expression of the same Gaussian rounds differently
        init = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / 0.04) / 0.04
        init /= np.sum(init) * 0.1**2 / np.pi
        assert np.max(np.abs(kod.grid - init)) <= 8 * np.spacing(np.max(init))

    @pytest.mark.parametrize(
        "h, steps, sigma0_sq",
        [(0.25, 20, 1e-3), (0.1, 40, 1e-3), (0.25, 20, 0.3)],
    )
    def test_separable_solve_matches_2d_adi(self, h, steps, sigma0_sq):
        # widened start (1e-3) and a start already resolved on the mesh (0.3)
        kod = het.evolve_kod_diffusion(LN2, 1.0, h=h, extent=5.0, steps=steps,
                                       sigma0_sq=sigma0_sq)
        oracle = adi_2d(LN2, 1.0, h, 5.0, steps, sigma0_sq)
        assert kod.grid.shape == oracle.shape
        assert np.max(np.abs(kod.grid - oracle)) <= 1e-13 * np.max(oracle)

    def test_matches_analytic_gaussian(self):
        kod = het.evolve_kod_diffusion(LN2, 1.0, h=0.05, extent=5.0, steps=200,
                                       sigma0_sq=1e-3)
        assert verify.kod_error(kod) < 1e-3
        assert abs(kod.grid_mass() - 1.0) < 1e-8
        assert float(np.min(kod.grid)) > -1e-9

    def test_rejects_small_extent(self):
        with pytest.raises(ExtentError):
            het.evolve_kod_diffusion(1.0, 1.0, h=0.05, extent=3.0, steps=50)

    def test_rejects_unresolvable_horizon(self):
        with pytest.raises(ExtentError):
            het.evolve_kod_diffusion(1e-4, 1.0, h=0.05, extent=5.0, steps=50,
                                     sigma0_sq=1e-6)


class TestClassOperators:
    def test_identity_limits(self):
        p = params(dim=10)
        assert_allclose(het.kraus_class_het(0.0, 0.0, p), np.eye(10), atol=0)

    def test_vacuum_fixed_point(self):
        p = params(dim=10)
        vec = het.kraus_class_het(0.4 - 0.2j, 1.0, p) @ fock.fock_state(10, 0)
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
        rec = het.HeterodyneRecord(np.array(incs), p.dt, p.T)
        brute = het.time_ordered_product_het(rec, p)
        dragged = het.standard_form_kraus_het(rec, p)
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
        rec = het.HeterodyneRecord(incs, p3.dt, p3.T)
        brute = het.time_ordered_product_het(rec, p3)
        dragged = het.standard_form_kraus_het(rec, p3)
        plain = het.kraus_class_het(het.record_functional(rec, 1.0), rec.T, p3)
        scale = np.linalg.norm(dragged[:25, :25], 2)
        assert fock.subblock_norm_diff(brute, dragged, 25) / scale < 1e-10
        assert fock.subblock_norm_diff(brute, plain, 25) / scale < p3.kappa_dt


class TestPOVM:
    def test_vacuum_matrix_element_is_density(self):
        p = params(kappa_T=1.0, dim=30)
        kod = het.kod_gaussian(1.0, 1.0)
        for zeta in (0.1, 0.5 - 0.3j):
            element = het.povm_element_het(zeta, 1.0, p)
            assert abs(element[0, 0].real - float(kod.density(zeta))) < 1e-14

    def test_completeness_quadrature(self):
        p = params(kappa_T=1.0, dim=40)
        assert het.povm_completeness_het(1.0, p, sub_dim=20, quad_order=32) < 1e-6

    def test_completeness_improves_with_order(self):
        p = params(kappa_T=1.0, dim=40)
        defects = [
            het.povm_completeness_het(1.0, p, sub_dim=20, quad_order=q)
            for q in (16, 20, 24, 28, 32)
        ]
        for coarse, fine in zip(defects[:-1], defects[1:]):
            # monotone decrease until the roundoff floor
            assert fine <= coarse * 1.5 + 1e-11

    def test_projector_convergence_scaling(self):
        zeta = 0.5
        defects = []
        for kappa_T in (3.0, 4.0, 5.0):
            p = params(kappa_T=kappa_T, dim=40)
            defects.append(het.projector_convergence_het(zeta, kappa_T, p, 20))
        # prefactor of the |zeta|^2 e^{-kappa T} law stays modest
        assert defects[0] / (abs(zeta) ** 2 * math.exp(-3.0)) < 10.0
        for a, b in zip(defects[:-1], defects[1:]):
            assert 0.5 * math.exp(-1.0) <= b / a <= 2.0 * math.exp(-1.0)

    def test_left_invariance(self):
        p = params(kappa_T=1.0, dim=40)
        rng = records.stream(41, 0)
        for _ in range(5):
            alpha = 1.2 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert het.povm_left_invariance_defect(alpha, 1.0, p, 20) < 1e-8


class TestBornDensity:
    def test_vacuum_gives_ostensible(self):
        p = params(kappa_T=1.0, dim=20)
        kod = het.kod_gaussian(1.0, 1.0)
        zs = np.array([0.0, 0.3 + 0.1j, -0.8j])
        assert_allclose(
            het.born_pdf(fock.projector(20, 0), zs, 1.0, p),
            kod.density(zs),
            rtol=1e-12,
        )

    def test_coherent_closed_form(self):
        # complete-the-square oracle: Gaussian with mean Sigma alpha0 and
        # covariance Sigma
        p = params(kappa_T=LN2, dim=40)
        alpha0 = 1.0
        rho = fock.pure_density(fock.coherent_state(40, alpha0))
        sigma = screened_integral(LN2, 1.0)
        zs = (0.2 + 0.1j, 0.5, 0.9 - 0.4j)
        for zeta in zs:
            expected = np.exp(-abs(zeta - sigma * alpha0) ** 2 / sigma) / sigma
            assert abs(het.born_pdf(rho, zeta, LN2, p) - expected) < 1e-8

    def test_normalization_by_quadrature(self):
        p = params(kappa_T=LN2, dim=30)
        rho = fock.pure_density(fock.coherent_state(30, 0.8 + 0.3j))
        total, _, _ = het.born_pdf_quadrature(rho, LN2, p)
        assert abs(total - 1.0) < 1e-6

    def test_bin_probs_match_per_cell_rule(self):
        # one Born call over every node equals the rule applied bin by bin
        p = params(kappa_T=LN2, dim=12)
        rng = records.stream(5, 0)
        raw = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rho = 0.5 * fock.pure_density(raw / np.linalg.norm(raw)) + 0.5 * fock.projector(12, 1)
        edges_re = np.array([-1.5, -0.4, 0.0, 0.7, 2.0])
        edges_im = np.array([-1.0, 0.2, 1.1])
        gl_x, gl_w = np.polynomial.legendre.leggauss(8)
        probs = het.born_bin_probs(rho, edges_re, edges_im, LN2, p)
        assert probs.shape == (4, 2)
        for i in range(4):
            for j in range(2):
                hx = 0.5 * (edges_re[i + 1] - edges_re[i])
                hy = 0.5 * (edges_im[j + 1] - edges_im[j])
                xc = 0.5 * (edges_re[i] + edges_re[i + 1]) + hx * gl_x
                yc = 0.5 * (edges_im[j] + edges_im[j + 1]) + hy * gl_x
                vals = het.born_pdf(rho, (xc[:, None] + 1j * yc[None, :]).ravel(), LN2, p)
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
        rho = fock.pure_density(psi)
        total, mean_ref, cov_ref = het.born_pdf_quadrature(rho, LN2, p)
        assert abs(total - 1.0) < 1e-6

        n_traj = 10**4
        zetas = het.run_het_ensemble(psi, p, n_traj, seed=100, n_threads=4)
        half = 3.5 * np.sqrt(cov_ref / 2.0)
        edges_re = mean_ref.real + np.linspace(-half, half, 9)
        edges_im = mean_ref.imag + np.linspace(-half, half, 9)
        hist2d, _, _ = np.histogram2d(zetas.real, zetas.imag, bins=[edges_re, edges_im])
        probs = het.born_bin_probs(rho, edges_re, edges_im, LN2, p)
        counts_flat = np.append(hist2d.ravel(), n_traj - hist2d.sum())
        probs_flat = np.append(probs.ravel(), max(0.0, 1.0 - probs.sum()))
        assert records.chi_square_gof(counts_flat, probs_flat) > 0.001


class TestSamplers:
    def test_vacuum_matches_ostensible_statistics(self):
        p = params(kappa_T=LN2, dim=4)
        zetas = het.run_het_ensemble(fock.fock_state(4, 0), p, 10**4, seed=3)
        sigma = screened_integral(LN2, 1.0)
        assert abs(np.mean(zetas)) < 3.0 * np.sqrt(sigma / 10**4)
        cov = float(np.mean(np.abs(zetas - zetas.mean()) ** 2))
        assert abs(cov / sigma - 1.0) < 0.03

    def test_coherent_mean(self):
        p = params(kappa_T=LN2, dim=16)
        zetas = het.run_het_ensemble(fock.coherent_state(16, 1.0), p, 4000, seed=21)
        sigma = screened_integral(LN2, 1.0)
        assert abs(np.mean(zetas) - 0.5) < 3.0 * np.sqrt(sigma / 4000)

    def test_trajectory_deterministic_and_thread_invariant(self):
        p = params(kappa_T=0.05, dim=12)
        psi = fock.coherent_state(12, 0.8)
        base = het.run_het_ensemble(psi, p, 300, seed=14)
        again = het.run_het_ensemble(psi, p, 300, seed=14, n_threads=3)
        assert np.array_equal(base, again)

    def test_coherent_state_stays_coherent(self):
        # replay the conditioned state along a sampled record: purity 1 and
        # amplitude alpha0 e^{-kappa t/2} independent of the noise
        p = params(kappa_T=0.05, dim=25)
        rho0 = fock.pure_density(fock.coherent_state(25, 1.0))
        rec = het.sample_het_trajectory(rho0, p, records.stream(6, 0))
        rho = rho0.copy()
        a = fock.make_lowering(25)
        for k, dw in enumerate(rec.increments):
            op = het.kraus_increment(dw, p)
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
            fock.pure_density(fock.coherent_state(16, 0.8 + 0.3j)),
            0.3 * fock.projector(16, 0) + 0.7 * fock.projector(16, 3),
            0.5 * fock.pure_density(fock.coherent_state(16, np.exp(0.7j)))
            + 0.5 * fock.projector(16, 3),
        ],
        ids=["coherent", "fock3", "coherent-density", "fock-mixture", "coherent-fock-mixture"],
    )
    def test_batch_matches_dense_oracle_per_trajectory(self, state):
        # the batch sampler reproduces the dense expm sampler draw for draw
        p = params(kappa_T=0.05, dim=16)
        rho = state if state.ndim == 2 else fock.pure_density(state)
        zetas = het.run_het_ensemble(state, p, 12, seed=8)
        for i, z in enumerate(zetas):
            rec = het.sample_het_trajectory(rho, p, records.stream(8, i))
            assert abs(z - het.record_functional(rec, p.kappa_o)) < 1e-12

    def test_vector_and_its_density_give_identical_trajectories(self):
        # a unit vector reaches the sampler only as its pure density
        p = params(kappa_T=0.05, dim=16)
        psi = np.zeros(16, dtype=complex)
        psi[[0, 3]] = [0.6, 0.8j]
        for state in (psi, fock.coherent_state(16, 0.8 + 0.3j)):
            assert np.linalg.norm(state) == 1.0
            zetas = het.run_het_ensemble(state, p, 20, seed=4)
            again = het.run_het_ensemble(fock.pure_density(state), p, 20, seed=4)
            assert np.array_equal(zetas, again)

    def test_overflowing_record_raises(self):
        p = params(kappa_T=0.05, dim=8)
        coeffs = het._weight_coeffs(fock.pure_density(fock.coherent_state(8, 0.5)))
        normals = np.full((3, p.n_steps, 2), 1e200)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            het._evolve_het_batch(coeffs, p, normals)

    def test_batch_size_and_threads_do_not_change_trajectories(self):
        # every operation is row-wise, so a trajectory never sees its
        # batchmates.  An earlier sampler's batch-wide stopping test changed
        # 9 of these 600 at batch=1, 3 of them among the first 34, which are
        # rerun one at a time here
        p = params(kappa_T=LN2, dim=40)
        psi = (fock.fock_state(40, 0) + fock.fock_state(40, 12)) / math.sqrt(2.0)
        base = het.run_het_ensemble(psi, p, 600, seed=3)
        assert np.array_equal(het.run_het_ensemble(psi, p, 34, seed=3, batch=1), base[:34])
        q = params(kappa_T=0.05, dim=8)
        mixed = 0.6 * fock.pure_density(fock.coherent_state(8, 0.5)) + 0.4 * fock.projector(8, 2)
        base = het.run_het_ensemble(mixed, q, 40, seed=9)
        for batch in (1, 7, 4096):
            for n_threads in (1, 2, 3):
                again = het.run_het_ensemble(mixed, q, 40, 9, n_threads, batch)
                assert np.array_equal(again, base)

    def test_zero_state_rejected(self):
        p = params(kappa_T=0.02, dim=8)
        with pytest.raises(DomainError):
            het.run_het_ensemble(np.zeros(8, dtype=complex), p, 5, seed=2)

    def test_ostensible_sampler_covariance(self):
        rng = records.stream(51, 0)
        draws = np.array(
            [het.sample_het_ostensible(LN2, 1.0, rng) for _ in range(10**5)]
        )
        assert abs(np.mean(np.abs(draws) ** 2) / 0.5 - 1.0) < 0.02

    def test_ostensible_weights_vacuum_unity(self):
        p = params(kappa_T=LN2, dim=12)
        zs = np.array([0.1, 0.4 - 0.2j, 1.0j])
        weights = het.het_born_weights(fock.projector(12, 0), zs, LN2, p)
        assert_allclose(weights, np.ones(3), rtol=1e-13)

    def test_ostensible_importance_weighting(self):
        # weighted mean of D_T draws reproduces the Born mean Sigma alpha0
        p = params(kappa_T=LN2, dim=16)
        rho = fock.pure_density(fock.coherent_state(16, 1.0))
        rng = records.stream(52, 0)
        g = rng.standard_normal((10**5, 2))
        draws = np.sqrt(0.25) * (g[:, 0] + 1j * g[:, 1])
        weights = het.het_born_weights(rho, draws, LN2, p)
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
        assert c.sigma_r == pytest.approx(0.75, rel=1e-15)
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

    def test_beta_vanishes_at_long_times(self):
        _, cov_b = het.covariance_cooling(8.0, 1.0, 10**4, records.stream(61, 1))
        assert cov_b < 5e-3

    def test_exact_samplewise_ratio(self):
        cov_a, cov_b = het.covariance_cooling(1.3, 1.0, 10**4, records.stream(61, 2))
        assert cov_b == pytest.approx(math.exp(-1.3) * cov_a, rel=1e-12)
