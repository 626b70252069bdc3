"""Photon-counting instrument: Kraus algebra, record reduction, the evolved
jump-count distribution, POVM structure, Born statistics, and samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kodsim import ensemble, fock, photodetector as pd, records, stepped
from kodsim.exceptions import (
    DomainError,
    InvalidDimensionError,
    InvalidRecordError,
    NumericError,
)
from kodsim.params import InstrumentParams, screened_integral
from oracles import count_jumps, jump_table, oracle_counts, sample_trajectory, stepped_counts

LN2 = math.log(2.0)


def params(kappa_T=1.0, dim=40, dt=1e-3):
    return InstrumentParams.fit_steps(kappa_o=1.0, T=kappa_T, dt=dt, dim=dim)


class TestStepOperators:
    def test_jump_operator_small_matrix(self):
        p = InstrumentParams(kappa_o=10.0, dt=1e-3, T=0.1, dim=2)
        assert_allclose(stepped.kraus_jump(p), [[0.0, 0.1], [0.0, 0.0]], atol=1e-16)

    def test_jump_rate_on_one_photon(self):
        p = params(dim=8)
        k1 = stepped.kraus_jump(p)
        rho1 = fock.projector(8, 1)
        rate = np.trace(k1.conj().T @ k1 @ rho1).real
        assert abs(rate - p.kappa_dt) < 1e-18

    def test_no_jump_matrix_element(self):
        p = params(dim=6)
        k0 = stepped.kraus_no_jump(p)
        assert abs(k0[1, 1] - np.exp(-0.5 * p.kappa_dt)) < 1e-16

    def test_step_pair_completeness_defect(self):
        # K0^dag K0 + K1^dag K1 = 1 + (n kappa dt)^2/2 + ...: the defect on a
        # sub_dim block is bounded by half (kappa dt (sub_dim-1))^2
        p = params(dim=40)
        k0, k1 = stepped.kraus_no_jump(p), stepped.kraus_jump(p)
        total = k0.conj().T @ k0 + k1.conj().T @ k1
        defect = fock.subblock_norm_diff(total, np.eye(40), 25)
        assert defect < 0.55 * (p.kappa_dt * 24) ** 2
        # shrinking dt by 10x shrinks the defect by 100x
        p_fine = InstrumentParams(kappa_o=0.1, dt=1e-3, T=1.0, dim=40)
        k0, k1 = stepped.kraus_no_jump(p_fine), stepped.kraus_jump(p_fine)
        fine = fock.subblock_norm_diff(
            k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(40), 25
        )
        assert fine < 0.011 * defect


class TestRecordReduction:
    def test_empty_record(self):
        p = params()
        rec = stepped.PhotoRecord(np.array([]), p)
        assert (rec.n_jumps, rec.weight) == (0, 1.0)

    def test_single_jump_at_origin(self):
        p = params()
        rec = stepped.PhotoRecord(np.array([0.0]), p)
        assert rec.n_jumps == 1
        assert abs(rec.weight - p.kappa_dt) < 1e-18

    def test_rejects_jump_past_horizon(self):
        p = params()
        with pytest.raises(InvalidRecordError):
            stepped.PhotoRecord(np.array([p.T]), p)

    def test_rejects_off_grid_jump(self):
        p = params()
        with pytest.raises(InvalidRecordError):
            stepped.PhotoRecord(np.array([0.5 * p.dt]), p)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=49), max_size=6))
    def test_any_record_reduces_exactly(self, jump_steps):
        # the standard-order form holds for every record on the grid, not
        # just sparse ones
        p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=0.05, dim=20)
        times = np.array(sorted(jump_steps), dtype=float) * p.dt
        rec = stepped.PhotoRecord(times, p)
        product = np.eye(p.dim, dtype=complex)
        k0, kj = stepped.kraus_no_jump(p), stepped.jump_step_operator(p)
        for k in range(p.n_steps):
            product = (kj if k in jump_steps else k0) @ product
        target = stepped.standard_form_kraus(rec)
        assert fock.subblock_norm_diff(product, target, 20) < 1e-13

    def test_three_jump_product_oracle(self):
        # brute-force product of the per-step operators against the
        # standard-order form, built independently here
        p = params(kappa_T=1.0, dim=40)
        rng = records.stream(17, 0)
        steps = np.sort(rng.choice(p.n_steps, size=3, replace=False))
        rec = stepped.PhotoRecord(steps * p.dt, p)
        k0 = stepped.kraus_no_jump(p)
        kj = stepped.jump_step_operator(p)
        product = np.eye(p.dim, dtype=complex)
        jumps = set(steps.tolist())
        for k in range(p.n_steps):
            product = (kj if k in jumps else k0) @ product
        target = math.sqrt(rec.weight) * (
            fock.number_exp(p.dim, 0.5 * p.T) @ fock.lowering_power(p.dim, rec.n_jumps)
        )
        scale = np.linalg.norm(target[:25, :25], 2)
        assert fock.subblock_norm_diff(product, target, 25) / scale < 1e-8


class TestEffectiveMean:
    def test_zero_horizon(self):
        assert screened_integral(0.0, 1.0) == 0.0

    def test_half_life(self):
        assert abs(screened_integral(LN2, 1.0) - 0.5) < 1e-15

    def test_saturates(self):
        assert abs(screened_integral(1e6, 1.0) - 1.0) < 1e-15

    def test_rejects_negative_horizon(self):
        with pytest.raises(DomainError):
            screened_integral(-1.0, 1.0)


class TestPoissonKOD:
    def test_zero_horizon_is_delta(self):
        kod = pd.kod_poisson(0.0, 1.0)
        assert_allclose(kod.pmf_array(5), [1.0, 0, 0, 0, 0, 0], atol=0)

    def test_values_at_half(self):
        kod = pd.kod_poisson(LN2, 1.0)
        assert abs(kod.pmf(0) - math.exp(-0.5)) < 1e-15
        assert abs(kod.pmf(1) - 0.5 * math.exp(-0.5)) < 1e-15

    def test_mean_by_summation(self):
        kod = pd.kod_poisson(1.0, 1.0)
        n = np.arange(60)
        assert abs(np.sum(n * kod.pmf(n)) - kod.lam) < 1e-12

    def test_evolved_zero_horizon(self):
        kod = pd.evolve_kod_poisson(0.0, 1.0, n_max=30, steps=100)
        assert_allclose(kod.weights, np.eye(31)[0], atol=0)

    @pytest.mark.parametrize("kappa_T", [LN2, 1.5, 3.0])
    def test_evolved_matches_analytic(self, kappa_T):
        kod = pd.evolve_kod_poisson(kappa_T, 1.0, n_max=40, steps=1000)
        err = np.max(np.abs(kod.weights - kod.pmf_array(40)))
        assert err < 1e-8

    def test_evolved_conserves_mass(self):
        kod = pd.evolve_kod_poisson(3.0, 1.0, n_max=40, steps=500)
        assert abs(float(np.sum(kod.weights)) - 1.0) < 1e-12
        assert float(np.min(kod.weights)) > -1e-12

    def test_fourth_order_step_halving(self):
        ref = pd.kod_poisson(LN2, 1.0).pmf_array(40)
        errs = [
            np.max(np.abs(pd.evolve_kod_poisson(LN2, 1.0, 40, steps).weights - ref))
            for steps in (100, 200)
        ]
        assert errs[0] / errs[1] >= 8.0

    def test_generator_is_conservative(self):
        w = records.stream(1, 0).random(41)
        assert abs(float(np.sum(pd._kod_generator(0.3, w, 1.0)))) < 1e-14

    def test_preconditions(self):
        with pytest.raises(DomainError):
            pd.evolve_kod_poisson(1.0, 1.0, n_max=40, steps=50)
        with pytest.raises(DomainError):
            pd.evolve_kod_poisson(1.0, 1.0, n_max=20, steps=200)

    @pytest.mark.parametrize(
        "T, kappa_o", [(LN2, math.nan), (LN2, math.inf), (math.inf, 1.0), (LN2, -1.0)]
    )
    def test_non_finite_or_negative_inputs_raise(self, T, kappa_o):
        # each of these returned all-NaN weights: a NaN mass drift passed the guard
        with pytest.raises(DomainError):
            pd.evolve_kod_poisson(T, kappa_o, n_max=40, steps=1000)


class TestPOVM:
    def test_class_kraus_trivial(self):
        assert_allclose(pd.kraus_class(0, 0.0, 1.0, 10), np.eye(10), atol=0)

    def test_class_kraus_lowers(self):
        k = pd.kraus_class(3, 1.0, 1.0, 12)
        vec = k @ fock.fock_state(12, 7)
        assert np.count_nonzero(np.abs(vec) > 1e-15) == 1
        assert abs(vec[4]) > 0
        assert np.max(np.abs(k @ fock.fock_state(12, 2))) == 0.0

    def test_rejects_class_beyond_truncation(self):
        with pytest.raises(InvalidDimensionError):
            pd.kraus_class(10, 1.0, 1.0, 10)

    def test_weighted_class_identity(self):
        # D_T(n) K^dag K = (lam^n/n!) a^dag^n e^{-n kappa T} a^n, built directly
        n, lam = 3, screened_integral(0.8, 1.0)
        lhs = pd.povm_element(n, 0.8, 1.0, 30)
        an = fock.lowering_power(30, n)
        rhs = (lam**n / math.factorial(n)) * (
            an.conj().T @ fock.number_exp(30, 0.8) @ an
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_povm_element_binomial_diagonal(self):
        element = pd.povm_element(2, LN2, 1.0, 30)
        for m in range(2, 10):
            expected = scipy.stats.binom.pmf(2, m, 0.5)
            assert abs(element[m, m].real - expected) < 1e-13

    def test_vacuum_element_long_time(self):
        element = pd.povm_element(0, 12.0, 1.0, 20)
        defect = fock.subblock_norm_diff(element, fock.projector(20, 0), 15)
        assert defect < 3e-5  # O(e^{-kappa T})

    def test_completeness(self):
        assert pd.povm_completeness(1.0, 1.0, 40, sub_dim=20) < 1e-8

    def test_projector_convergence_limit(self):
        assert pd.projector_convergence(1, 30.0, 1.0, 40, 20) < 1e-10

    def test_projector_convergence_prefactor(self):
        defect = pd.projector_convergence(0, 5.0, 1.0, 40, 20)
        assert defect / math.exp(-5.0) < 10.0

    def test_projector_scaling(self):
        defects = [pd.projector_convergence(1, kt, 1.0, 40, 20) for kt in (2.0, 3.0, 4.0)]
        for a, b in zip(defects[:-1], defects[1:]):
            assert 0.5 * math.exp(-1.0) <= b / a <= 2.0 * math.exp(-1.0)


class TestBornStatistics:
    def test_vacuum_never_fires(self):
        pmf = pd.born_pmf(fock.density(fock.projector(10, 0)), 1.0, 1.0)
        assert pmf[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(pmf[1:]) == 0.0

    def test_five_photon_binomial(self):
        pmf = pd.born_pmf(fock.density(fock.projector(40, 5)), LN2, 1.0)
        expected = scipy.stats.binom.pmf(np.arange(40), 5, 0.5)
        assert np.max(np.abs(pmf - expected)) < 1e-10
        assert pmf[5] == pytest.approx(1.0 / 32.0, abs=1e-12)

    def test_coherent_input_poisson_counts(self):
        rho = fock.density(fock.coherent_state(40, 1.0))
        pmf = pd.born_pmf(rho, LN2, 1.0)
        expected = scipy.stats.poisson.pmf(np.arange(40), 0.5)
        assert np.max(np.abs(pmf - expected)) < 1e-8

    def test_count_range_beyond_truncation_rejected(self):
        rho = fock.projector(8, 2)
        for n_max in (8, 12):
            with pytest.raises(InvalidDimensionError):
                pd.born_pmf(fock.density(rho), LN2, 1.0, n_max=n_max)
            with pytest.raises(InvalidDimensionError):
                pd.ostensible_weights(fock.density(rho), LN2, 1.0, n_max=n_max)

    def test_factorial_overflow_raises_instead_of_nan(self):
        # the weights Tr(K^dag K rho) of Fock 190 grow like
        # 190!/(190-n)! e^{-(190-n) kappa_o T} and overflow from n = 154;
        # they used to come back NaN, which the negativity check let through
        rho = fock.projector(200, 190)
        with pytest.raises(NumericError):
            pd.ostensible_weights(fock.density(rho), 0.05, 1.0, n_max=199)
        assert np.all(np.isfinite(pd.born_pmf(fock.density(rho), 0.05, 1.0, n_max=100)))

    def test_high_truncation_stays_exact(self):
        # summed in log space, the pmf never forms a factorial: the
        # vacuum gives exactly (1, 0, ...) and Fock 190 its binomial law
        vacuum = pd.born_pmf(fock.density(fock.projector(200, 0)), 0.05, 1.0)
        assert vacuum[0] == 1.0 and np.all(vacuum[1:] == 0.0)
        pmf = pd.born_pmf(fock.density(fock.projector(200, 190)), 0.05, 1.0)
        expected = scipy.stats.binom.pmf(np.arange(200), 190, screened_integral(0.05, 1.0))
        assert np.max(np.abs(pmf - expected)) < 1e-12

    @pytest.mark.parametrize("kappa_T", [0.05, LN2, 2.0])
    def test_pmf_is_a_binomial_mixture(self, kappa_T):
        # P(n) = sum_m p_m Binom(n; m, lambda) for a random mixed state,
        # against scipy.stats
        dim = 40
        g = records.stream(9, 0).standard_normal((dim, 2 * dim)).view(complex)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        pops = np.diagonal(rho).real
        lam = screened_integral(kappa_T, 1.0)
        n = np.arange(dim)
        expected = scipy.stats.binom.pmf(n[:, None], n[None, :], lam) @ pops
        assert np.max(np.abs(pd.born_pmf(rho, kappa_T, 1.0) - expected)) < 1e-14

    def test_kod_pmf_is_poisson(self):
        # against the exact pmf, not scipy's: lam = 1 - e^{-ln 2} is exactly
        # 0.5, and both scipy.stats.poisson.pmf and exp(log_pmf) are 2.5-3.3e-14
        # off it by n = 60
        kod = pd.kod_poisson(LN2, 1.0)
        exact = [math.exp(-0.5) * float(Fraction(0.5) ** n / math.factorial(n)) for n in range(61)]
        assert_allclose(kod.pmf_array(60), exact, rtol=1e-14, atol=0.0)
        assert kod.pmf(0) == math.exp(-0.5)

    def test_a_vector_is_not_read_as_populations(self):
        # the references and the sampler read rho, and np.diagonal refuses a
        # 1-D array: populations passed as a vector raise
        p = params(kappa_T=LN2, dim=8)
        pops = np.full(8, 1.0 / 8)
        for call in (lambda: pd.born_pmf(pops, LN2, 1.0),
                     lambda: pd.ostensible_weights(pops, LN2, 1.0, n_max=4),
                     lambda: pd.run_photo_ensemble(pops, p, 5, seed=1)):
            with pytest.raises(ValueError):
                call()

    def test_ostensible_weights_at_zero_horizon_name_it(self):
        # at T = 0 both the lost populations and D_T vanish past n = 0: the
        # ratio is 0/0, not an overflow
        rho = fock.density(fock.fock_state(8, 2))
        with pytest.raises(DomainError, match="kappa_o T > 0"):
            pd.ostensible_weights(rho, 0.0, 1.0, n_max=1)
        # and so at kappa_o = 0, which the message used to call T
        with pytest.raises(DomainError, match="kappa_o T > 0"):
            pd.ostensible_weights(rho, 1.0, 0.0, n_max=1)
        # n = 0 alone is Tr(rho)
        assert np.array_equal(pd.ostensible_weights(rho, 0.0, 1.0, n_max=0), [1.0])

    def test_ostensible_weight_factorization(self):
        # P(n) = D_T(n) * weight(n) bin by bin
        rho = fock.density(fock.coherent_state(20, 0.7))
        pmf = pd.born_pmf(rho, LN2, 1.0, n_max=12)
        kod = pd.kod_poisson(LN2, 1.0)
        weights = pd.ostensible_weights(rho, LN2, 1.0, n_max=12)
        assert_allclose(pmf, kod.pmf_array(12) * weights, rtol=1e-12, atol=1e-15)

    def test_ostensible_pmf_is_count_times_weight(self):
        # criterion 3's method-C draws against the exact count x weight per
        # bin; a sum of one weight per draw drifts by about 2e-13
        weights = pd.ostensible_weights(fock.density(fock.projector(16, 5)), LN2, 1.0, n_max=8)
        draws = records.stream(48, 0).poisson(0.5, size=10**5)
        est = pd.ostensible_pmf(draws, weights)
        counts = np.bincount(draws, minlength=weights.size)[: weights.size]
        exact = [int(c) * Fraction(w) for c, w in zip(counts, weights)]
        total = sum(exact)
        for e, x in zip(est, exact):
            assert abs(Fraction(e) - x / total) <= Fraction(1e-15) * x / total


class TestSamplers:
    def test_vacuum_gives_empty_record(self):
        p = params(kappa_T=0.05, dim=6)
        rec = sample_trajectory(fock.projector(6, 0), p, records.stream(0, 0))
        assert rec.n_jumps == 0

    def test_trajectory_deterministic(self):
        p = params(kappa_T=0.3, dim=10)
        rho = fock.projector(10, 4)
        r1 = sample_trajectory(rho, p, records.stream(8, 3))
        r2 = sample_trajectory(rho, p, records.stream(8, 3))
        assert np.array_equal(r1.jump_times, r2.jump_times)

    def test_jump_count_bounded_by_photon_number(self):
        p = params(kappa_T=LN2, dim=16)
        counts = pd.run_photo_ensemble(fock.density(fock.fock_state(16, 5)), p, 3000, seed=5)
        assert counts.max() <= 5

    def test_ensemble_matches_binomial(self):
        p = params(kappa_T=LN2, dim=16)
        counts = pd.run_photo_ensemble(fock.density(fock.fock_state(16, 5)), p, 10**4, seed=5)
        emp = np.bincount(counts, minlength=6) / counts.size
        tv = 0.5 * np.sum(np.abs(emp - scipy.stats.binom.pmf(np.arange(6), 5, 0.5)))
        assert tv < 0.03

    def test_ensemble_thread_invariance(self):
        p = params(kappa_T=0.2, dim=12)
        base = pd.run_photo_ensemble(fock.density(fock.fock_state(12, 3)), p, 500, seed=4)
        for threads in (2, 5):
            other = pd.run_photo_ensemble(
                fock.density(fock.fock_state(12, 3)), p, 500, seed=4, n_threads=threads
            )
            assert np.array_equal(base, other)

    def test_mixed_state_path(self):
        p = params(kappa_T=0.1, dim=8)
        rho = 0.5 * fock.projector(8, 0) + 0.5 * fock.projector(8, 2)
        counts = pd.run_photo_ensemble(fock.density(rho), p, 50, seed=6)
        assert counts.shape == (50,)
        assert counts.max() <= 2

    def test_zero_trajectories(self):
        p = params(dim=8)
        counts = pd.run_photo_ensemble(fock.density(fock.fock_state(8, 1)), p, 0, seed=1)
        assert counts.size == 0

    def test_zero_state_rejected(self):
        p = params(kappa_T=0.1, dim=8)
        with pytest.raises(DomainError):
            pd.run_photo_ensemble(fock.density(np.zeros(8, dtype=complex)), p, 5, seed=1)

    def test_method_a_chi_square_against_born(self):
        p = params(kappa_T=LN2, dim=16)
        counts = pd.run_photo_ensemble(fock.density(fock.fock_state(16, 5)), p, 10**4, seed=12)
        pmf = pd.born_pmf(fock.density(fock.projector(16, 5)), LN2, 1.0, n_max=8)
        assert records.chi_square_gof(np.bincount(counts, minlength=9), pmf) > 0.001


def superposition(dim):
    amps = np.zeros(dim, dtype=complex)
    amps[[0, 2, 5]] = [0.6, 0.48j, 0.64]
    return amps


def near_pure(dim):
    # purity 1 - 1e-11: inside fock.density's checks, but not pure to 1e-12
    psi = fock.coherent_state(dim, 0.8 + 0.3j)
    eps = 5e-12
    return (1 - eps) * fock.density(psi) + eps * fock.projector(dim, 3)


def benchmark_style_mixture(dim):
    # 1/2 |alpha><alpha| + 1/2 |3><3| with |alpha| = 1
    return 0.5 * fock.density(fock.coherent_state(dim, np.exp(0.7j))) + 0.5 * fock.projector(dim, 3)


ORACLE_STATES = {
    "fock": lambda d: fock.fock_state(d, 4),
    "coherent": lambda d: fock.coherent_state(d, 1.0),
    "vector": superposition,
    "pure-density": lambda d: fock.density(superposition(d)),
    "near-pure-density": near_pure,
    "mixture": benchmark_style_mixture,
}


class TestCountSampler:
    """The exact count sampler by hand, and the stepped count sampler of
    the oracles against the dense sampler."""

    @pytest.mark.parametrize("name", sorted(ORACLE_STATES))
    def test_counts_match_dense_sampler(self, name):
        # 70 steps of kappa_o dt = ln 2 / 70, about 0.0099
        p = InstrumentParams(kappa_o=1.0, dt=LN2 / 70, T=LN2, dim=12)
        state = ORACLE_STATES[name](12)
        rho = fock.density(state)
        if name == "near-pure-density":
            assert abs(np.real(np.trace(rho @ rho)) - 1.0) > 1e-12
        counts = stepped_counts(fock.density(state), p, 300, seed=17)
        assert counts.dtype == np.int64
        assert counts.sum() > 0
        assert np.array_equal(counts, oracle_counts(rho, p, 300, seed=17))

    @pytest.mark.parametrize("name", sorted(ORACLE_STATES))
    def test_each_count_thins_its_own_draws(self, name):
        # trajectory i reads the one uniform of row i of the run's uniforms:
        # its count is the least n at which the thinned populations
        # sum_m p_m Binom(k; m, lambda), summed over k <= n by scipy, exceed
        # u times their total
        p = params(kappa_T=LN2, dim=12)
        state = ORACLE_STATES[name](12)
        pops = np.real(np.diag(fock.density(state)))
        lam = screened_integral(LN2, 1.0)
        n = np.arange(12)
        cdf = np.cumsum(scipy.stats.binom.pmf(n[:, None], n[None, :], lam) @ pops)
        counts = pd.run_photo_ensemble(fock.density(state), p, 200, seed=17)
        assert counts.dtype == np.int64
        rows = records.stream(17, records.STREAM_IDS["trajectories"]).random((200, 1))
        for i, (count, u) in enumerate(zip(counts, rows[:, 0])):
            assert count == int(np.argmax(cdf > u * cdf[-1])), i

    def test_batch_and_thread_invariance(self, monkeypatch):
        p = params(kappa_T=LN2, dim=16)
        rho = fock.density(benchmark_style_mixture(16))
        base = pd.run_photo_ensemble(rho, p, 150, seed=3)
        for batch in (1, 7, 64, 4096):
            monkeypatch.setattr(ensemble, "BATCH", batch)
            for threads in (1, 2, 3):
                other = pd.run_photo_ensemble(rho, p, 150, seed=3, n_threads=threads)
                assert np.array_equal(base, other), (batch, threads)

    @pytest.mark.parametrize("n_threads", [0, -2])
    def test_fewer_than_one_thread_raises(self, n_threads):
        p = params(kappa_T=0.05, dim=6)
        rho = fock.density(fock.fock_state(6, 2))
        with pytest.raises(DomainError):
            pd.run_photo_ensemble(rho, p, 5, seed=1, n_threads=n_threads)

    def test_ordinary_states_need_no_collapse_check(self):
        p = params(kappa_T=LN2, dim=16)
        for state in (fock.fock_state(16, 5), fock.coherent_state(16, 1.0)):
            prob = jump_table(fock.density(state), p)
            assert prob.shape == (p.n_steps, 16) and np.all(prob >= 0.0)

    def test_jump_onto_a_tiny_population_counts_exactly(self):
        # the only excited population is 1e-30, so the first jump has
        # probability about 1e-30 * kappa_o dt, which only a uniform of
        # exactly 0.0 selects.  After it the state is |0>, row 1 of the count
        # rows, built normalized: the count is exact and no norm collapses
        p = params(kappa_T=0.05, dim=6)
        pop0 = np.array([1.0, 1e-30, 0.0, 0.0, 0.0, 0.0])
        prob = jump_table(fock.density(np.diag(pop0)), p)
        assert np.array_equal(count_jumps(prob, np.zeros((3, p.n_steps))),
                              np.ones(3, dtype=np.int64))
        uniforms = np.full((3, p.n_steps), 2.0**-53)
        assert np.array_equal(count_jumps(prob, uniforms), np.zeros(3, dtype=np.int64))
        # the exact sampler draws the count from the cumulative lost
        # populations, where the one at n = 1, about 5e-32, lies below a
        # uniform's resolution: every uniform counts 0
        lost = pd.born_pmf(np.diag(pop0).astype(complex), 0.05, 1.0)
        assert 0.0 < lost[1] < 1e-31
        uniforms = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        assert np.array_equal(ensemble.draw_levels(lost, uniforms), np.zeros(3, dtype=np.int64))

    def test_vector_and_its_density_share_the_floor(self):
        # a jump from |0> + 1e-10|1> has probability about 1e-20 kappa_o dt;
        # the vector and its density give one jump table, the same
        # populations and the same counts
        p = params(kappa_T=0.05, dim=6)
        psi = fock.fock_state(6, 0) + 1e-10 * fock.fock_state(6, 1)
        psi /= np.linalg.norm(psi)
        rho_vec, rho_rho = fock.density(psi), fock.density(fock.density(psi))
        assert np.array_equal(jump_table(rho_vec, p), jump_table(rho_rho, p))
        assert np.array_equal(np.diagonal(rho_vec), np.diagonal(rho_rho))
        assert np.array_equal(pd.run_photo_ensemble(rho_vec, p, 50, seed=1),
                              pd.run_photo_ensemble(rho_rho, p, 50, seed=1))

    def test_high_truncation_matches_dense_sampler(self):
        # (m + n)!/m! overflows a double for dim >= 171
        dim = 200
        p = params(kappa_T=0.05, dim=dim)
        psi = np.zeros(dim, dtype=complex)
        psi[[150, 190]] = [0.6, 0.8]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            prob = jump_table(fock.density(psi), p)
            counts = stepped_counts(fock.density(psi), p, 4, seed=2)
            exact = pd.run_photo_ensemble(fock.density(psi), p, 400, seed=2)
        assert np.all(np.isfinite(prob))
        assert counts.sum() > 0
        assert np.array_equal(counts, oracle_counts(fock.density(psi), p, 4, seed=2))
        assert 0 < exact.min() and exact.max() <= 190
