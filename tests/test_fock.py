"""Truncated Fock toolkit: constructors, exact identities, truncation hygiene."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kodsim import fock, stepped
from kodsim.exceptions import DomainError, InvalidDimensionError, NumericError
from oracles import dense_lost_state, displacement


def test_lowering_small_matrix_exact():
    assert_allclose(fock.make_lowering(2), [[0.0, 1.0], [0.0, 0.0]], atol=0)


def test_lowering_annihilates_groundstate():
    a = fock.make_lowering(6)
    assert_allclose(a @ fock.fock_state(6, 0), np.zeros(6), atol=0)


def test_commutator_brute_force():
    # [a, a^dag] by explicit matrix products; the top entry is the
    # truncation artifact
    a = fock.make_lowering(8)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -7.0])
    assert_allclose(comm, expected, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_commutator_any_dim(dim):
    a = fock.make_lowering(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.diag([1.0] * (dim - 1) + [-(dim - 1.0)])
    assert_allclose(comm, expected, atol=1e-13)


def test_lowering_rejects_small_dim():
    with pytest.raises(InvalidDimensionError):
        fock.make_lowering(1)


def test_number_exp_zero_rate_is_identity():
    assert_allclose(fock.number_exp(7, 0.0), np.eye(7), atol=0)


def test_number_exp_halving():
    assert_allclose(
        fock.number_exp(3, math.log(2.0)), np.diag([1.0, 0.5, 0.25]), rtol=1e-15
    )


def test_number_exp_trace_geometric_sum():
    # partial geometric sum oracle: sum_{n<50} 2^-n = 2 - 2^-49
    trace = np.trace(fock.number_exp(50, math.log(2.0))).real
    assert abs(trace - (2.0 - 2.0**-49)) < 1e-12


def test_number_exp_rejects_negative_rate():
    with pytest.raises(DomainError):
        fock.number_exp(5, -0.1)


def test_exp_lowering_zero_is_identity():
    assert_allclose(fock.exp_lowering(9, 0.0), np.eye(9), atol=0)


def test_exp_lowering_nilpotent_order_two():
    assert_allclose(fock.exp_lowering(2, 0.3), [[1.0, 0.3], [0.0, 1.0]], atol=0)


def test_exp_lowering_coherent_eigenrelation():
    # e^{c a}|alpha> = e^{c alpha}|alpha>, checked by direct matrix-vector
    # product on the first 20 components
    alpha, c, dim = 0.5, 0.4, 40
    state = fock.coherent_state(dim, alpha)
    lhs = fock.exp_lowering(dim, c) @ state
    rhs = np.exp(c * alpha) * state
    assert np.max(np.abs(lhs[:20] - rhs[:20])) < 1e-10


def test_exp_lowering_matches_general_exponential():
    c = 0.7 - 0.2j
    direct = fock.exp_lowering(30, c)
    oracle = stepped.matrix_exp(c * fock.make_lowering(30))
    assert np.linalg.norm(direct - oracle, 2) < 1e-12


def test_exp_lowering_takes_an_array_of_amplitudes():
    # each slice of the batch is the scalar call, bit for bit, and both
    # match the general exponential of c a
    dim = 30
    amps = np.array([[0.0, 0.7 - 0.2j, -1.0], [2.0, 2.0j * np.exp(0.3j), 0.01 + 0.5j]])
    batch = fock.exp_lowering(dim, amps)
    assert batch.shape == (2, 3, dim, dim)
    for idx in np.ndindex(amps.shape):
        single = fock.exp_lowering(dim, amps[idx])
        assert np.array_equal(batch[idx], single)
        oracle = stepped.matrix_exp(amps[idx] * fock.make_lowering(dim))
        assert np.linalg.norm(single - oracle, 2) < 1e-12 * max(1.0, np.linalg.norm(oracle, 2))
    assert np.array_equal(batch[0, 0], np.eye(dim))


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_exp_lowering_one_parameter_group(c1, c2):
    dim = 20
    prod = fock.exp_lowering(dim, c1) @ fock.exp_lowering(dim, c2)
    assert np.max(np.abs(prod - fock.exp_lowering(dim, c1 + c2))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=2.0))
def test_number_exp_semigroup_exact(r1, r2):
    dim = 15
    prod = fock.number_exp(dim, r1) @ fock.number_exp(dim, r2)
    assert_allclose(prod, fock.number_exp(dim, r1 + r2), rtol=1e-13, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=4.0))
def test_renormalization_lowering_exact(r):
    # a e^{-n r} = e^{-n r} a e^{-r}: exact even under truncation because
    # lowering never touches the top row
    dim = 40
    a = fock.make_lowering(dim)
    decay = fock.number_exp(dim, r)
    assert np.max(np.abs(a @ decay - decay @ a * np.exp(-r))) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_renormalization_exponential_exact(r, c):
    dim = 40
    decay = fock.number_exp(dim, r)
    lhs = fock.exp_lowering(dim, c) @ decay
    rhs = decay @ fock.exp_lowering(dim, c * np.exp(-r))
    assert fock.subblock_norm_diff(lhs, rhs, dim) < 1e-12


def test_displacement_zero_is_identity():
    assert_allclose(displacement(12, 0.0), np.eye(12), atol=0)


def test_displacement_generates_coherent_state():
    # coherent expansion oracle e^{-|a|^2/2} a^n / sqrt(n!)
    dim, alpha = 40, 1.0
    vec = displacement(dim, alpha) @ fock.fock_state(dim, 0)
    expected = np.empty(dim, dtype=complex)
    expected[0] = math.exp(-0.5)
    for n in range(1, dim):
        expected[n] = expected[n - 1] * alpha / math.sqrt(n)
    assert np.max(np.abs(vec - expected)) < 1e-10


def test_displacement_unitary_on_subblock():
    dim, alpha = 40, 1.0
    disp = displacement(dim, alpha)
    assert fock.subblock_norm_diff(disp.conj().T @ disp, np.eye(dim), 20) < 1e-8


@pytest.mark.parametrize("alpha", [0.3, 0.8 + 0.4j, 1.2j])
def test_displacement_routes_agree(alpha):
    # disentangled product vs tridiagonal eigendecomposition
    d1 = displacement(40, alpha)
    d2 = fock.displacement_unitary(40, alpha)
    assert fock.subblock_norm_diff(d1, d2, 20) < 1e-11


def test_coherent_state_vacuum():
    assert_allclose(fock.coherent_state(8, 0.0), fock.fock_state(8, 0), atol=0)


def test_coherent_state_norm():
    vec = fock.coherent_state(40, 1.0)
    assert abs(np.vdot(vec, vec).real - 1.0) < 1e-12


def coherent_by_recurrence(dim, alpha):
    """The scalar recurrence in numpy complex scalars, which every coherent
    input of every ensemble used to read."""
    alpha = complex(alpha)
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return np.exp(-0.5 * abs(alpha) ** 2) * amps


def test_coherent_state_keeps_the_scalar_recurrence_bits():
    rng = np.random.default_rng(5)
    alphas = np.concatenate([3.0 * (rng.standard_normal(300) + 1j * rng.standard_normal(300)),
                             0.1 * (rng.standard_normal(100) + 1j * rng.standard_normal(100)),
                             [0.0, 1.0, -1.0, 3j, -2.5 - 0.0j]])
    for dim in (2, 16, 40, 340):
        batch = fock.coherent_state(dim, alphas)
        assert batch.shape == (alphas.size, dim)
        for alpha, row in zip(alphas, batch):
            ref = coherent_by_recurrence(dim, alpha).tobytes()
            assert fock.coherent_state(dim, alpha).tobytes() == ref, (dim, alpha)
            assert row.tobytes() == ref, (dim, alpha)


def test_coherent_overlap_formula():
    # <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha) beta)
    alpha, beta = 0.5, 0.5j
    va = fock.coherent_state(40, alpha)
    vb = fock.coherent_state(40, beta)
    expected = np.exp(-0.125 - 0.125 + np.conj(alpha) * beta)
    assert abs(np.vdot(va, vb) - expected) < 1e-10


def test_matrix_exp_zero():
    assert_allclose(stepped.matrix_exp(np.zeros((5, 5))), np.eye(5), atol=1e-15)


def test_matrix_exp_diagonal():
    diag = np.diag([0.1, -0.4, 2.0])
    assert_allclose(stepped.matrix_exp(diag), np.diag(np.exp([0.1, -0.4, 2.0])), rtol=1e-13)


def test_matrix_exp_cross_checks_number_exp():
    dim, r = 30, 0.7
    gen = -r * np.diag(np.arange(dim)).astype(complex)
    assert np.max(np.abs(stepped.matrix_exp(gen) - fock.number_exp(dim, r))) < 1e-12


def test_matrix_exp_rejects_nonfinite():
    bad = np.array([[np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError):
        stepped.matrix_exp(bad)


def test_subblock_norm_diff_basics():
    eye = np.eye(6)
    assert fock.subblock_norm_diff(eye, eye, 4) == 0.0
    assert abs(fock.subblock_norm_diff(eye, np.zeros((6, 6)), 3) - 1.0) < 1e-15
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 2.0, 0.0])
    assert fock.subblock_norm_diff(a, b, 2) == 0.0
    with pytest.raises(InvalidDimensionError):
        fock.subblock_norm_diff(a, b, 4)


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(DomainError):
        fock.density(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not hermitian
    with pytest.raises(DomainError):
        fock.density(np.diag([0.9, 0.3]))  # trace != 1
    with pytest.raises(DomainError):
        fock.density(np.diag([1.2, -0.2]))  # negative eigenvalue


def test_validators_reject_zero_and_non_finite_states():
    with pytest.raises(DomainError):
        fock.density(np.zeros(4))
    with pytest.raises(DomainError):
        fock.density(np.array([np.nan, 1.0, 0.0]))
    with pytest.raises(DomainError):
        fock.density(np.diag([np.nan, 1.0]))


def test_lowering_power_matches_repeated_product():
    a = fock.make_lowering(12)
    acc = np.eye(12, dtype=complex)
    for n in range(4):
        assert_allclose(fock.lowering_power(12, n), acc, atol=1e-13)
        acc = acc @ a


def test_lost_state_matches_the_dense_loss_channel():
    # sum_m A_m rho A_m^dag with dense A_m = sqrt((1-eta)^m/m!) eta^{N/2} a^m;
    # at eta = 0 and 1 a 0 log 0 in the amplitude table would give NaN
    dim = 16
    g = np.random.default_rng(17).standard_normal((dim, 8)).view(complex)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for eta in (0.0, 0.3, -math.expm1(-math.log(2.0)), 1.0):
        ref = dense_lost_state(rho, eta)
        lost = fock.lost_state(rho, eta)
        assert np.all(np.isfinite(lost)), eta
        assert_allclose(lost, ref, rtol=0.0, atol=1e-14, err_msg=str(eta))
        pops = fock.lost_populations(np.diagonal(rho).real, eta)
        assert_allclose(pops, np.diagonal(ref).real, rtol=0.0, atol=1e-15, err_msg=str(eta))
    assert_allclose(fock.lost_state(rho, 1.0), rho, rtol=0.0, atol=1e-15)


def test_a_lost_state_of_the_wrong_shape_is_a_dimension_error():
    # a vector is not a density matrix, nor a matrix a vector of populations
    with pytest.raises(InvalidDimensionError):
        fock.lost_state(np.full(8, 1.0 / 8), 0.5)
    with pytest.raises(InvalidDimensionError):
        fock.lost_state(np.eye(4, 3) / 3.0, 0.5)
    with pytest.raises(InvalidDimensionError):
        fock.lost_populations(np.eye(4) / 4.0, 0.5)
