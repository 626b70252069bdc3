"""kodsim.special against scipy.special over the domain a run reaches:
log-factorials below 640 (log_lowering at dim 320), xlogy, the chi-square
survival function at df 1..200, and the Gamma(n+1) inverse CDF for
n + 1 <= 320."""

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal

from kodsim import special
from kodsim.exceptions import DomainError, NumericError

TINY = 2.0**-53  # the smallest nonzero uniform numpy's random() draws
TOP = 1.0 - 2.0**-53  # the largest


def test_log_factorial_below_640():
    # scipy's gammaln is itself up to 3.4e-16 off the exact value
    n = np.arange(640)
    assert_allclose(special.log_factorial(n), scipy.special.gammaln(n + 1.0), rtol=5e-16, atol=0.0)
    assert special.log_factorial(0) == 0.0 and special.log_factorial(1) == 0.0
    assert_array_equal(special.log_factorial([[5, 2], [0, 7]]),
                       special.log_factorial(np.arange(8))[[[5, 2], [0, 7]]])
    with pytest.raises(DomainError):
        special.log_factorial([3, -1])


def test_xlogy_including_zero():
    # no divide-by-zero warning at y = 0: the suite turns warnings into errors
    x = np.array([0.0, 1.0, 2.5, 7.0, 640.0])[:, None]
    y = np.array([0.0, 1e-300, 0.25, 1.0, 2.0, 300.0])
    got, want = special.xlogy(x, y), scipy.special.xlogy(x, y)
    assert_array_equal(np.isfinite(got), np.isfinite(want))
    assert_array_equal(got[:, 0], [0.0, -np.inf, -np.inf, -np.inf, -np.inf])
    assert_allclose(got[:, 1:], want[:, 1:], rtol=4.5e-16, atol=0.0)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 12, 33, 100, 199, 200])
def test_chi2_sf_over_the_statistics(df):
    # from 1e-3 to past where scipy's value underflows (x about 1,400-1,900);
    # a sum in log space costs about as many ulps as the largest of its logs
    # (|j ln(x/2)| up to about 500 at df = 200), up to 1e-13 either way
    for x in np.geomspace(1e-3, 2500.0, 300):
        want, got = scipy.special.chdtrc(df, x), special.chi2_sf(df, x)
        if want >= np.finfo(float).tiny:
            assert got == pytest.approx(want, rel=5e-13, abs=0.0), (df, x)
        else:
            # scipy flushes to 0 first; the exact value is below the normal range
            assert got < np.finfo(float).tiny, (df, x)
    assert special.chi2_sf(df, 0.0) == 1.0


def test_chi2_sf_every_df():
    for df in range(1, 201):
        for x in (0.5 * df, df, 2.0 * df + 10.0):
            assert special.chi2_sf(df, x) == pytest.approx(scipy.special.chdtrc(df, x),
                                                            rel=5e-13, abs=0.0), (df, x)
    with pytest.raises(DomainError):
        special.chi2_sf(0, 1.0)


def test_gamma_quantile_against_scipy():
    # n + 1 <= 320, the shapes a dim-320 Husimi draw reaches; the error is
    # roundoff in ln f = n ln r - r - ln n!, about 1e-13 relative at n = 319
    rng = np.random.default_rng(28)
    n = np.repeat(np.arange(320), 24)
    u = rng.random(n.size)
    u[0::24], u[1::24], u[2::24], u[3::24] = 0.0, TINY, 0.5, TOP
    u[4::24], u[5::24] = 0.125, np.nextafter(0.125, 0.0)  # either side of the tail switch
    got = special.gamma_quantile(n, u)
    assert np.all(got[0::24] == 0.0)
    assert np.all(np.isfinite(got))
    want = scipy.special.gammaincinv(n + 1.0, u)
    assert_allclose(got, want, rtol=2e-13, atol=0.0)
    small = n < 10
    assert_allclose(got[small], want[small], rtol=1e-14, atol=0.0)


def test_gamma_quantile_is_row_wise():
    # a radius never depends on its batchmates: each row stops on its own test
    rng = np.random.default_rng(7)
    n = np.concatenate([rng.integers(0, 6, 1500), rng.integers(0, 320, 1500)])
    u = rng.random(n.size)
    u[:4] = [0.0, TINY, 0.5, TOP]
    batch = special.gamma_quantile(n, u)
    for i in [*range(4), *rng.choice(n.size, 40, replace=False)]:
        alone = special.gamma_quantile(n[i : i + 1], u[i : i + 1])
        assert alone[0] == batch[i], (n[i], u[i])
    assert special.gamma_quantile(3, 0.5).shape == ()
    assert special.gamma_quantile(3, 0.5) == special.gamma_quantile([3], [0.5])[0]


def test_gamma_quantile_checks_its_backward_error(monkeypatch):
    # with no Halley step left, the Wilson-Hilferty start is returned only
    # if it happens to pass; it does not
    monkeypatch.setattr(special, "GAMMA_STEPS", 0)
    with pytest.raises(NumericError, match="backward error"):
        special.gamma_quantile(np.arange(1, 6), np.full(5, 0.3))


@pytest.mark.parametrize("n, u", [(-1, 0.5), (2, 1.0), (2, -0.1), (2, np.nan)])
def test_gamma_quantile_domain(n, u):
    with pytest.raises(DomainError):
        special.gamma_quantile([n], [u])
