"""kodsim.special against scipy.special over the domain a run reaches:
log-factorials below 640 (log_lowering at dim 320), xlogy and the
chi-square survival function at df 1..200."""

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal

from kodsim import special
from kodsim.exceptions import DomainError


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

