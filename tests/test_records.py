"""Seeded streams and histogram statistics."""

import numpy as np
import pytest
import scipy.stats

from kodsim import records
from kodsim.exceptions import BinSpecError, DataError, DomainError


def test_stream_repeatable():
    a = records.stream(123, 7).random(100)
    b = records.stream(123, 7).random(100)
    assert np.array_equal(a, b)


def test_stream_distinct_ids_differ():
    a = records.stream(123, 0).random(100)
    b = records.stream(123, 1).random(100)
    assert not np.array_equal(a, b)


def test_stream_independence_correlation():
    n = 10**5
    x = records.stream(5, 0).standard_normal(n)
    y = records.stream(5, 1).standard_normal(n)
    corr = float(np.mean(x * y))
    assert abs(corr) < 3.0 / np.sqrt(n)


def normalized(counts):
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum()


def test_tv_identical_histograms():
    h = np.bincount([0, 1, 2], minlength=4)
    assert records.tv_distance(normalized(h), normalized(h)) == 0.0


def test_tv_disjoint_supports():
    h1 = [5.0, 0.0, 0.0, 0.0]
    h2 = [0.0, 0.0, 0.0, 7.0]
    assert records.tv_distance(normalized(h1), normalized(h2)) == 1.0


def test_tv_two_poisson_samples_close():
    rng1, rng2 = records.stream(21, 0), records.stream(21, 1)
    h1 = np.bincount(np.minimum(rng1.poisson(0.5, 10**5), 12), minlength=13)
    h2 = np.bincount(np.minimum(rng2.poisson(0.5, 10**5), 12), minlength=13)
    assert records.tv_distance(normalized(h1), normalized(h2)) < 0.01


def test_tv_rejects_mismatched_bins():
    with pytest.raises(BinSpecError):
        records.tv_distance(normalized([1.0, 2.0, 3.0]), normalized([1.0, 2.0, 3.0, 0.0]))


def test_tv_counts_missing_tail_mass():
    # a pmf truncated at its last bin: the missing mass counts once in full
    assert records.tv_distance([0.5, 0.3], [0.5, 0.5]) == pytest.approx(0.2)


def test_tv_counts_a_shared_tail_once():
    # both tables lack the same 0.2 beyond their last bin: they agree
    assert records.tv_distance([0.5, 0.3], [0.5, 0.3]) == 0.0
    assert records.tv_distance([0.5, 0.3], [0.4, 0.3]) == pytest.approx(0.1)


def test_chi_square_exact_match_is_one():
    probs = np.array([0.25, 0.25, 0.5])
    assert records.chi_square_gof(400 * probs, probs) == pytest.approx(1.0)


def test_chi_square_detects_wrong_rate():
    # a 20% shift of the Poisson mean is overwhelming at 1e5 samples
    rng = records.stream(9, 0)
    counts = np.minimum(rng.poisson(0.5, 10**5), 10)
    hist = np.bincount(counts, minlength=11)
    good = records.chi_square_gof(hist, scipy.stats.poisson.pmf(np.arange(11), 0.5))
    bad = records.chi_square_gof(hist, scipy.stats.poisson.pmf(np.arange(11), 0.6))
    assert good > 0.001
    assert bad < 1e-6


def test_chi_square_merges_thin_tails():
    probs = scipy.stats.poisson.pmf(np.arange(30), 0.5)
    rng = records.stream(13, 0)
    hist = np.bincount(np.minimum(rng.poisson(0.5, 2000), 30 - 1), minlength=30)
    # 25+ bins have near-zero expectation; the merge must keep chisquare valid
    p = records.chi_square_gof(hist, probs)
    assert 0.0 <= p <= 1.0


def test_chi_square_merge_ignores_ulp_ties():
    # bins 3 and 4 expect 2.8086 each: which merges first must not hinge on
    # a one-ulp nudge of either (argmin gave p 0.167 or 0.208)
    pmf = np.array([0.146696, 0.328984, 0.320228, 0.052012, 0.052012, 0.100068])
    hist = np.array([7.0, 11, 23, 1, 4, 8])
    base = records.chi_square_gof(hist, pmf)
    for direction in (np.inf, -np.inf):
        nudged = pmf.copy()
        nudged[4] = np.nextafter(nudged[4], direction)
        assert records.chi_square_gof(hist, nudged) == pytest.approx(base, rel=1e-12)


def test_chi_square_threshold_ignores_ulp_nudges():
    # bins 0 and 1 expect exactly MIN_EXPECTED: whether they merge must not
    # hinge on a one-ulp nudge of the pmf (a Binom(5, 1/2) pmf at 10 draws
    # sums to 5.0 or to 4.999999999999999 by its last bits)
    pmf = np.array([0.25, 0.25, 0.5])
    hist = np.array([3.0, 9, 8])
    base = records.chi_square_gof(hist, pmf)
    for direction in (np.inf, -np.inf):
        nudged = pmf.copy()
        nudged[0] = np.nextafter(nudged[0], direction)
        assert records.chi_square_gof(hist, nudged) == pytest.approx(base, rel=1e-12)


def test_chi_square_rejects_empty():
    hist = np.zeros(4)
    with pytest.raises(DataError):
        records.chi_square_gof(hist, np.full(4, 0.25))
    # and a pmf over other bins, with a negative entry, or of no mass
    hist = np.full(4, 10.0)
    with pytest.raises(BinSpecError):
        records.chi_square_gof(hist, np.full(3, 1.0 / 3.0))
    with pytest.raises(DomainError, match="negative"):
        records.chi_square_gof(hist, np.array([0.5, 0.5, 0.1, -0.1]))
    with pytest.raises(DomainError, match="sums to zero"):
        records.chi_square_gof(hist, np.zeros(4))
