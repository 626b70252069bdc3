"""The special functions the instruments' laws need, on numpy and ``math``
alone: log-factorials, ``xlogy`` and the chi-square survival function at
integer degrees of freedom.  Importing scipy for these was most of a run's
start-up.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError


def log_factorial(n) -> np.ndarray:
    """``ln(n!)`` for an array of non-negative integers, each ``math.log``
    of the exact integer ``n!``: within an ulp, with no Stirling series."""
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise DomainError(f"need n >= 0, got {np.min(n)}")
    table = np.empty(int(np.max(n, initial=0)) + 1)
    fact = 1
    for k in range(table.size):
        fact *= max(k, 1)
        table[k] = math.log(fact)
    return table[n]


def xlogy(x, y) -> np.ndarray:
    """``x ln(y)``, 0 wherever x = 0 (whatever y), ``-inf`` at y = 0 < x,
    with no warning at y = 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x == 0.0, 0.0, x * np.log(np.where(x == 0.0, 1.0, y)))


def chi2_sf(df: int, x: float) -> float:
    """Chi-square survival function at integer ``df >= 1`` (A&S 26.4.4-5):
    ``erfc(sqrt(x/2))`` for odd df, plus ``sum_j e^{-x/2} (x/2)^j /
    Gamma(j+1)`` over j = 0, 1, .. < df/2 (even df) or j = 1/2, 3/2, ..
    (odd df).  The sum is taken in log space, so it underflows only where
    its value does."""
    if df < 1:
        raise DomainError(f"need df >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    half = 0.5 * x
    k = np.arange(df // 2)
    if df % 2:
        # Gamma(k + 3/2) = (2k+1)! sqrt(pi) / (2^{2k+1} k!)
        j = k + 0.5
        log_gamma = (log_factorial(2 * k + 1) - log_factorial(k)
                     - (2 * k + 1) * math.log(2.0) + 0.5 * math.log(math.pi))
        head = math.erfc(math.sqrt(half))
    else:
        j, log_gamma, head = k, log_factorial(k), 0.0
    if j.size == 0:
        return head
    logs = j * math.log(half) - half - log_gamma
    top = float(np.max(logs))
    return head + math.exp(top + math.log(float(np.sum(np.exp(logs - top)))))
