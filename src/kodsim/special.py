"""The special functions the instruments' laws need, on numpy and ``math``
alone: log-factorials, ``xlogy``, the chi-square survival function at
integer degrees of freedom, and the Gamma(n+1) inverse CDF.  Importing
scipy for these four was most of a run's start-up.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError, NumericError

GAMMA_TOL = 1e-11  # largest relative backward error |T(r)/t - 1| gamma_quantile keeps
GAMMA_STEPS = 40  # most Halley steps gamma_quantile takes on a row
LOWER_TAIL = 0.125  # gamma_quantile solves rows with u below this on the lower tail


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


def _tail_sums(m, x, k):
    """``S = T(x)/f(x)`` of each row's tail of Gamma(m+1), with ``f = e^{-x}
    x^m/m!`` the density: the lower ``P = f sum_{j>=1} m! x^j/(m+j)!`` on
    rows ``[:k]``, the upper ``Q = f sum_{j<=m} m!/(m-j)! x^{-j}`` (the
    finite Poisson sum) on rows ``[k:]``, which come in falling m.

    Each sum is a running product and a running sum down the columns, in
    order, and a row's bits do not depend on how long its batchmates keep
    the loop going.  Upper column j touches only the prefix of rows with
    m > j: the terms past j = m are zeros.  The lower terms fall (x <= m +
    1), so the loop ends once every row's term is below 2^-60 of its first:
    a term that small cannot move the sum it is added to."""
    s = np.empty(x.size)
    x_lo, den = x[:k], m[:k] + 1.0
    term = x_lo / den
    s[:k], tiny = term, 2.0**-60 * term
    # past 20 + 10 sqrt(m) terms every one is below 2^-60 of the first at x <= m + 1
    for j in range(20 + math.ceil(10.0 * math.sqrt(np.max(m[:k], initial=0.0)))):
        den += 1.0
        term *= x_lo / den
        s[:k] += term
        if j % 8 == 7 and not np.any(term > tiny):
            break
    m_up, x_up = m[k:], x[k:]
    term, s[k:] = np.ones(x_up.size), 1.0
    acc = s[k:]
    for j, rows in enumerate(np.searchsorted(-m_up, -np.arange(np.max(m_up, initial=0.0)))):
        term[:rows] *= (m_up[:rows] - j) / x_up[:rows]
        acc[:rows] += term[:rows]
    return s


def _log_gap(m, x, k, log_norm):
    """``ln(T(x)/t)`` of each row's tail (:func:`_tail_sums`, the lower one on
    rows ``[:k]``) at ``log_norm = ln(m! t)``, and the sum ``S = T/f``."""
    s = _tail_sums(m, x, k)
    return m * np.log(x) - x + np.log(s) - log_norm, s


def gamma_quantile(n, u) -> np.ndarray:
    """The Gamma(n+1) inverse CDF: the r with ``P(n+1, r) = u``, row by row,
    for integers ``n >= 0`` and ``u`` in [0, 1); exactly 0 at u = 0.

    A row with u below :data:`LOWER_TAIL` solves its lower tail ``T = P``
    at t = u, any other its upper ``T = Q`` at t = 1 - u, with ``ln t =
    log1p(-u)`` (:func:`_tail_sums`).  On ``g = +-ln(T(r)/t)``, increasing,
    ``g' = 1/S`` and ``g'' = (n/r - 1 -+ 1/S)/S``, so Halley's step costs no
    more than Newton's.  It starts from the exact quantile at n = 0 and from
    Wilson-Hilferty above, and runs inside a bracket that each evaluation
    shrinks; a step that leaves it bisects it.  The bracket is ``[(u
    (n+1)!)^{1/(n+1)}, n + 1 + sqrt(2 (n+1) s) + s]`` at ``s = -ln(1 - u)``
    (P(r) <= r^{n+1}/(n+1)!, and the Gamma law is sub-gamma), its top at
    most n + 1 (above the median) on the lower tail.  Each row stops on its
    own test, a step below 2^-20 of r, or after :data:`GAMMA_STEPS`, so its
    bits never depend on its batchmates.  A result whose relative backward
    error ``|T(r)/t - 1|`` exceeds :data:`GAMMA_TOL` raises NumericError.
    """
    n, u = np.broadcast_arrays(np.asarray(n, dtype=np.int64), np.asarray(u, dtype=float))
    shape, n, u = u.shape, n.ravel(), u.ravel()
    if not (np.all(n >= 0) and np.all((u >= 0.0) & (u < 1.0))):
        raise DomainError("need integer n >= 0 and u in [0, 1)")
    top = int(np.max(n, initial=0))
    # lower-tail rows first, then the others by falling n, as _tail_sums reads them
    live = np.flatnonzero(u > 0.0)
    key = np.where(u[live] < LOWER_TAIL, -1 - top, -n[live])
    live = live[np.argsort(key.astype(np.min_scalar_type(-1 - top)), kind="stable")]
    m, v = n[live].astype(float), u[live]
    k = int(np.count_nonzero(v < LOWER_TAIL))
    a, log_t = m + 1.0, np.log1p(-v)
    hi = a + np.sqrt(-2.0 * a * log_t) - log_t
    hi[:k] = a[:k]
    exact = -log_t  # the quantile at n = 0
    log_t[:k] = np.log(v[:k])
    log_fact = log_factorial(np.arange(top + 2))
    lo = np.exp((np.log(v) + log_fact[n[live] + 1]) / a)
    # Wilson-Hilferty at the normal quantile of u, by A&S 26.2.23 (within 4.5e-4)
    z = np.sqrt(-2.0 * np.log(np.minimum(v, 1.0 - v)))
    z -= (2.515517 + z * (0.802853 + z * 0.010328)) / (1.0 + z * (1.432788 + z * (0.189269
                                                                                 + z * 0.001308)))
    z = np.maximum(1.0 - 1.0 / (9.0 * a) + np.copysign(z, v - 0.5) / (3.0 * np.sqrt(a)), 0.0)
    r = np.clip(np.where(m == 0.0, exact, a * z * z * z), lo, hi)
    sign = np.ones(v.size)
    sign[k:] = -1.0
    log_norm = log_fact[n[live]] + log_t  # ln(n! t)
    state = (np.arange(v.size), m, r.copy(), lo, hi, sign, log_norm)
    for _ in range(GAMMA_STEPS):
        rows, m_, x, lo_, hi_, sign_, norm_ = state
        if not rows.size:
            break
        g, s_T = _log_gap(m_, x, k, norm_)
        g *= sign_
        below = g < 0.0
        lo_ = np.where(below, x, lo_)
        hi_ = np.where(below, hi_, x)
        step = x - g * s_T / (1.0 - 0.5 * g * (s_T * (m_ / x - 1.0) - sign_))
        step = np.where((lo_ <= step) & (step <= hi_), step, 0.5 * (lo_ + hi_))
        r[rows] = step
        going = np.abs(step - x) > 2.0**-20 * x
        k = int(np.count_nonzero(going[:k]))
        state = tuple(arr[going] for arr in (rows, m_, step, lo_, hi_, sign_, norm_))
    error = np.abs(np.expm1(_log_gap(m, r, int(np.count_nonzero(sign > 0.0)), log_norm)[0]))
    if not np.all(error <= GAMMA_TOL):
        bad = int(np.argmin(error <= GAMMA_TOL))
        raise NumericError(f"Gamma({int(m[bad]) + 1}) quantile backward error {error[bad]:.3g} "
                           f"above {GAMMA_TOL:g} at u = {v[bad]!r}")
    out = np.zeros(u.size)
    out[live] = r
    return out.reshape(shape)
