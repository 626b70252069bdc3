"""Seeded streams and ensemble statistics.

Random streams are counter-based (Philox) and keyed by ``(seed,
stream_id)``, one id of :data:`STREAM_IDS` per purpose: the trajectories of
an ensemble share one stream, trajectory ``i`` reading row ``i`` of it.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .exceptions import BinSpecError, DataError, DomainError
from .special import chi2_sf

MIN_EXPECTED = 5.0  # see chi_square_gof

# Every stream id a run reads, pairwise distinct: verify's four seeded
# identity groups, either ensemble's trajectories, method C's draws, and the
# beta-cooling series, whose i-th kappa_T reads ``(STREAM_IDS["beta-cooling"], i)``
STREAM_IDS = {"renormalization": 0, "record-reduction": 1, "cartan": 2, "left-invariance": 3,
              "trajectories": 4, "method-c": 5, "beta-cooling": 7000}


def stream(seed: int, stream_id: int | tuple[int, ...]) -> Generator:
    """Independent random stream for one id of :data:`STREAM_IDS`.

    Same ``(seed, stream_id)`` always yields the same sample sequence;
    distinct stream ids are statistically independent.  An id is one
    integer or a tuple of them; ``7`` and ``(7,)`` are the same id, and
    ``(7000, 0)`` is a different id from ``7000``.
    """
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    key = stream_id if isinstance(stream_id, tuple) else (stream_id,)
    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(map(int, key)))
    return Generator(Philox(ss))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two pmfs over the same bins.

    Mass missing from a table (a tail beyond its last bin) is one more,
    shared, bin: a tail both tables lack counts once, by the difference of
    their masses.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise BinSpecError(f"pmfs over {p.size} and {q.size} bins")
    return float(0.5 * (np.sum(np.abs(p - q)) + abs(np.sum(p) - np.sum(q))))


def chi_square_gof(counts: np.ndarray, probs: np.ndarray) -> float:
    """Chi-square goodness-of-fit p-value of binned counts against a model pmf.

    Bins whose expected count falls below ``MIN_EXPECTED`` are merged,
    smallest expectation first (the usual tail merge), before the test.
    Expectations within 1e-9 relative of the smallest count as tied and the
    lowest-index one merges first, and one within 1e-9 relative above
    ``MIN_EXPECTED`` counts as below it, so roundoff in the model pmf can
    neither reorder the merge nor decide whether a bin stands alone.  The
    p-value is the chi-square survival function at ``sum (o - e)^2 / e`` with
    k - 1 degrees of freedom, over the k merged bins.
    """
    counts = np.asarray(counts, dtype=float)
    total = float(np.sum(counts))
    if total == 0.0:
        raise DataError("empty histogram")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != counts.shape:
        raise BinSpecError(
            f"pmf length {probs.size} does not match bin count {counts.size}"
        )
    if np.min(probs) < -1e-12:
        raise DomainError("model pmf has negative entries")
    probs = np.clip(probs, 0.0, None)
    norm = float(np.sum(probs))
    if norm <= 0.0:
        raise DomainError("model pmf sums to zero")
    expected = total * probs / norm
    obs = counts.tolist()
    exp = expected.tolist()
    while len(exp) > 1 and min(exp) < MIN_EXPECTED * (1.0 + 1e-9):
        low = min(exp) * (1.0 + 1e-9)
        i = next(k for k, e in enumerate(exp) if e <= low)
        spill_e = exp.pop(i)
        spill_o = obs.pop(i)
        j = i - 1 if i > 0 else 0
        exp[j] += spill_e
        obs[j] += spill_o
    if len(exp) < 2:
        raise DataError("fewer than two bins survive the expected-count rule")
    obs, exp = np.array(obs), np.array(exp)
    return chi2_sf(exp.size - 1, float(np.sum((obs - exp) ** 2 / exp)))
