"""How fast the machine runs right now, from a fixed numpy kernel.

The end-to-end times of the sampler workloads are divided by this speed, so
that they read in seconds at a fixed reference speed.  On a shared host the
same work can take half as long again during a slow stretch (other tenants
on the same cores, caches or memory), and both wall and CPU time follow it.
The kernel does the small matrix products and elementwise functions
kodsim's samplers spend their time on.  It is timed in the child just
before and just after every ``cli.main`` call, so a call's correction comes
from the minute it ran in.  ``RATIONALE.md`` shows how well it tracks, and
why the KOD solver's workload is left uncorrected.
"""

from __future__ import annotations

import time

import numpy as np

# Mean seconds per pass on the machine the benchmark was tuned on (a 2-vCPU
# virtual machine, numpy 2.4, OpenBLAS pinned to one thread) in a typical
# stretch.  Corrected times are scaled to this speed.
REF_PASS_S = 0.006
# How long each speed probe runs.
PROBE_S = 0.5

_A = np.random.default_rng(2022).standard_normal((120, 120)) * 0.09


def _kernel_pass() -> None:
    x = _A
    for _ in range(60):
        x = np.tanh(x @ _A)


def probe(seconds: float = PROBE_S) -> tuple[float, float]:
    """Mean wall seconds per kernel pass over about ``seconds``, and the
    process CPU seconds the probe used."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    passes = 0
    while True:
        _kernel_pass()
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            break
    return elapsed / passes, time.process_time() - cpu0


def factor(pass_s: float) -> float:
    """Scale from seconds measured at probe time ``pass_s`` to reference
    seconds."""
    return REF_PASS_S / pass_s
