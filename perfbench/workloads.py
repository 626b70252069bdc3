"""The benchmark's workloads: CLI calls and their generated inputs.

Every workload is a list of ``kodsim`` CLI calls made in one fresh
interpreter (a *unit*).  The workload seed is the only source of
variation: it becomes each config's ``seed`` and picks the phase of the
coherent component of the mixed state that ``photo`` and ``het`` load from
a file.  ``scale`` shrinks trajectory counts (and drops the h-halving pair
of ``kod``) for the self-check.  Why each workload exists is in
``RATIONALE.md`` beside this file.
"""

from __future__ import annotations

import math
import os

import numpy as np

LN2 = math.log(2.0)


def _params(dim: int) -> dict:
    return {"kappa_o": 1.0, "dt": 1e-3, "T": LN2, "dim": dim}


def _n(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


def mixed_state(seed: int, dim: int = 16) -> np.ndarray:
    """Density matrix 1/2 |alpha><alpha| + 1/2 |3><3| with |alpha| = 1 and a
    seed-drawn phase (purity about 0.5, so the dense samplers run)."""
    phase = np.random.default_rng([seed, 2022]).uniform(0.0, 2.0 * np.pi)
    alpha = np.exp(1j * phase)
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps /= np.linalg.norm(amps)
    fock3 = np.zeros(dim, dtype=complex)
    fock3[3] = 1.0
    rho = 0.5 * np.outer(amps, amps.conj()) + 0.5 * np.outer(fock3, fock3.conj())
    return 0.5 * (rho + rho.conj().T)


def calls(workload: str, seed: int, inputs: str, scale: float = 1.0) -> list[dict]:
    """``[{"kind", "config", "threads"}]`` for one unit of ``workload``.

    ``inputs`` is a directory, relative to the checkout root, for generated
    input files; relative paths keep ``config_hash`` (which includes a state
    file's path) the same in every checkout.
    """
    if workload == "kod":
        # evolve-kod's Gaussian branch with its defaults: the same 2-D ADI
        # solves as verify-identities' kod-diffusion group (one at h = 0.05,
        # then the h-halving pair).  The solver takes no random draws; the
        # seed only reaches report.json.
        config = {"kod": "gaussian", "seed": seed}
        if scale < 1.0:
            config["convergence"] = False
        return [{"kind": "evolve-kod", "threads": 1, "config": config}]
    if workload not in ("photo", "het"):
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(inputs, f"mixed-seed{seed}.npy")
    np.save(path, mixed_state(seed))
    mixed = {"kind": "file", "path": path}
    coherent = {"kind": "coherent", "alpha": 1.0}
    if workload == "photo":
        return [
            _ensemble("photodetect-ensemble", 16, coherent, _n(50_000, scale, 100), 1, seed),
            _ensemble("photodetect-ensemble", 16, mixed, _n(500, scale, 50), 1, seed),
        ]
    return [
        _ensemble("heterodyne-ensemble", 40, coherent, _n(3_000, scale, 100), 2, seed),
        _ensemble("heterodyne-ensemble", 16, mixed, _n(40, scale, 20), 1, seed),
    ]


def _ensemble(kind: str, dim: int, state: dict, trajectories: int, threads: int,
              seed: int) -> dict:
    return {
        "kind": kind,
        "threads": threads,
        "config": {
            "params": _params(dim),
            "initial_state": state,
            "trajectories": trajectories,
            "seed": seed,
        },
    }


WORKLOADS = ("photo", "het", "kod")
# Workloads whose call and CPU times are scaled to speed.py's reference
# speed (set-up time is scaled on every workload).  The KOD solver sweeps
# grids larger than the caches and slows less than the samplers and the
# kernel do when the host is busy; scaling its times by the kernel made them
# noisier, not steadier.
SPEED_CORRECTED = {"photo", "het"}
