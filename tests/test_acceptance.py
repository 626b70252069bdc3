"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all even on success).  Statistical criteria use pinned seeds; the
gates are the calibrated ones, not the seeds' actual draws.  Every gate is
read from where the package defines it: the identity tolerances in
:mod:`kodsim.verify`, the statistical gates in ``cli.GATES``.
"""

import math

import numpy as np
import scipy.stats

from kodsim import cli, fock, heterodyne as het, photodetector as pd, records, verify
from kodsim.params import InstrumentParams

LN2 = math.log(2.0)


def gate(kind: str, key: str) -> float:
    """A statistical gate of ``cli.GATES`` at its calibration size."""
    return cli.GATES[kind][key][0]


def criterion(num: int, label: str, passed: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if passed else 'FAIL'} - {label}: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def test_criterion_01_renormalization_identities():
    checks = verify.renormalization_checks(seed=12345)
    worst = max(c.measured for c in checks)
    criterion(
        1,
        "renormalization identities",
        all(c.passed for c in checks),
        f"max operator defect {worst:.3e} < {verify.RENORM_TOL:g} over 100 random (r, c), "
        f"d={verify.DIM}",
    )


def test_criterion_02_poisson_kod_evolution():
    kod = pd.evolve_kod_poisson(LN2, 1.0, verify.KOD_N_MAX, verify.KOD_STEPS)
    err, mass, ratio = verify.kod_checks(kod, LN2, 1.0, convergence=True)
    criterion(
        2,
        "Poisson distribution evolution",
        err.passed and mass.passed and ratio.passed,
        f"max_n error {err.measured:.3e} < {err.threshold:g} at kappa_T=ln2; mass drift "
        f"{mass.measured:.1e} < {mass.threshold:g}; halving ratio {ratio.measured:.1f} "
        f">= {ratio.threshold:g}",
    )


def test_criterion_03_binomial_born_statistics():
    # the ensembles run at the gates' calibration size, 1e5 trajectories
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=LN2, dt=1e-3, dim=16)
    rho5 = fock.projector(16, 5)
    pmf = pd.born_pmf(fock.density(rho5), LN2, p, n_max=8)
    exact = abs(pmf[5] - 1.0 / 32.0) < 1e-12
    binom = scipy.stats.binom.pmf(np.arange(9), 5, 0.5)

    counts = pd.run_photo_ensemble(fock.density(fock.fock_state(16, 5)), p, 10**5, seed=42,
                                   n_threads=4)
    hist = np.bincount(counts, minlength=9)
    tv_a = records.tv_distance(hist / counts.size, binom)
    p_val = records.chi_square_gof(hist, pmf)

    draws = records.stream(48, 0).poisson(0.5, size=10**5)
    est = pd.ostensible_pmf(draws, pd.ostensible_weights(fock.density(rho5), LN2, p, n_max=8))
    tv_c = records.tv_distance(est, binom)

    kind = "photodetect-ensemble"
    gate_a, gate_c, gate_p = (gate(kind, key) for key in ("tv_method_a", "tv_method_c", "p_value"))
    criterion(
        3,
        "binomial Born statistics",
        exact and tv_a <= gate_a and tv_c <= gate_c and p_val > gate_p,
        f"P(5)={pmf[5]:.6f}; method-A TV {tv_a:.4f} <= {gate_a:g}; "
        f"method-C TV {tv_c:.4f} <= {gate_c:g}; chi-square p {p_val:.3f} > {gate_p:g}",
    )


def test_criterion_04_gaussian_kod_evolution():
    kod = het.evolve_kod_diffusion(LN2, 1.0, h=verify.KOD_H, extent=verify.KOD_EXTENT,
                                   sigma0_sq=verify.KOD_SIGMA0_SQ)
    err, mass, ratio = verify.kod_checks(kod, LN2, 1.0, convergence=True)
    criterion(
        4,
        "Gaussian distribution evolution",
        err.passed and mass.passed and ratio.passed,
        f"max-norm error {err.measured:.3e} < {err.threshold:g} at h={verify.KOD_H:g} "
        f"(sigma0 corrected); mass drift {mass.measured:.1e} < {mass.threshold:g}; "
        f"h-halving ratio {ratio.measured:.1f} >= {ratio.threshold:g}",
    )


def test_criterion_05_heterodyne_born_statistics():
    # 1e4 trajectories, the covariance gate's calibration size
    cfg = cli.resolve_config("heterodyne-ensemble", {
        "params": {"dim": 16}, "initial_state": {"kind": "coherent", "alpha": 1.0},
        "trajectories": 10**4, "seed": 7,
    })
    mean, cov, chi2 = cli.RUNNERS["heterodyne-ensemble"](cfg, 4)[0]
    criterion(
        5,
        "heterodyne Born statistics",
        mean.passed and cov.passed and chi2.passed,
        f"mean {mean.measured:.4f} <= {mean.threshold:.4f} (3 sigma) from the Born mean 0.5; "
        f"covariance within {cov.measured:.2%} <= {cov.threshold:.0%} of 0.5; 2-D chi-square p "
        f"{chi2.measured:.3f} >= {chi2.threshold:g}",
    )


def test_criterion_06_povm_completeness():
    photo, hetero = verify.completeness_checks()
    criterion(
        6,
        "POVM completeness",
        photo.passed and hetero.passed,
        f"photodetector sum defect {photo.measured:.3e} < {photo.threshold:g}, heterodyne "
        f"quadrature defect {hetero.measured:.3e} < {hetero.threshold:g} at kappa_T=1, "
        f"d={verify.DIM}, d'={verify.SUB_DIM}",
    )


def test_criterion_07_cartan_identity():
    checks = verify.cartan_checks(seed=12345)
    worst = checks[0].measured
    criterion(
        7,
        "polar decomposition identity",
        checks[0].passed,
        f"max defect {worst:.3e} < {verify.CARTAN_TOL:g} over 100 random (zeta, r), "
        f"|zeta|<=2, r in [0.1, 3]",
    )


def test_criterion_08_trace_identity():
    trace, groundstate = verify.trace_checks()
    criterion(
        8,
        "trace identity and groundstate quadrature",
        trace.passed and groundstate.passed,
        f"|Tr - 2| = {trace.measured:.3e} within the geometric tail at d=50; quadrature "
        f"value within {groundstate.measured:.1e} < {groundstate.threshold:g} of 2",
    )


def test_criterion_09_covariance_cooling():
    cov_a, cov_b = het.covariance_cooling(LN2, 1.0, 10**5, records.stream(61, 0))
    point_ok = abs(cov_a / 2.0 - 1.0) < 0.03 and abs(cov_b / 1.0 - 1.0) < 0.03
    sweep_ok = True
    worst = 0.0
    for i, kappa_T in enumerate((0.5, LN2, 1.0, 1.5, 2.0, 3.0)):
        _, cov_b_t = het.covariance_cooling(
            kappa_T, 1.0, 10**5, records.stream(61, 10 + i)
        )
        rel = abs(cov_b_t * (math.exp(kappa_T) - 1.0) - 1.0)
        worst = max(worst, rel)
        sweep_ok = sweep_ok and rel < 0.03
    criterion(
        9,
        "covariance cooling",
        point_ok and sweep_ok,
        f"<a*a>={cov_a:.3f} (2), <b*b>={cov_b:.3f} (1) within 3% at 1e5 samples; "
        f"occupation-curve sweep worst deviation {worst:.3f} < 0.03",
    )


def test_criterion_10_projector_convergence_scaling():
    checks = verify.projector_scaling_checks()
    worst = max(c.measured for c in checks)
    criterion(
        10,
        "projector convergence scaling",
        all(c.passed for c in checks),
        f"defect ratios across kappa_T in 2..5 track e^-kappa_T within factor "
        f"{worst:.2f} <= {verify.SCALING_FACTOR:g} for n in 0..2 and zeta in (0, 0.5)",
    )


def test_criterion_11_reproducibility(tmp_path):
    import hashlib
    import os

    def run_and_hash(kind, cfg_dict, threads):
        cfg = cli.resolve_config(kind, dict(cfg_dict), seed_override=2024)
        out = tmp_path / f"{kind}-{threads}"
        cli.run(cfg, str(out), n_threads=threads)
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            digest.update(name.encode())
            digest.update((out / name).read_bytes())
        return digest.hexdigest()

    photo_cfg = {
        "trajectories": 2000,
        "params": {"dim": 12},
        "initial_state": {"kind": "fock", "n": 3},
        "n_max": 8,
    }
    het_cfg = {
        "trajectories": 1000,
        "params": {"dim": 12},
        "initial_state": {"kind": "coherent", "alpha": 1.0},
    }
    photo_hashes = {run_and_hash("photodetect-ensemble", photo_cfg, t) for t in (1, 4, 8)}
    het_hashes = {run_and_hash("heterodyne-ensemble", het_cfg, t) for t in (1, 4, 8)}
    criterion(
        11,
        "reproducibility",
        len(photo_hashes) == 1 and len(het_hashes) == 1,
        "identical (config, seed) gives byte-identical outputs at 1, 4, 8 threads",
    )
