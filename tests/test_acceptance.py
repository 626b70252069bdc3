"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all even on success).  Statistical criteria use pinned seeds; the
gates are the calibrated ones, not the seeds' actual draws.
"""

import math

import numpy as np
import scipy.stats

from kodsim import cli, fock, heterodyne as het, photodetector as pd, records, verify
from kodsim.params import InstrumentParams, screened_integral

LN2 = math.log(2.0)


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
        f"max operator defect {worst:.3e} < 1e-12 over 100 random (r, c), d=40",
    )


def test_criterion_02_poisson_kod_evolution():
    err = verify.kod_error(pd.evolve_kod_poisson(LN2, 1.0, n_max=40, steps=1000))
    errs = [verify.kod_error(pd.evolve_kod_poisson(LN2, 1.0, 40, s)) for s in (100, 200)]
    ratio = errs[0] / errs[1]
    criterion(
        2,
        "Poisson distribution evolution",
        err < 1e-8 and ratio >= 8.0,
        f"max_n error {err:.3e} < 1e-8 at kappa_T=ln2; halving ratio {ratio:.1f} >= 8",
    )


def test_criterion_03_binomial_born_statistics():
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=LN2, dt=1e-3, dim=16)
    rho5 = fock.projector(16, 5)
    pmf = pd.born_pmf(rho5, LN2, p, n_max=8)
    exact = abs(pmf[5] - 1.0 / 32.0) < 1e-12
    binom = scipy.stats.binom.pmf(np.arange(9), 5, 0.5)

    counts = pd.run_photo_ensemble(fock.fock_state(16, 5), p, 10**5, seed=42,
                                   n_threads=4)
    hist = np.bincount(counts, minlength=9)
    tv_a = records.tv_distance(hist / counts.size, binom)
    p_val = records.chi_square_gof(hist, pmf)

    draws = records.stream(48, 0).poisson(0.5, size=10**5)
    est = pd.ostensible_pmf(draws, pd.ostensible_weights(rho5, LN2, p, n_max=8))
    tv_c = records.tv_distance(est, binom)

    criterion(
        3,
        "binomial Born statistics",
        exact and tv_a <= 0.01 and tv_c <= 0.02 and p_val > 1e-3,
        f"P(5)={pmf[5]:.6f}; method-A TV {tv_a:.4f} <= 0.01; "
        f"method-C TV {tv_c:.4f} <= 0.02; chi-square p {p_val:.3f} > 0.001",
    )


def test_criterion_04_gaussian_kod_evolution():
    def max_err(h, steps):
        return verify.kod_error(
            het.evolve_kod_diffusion(LN2, 1.0, h=h, extent=5.0, steps=steps,
                                     sigma0_sq=1e-3)
        )

    err = max_err(0.05, 200)
    ratio = max_err(0.05, 800) / max_err(0.025, 1600)
    criterion(
        4,
        "Gaussian distribution evolution",
        err < 1e-3 and ratio >= 3.5,
        f"max-norm error {err:.3e} < 1e-3 at h=0.05 (sigma0 corrected); "
        f"h-halving ratio {ratio:.1f} >= 3.5",
    )


def test_criterion_05_heterodyne_born_statistics():
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=LN2, dt=1e-3, dim=16)
    rho = fock.pure_density(fock.coherent_state(16, 1.0))
    zetas = het.run_het_ensemble(fock.coherent_state(16, 1.0), p, 10**4, seed=7,
                                 n_threads=4)
    sigma = screened_integral(LN2, 1.0)
    mean = complex(np.mean(zetas))
    cov = float(np.mean(np.abs(zetas - mean) ** 2))
    mean_ok = abs(mean - 0.5) <= 3.0 * math.sqrt(sigma / 10**4)
    cov_ok = abs(cov / sigma - 1.0) <= 0.03

    half = 3.5 * math.sqrt(sigma / 2.0)
    edges_re = 0.5 + np.linspace(-half, half, 9)
    edges_im = np.linspace(-half, half, 9)
    hist2d, _, _ = np.histogram2d(zetas.real, zetas.imag, bins=[edges_re, edges_im])
    probs = het.born_bin_probs(rho, edges_re, edges_im, LN2, p)
    counts_flat = np.append(hist2d.ravel(), 10**4 - hist2d.sum())
    probs_flat = np.append(probs.ravel(), max(0.0, 1.0 - probs.sum()))
    p_val = records.chi_square_gof(counts_flat, probs_flat)

    criterion(
        5,
        "heterodyne Born statistics",
        mean_ok and cov_ok and p_val > 1e-3,
        f"mean {mean:.4f} within 3 sigma of 0.5; covariance {cov:.4f} within 3% "
        f"of 0.5; 2-D chi-square p {p_val:.3f} > 0.001",
    )


def test_criterion_06_povm_completeness():
    p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=1.0, dim=40)
    photo = pd.povm_completeness(1.0, p, sub_dim=20)
    hetero = het.povm_completeness_het(1.0, p, sub_dim=20, quad_order=32)
    criterion(
        6,
        "POVM completeness",
        photo < 1e-6 and hetero < 1e-6,
        f"photodetector sum defect {photo:.3e}, heterodyne quadrature defect "
        f"{hetero:.3e}, both < 1e-6 at kappa_T=1, d=40, d'=20",
    )


def test_criterion_07_cartan_identity():
    checks = verify.cartan_checks(seed=12345)
    worst = checks[0].measured
    criterion(
        7,
        "polar decomposition identity",
        checks[0].passed,
        f"max defect {worst:.3e} < 1e-9 over 100 random (zeta, r), "
        f"|zeta|<=2, r in [0.1, 3]",
    )


def test_criterion_08_trace_identity():
    defect = het.trace_identity_defect(LN2, 1.0, 50)
    bound = 2.0 * het.trace_tail_bound(LN2, 1.0, 50)
    sigma = screened_integral(LN2, 1.0)
    dev = het.groundstate_completeness(LN2, 1.0, dim=340)
    integral = dev + 1.0 / sigma
    criterion(
        8,
        "trace identity and groundstate quadrature",
        defect <= bound and abs(integral - 2.0) < 1e-6,
        f"|Tr - 2| = {defect:.3e} within the geometric tail at d=50; "
        f"quadrature value {integral:.8f} = 2 within 1e-6",
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
        f"{worst:.2f} <= 2 for n in 0..2 and zeta in (0, 0.5)",
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
        "quad_order": 24,
    }
    photo_hashes = {run_and_hash("photodetect-ensemble", photo_cfg, t) for t in (1, 4, 8)}
    het_hashes = {run_and_hash("heterodyne-ensemble", het_cfg, t) for t in (1, 4, 8)}
    criterion(
        11,
        "reproducibility",
        len(photo_hashes) == 1 and len(het_hashes) == 1,
        "identical (config, seed) gives byte-identical outputs at 1, 4, 8 threads",
    )
