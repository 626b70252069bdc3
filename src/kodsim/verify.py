"""Identity verification suites for both instruments.

The ``*_check(s)`` functions return :class:`~kodsim.report.Check` rows; the
CLI's ``verify-identities`` command runs them all, and ``evolve-kod`` and
``povm-convergence`` reuse the KOD and projector checks on their own
configurations.  Thresholds are the package's acceptance gates, not
tunables, and so are the sizes the checks run at.  Those sizes are the
defaults of ``evolve-kod`` and ``povm-convergence`` too, so at their
defaults the two kinds run the ``kod-*`` and ``projector-scaling`` groups.

The record-reduction checks compare records' standard forms with the
brute-force products of :mod:`kodsim.stepped`, which holds the step grid.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock, heterodyne as het, photodetector as pd, stepped
from .exceptions import ConfigError, DomainError
from .params import InstrumentParams
from .records import STREAM_IDS, stream
from .report import Check

RENORM_TOL = 1e-12
RECORD_PRODUCT_TOL = 1e-8
RECORD_PRODUCT_DRAGGED_TOL = 1e-10
CARTAN_TOL = 1e-9
COMPLETENESS_PHOTO_TOL = 1e-8
COMPLETENESS_HET_TOL = 1e-6
KOD_POISSON_TOL = 1e-8
KOD_DIFFUSION_TOL = 1e-3
# smallest error ratios under step halving (Poisson, 4th order) and h-halving
KOD_POISSON_HALVING = 8.0
KOD_DIFFUSION_HALVING = 3.5
GROUNDSTATE_TOL = 1e-6
LEFT_INVARIANCE_TOL = 1e-8
SCALING_FACTOR = 2.0
# largest n e^{-kappa_o T} a projector-scaling sweep point may have.  The
# e^{-kappa_o T} law is the limit of small n e^{-kappa_o T}: over n < 30 and
# kappa_o T in 0.5..7 at dim 60, the photodetector's defect ratio between two
# points strays from it by up to 1.66 when the first has n e^{-kappa_o T} <=
# 0.5, and by more than SCALING_FACTOR from 1.21 up
PROJECTOR_REGIME = 0.5
LN2 = math.log(2.0)
# truncation of the operator identities and their truncation-safe subblock
DIM = 40
SUB_DIM = 20
# Sizes of the KOD and projector-scaling groups, which are also the
# defaults of ``evolve-kod`` and ``povm-convergence``: the Poisson range and
# step count, the Gaussian mesh, and the projector sweep.
KOD_N_MAX = 40
KOD_STEPS = 1000
KOD_H = 0.05
KOD_EXTENT = 5.0
KOD_SIGMA0_SQ = 1e-3
PROJECTOR_NS = (0, 1, 2)
PROJECTOR_ZETAS = (0.0, 0.5)
PROJECTOR_KAPPA_TS = (2.0, 3.0, 4.0, 5.0)
# Gauss-Hermite points per axis of the heterodyne POVM completeness quadrature
QUAD_ORDER = 32


def _random_disk(rng: np.random.Generator, radius: float) -> complex:
    return radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())


def renormalization_checks(seed: int) -> list[Check]:
    """Both amplitude-renormalization identities over 100 random (r, c).

    c stays inside the unit disk so operator norms keep the roundoff floor
    two orders below the 1e-12 gate; the identities themselves are exact
    under truncation because lowering operators never reach the top row.
    """
    rng = stream(seed, STREAM_IDS["renormalization"])
    a = fock.make_lowering(DIM)
    worst_photo = 0.0
    worst_het = 0.0
    for _ in range(100):
        r = 3.0 * rng.random()
        c = _random_disk(rng, 1.0)
        decay = fock.number_exp(DIM, r)
        lhs = a @ decay
        rhs = decay @ a * np.exp(-r)
        worst_photo = max(worst_photo, float(np.linalg.norm(lhs - rhs, 2)))
        lhs = fock.exp_lowering(DIM, c) @ decay
        rhs = decay @ fock.exp_lowering(DIM, c * np.exp(-r))
        worst_het = max(worst_het, float(np.linalg.norm(lhs - rhs, 2)))
    return [
        Check("renormalization-photodetector", worst_photo, RENORM_TOL),
        Check("renormalization-heterodyne", worst_het, RENORM_TOL),
    ]


def record_reduction_checks(seed: int) -> list[Check]:
    """Time-ordered step products against their standard-order forms on the
    leading 25 levels."""
    rng = stream(seed, STREAM_IDS["record-reduction"])
    sub_dim = 25
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=1.0, dt=1e-3, dim=DIM)
    worst_photo = 0.0
    for n_jumps in (1, 3, 5):
        steps = np.sort(rng.choice(p.n_steps, size=n_jumps, replace=False))
        rec = stepped.PhotoRecord(steps * p.dt, p)
        brute = stepped.time_ordered_product(rec)
        std = stepped.standard_form_kraus(rec)
        scale = float(np.linalg.norm(std[:sub_dim, :sub_dim], 2))
        worst_photo = max(
            worst_photo, fock.subblock_norm_diff(brute, std, sub_dim) / scale
        )
    worst_exact = 0.0
    worst_plain = 0.0
    for n_steps in (3, 10):
        ph = InstrumentParams(kappa_o=1.0, dt=p.dt, T=n_steps * p.dt, dim=DIM)
        incs = (rng.standard_normal(n_steps) + 1j * rng.standard_normal(n_steps))
        incs *= np.sqrt(0.5 * ph.dt)
        rec = stepped.HeterodyneRecord(incs, ph)
        brute = stepped.time_ordered_product_het(rec)
        exact = stepped.standard_form_kraus_het(rec)
        plain = het.kraus_class_het(stepped.record_functional(rec), rec.p.T, rec.p.kappa_o, DIM)
        scale = float(np.linalg.norm(exact[:sub_dim, :sub_dim], 2))
        worst_exact = max(
            worst_exact, fock.subblock_norm_diff(brute, exact, sub_dim) / scale
        )
        worst_plain = max(
            worst_plain, fock.subblock_norm_diff(brute, plain, sub_dim) / scale
        )
    return [
        Check("record-product-photodetector", worst_photo, RECORD_PRODUCT_TOL),
        Check("record-product-heterodyne-dragged", worst_exact, RECORD_PRODUCT_DRAGGED_TOL),
        # the undragged comparison carries the O(kappa_o dt) drag factor
        Check("record-product-heterodyne-raw", worst_plain, p.kappa_dt),
    ]


def kod_target(kod: pd.PoissonKOD | het.GaussianKOD) -> np.ndarray:
    """Closed form on an evolved KOD's support: the Poisson pmf over its
    jump counts, or on its mesh the Gaussian density of covariance
    ``Sigma(T) + sigma0_sq`` (the regularized delta diffuses in closed form)."""
    if isinstance(kod, pd.PoissonKOD):
        return kod.pmf_array(kod.weights.size - 1)
    ax = kod.axis()
    total = kod.sigma + kod.regularization
    return np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / total) / total


def kod_error(kod: pd.PoissonKOD | het.GaussianKOD) -> float:
    """Largest deviation of an evolved KOD from :func:`kod_target`."""
    evolved = kod.weights if isinstance(kod, pd.PoissonKOD) else kod.grid
    return float(np.max(np.abs(evolved - kod_target(kod))))


def kod_poisson_halving_ratio(T: float, kappa_o: float, n_max: int) -> float:
    """Error ratio from 100 to 200 steps, measured where truncation error
    still dominates roundoff (the 1000-step error sits at the 1e-15 floor)."""
    return kod_error(
        pd.evolve_kod_poisson(T, kappa_o, n_max=n_max, steps=100)
    ) / kod_error(pd.evolve_kod_poisson(T, kappa_o, n_max=n_max, steps=200))


def kod_diffusion_halving_ratio(
    T: float, kappa_o: float, h: float, extent: float, sigma0_sq: float
) -> float:
    """Error ratio when h is halved: the solve is exact in time, so the
    ratio reads the 4th-order spatial error alone."""
    coarse = het.evolve_kod_diffusion(T, kappa_o, h=h, extent=extent, sigma0_sq=sigma0_sq)
    fine = het.evolve_kod_diffusion(T, kappa_o, h=0.5 * h, extent=extent, sigma0_sq=sigma0_sq)
    return kod_error(coarse) / kod_error(fine)


def kod_checks(
    kod: pd.PoissonKOD | het.GaussianKOD, T: float, kappa_o: float, convergence: bool
) -> list[Check]:
    """An evolved KOD against its closed form, its mass (at the solver's own
    guard), then optionally the error ratio under step halving (Poisson) or
    h-halving (Gaussian, on the KOD's own mesh).  The Gaussian solve keeps
    its mass exactly in mode 0, so only a non-finite result could move its
    ``kod-mass``, and the solver raises ``NumericError`` on that first."""
    if isinstance(kod, pd.PoissonKOD):
        checks = [
            Check("kod-poisson-evolution", kod_error(kod), KOD_POISSON_TOL),
            Check("kod-mass", abs(float(np.sum(kod.weights)) - 1.0), pd.KOD_MASS_TOL),
        ]
        if convergence:
            ratio = kod_poisson_halving_ratio(T, kappa_o, kod.weights.size - 1)
            checks.append(Check("kod-poisson-step-halving", ratio, KOD_POISSON_HALVING, ">="))
        return checks
    checks = [
        Check("kod-diffusion-evolution", kod_error(kod), KOD_DIFFUSION_TOL),
        Check("kod-mass", abs(kod.grid_mass() - 1.0), het.KOD_MASS_TOL),
    ]
    if convergence:
        # the mesh's half-width, or MIN_EXTENT where rounding left it below (same mesh)
        extent = max(float(kod.axis()[-1]), het.MIN_EXTENT)
        ratio = kod_diffusion_halving_ratio(T, kappa_o, kod.h, extent, kod.regularization)
        checks.append(Check("kod-diffusion-h-halving", ratio, KOD_DIFFUSION_HALVING, ">="))
    return checks


def completeness_checks() -> list[Check]:
    """Both POVMs summed against the identity at kappa_o T = 1."""
    return [
        Check(
            "povm-completeness-photodetector",
            pd.povm_completeness(1.0, 1.0, DIM, SUB_DIM),
            COMPLETENESS_PHOTO_TOL,
        ),
        Check(
            "povm-completeness-heterodyne",
            het.povm_completeness_het(1.0, 1.0, DIM, SUB_DIM, QUAD_ORDER),
            COMPLETENESS_HET_TOL,
        ),
    ]


def cartan_checks(seed: int) -> list[Check]:
    """Polar-decomposition defect over 100 random (zeta, r), |zeta| <= 2,
    r in [0.1, 3]."""
    rng = stream(seed, STREAM_IDS["cartan"])
    worst = 0.0
    for _ in range(100):
        r = 0.1 + 2.9 * rng.random()
        zeta = _random_disk(rng, 2.0)
        worst = max(worst, het.cartan_identity_defect(zeta, r))
    return [Check("cartan-identity", worst, CARTAN_TOL)]


def trace_checks() -> list[Check]:
    """Trace identity at d=50 and the matching groundstate quadrature."""
    defect = het.trace_identity_defect(LN2, 1.0, 50)
    # the exact defect IS the geometric tail; allow a factor 2 of roundoff
    bound = 2.0 * het.trace_tail_bound(LN2, 1.0, 50)
    dev = abs(het.groundstate_completeness(LN2, 1.0, dim=340))
    return [
        Check("trace-identity", defect, bound),
        Check("groundstate-completeness", dev, GROUNDSTATE_TOL),
    ]


def left_invariance_checks(seed: int) -> list[Check]:
    """Left-invariance defect at kappa_o T = 1 over 10 random alpha, |alpha| <= 1.2."""
    rng = stream(seed, STREAM_IDS["left-invariance"])
    worst = 0.0
    for _ in range(10):
        alpha = _random_disk(rng, 1.2)
        worst = max(worst, het.povm_left_invariance_defect(alpha, 1.0, 1.0, DIM, SUB_DIM))
    return [Check("povm-left-invariance", worst, LEFT_INVARIANCE_TOL)]


def _scaling_factor(kappa_T_values, defects: list[float]) -> float:
    """Worst multiplicative deviation of consecutive defect ratios from
    e^{-(kappa_T_b - kappa_T_a)}."""
    worst = 1.0
    for kt_a, kt_b, a, b in zip(kappa_T_values, kappa_T_values[1:], defects, defects[1:]):
        ratio = (b / a) * math.exp(kt_b - kt_a)
        worst = max(worst, ratio, 1.0 / ratio)
    return worst


def projector_defects(
    instrument: str, at, kappa_T_values, kappa_o: float, dim: int, sub_dim: int
) -> list[float]:
    """Distance of one POVM element from its projector at each kappa_o T:
    the photodetector's at jump count ``at``, the heterodyne's at amplitude
    ``at``, each at the horizon ``kappa_T / kappa_o``."""
    defect = (pd.projector_convergence if instrument == "photodetector"
              else het.projector_convergence_het)
    return [defect(at, kappa_T / kappa_o, kappa_o, dim, sub_dim) for kappa_T in kappa_T_values]


def projector_sweep(
    photo_ns, het_zetas, kappa_T_values, kappa_o: float, dim: int, sub_dim: int
) -> tuple[list[Check], list]:
    """Per jump count in ``photo_ns``, then amplitude in ``het_zetas``: a check
    that the projector defects shrink like e^{-kappa_o T} along a sweep of at
    least two strictly increasing ``kappa_T_values``, and the columns
    ``instrument, label, kappa_T, defect`` of one row per swept point."""
    if len(kappa_T_values) < 2 or not all(np.diff(kappa_T_values) > 0.0):
        raise DomainError(f"need two or more increasing kappa_T values, got {kappa_T_values}")
    for n in photo_ns:
        if n * math.exp(-kappa_T_values[0]) > PROJECTOR_REGIME:
            raise ConfigError(
                f"n e^(-kappa_o T) = {n * math.exp(-kappa_T_values[0]):.3g} at n = {n}, "
                f"kappa_o T = {kappa_T_values[0]:g} is above {PROJECTOR_REGIME:g}, outside "
                "the regime of the e^(-kappa_o T) scaling law")
    sweep = [("photodetector", n, f"n={n}") for n in photo_ns] + [
        ("heterodyne", zeta, f"zeta={zeta:g}") for zeta in het_zetas
    ]
    checks, instruments, labels, defects = [], [], [], []
    for instrument, at, label in sweep:
        swept = projector_defects(instrument, at, kappa_T_values, kappa_o, dim, sub_dim)
        instruments += [instrument] * len(swept)
        labels += [label] * len(swept)
        defects += swept
        name = f"projector-scaling-{instrument}-{label.replace('=', '')}"
        checks.append(Check(name, _scaling_factor(kappa_T_values, swept), SCALING_FACTOR))
    kappa_T = np.tile(np.asarray(kappa_T_values, dtype=float), len(sweep))
    return checks, [instruments, labels, kappa_T, np.array(defects, dtype=float)]


def projector_scaling_checks() -> list[Check]:
    """Scaling checks for n = 0..2 and zeta = 0, 0.5 over kappa_o T = 2..5."""
    return projector_sweep(PROJECTOR_NS, PROJECTOR_ZETAS, PROJECTOR_KAPPA_TS, 1.0, DIM, SUB_DIM)[0]


ALL_GROUPS = {
    "renormalization": renormalization_checks,
    "record-reduction": record_reduction_checks,
    "kod-poisson": lambda seed: kod_checks(
        pd.evolve_kod_poisson(LN2, 1.0, n_max=KOD_N_MAX, steps=KOD_STEPS), LN2, 1.0,
        convergence=True,
    ),
    "kod-diffusion": lambda seed: kod_checks(
        het.evolve_kod_diffusion(LN2, 1.0, h=KOD_H, extent=KOD_EXTENT, sigma0_sq=KOD_SIGMA0_SQ),
        LN2, 1.0, convergence=True,
    ),
    "completeness": lambda seed: completeness_checks(),
    "cartan": cartan_checks,
    "trace": lambda seed: trace_checks(),
    "left-invariance": left_invariance_checks,
    "projector-scaling": lambda seed: projector_scaling_checks(),
}


def run_identity_checks(seed: int, groups: list[str] | None = None) -> list[Check]:
    if groups is None:
        groups = list(ALL_GROUPS)
    checks: list[Check] = []
    for name in groups:
        checks.extend(ALL_GROUPS[name](seed))
    return checks
