"""Identity verification suites for both instruments.

The ``*_check(s)`` functions return :class:`~kodsim.report.Check` rows; the
CLI's ``verify-identities`` command runs them all, and ``evolve-kod`` and
``povm-convergence`` reuse the KOD and projector checks on their own
configurations.  Thresholds are the package's acceptance gates, not
tunables, and so are the sizes the checks run at.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock, heterodyne as het, photodetector as pd
from .params import InstrumentParams
from .records import stream
from .report import Check

RENORM_TOL = 1e-12
RECORD_PRODUCT_TOL = 1e-8
CARTAN_TOL = 1e-9
COMPLETENESS_PHOTO_TOL = 1e-8
COMPLETENESS_HET_TOL = 1e-6
KOD_POISSON_TOL = 1e-8
KOD_DIFFUSION_TOL = 1e-3
GROUNDSTATE_TOL = 1e-6
LEFT_INVARIANCE_TOL = 1e-8
SCALING_FACTOR = 2.0
LN2 = math.log(2.0)
# truncation of the operator identities and their truncation-safe subblock
DIM = 40
SUB_DIM = 20


def _random_disk(rng: np.random.Generator, radius: float) -> complex:
    return radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())


def renormalization_checks(seed: int) -> list[Check]:
    """Both amplitude-renormalization identities over 100 random (r, c).

    c stays inside the unit disk so operator norms keep the roundoff floor
    two orders below the 1e-12 gate; the identities themselves are exact
    under truncation because lowering operators never reach the top row.
    """
    rng = stream(seed, 0)
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
    rng = stream(seed, 1)
    sub_dim = 25
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=1.0, dt=1e-3, dim=DIM)
    worst_photo = 0.0
    for n_jumps in (1, 3, 5):
        steps = np.sort(rng.choice(p.n_steps, size=n_jumps, replace=False))
        rec = pd.PhotoRecord(jump_times=steps * p.dt, T=p.T)
        brute = pd.time_ordered_product(rec, p)
        std = pd.standard_form_kraus(rec, p)
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
        rec = het.HeterodyneRecord(increments=incs, dt=ph.dt, T=ph.T)
        brute = het.time_ordered_product_het(rec, ph)
        exact = het.standard_form_kraus_het(rec, ph)
        plain = het.kraus_class_het(het.record_functional(rec, 1.0), rec.T, ph)
        scale = float(np.linalg.norm(exact[:sub_dim, :sub_dim], 2))
        worst_exact = max(
            worst_exact, fock.subblock_norm_diff(brute, exact, sub_dim) / scale
        )
        worst_plain = max(
            worst_plain, fock.subblock_norm_diff(brute, plain, sub_dim) / scale
        )
    return [
        Check("record-product-photodetector", worst_photo, RECORD_PRODUCT_TOL),
        Check("record-product-heterodyne-dragged", worst_exact, 1e-10),
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


def kod_poisson_halving_ratio(T: float, kappa_o: float, n_max: int = 40) -> float:
    """Error ratio from 100 to 200 steps, measured where truncation error
    still dominates roundoff (the 1000-step error sits at the 1e-15 floor)."""
    return kod_error(
        pd.evolve_kod_poisson(T, kappa_o, n_max=n_max, steps=100)
    ) / kod_error(pd.evolve_kod_poisson(T, kappa_o, n_max=n_max, steps=200))


def kod_diffusion_halving_ratio(
    T: float,
    kappa_o: float,
    h: float = 0.05,
    extent: float = 5.0,
    sigma0_sq: float = 1e-3,
) -> float:
    """Error ratio when h is halved; long step counts push the
    Crank-Nicolson error below the spatial error on both grids."""
    coarse = het.evolve_kod_diffusion(
        T, kappa_o, h=h, extent=extent, steps=800, sigma0_sq=sigma0_sq
    )
    fine = het.evolve_kod_diffusion(
        T, kappa_o, h=0.5 * h, extent=extent, steps=1600, sigma0_sq=sigma0_sq
    )
    return kod_error(coarse) / kod_error(fine)


def kod_checks(
    kod: pd.PoissonKOD | het.GaussianKOD,
    T: float,
    kappa_o: float,
    extent: float = 5.0,
    convergence: bool = True,
    mass: bool = True,
) -> list[Check]:
    """An evolved KOD against its closed form, then optionally its mass and
    the error ratio under step halving (Poisson) or h-halving (Gaussian,
    on a mesh of half-width ``extent``)."""
    if isinstance(kod, pd.PoissonKOD):
        checks = [Check("kod-poisson-evolution", kod_error(kod), KOD_POISSON_TOL)]
        if mass:
            checks.append(Check("kod-mass", abs(float(np.sum(kod.weights)) - 1.0), 1e-10))
        if convergence:
            ratio = kod_poisson_halving_ratio(T, kappa_o, kod.weights.size - 1)
            checks.append(Check("kod-poisson-step-halving", ratio, 8.0, comparison=">="))
        return checks
    checks = [Check("kod-diffusion-evolution", kod_error(kod), KOD_DIFFUSION_TOL)]
    if mass:
        checks.append(Check("kod-mass", abs(kod.grid_mass() - 1.0), 1e-8))
    if convergence:
        ratio = kod_diffusion_halving_ratio(T, kappa_o, kod.h, extent, kod.regularization)
        checks.append(Check("kod-diffusion-h-halving", ratio, 3.5, comparison=">="))
    return checks


def completeness_checks() -> list[Check]:
    """Both POVMs summed against the identity at kappa_o T = 1."""
    p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=1.0, dim=DIM)
    return [
        Check(
            "povm-completeness-photodetector",
            pd.povm_completeness(1.0, p, SUB_DIM),
            COMPLETENESS_PHOTO_TOL,
        ),
        Check(
            "povm-completeness-heterodyne",
            het.povm_completeness_het(1.0, p, SUB_DIM, 32),
            COMPLETENESS_HET_TOL,
        ),
    ]


def cartan_checks(seed: int) -> list[Check]:
    """Polar-decomposition defect over 100 random (zeta, r), |zeta| <= 2,
    r in [0.1, 3]."""
    rng = stream(seed, 2)
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
    rng = stream(seed, 3)
    p = InstrumentParams(kappa_o=1.0, dt=1e-3, T=1.0, dim=DIM)
    worst = 0.0
    for _ in range(10):
        alpha = _random_disk(rng, 1.2)
        worst = max(worst, het.povm_left_invariance_defect(alpha, 1.0, p, SUB_DIM))
    return [Check("povm-left-invariance", worst, LEFT_INVARIANCE_TOL)]


def _scaling_factor(defects: list[float]) -> float:
    """Worst multiplicative deviation of consecutive defect ratios from e^{-1}."""
    worst = 1.0
    for a, b in zip(defects[:-1], defects[1:]):
        ratio = (b / a) * math.e
        worst = max(worst, ratio, 1.0 / ratio)
    return worst


def projector_defects(
    instrument: str, at, kappa_T_values, kappa_o: float, dt: float, dim: int, sub_dim: int
) -> list[float]:
    """Distance of one POVM element from its projector at each kappa_o T:
    the photodetector's at jump count ``at``, the heterodyne's at amplitude
    ``at``."""
    if instrument == "photodetector":
        defect = pd.projector_convergence
    else:
        defect = het.projector_convergence_het
    defects = []
    for kappa_T in kappa_T_values:
        p = InstrumentParams(kappa_o, dt, kappa_T / kappa_o, dim)
        defects.append(defect(at, p.T, p, sub_dim))
    return defects


def projector_sweep(
    photo_ns, het_zetas, kappa_T_values, kappa_o: float, dt: float, dim: int, sub_dim: int
) -> tuple[list[Check], list[tuple]]:
    """Per jump count in ``photo_ns``, then amplitude in ``het_zetas``: a check
    that the projector defects shrink like e^{-kappa_o T} along a sweep in
    unit steps, and the rows ``(instrument, label, kappa_T, defect)``."""
    sweep = [("photodetector", n, f"n={n}") for n in photo_ns] + [
        ("heterodyne", zeta, f"zeta={zeta:g}") for zeta in het_zetas
    ]
    checks, rows = [], []
    for instrument, at, label in sweep:
        defects = projector_defects(instrument, at, kappa_T_values, kappa_o, dt, dim, sub_dim)
        rows.extend((instrument, label, kt, d) for kt, d in zip(kappa_T_values, defects))
        name = f"projector-scaling-{instrument}-{label.replace('=', '')}"
        checks.append(Check(name, _scaling_factor(defects), SCALING_FACTOR))
    return checks, rows


def projector_scaling_checks() -> list[Check]:
    """Scaling checks for n = 0..2 and zeta = 0, 0.5 over kappa_o T = 2..5."""
    return projector_sweep((0, 1, 2), (0.0, 0.5), (2.0, 3.0, 4.0, 5.0), 1.0, 1e-3, DIM, SUB_DIM)[0]


ALL_GROUPS = {
    "renormalization": renormalization_checks,
    "record-reduction": record_reduction_checks,
    "kod-poisson": lambda seed: kod_checks(
        pd.evolve_kod_poisson(LN2, 1.0, n_max=40, steps=1000), LN2, 1.0, mass=False
    ),
    "kod-diffusion": lambda seed: kod_checks(
        het.evolve_kod_diffusion(LN2, 1.0, h=0.05, extent=5.0, steps=200), LN2, 1.0,
        mass=False,
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
