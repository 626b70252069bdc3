"""Trajectories reproduce the Born law: the stepped samplers of the
oracles, which take every trajectory through all steps of the grid,
against the exact samplers of the package, which draw the reduced record
at the horizon.

Each comparison is a two-sample chi-square test of homogeneity at the
configuration of an acceptance criterion (3 for photon counting, 5 for
heterodyne), gated at p >= 0.001.  The seeds were fixed before the first
run, and the two samplers of a comparison read disjoint streams.  On two
samples of one law the p-value is about uniform, so each comparison fails
by chance about once in 1,000 runs, and the module about once in 500.  The
stepped samplers carry an O(kappa_o dt) step bias, far below what 1e5 or
1e4 trajectories resolve.
"""

import math

import numpy as np
import scipy.stats

from kodsim import fock, heterodyne as het, photodetector as pd
from kodsim.params import InstrumentParams
from oracles import stepped_counts, stepped_zetas

LN2 = math.log(2.0)
P_GATE = 1e-3
# bins whose two counts sum below this merge into one bin
MIN_PAIR = 10


def homogeneity_p(a: np.ndarray, b: np.ndarray) -> float:
    """p-value of the chi-square test that two samples' bin counts share
    one law, the sparse bins merged into one."""
    small = a + b < MIN_PAIR
    table = np.array([np.append(a[~small], a[small].sum()), np.append(b[~small], b[small].sum())])
    table = table[:, table.sum(axis=0) > 0]
    return float(scipy.stats.chi2_contingency(table, correction=False)[1])


def test_stepped_and_exact_counts_share_the_born_law():
    # criterion 3: Fock 5 at d=16, kappa_T = ln 2, dt = 1e-3, 1e5 trajectories
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=LN2, dt=1e-3, dim=16)
    rho = fock.density(fock.fock_state(16, 5))
    exact = pd.run_photo_ensemble(rho, p, 10**5, seed=42, n_threads=2)
    stepped = stepped_counts(rho, p, 10**5, seed=1042)
    p_val = homogeneity_p(np.bincount(exact, minlength=16), np.bincount(stepped, minlength=16))
    assert p_val >= P_GATE, p_val


def test_stepped_and_exact_amplitudes_share_the_born_law():
    # criterion 5: coherent alpha = 1 at d=16, kappa_T = ln 2, dt = 1e-3,
    # 1e4 trajectories, on the CLI's 8 x 8 grid around the Born mean plus
    # its outer bin
    p = InstrumentParams.fit_steps(kappa_o=1.0, T=LN2, dt=1e-3, dim=16)
    psi = fock.coherent_state(16, 1.0)
    rho = fock.density(psi)
    exact = het.run_het_ensemble(rho, p, 10**4, seed=7, n_threads=2)
    stepped = stepped_zetas(psi, p, 10**4, seed=1007)
    mean_ref, cov_ref = het.born_moments(rho, LN2, 1.0)
    half = 3.5 * math.sqrt(cov_ref / 2.0)
    edges = [c + np.linspace(-half, half, 9) for c in (mean_ref.real, mean_ref.imag)]

    def bins(z):
        hist = np.histogram2d(z.real, z.imag, bins=edges)[0].ravel()
        return np.append(hist, z.size - hist.sum())

    p_val = homogeneity_p(bins(exact), bins(stepped))
    assert p_val >= P_GATE, p_val
