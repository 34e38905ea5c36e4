"""The paper's checks that the library itself never runs.

Each one builds on public railsim functions: the completeness of the
phase POVM, the homodyne comparison to the adaptive preparation, the
integrated dyne current against the analytic quadrature density, and
the KS distance to a uniform phase marginal.
"""

import math

import numpy as np

from railsim.fock import single_photon
from railsim.optics import BeamsplitterSpec, beamsplitter
from railsim.povm import homodyne_density, homodyne_sample
from railsim.stats import ks_statistic, trapezoid_cdf
from railsim.trajectory import FeedbackPolicy, run_dyne_ensemble


def ks_uniform(samples, lo: float, hi: float) -> float:
    """KS distance against the uniform distribution on [lo, hi]."""
    span = hi - lo
    if span <= 0:
        raise ValueError("empty interval")
    return ks_statistic(samples, lambda v: np.clip((v - lo) / span, 0.0, 1.0))


def apm_completeness(n_points: int) -> np.ndarray:
    """Numerical integral of |theta><theta| / 2 pi over the outcome circle.

    Returns the 2x2 matrix on span(|0>, |1>); equals the identity when
    the effects resolve to a proper POVM.
    """
    theta = 2.0 * math.pi * np.arange(n_points) / n_points
    e = np.exp(1j * theta)
    return np.array([
        [np.mean(np.ones_like(theta)), np.mean(e.conjugate())],
        [np.mean(e), np.mean(np.ones_like(theta))],
    ])


def homodyne_prep_comparison(rng):
    """Split a photon and homodyne one arm instead of phase-measuring it.

    Returns (x, posterior): the conditional state is (x|0> + |1>) up to
    normalization — a known phase but a random amplitude.
    """
    state = single_photon(0, 2)
    state = beamsplitter(state, BeamsplitterSpec(0, 1, 0.5))
    out = homodyne_sample(state, 0, 0.0, rng)
    return float(out.value), out.posterior


def integrated_quadrature_check(state, mode, pulse, phi, master_seed,
                                n_trials) -> float:
    """KS distance between integrated-current samples and the analytic
    homodyne density of the same state at LO phase ``phi``."""
    result = run_dyne_ensemble(state, mode, pulse, FeedbackPolicy.homodyne(phi),
                               master_seed, n_trials)
    grid_x, pdf = homodyne_density(state, mode, phi)
    cdf = trapezoid_cdf(pdf, grid_x[1] - grid_x[0])
    cdf /= cdf[-1]
    return ks_statistic(result.x, lambda v: np.interp(v, grid_x, cdf))
