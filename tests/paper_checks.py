"""The paper's checks that the library itself never runs.

Each one builds on public railsim functions: the completeness of the
phase POVM, the homodyne comparison to the adaptive preparation, the
integrated dyne current against the analytic quadrature density, the
KS distance to a uniform phase marginal, and the phase / beamsplitter /
phase realization of a two-mode unitary.
"""

import math

import numpy as np

from railsim.fock import single_photon
from railsim.optics import BeamsplitterSpec, beamsplitter, check_unitary
from railsim.povm import homodyne_density, homodyne_sample
from railsim.stats import ks_statistic
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
    return ks_statistic(result["x"], homodyne_density(state, mode, phi).cdf)


def decompose_pair_unitary(m: np.ndarray):
    """Split a 2x2 unitary into phase / beamsplitter / phase layers.

    Returns (g0, g1, eta, b0, b1) such that
    ``diag(e^{i b0}, e^{i b1}) @ B(eta) @ diag(e^{i g0}, e^{i g1})``
    reproduces ``m`` exactly (no leftover global phase), with B(eta) the
    package's beamsplitter matrix: the hardware that realizes a
    dual-rail gate (Reck et al., PRL 73, 58 (1994)).
    """
    m = check_unitary(m)
    eta = min(1.0, max(0.0, abs(m[0, 0]) ** 2))
    if eta > 1.0 - 1e-12:
        # Diagonal: B(1) = diag(1, -1).
        return 0.0, 0.0, 1.0, float(np.angle(m[0, 0])), float(np.angle(m[1, 1])) + math.pi
    if eta < 1e-12:
        # Anti-diagonal: B(0) is the swap.
        return 0.0, 0.0, 0.0, float(np.angle(m[0, 1])), float(np.angle(m[1, 0]))
    b0 = float(np.angle(m[0, 1]))
    g0 = float(np.angle(m[0, 0])) - b0
    b1 = float(np.angle(m[1, 1])) + math.pi
    g1 = 0.0
    return g0, g1, eta, b0, b1
