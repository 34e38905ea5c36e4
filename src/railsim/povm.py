"""Measurement effects and samplers: photon counting, homodyne, and the
analytic adaptive phase measurement (APM).

Quadrature convention: X = a e^{-i phi} + a+ e^{i phi}, so the vacuum
has unit variance and the number-state wavefunctions obey

    psi_0(x) = (2 pi)^(-1/4) exp(-x^2 / 4)
    psi_{n+1}(x) = (x psi_n(x) - sqrt(n) psi_{n-1}(x)) / sqrt(n + 1).

The APM acts on a mode holding at most one photon.  Its effects are
|theta><theta| / 2 pi with the unnormalized phase eigenkets
|theta> = |0> + e^{i theta} |1>, theta in [0, 2 pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import N_MAX, PureState, project_mode
from .stats import trapezoid_cdf

GRID_X_MIN = -8.0
GRID_X_MAX = 8.0
GRID_POINTS = 4001

# Tolerated squared-magnitude weight on occupations >= 2 for the APM.
APM_OCCUPATION_TOL = 1e-12


class OverOccupiedError(Exception):
    """The APM was asked to measure a mode with support on n >= 2."""


@dataclass
class MeasurementOutcome:
    """One sampled measurement result.

    ``value`` is the count tuple, the quadrature value, or the phase
    estimate.  ``density`` is the probability (mass or density) of the
    outcome and ``posterior`` the normalized conditional state with the
    measured mode(s) removed.
    """

    value: object
    posterior: PureState
    density: float


def quad_psi(n_max: int, x) -> np.ndarray:
    """Wavefunctions <x|n> for n = 0..n_max in the unit-variance vacuum
    convention; row n holds psi_n(x)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    x = np.asarray(x, dtype=float)
    psi = np.empty((n_max + 1,) + x.shape)
    psi[0] = (2.0 * math.pi) ** (-0.25) * np.exp(-0.25 * x * x)
    prev = np.zeros_like(x)
    for k in range(n_max):
        psi[k + 1] = (x * psi[k] - math.sqrt(k) * prev) / math.sqrt(k + 1)
        prev = psi[k]
    return psi


@dataclass
class QuadratureGrid:
    """Tabulated number-state wavefunctions on a uniform x grid."""

    x: np.ndarray
    psi: np.ndarray  # shape (n_max + 1, GRID_POINTS); row n is psi_n(x)


@lru_cache(maxsize=8)
def make_grid(n_max: int) -> QuadratureGrid:
    """Build (and cache) the quadrature grid for occupations 0..n_max.

    Raises if the grid does not hold essentially all of the highest
    level's probability, which would silently bias sampling.
    """
    x = np.linspace(GRID_X_MIN, GRID_X_MAX, GRID_POINTS)
    psi = quad_psi(n_max, x)
    dx = x[1] - x[0]
    for n in range(n_max + 1):
        total = float(np.trapezoid(psi[n] ** 2, dx=dx))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"quadrature grid too narrow for n={n}: integral {total:.8f}"
            )
    return QuadratureGrid(x=x, psi=psi)


def _mode_groups(state: PureState, mode: int) -> dict:
    """Group amplitudes by the occupation of ``mode``.

    Returns {rest_occupation: complex array indexed by n}.
    """
    groups = {}
    for occ, amp in state.items():
        rest = occ[:mode] + occ[mode + 1:]
        vec = groups.get(rest)
        if vec is None:
            vec = np.zeros(N_MAX + 1, dtype=complex)
            groups[rest] = vec
        vec[occ[mode]] += amp
    return groups


def photon_count(state: PureState, modes, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample photon counts on ``modes`` (sorted ascending) jointly.

    The posterior has the measured modes removed.
    """
    modes = sorted(set(int(m) for m in modes))
    if not modes:
        raise ValueError("no modes to measure")
    for m in modes:
        if not 0 <= m < state.n_modes:
            raise ValueError(f"mode {m} out of range for {state.n_modes} modes")
    total = state.norm_sq()
    probs = {}
    for occ, amp in state.items():
        key = tuple(occ[m] for m in modes)
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2 / total
    outcomes = sorted(probs.items())
    u = rng.random()
    acc = 0.0
    counts = outcomes[-1][0]
    for key, p in outcomes:
        acc += p
        if u < acc:
            counts = key
            break
    posterior = state
    for m, c in sorted(zip(modes, counts), reverse=True):
        bra = [0.0] * (N_MAX + 1)
        bra[c] = 1.0
        _, posterior = project_mode(posterior, m, bra)
    return MeasurementOutcome(value=counts, posterior=posterior,
                              density=probs[counts])


def homodyne_density(state: PureState, mode: int, phi: float = 0.0):
    """Tabulated marginal density of the quadrature X_phi of one mode.

    Returns (x, pdf) on the grid; the input state is normalized
    internally.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    grid = make_grid(N_MAX)
    groups = _mode_groups(state, mode)
    phases = np.exp(-1j * phi * np.arange(N_MAX + 1))
    density = np.zeros_like(grid.x)
    for rest in sorted(groups):
        wave = (groups[rest] * phases) @ grid.psi
        density += np.abs(wave) ** 2
    return grid.x, density / state.norm_sq()


def homodyne_cdf(state: PureState, mode: int, phi: float = 0.0):
    """Tabulated (x, pdf, cdf) of the quadrature X_phi of one mode.

    The cdf is the trapezoid integral of the pdf; its last entry is the
    total weight (1 up to grid truncation).  ``np.interp(u * cdf[-1],
    cdf, x)`` inverts it.
    """
    grid_x, density = homodyne_density(state, mode, phi)
    return grid_x, density, trapezoid_cdf(density, float(grid_x[1] - grid_x[0]))


def homodyne_sample(state: PureState, mode: int, phi: float,
                    rng: np.random.Generator) -> MeasurementOutcome:
    """Sample the quadrature X_phi of one mode by inverse-CDF lookup.

    The marginal density is tabulated on the grid, integrated with the
    trapezoid rule, and inverted by linear interpolation.  The posterior
    follows by projecting the mode onto the bra with coefficients
    psi_n(x) e^{-i n phi}.
    """
    grid_x, density, cdf = homodyne_cdf(state, mode, phi)
    phases = np.exp(-1j * phi * np.arange(N_MAX + 1))
    x_val = float(np.interp(rng.random() * cdf[-1], cdf, grid_x))
    bra = quad_psi(N_MAX, x_val) * phases
    _, posterior = project_mode(state, mode, bra)
    p_val = float(np.interp(x_val, grid_x, density))
    return MeasurementOutcome(value=x_val, posterior=posterior,
                              density=p_val)


@dataclass
class ApmDensity:
    """Analytic outcome density of the APM on a given mode.

    p(theta) = (1 + 2 Re(z e^{-i theta})) / 2 pi on [0, 2 pi), where z
    is the overlap <rho_0|rho_1> between the conditional states of the
    rest of the system given 0 or 1 photons in the measured mode.
    """

    z: complex

    def __call__(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return (1.0 + 2.0 * (self.z * np.exp(-1j * theta)).real) / (2.0 * math.pi)

    def cdf(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        osc = 2.0 * (self.z * (1.0 - np.exp(-1j * theta))).imag
        return (theta + osc) / (2.0 * math.pi)

    @property
    def max_density(self) -> float:
        return (1.0 + 2.0 * abs(self.z)) / (2.0 * math.pi)


def _apm_pdf(z: complex, theta: float) -> float:
    """``ApmDensity(z)(theta)`` in scalar arithmetic; the same float."""
    return (1.0 + 2.0 * (z * cmath.exp(-1j * theta)).real) / (2.0 * math.pi)


def _apm_overlap(state: PureState, mode: int) -> complex:
    """Compute z = <rho_0|rho_1> after validating the occupation support."""
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    total = state.norm_sq()
    over = sum(abs(amp) ** 2 for occ, amp in state.items() if occ[mode] >= 2) / total
    if over > APM_OCCUPATION_TOL:
        raise OverOccupiedError(
            f"mode {mode} carries weight {over:.3g} on occupations >= 2"
        )
    z = 0.0 + 0.0j
    groups = _mode_groups(state, mode)
    for rest in sorted(groups):
        vec = groups[rest]
        z += vec[0].conjugate() * vec[1]
    return z / total


def apm_density(state: PureState, mode: int) -> ApmDensity:
    """Analytic APM outcome density for ``mode``."""
    return ApmDensity(z=_apm_overlap(state, mode))


def apm_sample(state: PureState, mode: int, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample the APM by rejection against a flat envelope.

    The envelope is the density maximum, so acceptance is at least
    1/2 per iteration (|z| <= 1/2).
    """
    dens = apm_density(state, mode)
    bound = dens.max_density
    z = complex(dens.z)
    while True:
        theta = rng.random() * 2.0 * math.pi
        p = _apm_pdf(z, theta)
        if rng.random() * bound <= p:
            break
    bra = (1.0, cmath.exp(-1j * theta))
    _, posterior = project_mode(state, mode, bra)
    return MeasurementOutcome(value=theta, posterior=posterior, density=p)
