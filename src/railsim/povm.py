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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import (APM_OCCUPATION_TOL, N_MAX, OverOccupiedError, PureState,
                   project_mode)

GRID_X_MIN = -8.0
GRID_X_MAX = 8.0
GRID_POINTS = 4001


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
    entries = {}  # counts -> that outcome's entries, in state order
    for occ, amp in state.items():
        key = tuple([occ[m] for m in modes])
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2 / total
        entries.setdefault(key, []).append((occ, amp))
    outcomes = sorted(probs.items())
    u = rng.random()
    acc = 0.0
    counts = outcomes[-1][0]
    for key, p in outcomes:
        acc += p
        if u < acc:
            counts = key
            break
    # Keep the entries with the drawn counts, drop the measured modes
    # and normalize, in one construction.
    rest_modes = [m for m in range(state.n_modes) if m not in modes]
    z = 1.0 / math.sqrt(probs[counts] * total)
    posterior = PureState(len(rest_modes), {
        tuple([occ[m] for m in rest_modes]): z * amp for occ, amp in entries[counts]})
    return MeasurementOutcome(value=counts, posterior=posterior,
                              density=probs[counts])


@dataclass
class QuadratureDensity:
    """Marginal density of the quadrature X_phi of one mode, tabulated.

    ``pdf`` holds the density on the grid ``x`` and ``cum`` its
    trapezoid integral from the grid's left end, so ``cum[-1]`` is the
    total weight (1 up to grid truncation).  Between grid points every
    method interpolates linearly.
    """

    x: np.ndarray
    pdf: np.ndarray
    cum: np.ndarray = field(init=False)

    def __post_init__(self):
        dx = float(self.x[1] - self.x[0])
        self.cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (self.pdf[1:] + self.pdf[:-1]) * dx)))

    def __call__(self, v) -> np.ndarray:
        return np.interp(v, self.x, self.pdf)

    def cdf(self, v) -> np.ndarray:
        return np.interp(v, self.x, self.cum) / self.cum[-1]

    def quantile(self, q) -> np.ndarray:
        """Inverse of :meth:`cdf`, taken on the strictly increasing
        section of the table so that it is well defined."""
        cdf = self.cum / self.cum[-1]
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        return np.interp(q, cdf[keep], self.x[keep])

    def draw(self, rng: np.random.Generator) -> tuple:
        """One outcome (x, density at x) by inverse-CDF lookup of one
        uniform draw."""
        x = float(np.interp(rng.random() * self.cum[-1], self.cum, self.x))
        return x, float(np.interp(x, self.x, self.pdf))


def homodyne_density(state: PureState, mode: int,
                     phi: float = 0.0) -> QuadratureDensity:
    """Density of the quadrature X_phi of one mode on the fixed grid;
    the input state is normalized internally."""
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    grid = make_grid(N_MAX)
    groups = _mode_groups(state, mode)
    phases = np.exp(-1j * phi * np.arange(N_MAX + 1))
    density = np.zeros_like(grid.x)
    for rest in sorted(groups):
        wave = (groups[rest] * phases) @ grid.psi
        density += np.abs(wave) ** 2
    return QuadratureDensity(grid.x, density / state.norm_sq())


def homodyne_sample(state: PureState, mode: int, phi: float,
                    rng: np.random.Generator) -> MeasurementOutcome:
    """Sample the quadrature X_phi of one mode from its density.

    The posterior follows by projecting the mode onto the bra with
    coefficients psi_n(x) e^{-i n phi}.
    """
    x_val, p_val = homodyne_density(state, mode, phi).draw(rng)
    bra = quad_psi(N_MAX, x_val) * np.exp(-1j * phi * np.arange(N_MAX + 1))
    _, posterior = project_mode(state, mode, bra)
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

    def draw(self, rng: np.random.Generator) -> tuple:
        """One outcome (theta, density at theta) by rejection against
        the flat envelope ``max_density``; acceptance is at least 1/2
        per iteration (|z| <= 1/2)."""
        bound = self.max_density
        z = complex(self.z)
        while True:
            theta = rng.random() * 2.0 * math.pi
            p = _apm_pdf(z, theta)
            if rng.random() * bound <= p:
                return theta, p


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
    # Sum conj(a_0) a_1 over the rest occupations in sorted order.  State
    # order visits a rest's n = 0 entry before its n = 1 entry, and the
    # n = 1 entries in sorted rest order.
    zero_amps = {}
    z = 0.0 + 0.0j
    for occ, amp in state.items():
        n = occ[mode]
        if n == 0:
            zero_amps[occ[:mode] + occ[mode + 1:]] = amp
        elif n == 1:
            z += zero_amps.get(occ[:mode] + occ[mode + 1:], 0.0).conjugate() * amp
    # Divided as a numpy scalar, so z keeps its type and numpy's rounding.
    return np.complex128(z) / total


def apm_density(state: PureState, mode: int) -> ApmDensity:
    """Analytic APM outcome density for ``mode``."""
    return ApmDensity(z=_apm_overlap(state, mode))


def apm_sample(state: PureState, mode: int, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample the APM from its density; the posterior projects the mode
    onto the phase eigenbra <theta|."""
    theta, p = apm_density(state, mode).draw(rng)
    _, posterior = project_mode(state, mode, (1.0, cmath.exp(-1j * theta)))
    return MeasurementOutcome(value=theta, posterior=posterior, density=p)
