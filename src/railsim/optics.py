"""Passive linear optics: beamsplitters and dual-rail qubit unitaries.

Mode convention used throughout the package: a two-mode element with
matrix ``V`` maps creation operators as

    a1+ -> V[0,0] a1+ + V[1,0] a2+
    a2+ -> V[0,1] a1+ + V[1,1] a2+

so on the one-photon subspace, in the basis (|10>, |01>), state vectors
transform by ``V`` itself.  The beamsplitter of transmittance eta is

    B(eta) = [[sqrt(eta),     sqrt(1-eta)],
              [sqrt(1-eta),  -sqrt(eta) ]]

which is real, symmetric and self-inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import PureState, apply_phase

UNITARITY_TOL = 1e-10

# Single-qubit gates in the logical basis (|0>_L, |1>_L).
IDENTITY = np.eye(2, dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class DualRailQubit:
    """Qubit stored across two modes: |0>_L = |0, 1>, |1>_L = |1, 0>
    on (rail0, rail1)."""

    rail0: int
    rail1: int

    def __post_init__(self):
        if self.rail0 == self.rail1:
            raise ValueError("dual-rail qubit needs two distinct modes")
        if self.rail0 < 0 or self.rail1 < 0:
            raise ValueError("mode indices must be non-negative")


@dataclass(frozen=True)
class SingleRailQubit:
    """Qubit stored in the photon number of one mode: |0>_L = |0>, |1>_L = |1>."""

    mode: int

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode index must be non-negative")


@dataclass(frozen=True)
class BeamsplitterSpec:
    """A beamsplitter of transmittance ``eta`` across modes (m1, m2)."""

    m1: int
    m2: int
    eta: float

    def __post_init__(self):
        if self.m1 == self.m2 or self.m1 < 0 or self.m2 < 0:
            raise ValueError("beamsplitter needs two distinct non-negative modes")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmittance must lie in [0, 1], got {self.eta}")

    def matrix(self) -> np.ndarray:
        t = math.sqrt(self.eta)
        r = math.sqrt(1.0 - self.eta)
        return np.array([[t, r], [r, -t]], dtype=complex)


def check_unitary(v) -> np.ndarray:
    """``v`` as a complex 2x2 array; ValueError unless it is unitary
    within ``UNITARITY_TOL`` (non-finite entries fail)."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {v.shape}")
    _check_unitary_bytes(v.tobytes())
    return v


def _matrix(key: bytes) -> np.ndarray:
    return np.frombuffer(key, dtype=complex).reshape(2, 2)


# The 2x2 work below is keyed on the matrix bytes: a protocol applies the
# same few matrices on every trial.  lru_cache never caches an exception,
# so a bad matrix raises on every call.
@lru_cache(maxsize=256)
def _check_unitary_bytes(key: bytes) -> None:
    v = _matrix(key)
    # Non-finite entries give a NaN or inf deviation, which the test below
    # (written so that NaN fails) rejects without a numpy warning.
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.max(np.abs(v.conj().T @ v - np.eye(2)))
    if not err <= UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {err:.3g})")


def two_mode_unitary(state: PureState, m1: int, m2: int, v: np.ndarray) -> PureState:
    """Apply a 2x2 mode unitary ``v`` across modes (m1, m2).

    Acts on each basis vector by binomial expansion of the transformed
    creation operators.  Raises TruncationError if a non-negligible
    output amplitude would exceed the Fock-space caps.
    """
    v = check_unitary(v)
    if m1 == m2:
        raise ValueError("modes must be distinct")
    for m in (m1, m2):
        if not 0 <= m < state.n_modes:
            raise ValueError(f"mode {m} out of range for {state.n_modes} modes")
    key = v.tobytes()
    amps = {}
    for occ, amp in state.items():
        for (k1, k2), coeff in _pair_image(occ[m1], occ[m2], key):
            out = list(occ)
            out[m1], out[m2] = k1, k2
            out = tuple(out)
            amps[out] = amps.get(out, 0.0 + 0.0j) + amp * coeff
    return PureState(state.n_modes, amps)


@lru_cache(maxsize=1024)
def _pair_image(n1: int, n2: int, key: bytes) -> tuple:
    """Amplitudes <k1, k2| V |n1, n2> for all k1 + k2 = n1 + n2, as
    ((k1, k2), coeff) pairs with Python complex coefficients."""
    v = _matrix(key)
    total = n1 + n2
    out = {}
    for p in range(n1 + 1):
        for q in range(n2 + 1):
            k1 = p + q
            k2 = total - k1
            coeff = (
                math.comb(n1, p) * math.comb(n2, q)
                * v[0, 0] ** p * v[1, 0] ** (n1 - p)
                * v[0, 1] ** q * v[1, 1] ** (n2 - q)
            )
            if coeff == 0:
                continue
            coeff *= math.sqrt(
                math.factorial(k1) * math.factorial(k2)
                / (math.factorial(n1) * math.factorial(n2))
            )
            out[(k1, k2)] = out.get((k1, k2), 0.0 + 0.0j) + coeff
    return tuple((k, complex(c)) for k, c in out.items())


def beamsplitter(state: PureState, spec: BeamsplitterSpec) -> PureState:
    """Apply the beamsplitter described by ``spec``."""
    return two_mode_unitary(state, spec.m1, spec.m2, spec.matrix())


def decompose_pair_unitary(m: np.ndarray):
    """Split a 2x2 unitary into phase / beamsplitter / phase layers.

    Returns (g0, g1, eta, b0, b1) such that
    ``diag(e^{i b0}, e^{i b1}) @ B(eta) @ diag(e^{i g0}, e^{i g1})``
    reproduces ``m`` exactly (no leftover global phase).
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


def dual_rail_unitary(state: PureState, qubit: DualRailQubit, u: np.ndarray) -> PureState:
    """Apply the logical unitary ``u`` to a dual-rail qubit.

    Realized physically as phase shifters around a single beamsplitter.
    On the logical subspace amplitudes transform by ``u``; other photon
    number sectors transform as the same optics dictates.
    """
    u = check_unitary(u)
    g0, g1, eta, b0, b1 = _dual_rail_layers(u.tobytes())
    r0, r1 = qubit.rail0, qubit.rail1
    out = apply_phase(state, r0, g0)
    out = apply_phase(out, r1, g1)
    out = beamsplitter(out, BeamsplitterSpec(r0, r1, eta))
    out = apply_phase(out, r0, b0)
    out = apply_phase(out, r1, b1)
    return out


@lru_cache(maxsize=64)
def _dual_rail_layers(key: bytes) -> tuple:
    """Phase / beamsplitter / phase layers of a logical unitary."""
    # The logical basis (|01>, |10>) is the one-photon mode basis
    # (|10>, |01>) read in the opposite order, so conjugate by a swap.
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    return decompose_pair_unitary(swap @ _matrix(key) @ swap)


def single_rail_bell() -> PureState:
    """(|0>|1> + |1>|0>)/sqrt(2) on two modes."""
    s = 1.0 / math.sqrt(2.0)
    return PureState(2, {(0, 1): s, (1, 0): s})


def dual_rail_bell() -> PureState:
    """Dual-rail Bell pair (|01>|10> + |10>|01>)/sqrt(2) on modes 0-3.

    The two qubits sit on rails (0, 1) and (2, 3).
    """
    s = 1.0 / math.sqrt(2.0)
    return PureState(4, {(0, 1, 1, 0): s, (1, 0, 0, 1): s})
