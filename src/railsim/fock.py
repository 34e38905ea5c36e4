"""Sparse pure states over a small number of optical modes.

States live in a truncated Fock space: occupation per mode is capped at
``n_max`` and the total photon number at ``n_total_max``.  Amplitudes are
kept in a dict keyed by occupation tuples; anything below ``PRUNE_EPS``
in squared magnitude is dropped so states stay sparse.  All operations
are value-semantic and return new states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# Squared-magnitude threshold below which amplitudes are discarded.
PRUNE_EPS = 1e-14

# Hard cap on the number of modes a state may carry.
MAX_MODES = 12

_ZERO_WEIGHT = 1e-30


class TruncationError(Exception):
    """An operation would exceed the configured Fock-space capacity."""


def _check_occupation(occ, n_modes: int, n_max: int, n_total_max: int) -> tuple:
    """(occ as a tuple of ints, whether it exceeds the caps)."""
    occ = tuple(map(int, occ))
    if len(occ) != n_modes:
        raise ValueError(f"occupation {occ} has wrong length for {n_modes} modes")
    if min(occ, default=0) < 0:
        raise ValueError(f"negative occupation in {occ}")
    return occ, max(occ, default=0) > n_max or sum(occ) > n_total_max


# _check_occupation results for tuple keys, keyed on (occ, caps).  Errors
# are never stored; the memo is emptied when it reaches _OCC_MEMO_SIZE.
_OCC_MEMO: dict = {}
_OCC_MEMO_SIZE = 4096


@dataclass
class PureState:
    """Sparse pure state on ``n_modes`` optical modes.

    Parameters
    ----------
    n_modes : int
        Number of modes.  Mode indices run from 0 to ``n_modes - 1``.
    amplitudes : dict
        Map from occupation tuples (length ``n_modes``) to complex
        amplitudes.  Not required to be normalized.
    n_max : int
        Per-mode occupation cap.
    n_total_max : int
        Total photon number cap.
    """

    n_modes: int
    amplitudes: dict = field(default_factory=dict)
    n_max: int = 2
    n_total_max: int = 4

    def __post_init__(self):
        n_modes, n_max, n_total_max = self.n_modes, self.n_max, self.n_total_max
        if not 0 <= n_modes <= MAX_MODES:
            raise ValueError(f"n_modes must be in [0, {MAX_MODES}], got {n_modes}")
        if n_max < 0 or n_total_max < 0:
            raise ValueError("occupation caps must be non-negative")
        caps = (n_modes, n_max, n_total_max)
        memo = _OCC_MEMO
        cleaned = {}
        for occ, amp in self.amplitudes.items():
            if type(occ) is tuple:
                key = (occ, caps)
                checked = memo.get(key)
                if checked is None:
                    checked = _check_occupation(occ, *caps)
                    if len(memo) >= _OCC_MEMO_SIZE:
                        memo.clear()
                    memo[key] = checked
            else:
                checked = _check_occupation(occ, *caps)
            occ, over_caps = checked
            amp = complex(amp)
            if abs(amp) ** 2 < PRUNE_EPS:
                # Pruned before the cap check so that amplitudes which
                # cancel to rounding noise never trip TruncationError.
                continue
            if over_caps:
                raise TruncationError(
                    f"occupation {occ} exceeds caps n_max={n_max}, "
                    f"n_total_max={n_total_max}"
                )
            cleaned[occ] = amp
        self.amplitudes = cleaned

    def items(self) -> list:
        """Amplitude entries in lexicographic occupation order.

        Iteration order is fixed so that runs are bit-reproducible
        given a seed.
        """
        return sorted(self.amplitudes.items())

    def amp(self, occ: Sequence[int]) -> complex:
        return self.amplitudes.get(tuple(occ), 0.0 + 0.0j)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for _, a in self.items())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> "PureState":
        n = self.norm()
        if n < math.sqrt(_ZERO_WEIGHT):
            raise ValueError("cannot normalize a zero state")
        return self.scaled(1.0 / n)

    def scaled(self, z: complex) -> "PureState":
        return PureState(
            self.n_modes,
            {occ: z * a for occ, a in self.items()},
            n_max=self.n_max,
            n_total_max=self.n_total_max,
        )

    def __repr__(self):
        terms = ", ".join(f"{occ}: {a:.6g}" for occ, a in self.items()[:6])
        more = "" if len(self.amplitudes) <= 6 else ", ..."
        return f"PureState({self.n_modes} modes, {{{terms}{more}}})"


def fock_state(occ: Sequence[int], n_max: int = 2, n_total_max: int = 4) -> PureState:
    """Basis state |occ> with unit amplitude."""
    occ = tuple(int(n) for n in occ)
    return PureState(len(occ), {occ: 1.0 + 0.0j}, n_max=n_max, n_total_max=n_total_max)


def vacuum(n_modes: int, n_max: int = 2, n_total_max: int = 4) -> PureState:
    """Vacuum on ``n_modes`` modes."""
    return fock_state((0,) * n_modes, n_max=n_max, n_total_max=n_total_max)


def single_photon(mode: int, n_modes: int, n_max: int = 2, n_total_max: int = 4) -> PureState:
    """One photon in ``mode``, vacuum elsewhere."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    occ = [0] * n_modes
    occ[mode] = 1
    return fock_state(occ, n_max=n_max, n_total_max=n_total_max)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; modes of ``b`` are appended after those of ``a``."""
    n_modes = a.n_modes + b.n_modes
    if n_modes > MAX_MODES:
        raise TruncationError(f"tensor product would have {n_modes} > {MAX_MODES} modes")
    n_max = max(a.n_max, b.n_max)
    n_total_max = max(a.n_total_max, b.n_total_max)
    amps = {}
    for occ_a, amp_a in a.items():
        for occ_b, amp_b in b.items():
            amps[occ_a + occ_b] = amp_a * amp_b
    return PureState(n_modes, amps, n_max=n_max, n_total_max=n_total_max)


def inner(a: PureState, b: PureState) -> complex:
    """Inner product <a|b> (conjugate-linear in ``a``)."""
    if a.n_modes != b.n_modes:
        raise ValueError("states have different mode counts")
    # Iterate the smaller dict; accumulate in lexicographic order.
    keys = sorted(set(a.amplitudes) & set(b.amplitudes))
    return sum((a.amplitudes[k].conjugate() * b.amplitudes[k] for k in keys), 0.0 + 0.0j)


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 between the normalized versions of ``a`` and ``b``."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na < _ZERO_WEIGHT or nb < _ZERO_WEIGHT:
        raise ValueError("fidelity undefined for zero states")
    return abs(inner(a, b)) ** 2 / (na * nb)


def apply_phase(state: PureState, mode: int, delta: float) -> PureState:
    """Phase shift on one mode: |n> -> exp(i n delta) |n>."""
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    amps = {}
    for occ, amp in state.items():
        amps[occ] = amp * complex(math.cos(occ[mode] * delta), math.sin(occ[mode] * delta))
    return PureState(state.n_modes, amps, n_max=state.n_max, n_total_max=state.n_total_max)


def project_mode(state: PureState, mode: int, bra_coeffs: Iterable[complex]):
    """Contract one mode against a bra and drop it.

    ``bra_coeffs[n]`` multiplies the |n> component of ``mode`` directly
    (coefficients are applied as given, with no extra conjugation).
    Remaining modes keep their relative order; indices above ``mode``
    shift down by one.

    Returns
    -------
    weight : float
        Squared norm of the projected state relative to the input norm
        (the outcome probability when ``state`` is normalized and the
        bra is a measurement effect).
    posterior : PureState
        Normalized state on the remaining modes.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    bra = [complex(c) for c in bra_coeffs]
    if len(bra) > state.n_max + 1:
        raise ValueError(f"bra has {len(bra)} coefficients but n_max={state.n_max}")
    amps = {}
    for occ, amp in state.items():
        n = occ[mode]
        if n >= len(bra):
            continue
        c = bra[n]
        if c == 0:
            continue
        rest = occ[:mode] + occ[mode + 1:]
        amps[rest] = amps.get(rest, 0.0 + 0.0j) + c * amp
    posterior = PureState(state.n_modes - 1, amps, n_max=state.n_max,
                          n_total_max=state.n_total_max)
    weight = posterior.norm_sq()
    if weight < _ZERO_WEIGHT:
        raise ValueError("projection weight vanishes")
    return weight, posterior.normalized()
