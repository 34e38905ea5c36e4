"""Sparse pure states over a small number of optical modes.

States live in one fixed truncated Fock space: occupation per mode is
capped at ``N_MAX`` and the total photon number at ``N_TOTAL_MAX``, which
covers every state the single-rail protocols reach.  Amplitudes are
kept in a dict keyed by occupation tuples and stored in lexicographic
occupation order, so iteration is reproducible without sorting on
read; anything below ``PRUNE_EPS`` in squared magnitude is dropped so
states stay sparse.  All operations are value-semantic and return new
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# Squared-magnitude threshold below which amplitudes are discarded.
PRUNE_EPS = 1e-14

# Hard cap on the number of modes a state may carry.
MAX_MODES = 12

# Occupation caps: photons per mode, and photons in the whole state.
N_MAX = 2
N_TOTAL_MAX = 4

# Largest relative weight on two or more photons that a phase
# measurement tolerates on the mode (or dual-rail pair) it measures.
APM_OCCUPATION_TOL = 1e-12

_ZERO_WEIGHT = 1e-30


class TruncationError(Exception):
    """An operation would exceed the Fock-space capacity."""


class OverOccupiedError(Exception):
    """A phase measurement met a mode with support on n >= 2."""


def _check_occupation(occ, n_modes: int) -> tuple:
    """(occ as a tuple of ints, whether it exceeds the caps)."""
    given = tuple(occ)
    try:
        occ = tuple(map(int, given))
    except (OverflowError, ValueError):  # int() of an infinity or a NaN
        occ = None
    if occ != given:
        raise ValueError(f"non-integral occupation in {given}")
    if len(occ) != n_modes:
        raise ValueError(f"occupation {occ} has wrong length for {n_modes} modes")
    if min(occ, default=0) < 0:
        raise ValueError(f"negative occupation in {occ}")
    return occ, max(occ, default=0) > N_MAX or sum(occ) > N_TOTAL_MAX


# _check_occupation results for tuple keys, keyed on (occ, n_modes).  Errors
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
        amplitudes.  Not required to be normalized.  Stored in
        lexicographic occupation order.

    Operations return new states and nothing writes ``amplitudes``, so
    one state may be shared, for example by every trial of a run.
    """

    n_modes: int
    amplitudes: dict = field(default_factory=dict)

    def __post_init__(self):
        n_modes = self.n_modes
        if not 0 <= n_modes <= MAX_MODES:
            raise ValueError(f"n_modes must be in [0, {MAX_MODES}], got {n_modes}")
        memo = _OCC_MEMO
        cleaned = {}
        for occ, amp in self.amplitudes.items():
            if type(occ) is tuple:
                key = (occ, n_modes)
                checked = memo.get(key)
                if checked is None:
                    checked = _check_occupation(occ, n_modes)
                    if len(memo) >= _OCC_MEMO_SIZE:
                        memo.clear()
                    memo[key] = checked
            else:
                checked = _check_occupation(occ, n_modes)
            occ, over_caps = checked
            amp = complex(amp)
            if abs(amp) ** 2 < PRUNE_EPS:
                # Pruned before the cap check so that amplitudes which
                # cancel to rounding noise never trip TruncationError.
                continue
            if over_caps:
                raise TruncationError(
                    f"occupation {occ} exceeds caps N_MAX={N_MAX}, "
                    f"N_TOTAL_MAX={N_TOTAL_MAX}"
                )
            cleaned[occ] = amp
        self.amplitudes = dict(sorted(cleaned.items()))

    def items(self):
        """Amplitude entries in lexicographic occupation order.

        Iteration order is fixed so that runs are bit-reproducible
        given a seed.
        """
        return self.amplitudes.items()

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
        return PureState(self.n_modes, {occ: z * a for occ, a in self.items()})

    def __repr__(self):
        terms = ", ".join(f"{occ}: {a:.6g}" for occ, a in list(self.items())[:6])
        more = "" if len(self.amplitudes) <= 6 else ", ..."
        return f"PureState({self.n_modes} modes, {{{terms}{more}}})"


def fock_state(occ: Sequence[int]) -> PureState:
    """Basis state |occ> with unit amplitude."""
    occ = tuple(int(n) for n in occ)
    return PureState(len(occ), {occ: 1.0 + 0.0j})


def vacuum(n_modes: int) -> PureState:
    """Vacuum on ``n_modes`` modes."""
    return fock_state((0,) * n_modes)


def single_photon(mode: int, n_modes: int) -> PureState:
    """One photon in ``mode``, vacuum elsewhere."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    occ = [0] * n_modes
    occ[mode] = 1
    return fock_state(occ)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; modes of ``b`` are appended after those of ``a``."""
    n_modes = a.n_modes + b.n_modes
    if n_modes > MAX_MODES:
        raise TruncationError(f"tensor product would have {n_modes} > {MAX_MODES} modes")
    amps = {}
    for occ_a, amp_a in a.items():
        for occ_b, amp_b in b.items():
            amps[occ_a + occ_b] = amp_a * amp_b
    return PureState(n_modes, amps)


def inner(a: PureState, b: PureState) -> complex:
    """Inner product <a|b> (conjugate-linear in ``a``)."""
    if a.n_modes != b.n_modes:
        raise ValueError("states have different mode counts")
    # Accumulate over shared occupations in lexicographic order.
    amps_b = b.amplitudes
    return sum((amp.conjugate() * amps_b[k] for k, amp in a.items() if k in amps_b),
               0.0 + 0.0j)


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
    return PureState(state.n_modes, amps)


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
    if len(bra) > N_MAX + 1:
        raise ValueError(f"bra has {len(bra)} coefficients but N_MAX={N_MAX}")
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
    # Entries that the constructor would prune before scaling carry no
    # weight (written as its test, so a NaN entry is kept and shows).
    kept = [(rest, amp) for rest, amp in sorted(amps.items())
            if not abs(amp) ** 2 < PRUNE_EPS]
    weight = sum(abs(amp) ** 2 for _, amp in kept)
    if weight < _ZERO_WEIGHT:
        raise ValueError("projection weight vanishes")
    z = 1.0 / math.sqrt(weight)
    return weight, PureState(state.n_modes - 1, {rest: z * amp for rest, amp in kept})
