"""State preparation and teleported-gate protocols on optical qubits.

Every protocol takes the adaptive phase measurement as a function
``apm(state, mode, rng) -> MeasurementOutcome``, so the same procedure
runs against the analytic phase POVM (``apm_sample``) or the
time-domain trajectory simulation (``trajectory_apm``).
Phase-measurement outcomes feed forward into phase shifters; detector
outcomes select teleportation branches.

Conventions fixed here (derived under the package's beamsplitter
convention and frozen):

* Bell measurement on modes (m1, m2): after the 50:50 beamsplitter,
  counts (1,0) herald the projection onto (|01>+|10>)/sqrt(2) and need
  no correction; counts (0,1) herald (|01>-|10>)/sqrt(2) and need a
  logical Z (phase pi on rail0).  No photons collapse the output qubit
  to logical 1; two photons collapse it to logical 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (APM_OCCUPATION_TOL, OverOccupiedError, PureState,
                   apply_phase, fidelity, single_photon, tensor)
from .optics import (BeamsplitterSpec, DualRailQubit, SingleRailQubit,
                     beamsplitter, dual_rail_bell, dual_rail_unitary)
from .povm import MeasurementOutcome, apm_density, apm_sample, photon_count
from .trajectory import FeedbackPolicy, PulseShape, simulate_dyne

# apm_sample is re-exported: it and trajectory_apm are the two APM
# functions a protocol takes.
__all__ = [
    "PrepSpec", "apm_sample", "trajectory_apm", "prepare_arbitrary",
    "dual_to_single", "hybrid_bell", "BsmOutcome", "GateOutcome",
    "bell_measurement_single_rail", "teleport_single_to_dual",
    "apply_single_rail_unitary", "qubit_state", "logical_target_fidelity",
    "run_protocol_trial",
]


@dataclass(frozen=True)
class PrepSpec:
    """Target state alpha |0> + e^{-i phi} sqrt(1 - alpha^2) |1>."""

    alpha: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def amplitudes(self) -> tuple:
        """Logical amplitudes (c0, c1) of the target."""
        beta = math.sqrt(max(0.0, 1.0 - self.alpha * self.alpha))
        return (complex(self.alpha),
                beta * complex(math.cos(self.phi), -math.sin(self.phi)))

    def target(self) -> PureState:
        c0, c1 = self.amplitudes()
        return PureState(1, {(0,): c0, (1,): c1})


def trajectory_apm(state: PureState, mode: int, rng,
                   pulse: PulseShape) -> MeasurementOutcome:
    """The APM realized by one adaptively fed-back dyne trajectory."""
    # The trajectory realizes the phase POVM only on the <=1 photon
    # subspace; enforce the same precondition as the analytic path.
    dens = apm_density(state, mode)
    cols, posterior = simulate_dyne(state, mode, pulse,
                                    FeedbackPolicy.adaptive(), rng,
                                    keep_series=False)
    theta = float(cols["theta"][0])
    return MeasurementOutcome(value=theta, posterior=posterior,
                              density=float(dens(theta)))


def prepare_arbitrary(spec: PrepSpec, apm, rng) -> PureState:
    """Produce alpha |0> + e^{-i phi} sqrt(1-alpha^2) |1> deterministically.

    A single photon hits a beamsplitter of transmittance alpha^2; the
    port that keeps amplitude alpha is phase-measured and the outcome,
    together with the target phase, feeds forward onto the free port.
    """
    out = apm(_split_photon(spec.alpha), 0, rng)
    return apply_phase(out.posterior, 0, -(out.value + spec.phi))


def _check_dual_occupancy(state: PureState, q: DualRailQubit):
    total = state.norm_sq()
    bad = sum(abs(a) ** 2 for occ, a in state.items()
              if occ[q.rail0] + occ[q.rail1] >= 2) / total
    if bad > APM_OCCUPATION_TOL:
        raise OverOccupiedError(
            f"rails ({q.rail0}, {q.rail1}) carry weight {bad:.3g} on >= 2 photons"
        )


def dual_to_single(state: PureState, q: DualRailQubit, apm, rng):
    """Convert a dual-rail qubit to single-rail, deterministically.

    Phase-measures rail1 (outcome theta) and applies -theta to rail0;
    logical amplitudes carry over exactly.  Returns (state, qubit); mode
    indices above the removed rail shift down by one.
    """
    _check_dual_occupancy(state, q)
    out = apm(state, q.rail1, rng)
    new_mode = q.rail0 - 1 if q.rail0 > q.rail1 else q.rail0
    post = apply_phase(out.posterior, new_mode, -out.value)
    return post, SingleRailQubit(new_mode)


def hybrid_bell(apm, rng):
    """Entangle a single-rail qubit with a dual-rail qubit.

    Converts one half of a dual-rail Bell pair to single rail, leaving
    (|0>|10> + |1>|01>)/sqrt(2) on three modes.  Returns
    (state, SingleRailQubit, DualRailQubit).
    """
    state, single = dual_to_single(_bell_pair(), DualRailQubit(0, 1), apm, rng)
    return state, single, DualRailQubit(1, 2)


@dataclass(frozen=True)
class BsmOutcome:
    """Result of a single-rail Bell measurement.

    kind: bell_plus | bell_minus | fail_zero | fail_two, with the raw
    detector counts on (m1, m2).
    """

    kind: str
    counts: tuple


@dataclass
class GateOutcome:
    """Result of a teleportation-based operation.

    On success ``qubit`` points at the output qubit inside ``state``.
    On failure ``collapsed_logical`` records the logical value the
    output qubit was projected onto.
    """

    success: bool
    state: PureState
    qubit: object
    bsm: BsmOutcome | None = None
    collapsed_logical: int | None = None


def bell_measurement_single_rail(state: PureState, m1: int, m2: int, rng):
    """50:50 beamsplitter across (m1, m2) followed by photon counting.

    Count patterns map to outcomes per the table frozen in the module
    docstring; the posterior has both modes removed.
    """
    mixed = beamsplitter(state, BeamsplitterSpec(m1, m2, 0.5))
    out = photon_count(mixed, (m1, m2), rng)
    by_mode = dict(zip(sorted((m1, m2)), out.value))
    counts = (by_mode[m1], by_mode[m2])
    total = counts[0] + counts[1]
    if total == 0:
        kind = "fail_zero"
    elif total >= 2:
        kind = "fail_two"
    elif counts == (1, 0):
        kind = "bell_plus"
    else:
        kind = "bell_minus"
    return BsmOutcome(kind=kind, counts=counts), out.posterior


def teleport_single_to_dual(state: PureState, q: SingleRailQubit, apm, rng) -> GateOutcome:
    """Teleport a single-rail qubit onto a dual-rail qubit.

    Builds the hybrid Bell resource, Bell-measures the input against
    its single-rail half, and applies the heralded correction.  Succeeds
    with probability 1/2; failures collapse the output to a logical
    basis state (no photon detected -> logical 1, two -> logical 0).
    """
    if not 0 <= q.mode < state.n_modes:
        raise ValueError(f"qubit mode {q.mode} out of range")
    resource, s_half, _ = hybrid_bell(apm, rng)
    offset = state.n_modes
    joint = tensor(state, resource)
    bsm, post = bell_measurement_single_rail(joint, q.mode, offset + s_half.mode, rng)
    dual = DualRailQubit(offset - 1, offset)
    if bsm.kind == "bell_plus":
        return GateOutcome(success=True, state=post, qubit=dual, bsm=bsm)
    if bsm.kind == "bell_minus":
        corrected = apply_phase(post, dual.rail0, math.pi)
        return GateOutcome(success=True, state=corrected, qubit=dual, bsm=bsm)
    collapsed = 1 if bsm.kind == "fail_zero" else 0
    return GateOutcome(success=False, state=post, qubit=dual, bsm=bsm,
                       collapsed_logical=collapsed)


def apply_single_rail_unitary(state: PureState, q: SingleRailQubit,
                              u: np.ndarray, apm, rng) -> GateOutcome:
    """Arbitrary single-qubit rotation by teleport, rotate, convert back.

    The dual-rail rotation itself is deterministic; the only
    non-deterministic step is the Bell measurement, so the pipeline
    succeeds with probability 1/2.
    """
    tele = teleport_single_to_dual(state, q, apm, rng)
    if not tele.success:
        return tele
    rotated = dual_rail_unitary(tele.state, tele.qubit, u)
    final, single = dual_to_single(rotated, tele.qubit, apm, rng)
    return GateOutcome(success=True, state=final, qubit=single, bsm=tele.bsm)


def qubit_state(c0: complex, c1: complex) -> PureState:
    """Single-rail qubit c0 |0> + c1 |1> on one mode (normalized)."""
    return PureState(1, {(0,): c0, (1,): c1}).normalized()


# The states that every trial of a run starts from or is compared with
# are built once per process and shared: no operation writes a state it
# is given.
_bell_pair = lru_cache(maxsize=1)(dual_rail_bell)
_input_state = lru_cache(maxsize=16)(qubit_state)
_prep_target = lru_cache(maxsize=16)(PrepSpec.target)
_split_photon = lru_cache(maxsize=16)(lambda alpha: beamsplitter(
    single_photon(0, 2), BeamsplitterSpec(0, 1, alpha * alpha)))


@lru_cache(maxsize=16)
def _logical_target(n_modes: int, qubit, c0: complex, c1: complex) -> PureState:
    """c0 |0>_L + c1 |1>_L on the handle's mode(s), vacuum elsewhere."""
    occ0 = [0] * n_modes
    occ1 = [0] * n_modes
    if isinstance(qubit, SingleRailQubit):
        occ1[qubit.mode] = 1
    else:
        occ0[qubit.rail1] = 1
        occ1[qubit.rail0] = 1
    return PureState(n_modes, {tuple(occ0): c0, tuple(occ1): c1})


@lru_cache(maxsize=16)
def _gate_target(c0: complex, c1: complex, u_rows: tuple) -> tuple:
    """Logical amplitudes u (c0, c1); the unitary comes as a tuple of
    rows so that it can key the cache."""
    return tuple(np.array(u_rows) @ np.array([c0, c1]))


def logical_target_fidelity(state: PureState, qubit, c0: complex, c1: complex) -> float:
    """Fidelity of ``state`` with the target qubit embedded in vacuum.

    The target is c0 |0>_L + c1 |1>_L on the handle's mode(s), vacuum
    elsewhere, so weight outside the logical subspace counts against
    the fidelity.
    """
    return fidelity(state, _logical_target(state.n_modes, qubit, c0, c1))


def run_protocol_trial(protocol: str, apm, master_seed: int,
                       trial_index: int, rng: np.random.Generator,
                       spec: PrepSpec | None = None,
                       qubit: tuple | None = None,
                       u: np.ndarray | None = None) -> dict:
    """Run one protocol trial on ``rng``, the generator of (master_seed,
    trial_index), and return a JSON-serializable record.

    ``prepare`` takes the target ``spec``; ``teleport`` takes the input
    amplitudes ``qubit = (c0, c1)``; ``gate`` takes ``qubit`` and the
    2x2 unitary ``u``.  The record keeps the phase outcomes of ``apm``
    in call order.
    """
    theta_values = []

    def recorded_apm(state, mode, rng):
        out = apm(state, mode, rng)
        theta_values.append(float(out.value))
        return out

    record = {
        "protocol": protocol,
        "seed": [master_seed, trial_index],
        "success": True,
        "collapsed": None,
        "counts": None,
        "fidelity": None,
    }
    if protocol == "prepare":
        out = prepare_arbitrary(spec, recorded_apm, rng)
        record["fidelity"] = float(fidelity(out, _prep_target(spec)))
    elif protocol in ("teleport", "gate"):
        c0, c1 = qubit
        state = _input_state(complex(c0), complex(c1))
        if protocol == "teleport":
            out = teleport_single_to_dual(state, SingleRailQubit(0),
                                          recorded_apm, rng)
            t0, t1 = c0, c1
        else:
            out = apply_single_rail_unitary(state, SingleRailQubit(0), u,
                                            recorded_apm, rng)
            rows = tuple(map(tuple, np.asarray(u).tolist()))
            t0, t1 = _gate_target(c0, c1, rows)
        record["success"] = bool(out.success)
        record["counts"] = [int(c) for c in out.bsm.counts] if out.bsm else None
        record["collapsed"] = out.collapsed_logical
        if out.success:
            record["fidelity"] = float(logical_target_fidelity(
                out.state, out.qubit, t0, t1))
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    record["theta_values"] = theta_values
    return record
