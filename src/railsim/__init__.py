"""Simulation of adaptive phase measurements on optical rail qubits."""

from .fock import (OverOccupiedError, PureState, TruncationError,
                   apply_phase, fidelity, fock_state, inner, single_photon,
                   tensor, vacuum)
from .optics import (HADAMARD, IDENTITY, PAULI_X, PAULI_Z, BeamsplitterSpec,
                     DualRailQubit, SingleRailQubit, beamsplitter,
                     dual_rail_bell, dual_rail_unitary, single_rail_bell,
                     two_mode_unitary)
from .povm import (ApmDensity, MeasurementOutcome, QuadratureGrid,
                   apm_density, apm_sample, homodyne_cdf, homodyne_density,
                   homodyne_sample, make_grid, photon_count)
from .protocols import (BsmOutcome, GateOutcome, PrepSpec,
                        apply_single_rail_unitary, bell_measurement_single_rail,
                        dual_to_single, hybrid_bell, logical_target_fidelity,
                        prepare_arbitrary, qubit_state, run_protocol_trial,
                        teleport_single_to_dual, trajectory_apm)
from .runner import trial_rng, worker_count
from .trajectory import (FeedbackPolicy, PulseShape, TrajectoryDivergedError,
                         make_pulse, run_dyne_ensemble, simulate_dyne)

__version__ = "0.1.0"

__all__ = [
    "OverOccupiedError", "PureState", "TruncationError", "apply_phase",
    "fidelity", "fock_state", "inner", "single_photon", "tensor", "vacuum",
    "HADAMARD", "IDENTITY", "PAULI_X", "PAULI_Z", "BeamsplitterSpec",
    "DualRailQubit", "SingleRailQubit", "beamsplitter",
    "dual_rail_bell", "dual_rail_unitary",
    "single_rail_bell", "two_mode_unitary",
    "ApmDensity", "MeasurementOutcome", "QuadratureGrid",
    "apm_density", "apm_sample", "homodyne_cdf", "homodyne_density",
    "homodyne_sample", "make_grid", "photon_count",
    "BsmOutcome", "GateOutcome", "PrepSpec", "apply_single_rail_unitary",
    "bell_measurement_single_rail", "dual_to_single",
    "hybrid_bell", "logical_target_fidelity",
    "prepare_arbitrary", "qubit_state",
    "run_protocol_trial", "teleport_single_to_dual", "trajectory_apm",
    "trial_rng", "worker_count",
    "FeedbackPolicy", "PulseShape",
    "TrajectoryDivergedError", "make_pulse", "run_dyne_ensemble",
    "simulate_dyne",
    "__version__",
]
