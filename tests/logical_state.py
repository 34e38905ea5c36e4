"""Logical amplitudes of a rail qubit, read off a state.

The library never needs them: the protocols score their outputs with
``logical_target_fidelity``.  The tests read them to compare a protocol
output with the logical matrix it should have applied.
"""

import numpy as np

from railsim.optics import SingleRailQubit


def logical_state(state, qubit) -> np.ndarray:
    """Extract the (c0, c1) logical amplitudes of a qubit handle.

    For a DualRailQubit all other modes must factor out, i.e. the state
    restricted to the logical subspace must be a product; this holds for
    the protocol outputs checked in the tests.  Amplitudes are returned
    unnormalized, in the order (logical 0, logical 1).
    """
    if isinstance(qubit, SingleRailQubit):
        c0 = c1 = 0.0 + 0.0j
        for occ, amp in state.items():
            if occ[qubit.mode] == 0:
                c0 += amp
            elif occ[qubit.mode] == 1:
                c1 += amp
        return np.array([c0, c1])
    r0, r1 = qubit.rail0, qubit.rail1
    c0 = c1 = 0.0 + 0.0j
    for occ, amp in state.items():
        if occ[r0] == 0 and occ[r1] == 1:
            c0 += amp
        elif occ[r0] == 1 and occ[r1] == 0:
            c1 += amp
    return np.array([c0, c1])
