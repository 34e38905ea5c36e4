"""Reference forms of the per-trial dict operations.

``railsim.povm.photon_count`` and ``_apm_overlap`` each work in one pass
over a state's entries.  The functions here are the earlier, plainer
forms: outcome keys recomputed for the posterior, and one numpy vector
per rest occupation with numpy scalar arithmetic for the overlap.  Both
forms do the same floating-point operations in the same order, so tests
compare them with exact equality.
"""

import itertools
import math

from hypothesis import assume
from hypothesis import strategies as st

from railsim.fock import (APM_OCCUPATION_TOL, N_MAX, N_TOTAL_MAX,
                          OverOccupiedError, PureState)
from railsim.povm import MeasurementOutcome, _mode_groups


@st.composite
def states(draw):
    """Random states on 1 to 4 modes.  Half of them keep every mode at
    one photon or less, so a phase measurement accepts any of their modes."""
    n_modes = draw(st.integers(1, 4))
    cap = draw(st.integers(1, N_MAX))
    basis = [occ for occ in itertools.product(range(cap + 1), repeat=n_modes)
             if sum(occ) <= N_TOTAL_MAX]
    occs = draw(st.lists(st.sampled_from(basis), min_size=1, unique=True))
    amps = draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                            allow_infinity=False),
                         min_size=len(occs), max_size=len(occs)))
    state = PureState(n_modes, dict(zip(occs, amps)))
    assume(state.norm_sq() > 1e-12)
    return state


def photon_count(state, modes, rng):
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
    rest_modes = [m for m in range(state.n_modes) if m not in modes]
    z = 1.0 / math.sqrt(probs[counts] * total)
    posterior = PureState(len(rest_modes), {
        tuple(occ[m] for m in rest_modes): z * amp
        for occ, amp in state.items()
        if tuple(occ[m] for m in modes) == counts})
    return MeasurementOutcome(value=counts, posterior=posterior,
                              density=probs[counts])


def apm_overlap(state, mode):
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
