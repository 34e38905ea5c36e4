"""Preparation, conversion, teleportation, and gate protocols.

The trajectory-backend checks at the bottom replay per-trial random
streams in batch form: the batched integrator applies identical
per-lane arithmetic, so a batched replay must reproduce the scalar
protocol runs bit-for-bit while running orders of magnitude faster.
"""

import json
import math
from functools import partial

import numpy as np
import pytest

from railsim.fock import PureState, apply_phase, fidelity, tensor, vacuum
from railsim.optics import (DualRailQubit, HADAMARD, IDENTITY,
                            SingleRailQubit, dual_rail_bell,
                            dual_rail_unitary)
from railsim.povm import (MeasurementOutcome, OverOccupiedError, apm_sample,
                          photon_count)
from railsim.protocols import (PrepSpec, apply_single_rail_unitary,
                               bell_measurement_single_rail, dual_to_single,
                               hybrid_bell, logical_target_fidelity,
                               prepare_arbitrary, qubit_state,
                               run_protocol_trial, teleport_single_to_dual,
                               trajectory_apm)
from railsim.runner import trial_rng
from railsim.trajectory import (FeedbackPolicy, make_pulse, run_dyne_ensemble,
                                _evolve, _reduce_measured_mode)

from logical_state import logical_state
from paper_checks import homodyne_prep_comparison, ks_uniform
from state_lanes import wiener_increments

RT2 = 1.0 / math.sqrt(2.0)


class _FixedUniform:
    """rng stand-in handing out one predrawn uniform variate."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


# ---- preparation ----

def test_prep_spec_validation_and_target():
    with pytest.raises(ValueError):
        PrepSpec(alpha=1.2, phi=0.0)
    spec = PrepSpec(alpha=0.6, phi=0.5)
    t = spec.target()
    assert np.isclose(t.amp((0,)), 0.6)
    assert np.isclose(t.amp((1,)), 0.8 * np.exp(-0.5j))


def test_prepare_plus_is_deterministic():
    rng = np.random.default_rng(0)
    target = PureState(1, {(0,): RT2, (1,): RT2})
    for _ in range(40):
        out = prepare_arbitrary(PrepSpec(math.sqrt(0.5), 0.0), apm_sample, rng)
        assert fidelity(out, target) > 1.0 - 1e-12


def test_prepare_arbitrary_hits_target_for_random_specs():
    rng = np.random.default_rng(1)
    for _ in range(40):
        spec = PrepSpec(alpha=rng.random(), phi=rng.random() * 2 * math.pi)
        out = prepare_arbitrary(spec, apm_sample, rng)
        assert fidelity(out, spec.target()) > 1.0 - 1e-12


def test_prepare_arbitrary_edge_amplitudes():
    rng = np.random.default_rng(2)
    zero = prepare_arbitrary(PrepSpec(1.0, 0.3), apm_sample, rng)
    assert np.isclose(abs(zero.amp((0,))), 1.0)
    one = prepare_arbitrary(PrepSpec(0.0, 0.3), apm_sample, rng)
    assert np.isclose(abs(one.amp((1,))), 1.0)


def test_homodyne_comparison_leaves_outcome_dependent_amplitude():
    rng = np.random.default_rng(3)
    xs, ratios = [], []
    for _ in range(30):
        x, post = homodyne_prep_comparison(rng)
        target = PureState(1, {(0,): x, (1,): 1.0}).normalized()
        assert fidelity(post, target) > 1.0 - 1e-10
        xs.append(x)
        ratios.append(abs(post.amp((0,))) / abs(post.amp((1,))))
    # amplitude ratio tracks the random outcome: not a deterministic prep
    assert np.std(ratios) > 0.1


# ---- conversion ----

def test_dual_to_single_preserves_logical_amplitudes():
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        state = PureState(2, {(0, 1): c[0], (1, 0): c[1]})
        out, q = dual_to_single(state, DualRailQubit(0, 1), apm_sample, rng)
        assert isinstance(q, SingleRailQubit) and q.mode == 0
        assert out.n_modes == 1
        target = PureState(1, {(0,): c[0], (1,): c[1]})
        assert fidelity(out, target) > 1.0 - 1e-12


def test_dual_to_single_reindexes_higher_modes():
    rng = np.random.default_rng(5)
    # logical 1 on rails (2, 1) of a 3-mode state; photon sits in rail0=2
    state = PureState(3, {(0, 0, 1): 1.0})
    out, q = dual_to_single(state, DualRailQubit(2, 1), apm_sample, rng)
    assert q.mode == 1
    assert np.isclose(abs(out.amp((0, 1))), 1.0)


def test_dual_to_single_rejects_over_occupied_rails():
    rng = np.random.default_rng(6)
    state = PureState(2, {(1, 1): 1.0})
    with pytest.raises(OverOccupiedError):
        dual_to_single(state, DualRailQubit(0, 1), apm_sample, rng)


def test_both_phase_measurements_share_the_occupation_tolerance():
    # relative weight 1.25e-13 on n = 2 is within the tolerance; about
    # 1e-10 is not, and both routes refuse it
    pulse = make_pulse("flat", dt=1e-3)
    near = PureState(1, {(0,): 1, (1,): 1, (2,): 5e-7}).normalized()
    far = PureState(1, {(0,): 1, (1,): 1, (2,): math.sqrt(2e-10)}).normalized()
    for apm in (apm_sample, partial(trajectory_apm, pulse=pulse)):
        out = apm(near, 0, np.random.default_rng(3))
        assert 0.0 <= out.value < 2 * math.pi
        assert out.posterior.n_modes == 0
        with pytest.raises(OverOccupiedError):
            apm(far, 0, np.random.default_rng(3))


def test_hybrid_bell_state_and_handles():
    rng = np.random.default_rng(7)
    state, sq, dq = hybrid_bell(apm_sample, rng)
    assert state.n_modes == 3
    assert sq.mode == 0 and (dq.rail0, dq.rail1) == (1, 2)
    amps = dict(state.items())
    assert set(amps) == {(0, 1, 0), (1, 0, 1)}
    # equal weight and equal phase: the measured phase cancels globally
    assert np.isclose(abs(amps[(0, 1, 0)]), RT2)
    assert np.isclose(amps[(0, 1, 0)], amps[(1, 0, 1)], atol=1e-12)


def test_hybrid_bell_rail_counts_correlate():
    rng = np.random.default_rng(8)
    state, _, dq = hybrid_bell(apm_sample, rng)
    ones = 0
    for _ in range(400):
        out = photon_count(state, (dq.rail0, dq.rail1), rng)
        assert out.value in ((0, 1), (1, 0))
        ones += out.value == (0, 1)
    assert abs(ones / 400 - 0.5) < 0.1


# ---- Bell measurement ----

def test_bell_measurement_distinguishes_the_two_bell_states():
    rng = np.random.default_rng(9)
    plus = PureState(2, {(0, 1): RT2, (1, 0): RT2})
    minus = PureState(2, {(0, 1): RT2, (1, 0): -RT2})
    for _ in range(20):
        out, post = bell_measurement_single_rail(plus, 0, 1, rng)
        assert out.kind == "bell_plus" and out.counts == (1, 0)
        assert post.n_modes == 0
        out, _ = bell_measurement_single_rail(minus, 0, 1, rng)
        assert out.kind == "bell_minus" and out.counts == (0, 1)


def test_bell_measurement_failure_patterns():
    rng = np.random.default_rng(10)
    out, _ = bell_measurement_single_rail(vacuum(2), 0, 1, rng)
    assert out.kind == "fail_zero" and out.counts == (0, 0)
    two = PureState(2, {(1, 1): 1.0})
    kinds = set()
    for _ in range(50):
        out, _ = bell_measurement_single_rail(two, 0, 1, rng)
        kinds.add(out.counts)
        assert out.kind == "fail_two"
    assert kinds == {(2, 0), (0, 2)}


def test_bell_measurement_respects_mode_argument_order():
    rng = np.random.default_rng(11)
    plus = PureState(2, {(0, 1): RT2, (1, 0): RT2})
    out, _ = bell_measurement_single_rail(plus, 1, 0, rng)
    # the photon exits the first listed mode for the symmetric state
    assert out.kind == "bell_plus" and out.counts == (1, 0)


def test_bell_measurement_branch_probabilities():
    rng = np.random.default_rng(12)
    state = PureState(2, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5})
    tallies = {"bell_plus": 0, "bell_minus": 0, "fail_zero": 0, "fail_two": 0}
    n = 3000
    for _ in range(n):
        out, _ = bell_measurement_single_rail(state, 0, 1, rng)
        tallies[out.kind] += 1
    # |00|^2 = .25 -> fail_zero, |11|^2 = .25 -> fail_two,
    # (|01>+|10>)/2 -> bell_plus .25, bell_minus .0 + antisymmetric part 0
    assert abs(tallies["fail_zero"] / n - 0.25) < 0.04
    assert abs(tallies["fail_two"] / n - 0.25) < 0.04
    assert abs(tallies["bell_plus"] / n - 0.5) < 0.04
    assert tallies["bell_minus"] == 0


# ---- teleportation ----

def test_teleport_success_statistics_and_fidelity():
    rng = np.random.default_rng(13)
    c0, c1 = 0.6, 0.8j
    state = qubit_state(c0, c1)
    n = 2000
    kinds = {"bell_plus": 0, "bell_minus": 0, "fail_zero": 0, "fail_two": 0}
    for _ in range(n):
        out = teleport_single_to_dual(state, SingleRailQubit(0), apm_sample, rng)
        kinds[out.bsm.kind] += 1
        if out.success:
            assert isinstance(out.qubit, DualRailQubit)
            assert logical_target_fidelity(out.state, out.qubit, c0, c1) \
                > 1.0 - 1e-12
        else:
            want = 1 if out.bsm.kind == "fail_zero" else 0
            assert out.collapsed_logical == want
            got = logical_state(out.state, out.qubit)
            assert np.isclose(abs(got[want]), 1.0, atol=1e-12)
    rate = (kinds["bell_plus"] + kinds["bell_minus"]) / n
    assert abs(rate - 0.5) < 4.0 * math.sqrt(0.25 / n)
    assert abs(kinds["fail_zero"] / n - 0.18) < 4.0 * math.sqrt(0.18 * 0.82 / n)
    assert kinds["bell_minus"] > 0  # both corrections exercised


def test_teleport_success_rate_is_input_independent():
    inputs = [qubit_state(1.0, 0.0), qubit_state(0.0, 1.0),
              qubit_state(RT2, RT2), qubit_state(RT2, -RT2)]
    for k, state in enumerate(inputs):
        rng = np.random.default_rng(100 + k)
        n = 2000
        rate = sum(
            teleport_single_to_dual(state, SingleRailQubit(0), apm_sample, rng).success
            for _ in range(n)) / n
        assert abs(rate - 0.5) < 0.045


# ---- teleported gates ----

def test_identity_gate_round_trip():
    rng = np.random.default_rng(14)
    state = qubit_state(0.28, 0.96j)
    for _ in range(60):
        out = apply_single_rail_unitary(state, SingleRailQubit(0), IDENTITY,
                                        apm_sample, rng)
        if out.success:
            assert out.state.n_modes == 1
            assert logical_target_fidelity(out.state, out.qubit, 0.28, 0.96j) \
                > 1.0 - 1e-12


def test_hadamard_gate_creates_equal_superposition_exactly():
    rng = np.random.default_rng(15)
    state = qubit_state(1.0, 0.0)
    succ = 0
    while succ < 25:
        out = apply_single_rail_unitary(state, SingleRailQubit(0), HADAMARD,
                                        apm_sample, rng)
        if out.success:
            succ += 1
            assert logical_target_fidelity(out.state, out.qubit, RT2, RT2) \
                > 1.0 - 1e-12


def test_hadamard_gate_maps_minus_to_one():
    rng = np.random.default_rng(16)
    state = qubit_state(RT2, -RT2)
    succ = 0
    while succ < 25:
        out = apply_single_rail_unitary(state, SingleRailQubit(0), HADAMARD,
                                        apm_sample, rng)
        if out.success:
            succ += 1
            assert logical_target_fidelity(out.state, out.qubit, 0.0, 1.0) \
                > 1.0 - 1e-12


def test_gate_composition_equals_matrix_product():
    rng = np.random.default_rng(17)
    v = np.array([[np.exp(-0.3j), 0.0], [0.0, np.exp(0.7j)]])
    c0, c1 = 0.6, 0.8j
    state = qubit_state(c0, c1)
    target = v @ HADAMARD @ np.array([c0, c1])
    checked = 0
    while checked < 10:
        first = apply_single_rail_unitary(state, SingleRailQubit(0), HADAMARD,
                                          apm_sample, rng)
        if not first.success:
            continue
        second = apply_single_rail_unitary(first.state, first.qubit, v, apm_sample, rng)
        if not second.success:
            continue
        checked += 1
        assert logical_target_fidelity(second.state, second.qubit,
                                       target[0], target[1]) > 1.0 - 1e-10


def test_gate_failure_collapses_output_qubit():
    rng = np.random.default_rng(18)
    state = qubit_state(RT2, RT2)
    seen = set()
    for _ in range(100):
        out = apply_single_rail_unitary(state, SingleRailQubit(0), HADAMARD,
                                        apm_sample, rng)
        if not out.success:
            seen.add(out.collapsed_logical)
            assert isinstance(out.qubit, DualRailQubit)
            got = logical_state(out.state, out.qubit)
            assert np.isclose(abs(got[out.collapsed_logical]), 1.0, atol=1e-12)
    assert seen == {0, 1}


# ---- trial records ----

def test_protocol_trial_record_is_json_serializable_and_deterministic():
    spec = PrepSpec(alpha=0.6, phi=0.785)
    rec1 = run_protocol_trial("prepare", apm_sample, 5, 9, trial_rng(5, 9),
                              spec=spec)
    rec2 = run_protocol_trial("prepare", apm_sample, 5, 9, trial_rng(5, 9),
                              spec=spec)
    assert rec1 == rec2
    assert rec1["seed"] == [5, 9]
    assert rec1["fidelity"] > 1.0 - 1e-12
    assert len(rec1["theta_values"]) == 1
    json.dumps(rec1)
    rec3 = run_protocol_trial("prepare", apm_sample, 5, 10, trial_rng(5, 10),
                              spec=spec)
    assert rec3["theta_values"] != rec1["theta_values"]


def test_gate_trial_record_counts_and_thetas():
    u = np.array([[RT2, RT2], [RT2, -RT2]], dtype=complex)
    succ_thetas, fail_thetas = set(), set()
    for i in range(40):
        rec = run_protocol_trial("gate", apm_sample, 21, i, trial_rng(21, i),
                                 qubit=(1.0, 0.0), u=u)
        json.dumps(rec)
        if rec["success"]:
            assert len(rec["theta_values"]) == 2
            assert rec["fidelity"] > 1.0 - 1e-12
        else:
            assert len(rec["theta_values"]) == 1
            assert rec["collapsed"] in (0, 1)
    rec = run_protocol_trial("teleport", apm_sample, 3, 0, trial_rng(3, 0),
                             qubit=(0.6, 0.8j))
    assert rec["protocol"] == "teleport"
    assert rec["counts"] is not None


def test_trial_records_the_phases_its_apm_returned():
    returned = []

    def fake_apm(state, mode, rng):
        # The analytic posterior, reported with a known phase outcome.
        out = apm_sample(state, mode, rng)
        theta = np.float64(0.25 + len(returned))
        returned.append(float(theta))
        return MeasurementOutcome(value=theta, posterior=out.posterior,
                                  density=out.density)

    rec = run_protocol_trial("prepare", fake_apm, 5, 9, trial_rng(5, 9),
                             spec=PrepSpec(alpha=0.6, phi=0.785))
    assert rec["theta_values"] == returned == [0.25]
    for i in range(40):
        returned.clear()
        rec = run_protocol_trial("gate", fake_apm, 21, i, trial_rng(21, i),
                                 qubit=(1.0, 0.0), u=HADAMARD)
        if rec["success"]:
            break
    assert rec["success"]
    assert rec["theta_values"] == returned == [0.25, 1.25]
    assert all(type(t) is float for t in rec["theta_values"])


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        run_protocol_trial("bogus", apm_sample, 0, 0, trial_rng(0, 0))


# ---- trajectory backend equivalence ----

def test_preparation_measurement_statistics_match_analytic():
    # the phase measured during prepare_arbitrary is uniform for every
    # split ratio; run the measurement stage as a batched ensemble
    from railsim.fock import single_photon
    from railsim.optics import BeamsplitterSpec, beamsplitter

    pulse = make_pulse("flat", dt=1e-3)
    for alpha, seed in ((0.6, 31), (0.95, 33)):
        split = beamsplitter(single_photon(0, 2),
                             BeamsplitterSpec(0, 1, alpha ** 2))
        res = run_dyne_ensemble(split, 0, pulse, FeedbackPolicy.adaptive(),
                                master_seed=seed, n_trials=1000)
        assert ks_uniform(res["theta"], 0.0, 2 * math.pi) < 0.05
        assert res["fidelity"].mean() > 0.99


def test_prepare_trial_with_trajectory_backend_reaches_target():
    apm = partial(trajectory_apm, pulse=make_pulse("flat", dt=1e-3))
    spec = PrepSpec(alpha=0.6, phi=0.785)
    fids = [run_protocol_trial("prepare", apm, 41, i, trial_rng(41, i),
                               spec=spec)["fidelity"]
            for i in range(20)]
    assert min(fids) > 0.98
    assert np.mean(fids) > 0.99


def test_teleport_with_trajectory_backend_end_to_end():
    apm = partial(trajectory_apm, pulse=make_pulse("flat", dt=1e-3))
    state = qubit_state(0.6, 0.8j)
    rate = 0
    for i in range(60):
        out = teleport_single_to_dual(state, SingleRailQubit(0),
                                      apm, trial_rng(51, i))
        if out.success:
            rate += 1
            assert logical_target_fidelity(out.state, out.qubit, 0.6, 0.8j) \
                > 0.99
    assert 15 <= rate <= 45


def _batched_gate_trials(u, c0, c1, pulse, master_seed, n_trials):
    """Replay gate trials in batch with per-trial random streams.

    Consumes each trial's generator in the same order as the scalar
    pipeline (resource measurement normals, one Bell-measurement
    uniform, then success-branch measurement normals), so results are
    bit-identical to per-trial runs.
    """
    policy = FeedbackPolicy.adaptive()
    rngs = [trial_rng(master_seed, i) for i in range(n_trials)]
    noise1 = wiener_increments(n_trials, rngs, pulse)

    bell = dual_rail_bell()
    a0, rest_occs = _reduce_measured_mode(bell, 1)
    res1 = _evolve(np.repeat(a0[None, :, :], n_trials, axis=0), noise1,
                   pulse, policy)

    input_state = qubit_state(c0, c1)
    target = u @ np.array([c0, c1])
    theta1 = res1["theta"]
    theta2, fids, kinds = [], [], []
    phase2 = []  # (trial, state) for success branches
    for i in range(n_trials):
        amps = dict(zip(rest_occs, res1["a_final"][i, 0, :]))
        resource = PureState(bell.n_modes - 1, amps).normalized()
        resource = apply_phase(resource, 0, -float(res1["theta"][i]))
        joint = tensor(input_state, resource)
        bsm, post = bell_measurement_single_rail(
            joint, 0, 1, _FixedUniform(rngs[i].random()))
        kinds.append(bsm.kind)
        if bsm.kind == "bell_minus":
            post = apply_phase(post, 0, math.pi)
        if bsm.kind in ("bell_plus", "bell_minus"):
            rotated = dual_rail_unitary(post, DualRailQubit(0, 1), u)
            phase2.append((i, rotated))

    if phase2:
        stacks, occ_sets = [], None
        noise2 = wiener_increments(len(phase2), (rngs[i] for i, _ in phase2),
                                   pulse)
        for _, st in phase2:
            a0s, occs = _reduce_measured_mode(st, 1)
            stacks.append(a0s)
            assert occ_sets is None or occs == occ_sets
            occ_sets = occs
        res2 = _evolve(np.stack(stacks), noise2, pulse, policy)
        for row, (i, st) in enumerate(phase2):
            amps = dict(zip(occ_sets, res2["a_final"][row, 0, :]))
            final = PureState(st.n_modes - 1, amps).normalized()
            final = apply_phase(final, 0, -float(res2["theta"][row]))
            theta2.append(float(res2["theta"][row]))
            fids.append(logical_target_fidelity(final, SingleRailQubit(0),
                                                target[0], target[1]))
    return np.asarray(theta1), np.asarray(theta2), np.asarray(fids), kinds


def test_batched_replay_matches_scalar_gate_trials():
    pulse = make_pulse("flat", dt=2e-3)
    c0, c1 = 0.6, 0.8j
    apm = partial(trajectory_apm, pulse=pulse)
    u = np.array([[RT2, RT2], [RT2, -RT2]], dtype=complex)
    theta1, theta2, fids, kinds = _batched_gate_trials(
        HADAMARD, c0, c1, pulse, 61, 6)
    got_theta2 = iter(theta2)
    got_fids = iter(fids)
    for i in range(6):
        rec = run_protocol_trial("gate", apm, 61, i, trial_rng(61, i),
                                 qubit=(c0, c1), u=u)
        assert rec["success"] == (kinds[i] in ("bell_plus", "bell_minus"))
        assert np.isclose(rec["theta_values"][0], theta1[i], atol=1e-12)
        if rec["success"]:
            assert np.isclose(rec["theta_values"][1], next(got_theta2),
                              atol=1e-12)
            assert np.isclose(rec["fidelity"], next(got_fids), atol=1e-10)


def test_gate_trajectory_statistics_match_analytic_pipeline():
    pulse = make_pulse("flat", dt=1e-4)
    c0, c1 = 0.6, 0.8j
    theta1, theta2, fids, kinds = _batched_gate_trials(
        HADAMARD, c0, c1, pulse, 71, 1000)
    n_succ = sum(k in ("bell_plus", "bell_minus") for k in kinds)
    # analytic pipeline: success exactly 1/2, both phases uniform,
    # output equal to the rotated input
    assert abs(n_succ / 1000 - 0.5) < 0.05
    assert ks_uniform(theta1, 0.0, 2 * math.pi) < 0.05
    assert ks_uniform(theta2, 0.0, 2 * math.pi) < 0.07
    assert fids.mean() > 0.99
    n_zero = sum(k == "fail_zero" for k in kinds)
    want_zero = abs(c0) ** 2 / 2.0
    assert abs(n_zero / 1000 - want_zero) < 4.0 * math.sqrt(
        want_zero * (1 - want_zero) / 1000)
