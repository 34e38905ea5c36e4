"""Time-domain dyne trajectories: pulses, feedback, and statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import trajectory
from railsim.fock import (OverOccupiedError, PureState, fidelity, fock_state,
                         single_photon, vacuum)
from railsim.optics import BeamsplitterSpec, beamsplitter
from railsim.povm import apm_density
from railsim.runner import trial_rng
from railsim.stats import ks_statistic
from railsim.trajectory import (FeedbackPolicy, make_pulse, run_dyne_ensemble,
                                simulate_dyne)

from current_profile import mean_current_profile
from paper_checks import integrated_quadrature_check
from state_lanes import StateLanes, wiener_increments


def plus_state(phi0: float = 0.0) -> PureState:
    return PureState(1, {(0,): 1.0, (1,): np.exp(1j * phi0)}).normalized()


def split_photon() -> PureState:
    return beamsplitter(single_photon(0, 2), BeamsplitterSpec(0, 1, 0.5))


# ---- pulse grids ----

def test_flat_pulse_cumulative_is_linear():
    p = make_pulse("flat", dt=1e-3)
    assert np.allclose(p.envelope, 1.0, atol=1e-9)
    k = np.arange(p.n_steps)
    assert np.allclose(p.cum_end, (k + 1) * p.dt, atol=1e-9)
    # gamma_k = u / (1 - U_start)
    assert np.allclose(p.decay, 1.0 / (1.0 - k * p.dt), rtol=1e-9)


def test_expdecay_pulse_matches_closed_form():
    rate, dt = 4.0, 1e-3
    p = make_pulse("expdecay:4", dt=dt)
    assert p.kind == "expdecay:4"
    t_end = p.t + dt
    want = (1.0 - np.exp(-rate * t_end)) / (1.0 - math.exp(-rate))
    # left-Riemann sampling biases each step by O(rate*dt)
    assert np.max(np.abs(p.cum_end - want)) < 2.0 * rate * dt


def test_raised_cosine_starts_at_zero():
    p = make_pulse("raised-cosine", dt=1e-3)
    assert p.envelope[0] == 0.0
    assert np.isclose(p.envelope[500], 2.0, atol=1e-2)


def test_pulse_normalization_and_retention():
    for shape in ("flat", "raised-cosine", "expdecay:4", "expdecay:1.5"):
        for dt in (1e-3, 2e-4):
            p = make_pulse(shape, dt=dt)
            # retained steps stop short of U = 1 and keep gamma*dt < 1
            assert p.cum_end[-1] <= 1.0 - 1e-6 + 1e-12
            assert np.all(p.decay * dt < 1.0)
            assert np.all(np.isfinite(p.decay))


def test_unknown_pulse_shape_rejected():
    with pytest.raises(ValueError):
        make_pulse("sawtooth", dt=1e-3)
    with pytest.raises(ValueError):
        make_pulse("flat", dt=0.0)
    for rate in ("inf", "nan", "-inf", "0"):
        with pytest.raises(ValueError, match="finite and positive"):
            make_pulse(f"expdecay:{rate}", dt=1e-3)


# ---- single trajectories ----

def test_record_identities_tie_series_together():
    rng = np.random.default_rng(42)
    p = make_pulse("flat", dt=1e-3)
    cols, post = simulate_dyne(split_photon(), 0, p, FeedbackPolicy.adaptive(),
                               rng)
    i_dt, phases = cols["i_dt"][0], cols["phases"][0]
    assert np.isclose(cols["x"][0], np.sum(i_dt), atol=1e-10)
    s = np.cumsum(i_dt / np.sqrt(p.cum_end))
    assert np.isclose(cols["theta"][0], (s[-1] - math.pi / 2.0) % (2 * math.pi),
                      atol=1e-10)
    # zero-delay feedback: phase at step k is the running integral
    # through step k-1
    assert phases[0] == 0.0
    assert np.allclose(phases[1:], s[:-1], atol=1e-10)
    # reweighted current: i_dt = sqrt(u) * j_dt
    assert np.allclose(i_dt, np.sqrt(p.envelope) * cols["j_dt"][0], atol=1e-12)


def test_posterior_is_normalized_and_drops_measured_mode():
    rng = np.random.default_rng(1)
    p = make_pulse("flat", dt=1e-3)
    cols, post = simulate_dyne(split_photon(), 0, p, FeedbackPolicy.adaptive(),
                               rng)
    assert post.n_modes == 1
    assert np.isclose(post.norm(), 1.0, atol=1e-12)
    assert cols["residual_weight"][0] < 5e-3


def test_trajectory_posterior_matches_phase_povm_conditional():
    p = make_pulse("flat", dt=1e-4)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cols, post = simulate_dyne(split_photon(), 0, p,
                                   FeedbackPolicy.adaptive(), rng,
                                   keep_series=False)
        target = PureState(1, {(0,): np.exp(-1j * cols["theta"][0]),
                               (1,): 1.0}).normalized()
        assert fidelity(post, target) > 0.999


def test_homodyne_policy_keeps_phase_fixed():
    rng = np.random.default_rng(2)
    p = make_pulse("flat", dt=1e-3)
    cols, _ = simulate_dyne(plus_state(), 0, p, FeedbackPolicy.homodyne(0.8),
                            rng)
    assert np.all(cols["phases"] == 0.8)


def test_heterodyne_policy_ramps_phase_linearly():
    rng = np.random.default_rng(3)
    p = make_pulse("flat", dt=1e-3)
    cols, _ = simulate_dyne(plus_state(), 0, p,
                            FeedbackPolicy.heterodyne(50.0, phi0=0.2), rng)
    assert np.allclose(cols["phases"][0], 0.2 + 50.0 * p.t, atol=1e-12)
    assert np.isfinite(cols["x"][0])


def test_feedback_delay_shifts_the_applied_phase():
    rng = np.random.default_rng(4)
    p = make_pulse("flat", dt=1e-3)
    lag = 3
    cols, _ = simulate_dyne(plus_state(), 0, p,
                            FeedbackPolicy.adaptive(loop_delay=lag * p.dt), rng)
    s = np.cumsum(cols["i_dt"][0] / np.sqrt(p.cum_end))
    phases = cols["phases"][0]
    assert np.all(phases[: lag + 1] == 0.0)
    assert np.allclose(phases[lag + 1:], s[: -(lag + 1)], atol=1e-10)


@pytest.mark.parametrize("field", ["loop_delay", "phi0", "ramp"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_policy_rejects_non_finite_fields(field, value):
    kind = "adaptive" if field == "loop_delay" else "heterodyne"
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FeedbackPolicy(kind, **{field: value})


def test_large_delay_warns():
    rng = np.random.default_rng(5)
    p = make_pulse("flat", dt=1e-3)
    with pytest.warns(UserWarning):
        simulate_dyne(plus_state(), 0, p,
                      FeedbackPolicy.adaptive(loop_delay=0.1), rng)


# ---- ensembles ----

def test_ensemble_is_reproducible_and_batch_invariant():
    p = make_pulse("flat", dt=2e-3)
    kw = dict(master_seed=10, n_trials=64)
    a = run_dyne_ensemble(plus_state(), 0, p, FeedbackPolicy.adaptive(), **kw)
    b = run_dyne_ensemble(plus_state(), 0, p, FeedbackPolicy.adaptive(),
                          chunk_size=7, **kw)
    c = run_dyne_ensemble(plus_state(), 0, p, FeedbackPolicy.adaptive(),
                          threads=2, **kw)
    assert np.array_equal(a["theta"], b["theta"])
    assert np.array_equal(a["x"], b["x"])
    assert np.array_equal(a["theta"], c["theta"])
    assert np.array_equal(a["fidelity"], b["fidelity"])


def test_ensemble_is_bit_identical_across_chunk_sizes():
    # n=1100 spans two default chunks, so the 1024 layout is split unevenly
    p = make_pulse("flat", dt=1e-3)
    runs = [run_dyne_ensemble(split_photon(), 0, p, FeedbackPolicy.adaptive(),
                              master_seed=21, n_trials=1100, chunk_size=size)
            for size in (7, 1024, 1100)]
    for res in runs[1:]:
        for field in ("theta", "x", "residual_weight", "fidelity"):
            assert np.array_equal(res[field], runs[0][field])


@pytest.mark.parametrize("state, policy, has_fidelity", [
    (split_photon(), FeedbackPolicy.adaptive(), True),
    (vacuum(1), FeedbackPolicy.adaptive(), False),
    (plus_state(), FeedbackPolicy.homodyne(0.3), False),
], ids=["adaptive-plus-split", "adaptive-vacuum", "homodyne-plus"])
def test_ensemble_fidelity_column_needs_adaptive_and_a_photon_level(
        state, policy, has_fidelity):
    p = make_pulse("flat", dt=1e-2)
    cols = run_dyne_ensemble(state, 0, p, policy, master_seed=2, n_trials=4)
    want = ["theta", "x", "residual_weight"] + ["fidelity"] * has_fidelity
    assert sorted(cols) == sorted(want)
    assert all(len(column) == 4 for column in cols.values())


def test_single_trajectory_equals_ensemble_lane():
    p = make_pulse("flat", dt=1e-3)
    ens = run_dyne_ensemble(split_photon(), 0, p, FeedbackPolicy.adaptive(),
                            master_seed=3, n_trials=5)
    # one schema: the ensemble's kernel columns, each with its lane axis,
    # and under keep_series the per-step series
    shared = set(ens) - {"fidelity"}
    series = {"phases", "i_dt", "j_dt", "dw"}
    for keep_series in (False, True):
        cols, _ = simulate_dyne(split_photon(), 0, p, FeedbackPolicy.adaptive(),
                                trial_rng(3, 2), keep_series=keep_series)
        assert set(cols) == shared | (series if keep_series else set())
        for key in shared:
            assert cols[key].shape == (1,)
            assert cols[key][0] == ens[key][2], key
        for key in series & set(cols):
            assert cols[key].shape == (1, p.n_steps)


def _kernel_runs(a0, noise, pulse):
    """(one-lane result, lane 0 of a batch) of _evolve on ``a0``."""
    policy = FeedbackPolicy.adaptive()
    one = trajectory._evolve(a0[None], noise[:1], pulse, policy)
    batch = trajectory._evolve(np.broadcast_to(a0, (len(noise),) + a0.shape),
                               noise, pulse, policy)
    return one, batch


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 2),
       n_rest=st.integers(1, 3),
       shape=st.sampled_from(["flat", "raised-cosine", "expdecay:4"]),
       dt=st.sampled_from([1e-2, 3e-3]))
def test_one_lane_kernel_equals_batched_lane(seed, levels, n_rest, shape, dt):
    # a lone lane runs the float loop, a batch the array loop
    rng = np.random.default_rng(seed)
    a0 = rng.normal(size=(levels, n_rest)) + 1j * rng.normal(size=(levels, n_rest))
    a0 /= np.linalg.norm(a0)
    pulse = make_pulse(shape, dt=dt)
    noise = rng.normal(size=(3, pulse.n_steps)) * math.sqrt(dt)
    one, batch = _kernel_runs(a0, noise, pulse)
    assert one["theta"][0] == batch["theta"][0]
    assert one["x"][0] == batch["x"][0]
    assert one["residual_weight"][0] == batch["residual_weight"][0]
    assert np.array_equal(one["a_final"][0], batch["a_final"][0])


def test_phase_measurement_runs_the_float_loop(monkeypatch):
    calls = []
    loop = trajectory._one_kraus_lane
    monkeypatch.setattr(trajectory, "_one_kraus_lane",
                        lambda *a: calls.append(1) or loop(*a))
    p = make_pulse("flat", dt=1e-2)
    simulate_dyne(split_photon(), 0, p, FeedbackPolicy.adaptive(),
                  np.random.default_rng(4), keep_series=False)
    assert calls == [1]
    # simulate_dyne's noise is standard_normal(n_steps) * sqrt(dt)
    cols, _ = simulate_dyne(split_photon(), 0, p, FeedbackPolicy.adaptive(),
                            np.random.default_rng(4))
    assert np.array_equal(cols["dw"][0], np.random.default_rng(4).standard_normal(
        p.n_steps) * math.sqrt(p.dt))
    assert calls == [1]  # keep_series runs the array loop


def test_one_lane_divergence_is_reported_like_a_batch():
    pulse = make_pulse("flat", dt=1e-2)
    noise = np.zeros((2, pulse.n_steps))
    noise[:, 5] = np.inf
    a0, _ = trajectory._reduce_measured_mode(split_photon(), 0)
    steps = []
    with np.errstate(all="ignore"):
        for lanes in (1, 2):
            with pytest.raises(trajectory.TrajectoryDivergedError) as err:
                trajectory._evolve(np.broadcast_to(a0, (lanes,) + a0.shape),
                                   noise[:lanes], pulse,
                                   FeedbackPolicy.adaptive())
            steps.append(err.value.step)
    assert steps[0] == steps[1]


def test_adaptive_theta_distribution_matches_analytic_density():
    state = plus_state(0.9)
    dens = apm_density(state, 0)
    p = make_pulse("flat", dt=1e-3)
    res = run_dyne_ensemble(state, 0, p, FeedbackPolicy.adaptive(),
                            master_seed=7, n_trials=2000)
    assert ks_statistic(res["theta"], dens.cdf) < 0.035


def test_posterior_fidelity_degrades_as_dt_grows():
    state = split_photon()
    fids = []
    for dt in (1e-3, 1e-2):
        p = make_pulse("flat", dt=dt)
        res = run_dyne_ensemble(state, 0, p, FeedbackPolicy.adaptive(),
                                master_seed=11, n_trials=300)
        fids.append(res["fidelity"].mean())
    assert fids[0] > 0.99
    assert fids[0] > fids[1]


def test_vacuum_quadrature_statistics():
    p = make_pulse("flat", dt=1e-3)
    res = run_dyne_ensemble(vacuum(1), 0, p, FeedbackPolicy.homodyne(0.3),
                            master_seed=12, n_trials=4000)
    assert abs(res["x"].mean()) < 4.0 / math.sqrt(4000)
    assert abs(res["x"].var() - 1.0) < 4.0 * math.sqrt(2.0 / 4000)


def test_integrated_quadrature_matches_marginal_distribution():
    p = make_pulse("flat", dt=1e-3)
    ks = integrated_quadrature_check(single_photon(0, 1), 0, p, 0.0,
                                     master_seed=13, n_trials=1000)
    assert ks < 0.05


def test_two_photon_input_diverges_loudly_or_is_rejected(monkeypatch):
    # the Kraus form holds at most one photon in the measured mode, so
    # two photons are rejected on every route into the kernel, also from
    # a worker of the fork pool
    p = make_pulse("flat", dt=1e-3)
    two = fock_state((2,))
    policy = FeedbackPolicy.homodyne(0.0)
    with pytest.raises(OverOccupiedError):
        simulate_dyne(two, 0, p, policy, np.random.default_rng(14))
    for extra in ({"threads": 1}, {"threads": 2, "chunk_size": 1}):
        with pytest.raises(OverOccupiedError):
            run_dyne_ensemble(two, 0, p, policy, master_seed=14, n_trials=2,
                              **extra)
    # the full-array oracle runs it and stays finite
    monkeypatch.setattr(trajectory, "_KrausLanes", StateLanes)
    cols, post = simulate_dyne(two, 0, p, policy, np.random.default_rng(14))
    assert np.isfinite(cols["x"][0])
    assert post.n_modes == 0


# ---- kernel forms ----


def _random_rows(rng, batch, levels, n_rest):
    a0 = (rng.normal(size=(batch, levels, n_rest))
          + 1j * rng.normal(size=(batch, levels, n_rest)))
    if levels == 2:
        a0[0, 1] = 0.0  # a lane whose measured mode holds vacuum only
    return a0 / np.sqrt((np.abs(a0) ** 2).sum(axis=(1, 2)))[:, None, None]


POLICIES = {
    "adaptive": FeedbackPolicy.adaptive(),
    "adaptive-delay": FeedbackPolicy.adaptive(loop_delay=3e-3),
    "homodyne": FeedbackPolicy.homodyne(0.4),
    "heterodyne": FeedbackPolicy.heterodyne(30.0, phi0=0.1),
}


@pytest.mark.parametrize("rest_modes", [1, 2, 3])
@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_kraus_form_matches_state_form(monkeypatch, policy, rest_modes):
    # the full-array stepper of the tests, on <=1-photon inputs, is the oracle
    rng = np.random.default_rng(17 + rest_modes)
    p = make_pulse("raised-cosine", dt=1e-3)
    for levels in (1, 2):
        a0 = _random_rows(rng, 5, levels, 2 ** rest_modes)
        noise = rng.standard_normal((5, p.n_steps)) * math.sqrt(p.dt)
        kraus = trajectory._evolve(a0, noise, p, policy, keep_series=True)
        bare = trajectory._evolve(a0, noise, p, policy)
        with monkeypatch.context() as m:
            m.setattr(trajectory, "_KrausLanes", StateLanes)
            ref = trajectory._evolve(a0, noise, p, policy, keep_series=True)
        dtheta = np.angle(np.exp(1j * (kraus["theta"] - ref["theta"])))
        assert np.max(np.abs(dtheta)) < 1e-12
        for field in ("x", "residual_weight", "a_final", "phases", "i_dt",
                      "j_dt"):
            got, want = kraus[field], ref[field]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12, field
        for field in ("theta", "x", "residual_weight", "a_final"):
            assert np.array_equal(bare[field], kraus[field])


@pytest.mark.parametrize("keep_series", [False, True])
@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_shared_a0_equals_broadcast_a0(policy, keep_series):
    rng = np.random.default_rng(23)
    p = make_pulse("raised-cosine", dt=1e-3)
    a0 = _random_rows(rng, 2, 2, 4)[1:]
    noise = rng.standard_normal((6, p.n_steps)) * math.sqrt(p.dt)
    shared = trajectory._evolve(a0, noise, p, policy, keep_series=keep_series)
    tiled = trajectory._evolve(np.broadcast_to(a0, (6,) + a0.shape[1:]), noise,
                               p, policy, keep_series=keep_series)
    fields = ["theta", "x", "residual_weight", "a_final"]
    fields += ["phases", "i_dt", "j_dt"] if keep_series else []
    for field in fields:
        assert np.array_equal(shared[field], tiled[field])


@pytest.mark.parametrize("bounds, block_bytes, policy", [
    ((5, 12), None, FeedbackPolicy.adaptive()),
    ((5, 12), 8 * 7 * 17, FeedbackPolicy.adaptive()),   # blocks of 17 steps
    ((5, 12), 8 * 7 * 17, FeedbackPolicy.homodyne(0.3)),
    ((4, 5), None, FeedbackPolicy.adaptive()),          # the float loop
    ((4, 5), 8 * 30, FeedbackPolicy.homodyne(0.3)),     # one lane in blocks
], ids=["one-block", "blocks", "homodyne-blocks", "one-lane",
        "one-lane-homodyne-blocks"])
@pytest.mark.parametrize("seed", [9, 2**32 + 3])
def test_ensemble_chunk_equals_evolve_on_full_noise(monkeypatch, bounds,
                                                    block_bytes, policy, seed):
    # the chunk draws each lane's stream in blocks of steps; the full
    # draw of the same trials' streams gives the same columns.  A seed of
    # 2**32 or more takes trial_rngs' per-trial fallback.
    p = make_pulse("flat", dt=1e-2)
    a0, _ = trajectory._reduce_measured_mode(split_photon(), 0)
    noise = wiener_increments(bounds[1] - bounds[0],
                              (trial_rng(seed, i) for i in range(*bounds)), p)
    want = trajectory._evolve(a0[None], noise, p, policy)
    if block_bytes is not None:
        monkeypatch.setattr(trajectory, "NOISE_BLOCK_BYTES", block_bytes)
        assert p.n_steps % (block_bytes // (8 * len(noise))) != 0
    got = trajectory._ensemble_chunk(bounds, a0, p, policy, seed)
    for key in ("theta", "x", "residual_weight"):
        assert np.array_equal(got[key], want[key]), key
    assert ("fidelity" in got) == (policy.kind == "adaptive")


def test_one_lane_rerun_reads_the_same_noise(monkeypatch):
    # when the float loop gives up, the array loop reruns the lane on the
    # increments it read, never on a generator that has moved on
    p = make_pulse("flat", dt=1e-2)
    a0, _ = trajectory._reduce_measured_mode(split_photon(), 0)
    want = trajectory._ensemble_chunk((4, 5), a0, p, FeedbackPolicy.adaptive(), 9)
    monkeypatch.setattr(trajectory, "_one_kraus_lane", lambda *a: None)
    got = trajectory._ensemble_chunk((4, 5), a0, p, FeedbackPolicy.adaptive(), 9)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def test_ensemble_memory_does_not_grow_with_the_noise():
    # a 1024-lane chunk at dt=1e-4 would hold 82 MB as one noise array
    pulse = make_pulse("flat", 1e-4)
    tracemalloc.start()
    try:
        run_dyne_ensemble(plus_state(), 0, pulse, FeedbackPolicy.adaptive(),
                          master_seed=3, n_trials=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_mean_current_profile_of_vacuum_is_flat_zero():
    p = make_pulse("expdecay:4", dt=5e-3)
    t, mean_i, stderr = mean_current_profile(vacuum(1), 0, p,
                                             FeedbackPolicy.homodyne(0.0),
                                             master_seed=15, n_trials=3000)
    assert len(t) == p.n_steps
    z = np.abs(mean_i) / stderr
    assert z.max() < 4.5


def test_mean_current_profile_tracks_envelope():
    # E[I(t)] = u(t) * <X(0)> for the equal superposition at phase 0
    p = make_pulse("expdecay:4", dt=2e-3)
    t, mean_i, stderr = mean_current_profile(plus_state(), 0, p,
                                             FeedbackPolicy.homodyne(0.0),
                                             master_seed=16, n_trials=20000)
    z = np.abs(mean_i - p.envelope) / stderr
    assert z.max() < 4.5
