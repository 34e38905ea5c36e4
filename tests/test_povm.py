"""Analytic measurement distributions, sampling, and posteriors."""

import copy
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim.fock import (PureState, fidelity, fock_state, project_mode,
                         single_photon, vacuum)
from railsim.optics import BeamsplitterSpec, beamsplitter
from railsim.povm import (ApmDensity, OverOccupiedError, _apm_overlap, _apm_pdf,
                          apm_density, apm_sample, homodyne_density,
                          homodyne_sample, make_grid, photon_count, quad_psi)

import dict_ops
from paper_checks import apm_completeness


def plus_state(phi0: float = 0.0) -> PureState:
    return PureState(1, {(0,): 1.0, (1,): np.exp(1j * phi0)}).normalized()


def split_photon() -> PureState:
    return beamsplitter(single_photon(0, 2), BeamsplitterSpec(0, 1, 0.5))


# ---- phase POVM ----

def test_completeness_resolves_identity():
    total = apm_completeness(4096)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-10


def test_phase_density_of_plus_state():
    dens = apm_density(plus_state(), 0)
    assert np.isclose(dens.z, 0.5)
    assert np.isclose(dens(0.0), 1.0 / math.pi)
    assert np.isclose(dens(math.pi), 0.0, atol=1e-15)


def test_phase_density_peak_follows_superposition_phase():
    phi0 = 1.234
    dens = apm_density(plus_state(phi0), 0)
    grid = np.linspace(0, 2 * math.pi, 20001)
    assert np.isclose(grid[np.argmax(dens(grid))], phi0, atol=1e-3)


def test_entangled_mode_has_uniform_phase_marginal():
    # the split photon's measured mode carries no phase coherence
    dens = apm_density(split_photon(), 0)
    assert abs(dens.z) < 1e-14


def test_phase_density_normalizes_and_cdf_consistent():
    for state in (plus_state(0.7), split_photon(),
                  PureState(1, {(0,): 0.9, (1,): 0.3j}).normalized()):
        dens = apm_density(state, 0)
        grid = np.linspace(0, 2 * math.pi, 4097)
        assert np.isclose(np.trapezoid(dens(grid), grid), 1.0, atol=1e-9)
        assert np.isclose(dens.cdf(2 * math.pi), 1.0, atol=1e-12)
        assert np.isclose(dens.cdf(0.0), 0.0, atol=1e-12)
        # cdf derivative equals density
        mid = grid[1:-1]
        h = grid[1] - grid[0]
        deriv = (dens.cdf(mid + h) - dens.cdf(mid - h)) / (2 * h)
        assert np.allclose(deriv, dens(mid), atol=1e-6)


def test_overlap_bound_half():
    # |z| = |<rho_0|rho_1>| <= 1/2 for any normalized input
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = PureState(1, {(0,): c[0], (1,): c[1]}).normalized()
        assert abs(apm_density(state, 0).z) <= 0.5 + 1e-12


def test_two_photon_weight_rejected():
    with pytest.raises(OverOccupiedError):
        apm_density(fock_state((2,)), 0)
    mixed = PureState(1, {(0,): 1.0, (2,): 0.1}).normalized()
    with pytest.raises(OverOccupiedError):
        apm_density(mixed, 0)


def test_phase_sample_posterior_keeps_rest_amplitudes():
    rng = np.random.default_rng(11)
    state = split_photon()
    out = apm_sample(state, 0, rng)
    theta = out.value
    target = PureState(1, {(0,): np.exp(-1j * theta), (1,): 1.0}).normalized()
    assert np.isclose(fidelity(out.posterior, target), 1.0, atol=1e-12)
    assert 0.0 <= theta < 2 * math.pi
    # The sampler's scalar density is the array density's float exactly.
    for state in (state, plus_state(0.9), plus_state(4.0)):
        for _ in range(50):
            out = apm_sample(state, 0, rng)
            assert out.density == float(apm_density(state, 0)(out.value))


@settings(max_examples=1000, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.0, 2 * math.pi, exclude_max=True),
       st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_scalar_phase_density_equals_array_density(r, arg, theta):
    # |z| <= 1/2 covers every APM input; apm_density returns a numpy z.
    z = r * complex(math.cos(arg), math.sin(arg))
    assert _apm_pdf(z, theta) == float(ApmDensity(np.complex128(z))(theta))


@settings(max_examples=300, deadline=None)
@given(dict_ops.states())
def test_apm_overlap_equals_reference(state):
    for mode in range(state.n_modes):
        try:
            want = dict_ops.apm_overlap(state, mode)
        except OverOccupiedError:
            with pytest.raises(OverOccupiedError):
                _apm_overlap(state, mode)
            continue
        dens = apm_density(state, mode)
        assert type(dens.z) is type(want)
        assert dens.z == want
        assert dens.max_density == ApmDensity(want).max_density


def test_phase_sample_mean_direction_estimates_overlap():
    rng = np.random.default_rng(4)
    state = plus_state(0.9)
    dens = apm_density(state, 0)
    n = 20000
    thetas = np.array([apm_sample(state, 0, rng).value for _ in range(n)])
    emp = np.mean(np.exp(1j * thetas))
    # E[e^{i theta}] = z; components have variance <= 1/2
    assert abs(emp - dens.z) < 4.0 * math.sqrt(1.0 / n)


def test_single_mode_phase_sample_has_scalar_posterior():
    rng = np.random.default_rng(8)
    out = apm_sample(plus_state(), 0, rng)
    assert out.posterior.n_modes == 0
    assert np.isclose(out.posterior.norm(), 1.0)


# ---- quadrature grid and homodyne ----

def test_quad_psi_orthonormal_on_grid():
    grid = make_grid(4)
    for m in range(5):
        for n in range(5):
            ip = np.trapezoid(grid.psi[m] * grid.psi[n], grid.x)
            assert np.isclose(ip, 1.0 if m == n else 0.0, atol=1e-6)


def test_quad_psi_vacuum_is_unit_variance_gaussian():
    x = np.linspace(-8, 8, 4001)
    psi0 = quad_psi(0, x)[0]
    assert np.allclose(psi0, (2 * math.pi) ** (-0.25) * np.exp(-x * x / 4.0))
    assert np.isclose(np.trapezoid(x * x * psi0 ** 2, x), 1.0, atol=1e-9)


def test_split_photon_quadrature_density_closed_form():
    dens = homodyne_density(split_photon(), 0, 0.0)
    x, pdf = dens.x, dens.pdf
    want = np.exp(-x * x / 2.0) * (1.0 + x * x) / (2.0 * math.sqrt(2 * math.pi))
    assert np.allclose(pdf, want, atol=1e-12)


def test_quadrature_density_is_phase_covariant_for_fock_states():
    # number states have phase-independent marginals
    p0 = homodyne_density(single_photon(0, 1), 0, 0.0).pdf
    p1 = homodyne_density(single_photon(0, 1), 0, 1.3).pdf
    assert np.allclose(p0, p1, atol=1e-12)


def test_homodyne_cdf_total_weight():
    cum = homodyne_density(plus_state(), 0, 0.0).cum
    assert np.isclose(cum[-1], 1.0, atol=1e-6)
    assert np.all(np.diff(cum) >= 0.0)


def test_homodyne_sample_mean_matches_quadrature_expectation():
    # homodyne_sample takes its value from one draw of the state's
    # density, so the draws below are the values it returns; a copy of
    # the generator checks that on a prefix.
    rng = np.random.default_rng(6)
    n = 20000
    for phi in (0.0, 1.1):
        state = plus_state()
        check_rng = copy.deepcopy(rng)
        dens = homodyne_density(state, 0, phi)
        xs = np.array([dens.draw(rng)[0] for _ in range(n)])
        prefix = [homodyne_sample(state, 0, phi, check_rng).value
                  for _ in range(100)]
        assert prefix == xs[:100].tolist()
        want = math.cos(phi)  # 2 Re(<a> e^{-i phi}) with <a> = 1/2
        sigma = xs.std() / math.sqrt(n)
        assert abs(xs.mean() - want) < 4.0 * sigma


def test_homodyne_posterior_of_split_photon():
    rng = np.random.default_rng(9)
    out = homodyne_sample(split_photon(), 0, 0.0, rng)
    x = out.value
    target = PureState(1, {(0,): x, (1,): 1.0}).normalized()
    assert np.isclose(fidelity(out.posterior, target), 1.0, atol=1e-10)


def test_homodyne_second_moment_of_single_photon():
    # <1| X^2 |1> = 3 for unit vacuum variance
    dens = homodyne_density(single_photon(0, 1), 0, 0.0)
    x, pdf = dens.x, dens.pdf
    assert np.isclose(np.trapezoid(x * x * pdf, x), 3.0, atol=1e-6)


# ---- photon counting ----

def test_count_vacuum_is_all_zero():
    rng = np.random.default_rng(0)
    out = photon_count(vacuum(3), (0, 1, 2), rng)
    assert out.value == (0, 0, 0)
    assert np.isclose(out.density, 1.0)
    assert out.posterior.n_modes == 0


def test_count_interfered_photon_pair_never_coincides():
    rng = np.random.default_rng(1)
    state = beamsplitter(fock_state((1, 1)), BeamsplitterSpec(0, 1, 0.5))
    seen = set()
    for _ in range(200):
        out = photon_count(state, (0, 1), rng)
        seen.add(out.value)
        assert np.isclose(out.density, 0.5)
    assert seen == {(2, 0), (0, 2)}


def test_count_subset_of_modes_conditions_the_rest():
    rng = np.random.default_rng(2)
    state = PureState(2, {(0, 1): 0.6, (1, 0): 0.8})
    counts = {0: 0, 1: 0}
    for _ in range(500):
        out = photon_count(state, (0,), rng)
        counts[out.value[0]] += 1
        want = (0, 1) if out.value[0] == 0 else (0,)
        assert out.posterior.n_modes == 1
        occ = (1,) if out.value[0] == 0 else (0,)
        assert np.isclose(abs(out.posterior.amp(occ)), 1.0)
    assert abs(counts[0] / 500 - 0.36) < 0.1


def test_count_probabilities_reproduce_born_rule():
    rng = np.random.default_rng(5)
    state = beamsplitter(single_photon(0, 2), BeamsplitterSpec(0, 1, 0.3))
    n = 4000
    ones = sum(photon_count(state, (0, 1), rng).value[0] for _ in range(n))
    # mode 0 keeps the photon with probability eta
    assert abs(ones / n - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / n)


@settings(max_examples=300, deadline=None)
@given(dict_ops.states(), st.floats(0.0, 1.0, exclude_max=True))
def test_photon_count_equals_reference(state, u):
    rng = SimpleNamespace(random=lambda: u)
    for k in range(1, state.n_modes + 1):
        for modes in itertools.combinations(range(state.n_modes), k):
            out = photon_count(state, modes, rng)
            want = dict_ops.photon_count(state, modes, rng)
            assert out.value == want.value
            assert out.density == want.density
            assert out.posterior.n_modes == want.posterior.n_modes
            assert list(out.posterior.items()) == list(want.posterior.items())


def test_count_posterior_equals_chained_one_hot_projections():
    # every outcome, chosen by a fixed uniform at the middle of its slice
    # of the cumulative distribution
    rng = np.random.default_rng(12)
    amps = {occ: complex(*rng.normal(size=2))
            for occ in itertools.product(range(3), repeat=3) if sum(occ) <= 4}
    state = PureState(3, amps)  # unnormalized on purpose
    total = state.norm_sq()
    for modes in ((0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)):
        probs = {}
        for occ, amp in state.items():
            key = tuple(occ[m] for m in modes)
            probs[key] = probs.get(key, 0.0) + abs(amp) ** 2 / total
        acc = 0.0
        for counts, p in sorted(probs.items()):
            u = acc + p / 2
            acc += p
            out = photon_count(state, modes, SimpleNamespace(random=lambda: u))
            assert out.value == counts
            want = state
            for m, c in sorted(zip(modes, counts), reverse=True):
                _, want = project_mode(want, m, [float(n == c) for n in range(3)])
            assert out.posterior.n_modes == want.n_modes == 3 - len(modes)
            for occ in set(out.posterior.amplitudes) | set(want.amplitudes):
                assert abs(out.posterior.amp(occ) - want.amp(occ)) <= 1e-12
