"""Mode unitaries, beamsplitters, and rail-qubit helpers.

The reference for two_mode_unitary is a dense matrix oracle: lift the
2x2 mode matrix V to the Fock space by exponentiating
sum_jk log(V)_jk a_j^dag a_k and apply it as a plain matrix-vector
product.  The binomial implementation must agree on every basis state.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from railsim.fock import PureState, TruncationError, fidelity, fock_state
from railsim.optics import (BeamsplitterSpec, DualRailQubit, HADAMARD,
                            PAULI_X, PAULI_Z, SingleRailQubit, beamsplitter,
                            decompose_pair_unitary, dual_rail_bell,
                            dual_rail_unitary, single_rail_bell,
                            two_mode_unitary)

from logical_state import logical_state

RT2 = 1.0 / math.sqrt(2.0)


def dense_two_mode(v: np.ndarray, occ, dim: int = 6) -> dict:
    """Oracle: exact Fock-space action of a 2x2 mode unitary.

    Returns {(k1, k2): amplitude} of U|occ> with U = expm(sum_jk
    log(V)_jk a_j^dag a_k), truncated at ``dim`` levels per mode (exact
    for photon-number-preserving V as long as dim > total photons).
    """
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    raise_ = lower.T
    eye = np.eye(dim)
    create = [np.kron(raise_, eye), np.kron(eye, raise_)]
    destroy = [np.kron(lower, eye), np.kron(eye, lower)]
    gen = sla.logm(np.asarray(v, dtype=complex))
    g = sum(gen[j, k] * create[j] @ destroy[k] for j in range(2) for k in range(2))
    u_fock = sla.expm(g)
    vec = np.zeros(dim * dim, dtype=complex)
    vec[occ[0] * dim + occ[1]] = 1.0
    out = u_fock @ vec
    result = {}
    for k1 in range(dim):
        for k2 in range(dim):
            amp = out[k1 * dim + k2]
            if abs(amp) > 1e-12:
                result[(k1, k2)] = amp
    return result


def random_unitary(rng) -> np.ndarray:
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = h + h.conj().T
    return sla.expm(1j * h)


@pytest.mark.parametrize("occ", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
def test_two_mode_unitary_matches_dense_oracle(occ):
    rng = np.random.default_rng(123)
    for _ in range(5):
        v = random_unitary(rng)
        state = fock_state(occ)
        got = two_mode_unitary(state, 0, 1, v)
        want = dense_two_mode(v, occ)
        for k, amp in want.items():
            assert np.isclose(got.amp(k), amp, atol=1e-10), (occ, k)
        assert np.isclose(got.norm_sq(), 1.0, atol=1e-10)


def test_two_mode_unitary_beyond_caps_raises():
    # |2, 1> fits the caps, but its images reach |3, 0> and |0, 3>.
    rng = np.random.default_rng(123)
    for _ in range(5):
        v = random_unitary(rng)
        with pytest.raises(TruncationError):
            two_mode_unitary(fock_state((2, 1)), 0, 1, v)


def test_beamsplitter_matrix_convention():
    b = BeamsplitterSpec(0, 1, 0.36).matrix()
    s, c = math.sqrt(0.36), math.sqrt(0.64)
    assert np.allclose(b, [[s, c], [c, -s]])
    # self-inverse
    assert np.allclose(b @ b, np.eye(2), atol=1e-12)


def test_beamsplitter_splits_single_photon():
    out = beamsplitter(fock_state((1, 0)), BeamsplitterSpec(0, 1, 0.25))
    assert np.isclose(out.amp((1, 0)), 0.5)
    assert np.isclose(out.amp((0, 1)), math.sqrt(0.75))


def test_hong_ou_mandel_coincidence_cancels():
    out = beamsplitter(fock_state((1, 1)), BeamsplitterSpec(0, 1, 0.5))
    assert out.amp((1, 1)) == 0.0
    assert np.isclose(out.amp((2, 0)), RT2, atol=1e-12)
    assert np.isclose(out.amp((0, 2)), -RT2, atol=1e-12)


def test_beamsplitter_applied_twice_is_identity():
    rng = np.random.default_rng(5)
    state = PureState(2, {(0, 1): 0.3, (1, 0): 0.4j, (1, 1): 0.5,
                          (2, 0): 0.1}).normalized()
    for eta in (0.0, 0.3, 0.5, 1.0):
        spec = BeamsplitterSpec(0, 1, eta)
        back = beamsplitter(beamsplitter(state, spec), spec)
        assert np.isclose(fidelity(back, state), 1.0, atol=1e-12)


def test_two_mode_unitary_inverse_is_conjugate_transpose():
    rng = np.random.default_rng(17)
    v = random_unitary(rng)
    state = PureState(2, {(1, 0): 0.6, (0, 1): 0.8j})
    there = two_mode_unitary(state, 0, 1, v)
    back = two_mode_unitary(there, 0, 1, v.conj().T)
    for occ, amp in state.items():
        assert np.isclose(back.amp(occ), amp, atol=1e-12)


def test_two_mode_unitary_targets_chosen_modes():
    # photon in mode 2 of 3 is untouched by a unitary on (0, 1)
    state = fock_state((0, 0, 1))
    out = two_mode_unitary(state, 0, 1, HADAMARD)
    assert np.isclose(out.amp((0, 0, 1)), 1.0)


def test_non_unitary_matrix_rejected():
    for bad in (2.0, math.nan, math.inf):
        v = np.array([[1.0, 0], [0, bad]])
        # Twice: the unitarity check is memoized and must raise both times.
        for _ in range(2):
            with pytest.raises(ValueError, match="not unitary"):
                two_mode_unitary(fock_state((1, 0)), 0, 1, v)
            with pytest.raises(ValueError, match="not unitary"):
                decompose_pair_unitary(v)


def test_beamsplitter_spec_validation():
    with pytest.raises(ValueError):
        BeamsplitterSpec(0, 0, 0.5)
    with pytest.raises(ValueError):
        BeamsplitterSpec(0, 1, 1.5)


def test_decompose_pair_unitary_reconstructs_exactly():
    rng = np.random.default_rng(31)
    cases = [random_unitary(rng) for _ in range(20)]
    cases += [HADAMARD, np.eye(2), PAULI_X, PAULI_Z,
              np.diag([np.exp(0.4j), np.exp(-1.1j)])]
    for m in cases:
        g0, g1, eta, b0, b1 = decompose_pair_unitary(m)
        rebuilt = (np.diag([np.exp(1j * b0), np.exp(1j * b1)])
                   @ BeamsplitterSpec(0, 1, eta).matrix()
                   @ np.diag([np.exp(1j * g0), np.exp(1j * g1)]))
        assert np.allclose(rebuilt, m, atol=1e-10)


def test_dual_rail_unitary_acts_as_logical_matrix():
    rng = np.random.default_rng(77)
    q = DualRailQubit(0, 1)
    for _ in range(20):
        v = random_unitary(rng)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        state = PureState(2, {(0, 1): c[0], (1, 0): c[1]})
        out = dual_rail_unitary(state, q, v)
        got = logical_state(out, q)
        assert np.allclose(got, v @ c, atol=1e-10)


def test_dual_rail_hadamard_on_logical_zero():
    q = DualRailQubit(0, 1)
    state = fock_state((0, 1))  # logical 0
    out = dual_rail_unitary(state, q, HADAMARD)
    got = logical_state(out, q)
    assert np.allclose(got, [RT2, RT2], atol=1e-12)


def test_dual_rail_pauli_x_swaps_rails():
    q = DualRailQubit(0, 1)
    out = dual_rail_unitary(fock_state((0, 1)), q, PAULI_X)
    assert np.isclose(abs(out.amp((1, 0))), 1.0, atol=1e-12)


def test_dual_rail_unitary_spectator_modes_untouched():
    q = DualRailQubit(1, 2)
    state = PureState(3, {(1, 0, 1): 1.0})
    out = dual_rail_unitary(state, q, PAULI_X)
    assert np.isclose(abs(out.amp((1, 1, 0))), 1.0, atol=1e-12)


def test_single_rail_bell_amplitudes():
    bell = single_rail_bell()
    assert np.isclose(bell.amp((0, 1)), RT2)
    assert np.isclose(bell.amp((1, 0)), RT2)


def test_single_rail_bell_equals_split_photon():
    split = beamsplitter(fock_state((1, 0)), BeamsplitterSpec(0, 1, 0.5))
    assert np.isclose(fidelity(split, single_rail_bell()), 1.0, atol=1e-12)


def test_dual_rail_bell_amplitudes():
    bell = dual_rail_bell()
    assert bell.n_modes == 4
    assert np.isclose(bell.amp((0, 1, 1, 0)), RT2)
    assert np.isclose(bell.amp((1, 0, 0, 1)), RT2)


def test_logical_state_single_rail():
    state = PureState(1, {(0,): 0.6, (1,): 0.8})
    got = logical_state(state, SingleRailQubit(0))
    assert np.allclose(got, [0.6, 0.8])
