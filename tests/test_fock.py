"""Sparse Fock-state container and elementary operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import fock
from railsim.fock import (PureState, TruncationError, apply_phase, fidelity,
                          fock_state, inner, project_mode, single_photon,
                          tensor, vacuum)


def test_basis_state_roundtrip():
    st_ = fock_state((1, 0))
    assert st_.n_modes == 2
    assert st_.amp((1, 0)) == 1.0
    assert st_.amp((0, 1)) == 0.0
    assert np.isclose(st_.norm_sq(), 1.0)


class _ListKeys(dict):
    """Amplitudes whose occupations come back as lists, which the
    validation memo cannot key on."""

    def items(self):
        return [(list(occ), amp) for occ, amp in super().items()]


# Each key below is validated twice with tuple occupations (the second
# call hits the memo wherever the first stored a result) and once with
# list occupations (the unmemoized path).
KEY_FORMS = (dict, dict, _ListKeys)


def test_occupation_cap_rejected():
    with pytest.raises(TruncationError):
        fock_state((fock.N_MAX + 1,))
    for form in KEY_FORMS:
        with pytest.raises(TruncationError):
            PureState(1, form({(fock.N_MAX + 1,): 1.0}))


def test_total_photon_cap_rejected():
    for form in KEY_FORMS:
        with pytest.raises(TruncationError):
            PureState(3, form({(2, 2, 1): 1.0}))


def test_negative_occupation_rejected():
    for form in KEY_FORMS:
        with pytest.raises(ValueError, match="negative"):
            PureState(1, form({(-1,): 1.0}))


def test_wrong_occupation_length_rejected():
    for form in KEY_FORMS:
        with pytest.raises(ValueError, match="wrong length"):
            PureState(2, form({(1,): 1.0}))


def test_cancelled_amplitudes_prune_before_cap_check():
    # amplitudes below the pruning floor must not trip the caps even if
    # their occupations would violate them
    for form in KEY_FORMS:
        st_ = PureState(1, form({(0,): 1.0, (4,): 1e-16}))
        assert st_.amp((4,)) == 0.0
        assert st_.amp((0,)) == 1.0
        # The memo holds the key's cap decision, not the pruning.
        with pytest.raises(TruncationError):
            PureState(1, form({(4,): 1.0}))


def test_validation_memo_is_bounded():
    # Over-cap keys at negligible amplitude are memoized, then pruned.
    n = fock._OCC_MEMO_SIZE + 10
    st_ = PureState(1, {(k,): 1.0 if k <= fock.N_MAX else 1e-16
                        for k in range(n)})
    assert sorted(st_.amplitudes) == [(k,) for k in range(fock.N_MAX + 1)]
    assert ((n - 1,), 1) in fock._OCC_MEMO
    assert len(fock._OCC_MEMO) <= fock._OCC_MEMO_SIZE


def test_normalized_and_scaled():
    st_ = PureState(1, {(0,): 3.0, (1,): 4.0})
    n = st_.normalized()
    assert np.isclose(n.norm(), 1.0)
    assert np.isclose(abs(n.amp((0,))), 0.6)
    doubled = st_.scaled(2.0)
    assert np.isclose(doubled.norm(), 10.0)


def test_zero_state_cannot_normalize():
    with pytest.raises(ValueError):
        PureState(1, {}).normalized()


def test_tensor_appends_modes():
    joint = tensor(single_photon(0, 1), vacuum(2))
    assert joint.n_modes == 3
    assert joint.amp((1, 0, 0)) == 1.0


def test_tensor_beyond_total_cap_raises():
    # Each factor is within the caps; their 5 photons exceed N_TOTAL_MAX.
    with pytest.raises(TruncationError, match="N_TOTAL_MAX=4"):
        tensor(fock_state((2, 1)), fock_state((2,)))


def test_inner_is_conjugate_linear_in_first_argument():
    a = PureState(1, {(0,): 1.0 + 1.0j})
    b = PureState(1, {(0,): 2.0})
    assert np.isclose(inner(a, b), (1.0 - 1.0j) * 2.0)
    assert np.isclose(inner(a.scaled(1j), b), inner(a, b) * (-1j))


def test_inner_orthogonal_occupations():
    assert inner(fock_state((1, 0)), fock_state((0, 1))) == 0.0


def test_fidelity_ignores_global_phase_and_scale():
    a = PureState(1, {(0,): 1.0, (1,): 1.0})
    b = a.scaled(0.3j * np.exp(0.7j))
    assert np.isclose(fidelity(a, b), 1.0)


def test_fidelity_orthogonal_is_zero():
    assert fidelity(fock_state((0,)), fock_state((1,))) == 0.0


def test_apply_phase_multiplies_by_occupation():
    st_ = PureState(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0}).normalized()
    out = apply_phase(st_, 0, 0.5)
    for n in range(3):
        want = st_.amp((n,)) * np.exp(1j * 0.5 * n)
        assert np.isclose(out.amp((n,)), want)


def test_apply_phase_other_modes_untouched():
    st_ = fock_state((0, 1))
    out = apply_phase(st_, 0, 1.3)
    assert out.amp((0, 1)) == st_.amp((0, 1))


def test_project_mode_weight_and_posterior():
    # (|0,1> + |1,0>)/sqrt(2), bra (1, 1)/sqrt(2) on mode 0
    st_ = PureState(2, {(0, 1): 1.0, (1, 0): 1.0}).normalized()
    bra = np.array([1.0, 1.0]) / math.sqrt(2.0)
    weight, post = project_mode(st_, 0, bra)
    assert np.isclose(weight, 0.5)
    assert post.n_modes == 1
    # posterior (|1> + |0>)/sqrt(2) up to normalization
    assert np.isclose(abs(post.amp((0,))), 1 / math.sqrt(2))
    assert np.isclose(abs(post.amp((1,))), 1 / math.sqrt(2))


def test_project_mode_applies_bra_as_given():
    st_ = PureState(1, {(0,): 1.0, (1,): 1.0}).normalized()
    _, post_plus = project_mode(tensor(st_, vacuum(1)), 0, [1.0, 1.0])
    _, post_i = project_mode(tensor(st_, vacuum(1)), 0, [1.0, -1.0j])
    assert np.isclose(abs(post_plus.amp((0,))), 1.0)
    assert np.isclose(abs(post_i.amp((0,))), 1.0)


def test_project_mode_vanishing_weight_raises():
    with pytest.raises(ValueError):
        project_mode(fock_state((0,)), 0, [0.0, 1.0])


@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=3))
@settings(max_examples=50, deadline=None)
def test_norm_matches_dense_vector(amps):
    occs = [(0,), (1,), (2,)][: len(amps)]
    mapping = {occ: a for occ, a in zip(occs, amps)}
    dense = np.array(amps)
    if np.linalg.norm(dense) < 1e-6:
        return
    st_ = PureState(1, mapping)
    assert np.isclose(st_.norm(), np.linalg.norm(dense), rtol=1e-12, atol=1e-12)


@given(st.integers(0, 2), st.floats(-10, 10))
@settings(max_examples=30, deadline=None)
def test_apply_phase_preserves_norm(n, delta):
    st_ = fock_state((n,))
    assert np.isclose(apply_phase(st_, 0, delta).norm(), 1.0)
