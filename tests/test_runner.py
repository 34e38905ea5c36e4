"""Per-trial seeding: the vectorized chunk streams against trial_rng."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim.runner import trial_rng, trial_rngs


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.just(0), st.just(2**32 - 1), st.just(2**32),
                      st.integers(0, 2**33)),
       start=st.one_of(st.integers(0, 3000), st.integers(2**32 - 40, 2**32 + 2)),
       n=st.integers(0, 48))
def test_trial_rngs_reproduce_trial_rng(seed, start, n):
    # seed 0 coerces to one entropy word, as every other seed below 2**32
    # does; a seed or an index of 2**32 or more takes the fallback
    drawn = [(rng.random(3), rng.standard_normal(5))
             for rng in trial_rngs(seed, start, start + n)]
    assert len(drawn) == n
    for i, (uniform, normal) in enumerate(drawn, start):
        rng = trial_rng(seed, i)
        assert np.array_equal(uniform, rng.random(3))
        assert np.array_equal(normal, rng.standard_normal(5))
