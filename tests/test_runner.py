"""Per-trial seeding against trial_rng, and chunks handed over in order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim.runner import (chunk_ranges, lane_rngs, map_chunks, trial_rng,
                            trial_rngs)


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.just(0), st.just(2**32 - 1), st.just(2**32),
                      st.integers(0, 2**33)),
       start=st.one_of(st.integers(0, 3000), st.integers(2**32 - 40, 2**32 + 2)),
       n=st.integers(0, 48))
def test_trial_rngs_reproduce_trial_rng(seed, start, n):
    # seed 0 coerces to one entropy word, as every other seed below 2**32
    # does; a seed or an index of 2**32 or more takes the fallback.
    # trial_rngs reseeds one generator, so each is drawn from as it comes;
    # the generators of lane_rngs are distinct: all are held, then drawn
    # from last first.
    rngs, drawn = [], []
    for rng in trial_rngs(seed, start, start + n):
        rngs.append(rng)
        drawn.append((rng.random(3), rng.standard_normal(5)))
    assert all(rng is rngs[0] for rng in rngs)
    lanes = lane_rngs(seed, start, start + n)
    assert len({id(rng) for rng in lanes}) == len(lanes) == n
    held = [(rng.random(3), rng.standard_normal(5)) for rng in lanes[::-1]][::-1]
    for i, got, lane in zip(range(start, start + n), drawn, held, strict=True):
        rng = trial_rng(seed, i)
        for one, held_one, want in zip(got, lane, (rng.random(3),
                                                   rng.standard_normal(5))):
            assert np.array_equal(one, want) and np.array_equal(held_one, want)


def test_map_chunks_consumes_each_chunk_before_the_next_runs():
    events = []

    def fn(bounds):
        events.append(("run", bounds))
        return bounds

    map_chunks(fn, chunk_ranges(7, 3),
               lambda part: events.append(("use", part)), 1)
    assert events == [(kind, bounds) for bounds in ((0, 3), (3, 6), (6, 7))
                      for kind in ("run", "use")]
