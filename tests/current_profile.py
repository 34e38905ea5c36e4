"""Ensemble mean of the dyne current, rebuilt from the kernel's series.

The library reports no current profile.  The check that the mean
current tracks the pulse envelope sums the per-step current the
trajectory kernel keeps, on the same per-trial streams and chunks as
``run_dyne_ensemble``; chunking bounds the kept series to one chunk.
"""

import numpy as np

from railsim.runner import DEFAULT_CHUNK, chunk_ranges, trial_rng
from railsim.trajectory import _evolve, _reduce_measured_mode

from state_lanes import wiener_increments


def mean_current_profile(state, mode, pulse, policy, master_seed, n_trials):
    """Ensemble mean and standard error of the current I(t_k).

    Returns (t, mean_i, stderr_i).  For a homodyne policy at Phi = 0 and
    an initial state with real <a> = c, the mean approaches 2 c u(t).
    """
    a0, _ = _reduce_measured_mode(state, mode)
    n_steps = pulse.n_steps
    total = np.zeros(n_steps)
    total_sq = np.zeros(n_steps)
    for start, stop in chunk_ranges(n_trials, DEFAULT_CHUNK):
        noise = wiener_increments(stop - start, (trial_rng(master_seed, i)
                                                 for i in range(start, stop)),
                                  pulse)
        tiled = np.broadcast_to(a0, (stop - start,) + a0.shape)
        i_dt = _evolve(tiled, noise, pulse, policy, keep_series=True)["i_dt"]
        total += i_dt.sum(axis=0)
        total_sq += (i_dt * i_dt).sum(axis=0)
    mean_idt = total / n_trials
    var_idt = np.maximum(total_sq / n_trials - mean_idt ** 2, 0.0)
    mean_i = mean_idt / pulse.dt
    stderr_i = np.sqrt(var_idt / n_trials) / pulse.dt
    return pulse.t.copy(), mean_i, stderr_i
