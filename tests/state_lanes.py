"""The dyne kernel's oracles: the step on the full amplitude array, and
the Wiener increments as one full array.

``railsim.trajectory._evolve`` steps every lane in Kraus form, one
complex coefficient per lane.  ``StateLanes`` applies M_k explicitly to
the whole (batch, levels, n_rest) array instead.  It has the
constructor, ``project``, ``step`` and ``rows`` of
``trajectory._KrausLanes``, so a test can patch it in as ``_KrausLanes``
and compare the two forms on the same noise.  It accepts any number of
levels.  ``wiener_increments`` draws each lane's whole stream at once,
where the library's lane source draws it in blocks of steps.
"""

import math

import numpy as np


def wiener_increments(lanes: int, rngs, pulse) -> np.ndarray:
    """Wiener increments dW ~ N(0, dt), shape (lanes, n_steps); lane i
    draws ``standard_normal(n_steps)`` from the i-th of ``rngs``, an
    iterable that may make each generator as it is reached."""
    noise = np.empty((lanes, pulse.n_steps))
    for rng, row in zip(rngs, noise):
        rng.standard_normal(out=row)
    noise *= math.sqrt(pulse.dt)
    return noise


class StateLanes:
    """Lanes of any occupation, stepped on the full amplitude array.

    Explicit application of M_k with the previous step's normalization
    folded in, so the array stays near unit norm.  ``project`` keeps the
    norm and phase factor that the following ``step`` reuses.
    """

    def __init__(self, a0, pulse, lanes):
        self.a = np.array(np.broadcast_to(a0, (lanes,) + a0.shape[1:]),
                          dtype=complex)
        self.n_arr = np.arange(a0.shape[1], dtype=float)
        self.raise_w = np.sqrt(self.n_arr[1:])  # sqrt(n+1) couples |n+1> -> |n>
        self.sqrt_gamma = np.sqrt(pulse.decay)
        self.half_gamma_dt = 0.5 * pulse.decay * pulse.dt

    def project(self, k, cs):
        a = self.a
        self.norm2 = (a.real ** 2 + a.imag ** 2).sum(axis=(1, 2))
        amean = np.zeros(len(a), dtype=complex)
        for n in range(len(self.raise_w)):
            amean += self.raise_w[n] * (a[:, n, :].conj() * a[:, n + 1, :]).sum(axis=1)
        self.eiph = cs[0] - 1j * cs[1]
        return self.norm2, (self.eiph * amean).real

    def step(self, k, cs, jdt):
        a = self.a
        coupling = (self.sqrt_gamma[k] * jdt) * self.eiph
        upper = a[:, 1:, :] * self.raise_w[None, :, None]
        a *= (1.0 - self.half_gamma_dt[k] * self.n_arr)[None, :, None]
        a[:, :-1, :] += coupling[:, None, None] * upper
        a *= (1.0 / np.sqrt(self.norm2))[:, None, None]

    def rows(self):
        return self.a
