"""Time-domain stochastic simulation of dyne detection on a pulsed mode.

A mode with temporal envelope u(t) (normalized so its integral over the
pulse is 1) leaks into a continuum monitored by a dyne detector with
local-oscillator phase Phi(t).  Discretized with step dt, each step k
applies to the measured mode:

    xbar_k  = <a e^{-i Phi_k} + a+ e^{i Phi_k}>           (normalized state)
    J_k dt  = sqrt(gamma_k) xbar_k dt + dW_k,  dW_k ~ N(0, dt)
    M_k     = 1 - (1/2) gamma_k a+a dt + sqrt(gamma_k) e^{-i Phi_k} a J_k dt

with gamma_k = u_k / (1 - U_k) the instantaneous decay rate.  The
envelope-weighted current is I_k = sqrt(u_k) J_k, which has mean
u(t) <x_Phi> and integrates to the pulse quadrature X = sum I_k dt.
The adaptive feedback policy sets

    Phi_{k+1} = sum_{j<=k} I_j dt / sqrt(U'_j)

(U' evaluated at the end of step j) and the final phase estimate is
Theta = (Phi_end - pi/2) mod 2pi, whose statistics reproduce the
analytic phase POVM of :mod:`railsim.povm` as dt -> 0.

M_k is linear and never raises the photon number, so on a measured mode
holding at most one photon the record fixes the whole state through one
complex number per trajectory (the Kraus form; Wiseman & Killip, PRA 57,
2169 (1998)).  With a_0 = (a0[0], a0[1]) the rows of the initial state
over the other modes, after k steps the unnormalized state is

    (a0[0] + q_k a0[1],  d_k a0[1]),   d_k = prod_{j<k} (1 - gamma_j dt / 2),
    q_{k+1} = q_k + sqrt(gamma_k) d_k e^{-i Phi_k} J_k dt,

and xbar_k needs only q_k, d_k and the Gram matrix of a_0, so a step
costs a few scalar operations per trajectory whatever the size of the
rest of the state.  A measured mode holding two or more photons is
refused with ``OverOccupiedError``.  The time grid is truncated at the
last step with end-of-step U <= 1 - EPS_END, which bounds gamma_k dt < 1
(stability) at the cost of leaving a residual excitation weight of order
u(T) dt that is projected onto vacuum at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .fock import APM_OCCUPATION_TOL, OverOccupiedError, PureState
from .runner import DEFAULT_CHUNK, chunk_ranges, lane_rngs, map_chunks

EPS_END = 1e-6

# Loop delays beyond this fraction of the pulse duration break the
# small-delay assumption behind the adaptive estimator.
DELAY_WARN_FRACTION = 0.05

# The kernel reads its Wiener increments in blocks of about this many
# bytes, so a lane source's buffer does not grow as dt falls.
NOISE_BLOCK_BYTES = 2 << 20


class TrajectoryDivergedError(Exception):
    """State norm became non-finite; dt is too large for the pulse."""

    def __init__(self, step: int):
        super().__init__(f"trajectory diverged at step {step}; reduce dt")
        self.step = step


@dataclass
class PulseShape:
    """Sampled pulse envelope and derived rates on the retained grid.

    ``t`` holds start-of-step times t_k; ``cum_end`` the cumulative
    integral U at the end of step k; ``decay`` the rate gamma_k built
    from the start-of-step U.
    """

    kind: str
    dt: float
    t: np.ndarray
    envelope: np.ndarray
    cum_end: np.ndarray
    decay: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.t)

    @cached_property
    def kernel_tables(self) -> tuple:
        """Per-step lists the dyne kernel reads, built once per pulse:
        (drive 2 sqrt(gamma_k) dt, sqrt(u_k), 1/sqrt(U'_k) or 0 where
        U'_k = 0, and the Kraus form's d_k, d_k^2 and sqrt(gamma_k) d_k);
        d and d^2 run to k = n_steps."""
        sqrt_gamma = np.sqrt(self.decay)
        d = np.concatenate(([1.0], np.cumprod(1.0 - 0.5 * self.decay * self.dt)))
        with np.errstate(divide="ignore"):
            inv_sqrt_cum = np.where(self.cum_end > 0.0,
                                    1.0 / np.sqrt(np.maximum(self.cum_end, 1e-300)),
                                    0.0)
        return ((2.0 * sqrt_gamma * self.dt).tolist(),
                np.sqrt(self.envelope).tolist(), inv_sqrt_cum.tolist(),
                d.tolist(), (d * d).tolist(), (sqrt_gamma * d[:-1]).tolist())


def make_pulse(shape: str, dt: float = 1e-4) -> PulseShape:
    """Sample a named envelope on a step-dt grid over [0, 1].

    ``shape`` is exactly one of "flat", "raised-cosine", "expdecay" (rate
    4) or "expdecay:RATE" (e.g. "expdecay:2.5"); the envelope is
    renormalized so that the left-Riemann cumulative sum reaches exactly
    1 at t = 1.  Steps whose end-of-step cumulative exceeds 1 - EPS_END
    are dropped, keeping the decay rate finite and gamma_k dt < 1
    everywhere.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_total = int(round(1.0 / dt))
    if n_total < 2:
        raise ValueError("grid must have at least two steps")
    t = np.arange(n_total) * dt
    kind = shape.strip().lower()
    name, colon, arg = kind.partition(":")
    if kind == "flat":
        u = np.ones_like(t)
    elif kind in ("raised-cosine", "raised_cosine"):
        u = 1.0 - np.cos(2.0 * math.pi * t)
        kind = "raised-cosine"
    elif name == "expdecay":
        try:
            rate = float(arg) if colon else 4.0
        except ValueError:
            rate = math.nan
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError("--pulse expdecay:RATE needs a finite and positive "
                             f"RATE, got {arg!r}")
        u = rate * np.exp(-rate * t)
        kind = f"expdecay:{rate:g}"
    else:
        raise ValueError(f"unknown pulse shape {shape!r}")
    total = float(np.sum(u) * dt)
    if total <= 0:
        raise ValueError("envelope integrates to zero")
    u = u / total
    cum_end = np.cumsum(u) * dt
    if abs(cum_end[-1] - 1.0) > 1e-9:
        raise ValueError("pulse normalization failed")
    retained = int(np.searchsorted(cum_end, 1.0 - EPS_END, side="right"))
    if retained < 1:
        raise ValueError("no retained steps; dt too coarse for this pulse")
    u = u[:retained]
    t = t[:retained]
    cum_end = cum_end[:retained]
    cum_start = cum_end - u * dt
    decay = u / (1.0 - cum_start)
    if not np.all(np.isfinite(decay)) or np.any(decay * dt >= 1.0):
        raise ValueError("decay rate out of the stable range; reduce dt")
    return PulseShape(kind=kind, dt=dt, t=t, envelope=u, cum_end=cum_end,
                      decay=decay)


@dataclass(frozen=True)
class FeedbackPolicy:
    """Local-oscillator phase policy for the dyne detector.

    kind "homodyne": Phi fixed at phi0.  kind "heterodyne": Phi(t) =
    phi0 + ramp * t.  kind "adaptive": Phi follows the running current
    integral, lagged by ``loop_delay`` time units.
    """

    kind: str
    phi0: float = 0.0
    ramp: float = 0.0
    loop_delay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("adaptive", "homodyne", "heterodyne"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        for name in ("phi0", "ramp", "loop_delay"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.loop_delay < 0:
            raise ValueError("loop_delay must be non-negative")

    @classmethod
    def adaptive(cls, loop_delay: float = 0.0) -> "FeedbackPolicy":
        return cls(kind="adaptive", loop_delay=loop_delay)

    @classmethod
    def homodyne(cls, phi0: float = 0.0) -> "FeedbackPolicy":
        return cls(kind="homodyne", phi0=phi0)

    @classmethod
    def heterodyne(cls, ramp: float, phi0: float = 0.0) -> "FeedbackPolicy":
        return cls(kind="heterodyne", phi0=phi0, ramp=ramp)


def _reduce_measured_mode(state: PureState, mode: int):
    """Factor a state as sum_n |n>_mode (x) row_n over rest occupations.

    Returns (a0, rest_occs): a0 is the (levels, n_rest) coefficient
    matrix of the normalized state; rest_occs the lexicographically
    sorted occupation tuples of the remaining modes.  The rest basis is
    orthonormal, so inner products reduce to plain dot products on rows.
    Rows with two or more photons are dropped when their relative weight
    is at most ``APM_OCCUPATION_TOL``, the analytic APM's tolerance; above
    it they are kept, and the kernel refuses them.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    norm_sq = state.norm_sq()
    if norm_sq == 0:
        raise ValueError("cannot simulate a zero state")
    entries = state.items()
    over = sum(abs(amp) ** 2 for occ, amp in entries if occ[mode] >= 2)
    if over / norm_sq <= APM_OCCUPATION_TOL:
        entries = [(occ, amp) for occ, amp in entries if occ[mode] < 2]
    norm = math.sqrt(norm_sq)
    rest_occs = sorted({occ[:mode] + occ[mode + 1:] for occ, _ in entries})
    index = {rest: j for j, rest in enumerate(rest_occs)}
    levels = max(occ[mode] for occ, _ in entries) + 1
    a0 = np.zeros((levels, len(rest_occs)), dtype=complex)
    for occ, amp in entries:
        a0[occ[mode], index[occ[:mode] + occ[mode + 1:]]] = amp / norm
    return a0, rest_occs


class _LaneNoise:
    """Wiener increments dW ~ N(0, dt) of (lanes, n_steps), drawn one block
    of steps at a time: ``noise[:, k0:k1]`` returns the next block, whose
    row i continues ``standard_normal`` on the i-th of ``rngs``.  Drawn in
    blocks, a stream gives the same values as one draw of all n_steps.
    It is the kernel's one source of noise, for an ensemble chunk's lanes
    and for the one lane of :func:`simulate_dyne` alike.

    Blocks must be read in order, each starting where the last ended.  A
    block reuses the buffer of the last one when it fits, so it is valid
    only until the next is read.
    """

    def __init__(self, rngs, pulse: PulseShape):
        self.draws = [rng.standard_normal for rng in rngs]
        self.shape = (len(self.draws), pulse.n_steps)
        self.size = self.shape[0] * self.shape[1]
        self.scale = math.sqrt(pulse.dt)
        self.drawn = 0
        self.buffer = np.empty((self.shape[0], 0))

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, index):
        lanes, steps = index
        k0, k1, stride = steps.indices(self.shape[1])
        if lanes != slice(None) or stride != 1 or k0 != self.drawn:
            raise IndexError("lane noise is read as whole blocks, in order")
        if self.buffer.shape[1] < k1 - k0:
            self.buffer = np.empty((self.shape[0], k1 - k0))
        block = self.buffer[:, :k1 - k0]
        for draw, row in zip(self.draws, block):
            draw(out=row)
        block *= self.scale
        self.drawn = k1
        return block


class _KrausLanes:
    """Lanes whose measured mode holds at most one photon, in Kraus form.

    Each lane carries p = conj(q_k) as (real, imaginary) on a leading
    axis of two.  The Gram matrix of a0 (g00, g11 and g01 = sum conj(a0[0])
    a0[1]) has one entry per row of ``a0``, which holds either one row
    per lane or one row that all ``lanes`` share; d_k is shared.  One row
    keeps g00 and g11 as Python floats, which give the same bits as
    length-one arrays at a fraction of the cost per step.  A vacuum-only
    mode is the case g01 = g11 = 0.  More than two levels raise
    ``OverOccupiedError``.  ``project(k, cs)`` and ``step(k, cs, jdt)``
    work in buffers allocated here; ``project`` returns two of them,
    valid until its next call.
    """

    def __init__(self, a0, pulse, lanes):
        self.levels = a0.shape[1]
        if self.levels > 2:
            raise OverOccupiedError(f"measured mode holds {self.levels - 1} "
                                    "photons; the dyne kernel takes at most one")
        self.row0 = row0 = a0[:, 0, :]
        self.row1 = row1 = a0[:, 1, :] if self.levels == 2 else np.zeros_like(row0)
        self.g00 = (row0.real ** 2 + row0.imag ** 2).sum(axis=1)
        self.g11 = (row1.real ** 2 + row1.imag ** 2).sum(axis=1)
        if len(a0) == 1:
            self.g00, self.g11 = float(self.g00[0]), float(self.g11[0])
        g01 = (row0.conj() * row1).sum(axis=1)
        self.g01 = np.empty((2, lanes))  # full width: adding a (2, 1) is slower
        self.g01[0], self.g01[1] = g01.real, g01.imag
        self.p = np.zeros((2, lanes))
        *_, self.d, self.d2, self.kick = pulse.kernel_tables
        self.project, self.step = self._steppers(lanes)

    def _steppers(self, lanes):
        """The step as two closures, with the buffers, their row views,
        the tables and the ufuncs bound once rather than looked up on
        every step."""
        p, g00, g11, g01 = self.p, self.g00, self.g11, self.g01
        d, d2, kick = self.d, self.d2, self.kick
        m, t = np.empty((2, lanes)), np.empty((2, lanes))
        (m0, m1), (t0, t1) = m, t
        proj, norm2, w = np.empty(lanes), np.empty(lanes), np.empty(lanes)
        multiply, add = np.multiply, np.add

        def project(k, cs):
            multiply(p, g11, m)
            add(m, g01, m)            # g01 + conj(q) g11
            multiply(m, cs, t)
            add(t0, t1, proj)
            multiply(proj, d[k], proj)
            add(m, g01, m)
            multiply(m, p, m)         # rows sum to 2 Re(q g01) + |q|^2 g11
            add(m0, m1, norm2)
            add(norm2, g00 + d2[k] * g11, norm2)
            return norm2, proj

        def step(k, cs, jdt):
            multiply(jdt, kick[k], w)
            add(p, multiply(w, cs, t), p)

        return project, step

    def rows(self):
        q = self.p[0] - 1j * self.p[1]
        rows = np.stack(np.broadcast_arrays(self.row0 + q[:, None] * self.row1,
                                            self.d[-1] * self.row1), axis=1)
        return rows[:, :self.levels]


def _warn_on_long_loop_delay(policy: FeedbackPolicy, pulse: PulseShape) -> None:
    """Warn when an adaptive loop delay exceeds ``DELAY_WARN_FRACTION`` of
    the pulse; called where a run starts, never in a chunk worker.

    The warning names the package, not a source line, so its text is the
    same from any checkout; this module's registry keeps the default
    filter's show-once.
    """
    if (policy.kind == "adaptive"
            and policy.loop_delay > DELAY_WARN_FRACTION * (pulse.t[-1] + pulse.dt)):
        warnings.warn_explicit(
            "adaptive loop delay is not small compared to the pulse; "
            "the phase estimate will degrade", UserWarning, "railsim", 0,
            registry=globals().setdefault("__warningregistry__", {}))


def _evolve(a0: np.ndarray, noise: np.ndarray, pulse: PulseShape,
            policy: FeedbackPolicy, keep_series: bool = False) -> dict:
    """Run the per-step update for a batch of trajectories; returns columns.

    ``noise`` holds the Wiener increments, shape (batch, n_steps), and
    sets the lane count.  The loop reads it as ``noise[:, k0:k1]``, one
    block of ``NOISE_BLOCK_BYTES // (8 * batch)`` steps at a time in
    order, so it may be an array or a :class:`_LaneNoise` that draws each
    block as it is read.  ``a0`` has shape (batch, levels, n_rest) and
    may differ per lane, or shape (1, levels, n_rest) when all lanes
    share it, which gives the same bits without the per-lane copy.  Every
    lane runs in Kraus form (:class:`_KrausLanes`), a few scalars per
    lane and step; a measured mode with two or more photons (levels > 2)
    raises ``OverOccupiedError``.  All per-step operations are
    elementwise across the batch, so each trajectory's floating point
    path is identical no matter how trials are batched.  A lone adaptive
    lane with no loop delay, the phase measurement of a protocol trial,
    runs the same operations on Python floats (:func:`_one_kraus_lane`)
    on the whole lane, read as one block.  The columns are those of
    :func:`_finish`, plus under ``keep_series`` the per-step ``phases``,
    ``i_dt``, ``j_dt`` and the increments ``dw`` read from ``noise``,
    shape (batch, n_steps).  A loop delay of the whole pulse or more only
    ever reads the initial zero phase, so the delay ring is capped there.
    """
    batch = len(noise)
    n_steps = pulse.n_steps
    dt = pulse.dt
    adaptive = policy.kind == "adaptive"
    lag = round(min(policy.loop_delay / dt, n_steps))

    # J dt = drive * proj / norm2 + dW
    drive, sqrt_u, inv_sqrt_cum = pulse.kernel_tables[:3]
    lanes = _KrausLanes(a0, pulse, batch)

    if batch == 1 and adaptive and lag == 0 and not keep_series:
        # One read of the whole lane serves both loops: a lane source
        # cannot draw the same steps twice.
        noise = noise[:, :n_steps]
        lane = _one_kraus_lane(lanes, noise[0], drive, sqrt_u, inv_sqrt_cum)
        if lane is not None:
            p_re, p_im, s, x = lane
            lanes.p[:, 0] = p_re, p_im
            return _finish(lanes, np.array([s]), np.array([x]), n_steps)

    s_sum = np.zeros(batch)
    x_sum = np.zeros(batch)
    jdt, idt = np.empty(batch), np.empty(batch)
    if adaptive:
        cs = np.empty((2, batch))
        cos0, sin1 = cs
        # With no delay the phase is the running sum itself; it is read
        # (cos, sin, series) before each step adds to it.
        phi = s_sum
        if lag > 0:
            ring = np.zeros((lag + 1, batch))
    else:
        fixed_phase = policy.phi0 + policy.ramp * pulse.t
        fixed_cs = np.stack([np.cos(fixed_phase), np.sin(fixed_phase)])[:, :, None]
    if keep_series:
        ser_phi = np.empty((batch, n_steps))
        ser_idt = np.empty((batch, n_steps))
        ser_jdt = np.empty((batch, n_steps))
        ser_dw = np.empty((batch, n_steps))
    project, step = lanes.project, lanes.step
    cos, sin, multiply, isfinite = np.cos, np.sin, np.multiply, np.isfinite
    block = max(1, NOISE_BLOCK_BYTES // (8 * batch))

    for k0 in range(0, n_steps, block):
        k1 = min(k0 + block, n_steps)
        for k, dw in zip(range(k0, k1), noise[:, k0:k1].T):
            if adaptive:
                cos(phi, cos0)
                sin(phi, sin1)
            else:
                phi = fixed_phase[k]
                cs = fixed_cs[:, k]
            norm2, proj = project(k, cs)
            if k % 512 == 0 and not isfinite(norm2).all():
                raise TrajectoryDivergedError(k)
            multiply(proj, drive[k], jdt)
            jdt /= norm2
            jdt += dw
            step(k, cs, jdt)
            multiply(jdt, sqrt_u[k], idt)
            if keep_series:
                ser_phi[:, k] = phi
                ser_idt[:, k] = idt
                ser_jdt[:, k] = jdt
                ser_dw[:, k] = dw
            x_sum += idt
            idt *= inv_sqrt_cum[k]
            s_sum += idt
            if adaptive and lag > 0:
                ring[k % (lag + 1)] = s_sum
                phi = ring[(k + 1) % (lag + 1)]  # the sum from step k - lag, or 0

    out = _finish(lanes, s_sum, x_sum, n_steps)
    if keep_series:
        out.update(phases=ser_phi, i_dt=ser_idt, j_dt=ser_jdt, dw=ser_dw)
    return out


def _one_kraus_lane(lanes: _KrausLanes, noise: np.ndarray, drive, sqrt_u,
                    inv_sqrt_cum):
    """The adaptive, delay-free step loop of :func:`_evolve` for a single
    Kraus-form lane, on Python floats.

    A one-lane step in numpy costs a dozen array calls for a few scalar
    operations.  This loop does the same IEEE operations in the same
    order (``math.cos``/``math.sin`` are the C library's, as ``np.cos``/
    ``np.sin`` are on float64), so its results equal the array loop's
    bit for bit.  Returns (Re p, Im p, phase sum, current sum) after the
    last step, or None if any value goes non-finite: non-finite values
    reach p or the sums and stay there, and the caller then reruns the
    lane on the array loop, which raises TrajectoryDivergedError.
    """
    g00, g11 = lanes.g00, lanes.g11
    g01_re, g01_im = float(lanes.g01[0, 0]), float(lanes.g01[1, 0])
    cos, sin = math.cos, math.sin
    p_re = p_im = s = x = 0.0
    try:
        for dw, d, d2, kick, drv, su, isc in zip(
                noise.tolist(), lanes.d, lanes.d2, lanes.kick, drive, sqrt_u,
                inv_sqrt_cum):
            c, sn = cos(s), sin(s)
            m_re = p_re * g11 + g01_re         # g01 + conj(q) g11
            m_im = p_im * g11 + g01_im
            proj = (m_re * c + m_im * sn) * d
            norm2 = ((m_re + g01_re) * p_re + (m_im + g01_im) * p_im
                     + (g00 + d2 * g11))
            jdt = proj * drv / norm2 + dw
            w = jdt * kick
            p_re += w * c
            p_im += w * sn
            idt = jdt * su
            x += idt
            s += idt * isc
    except (ValueError, ZeroDivisionError):  # cos(inf), x / 0.0
        return None
    if not all(map(math.isfinite, (p_re, p_im, s, x))):
        return None
    return p_re, p_im, s, x


def _finish(lanes, s_sum: np.ndarray, x_sum: np.ndarray, n_steps: int) -> dict:
    """Columns of stepped ``lanes``: the phase estimate ``theta``, the
    current ``x``, the ``residual_weight`` projected onto vacuum and the
    normalized final rows ``a_final``."""
    rows = lanes.rows()
    norm2 = (rows.real ** 2 + rows.imag ** 2).sum(axis=(1, 2))
    if not np.all(np.isfinite(norm2)) or np.any(norm2 <= 0.0):
        raise TrajectoryDivergedError(n_steps - 1)
    theta = np.mod(s_sum - 0.5 * math.pi, 2.0 * math.pi)
    row0 = rows[:, 0, :]
    w0 = (row0.real ** 2 + row0.imag ** 2).sum(axis=1)
    return {"theta": theta, "x": x_sum, "residual_weight": 1.0 - w0 / norm2,
            "a_final": rows / np.sqrt(norm2)[:, None, None]}


def simulate_dyne(state: PureState, mode: int, pulse: PulseShape,
                  policy: FeedbackPolicy, rng: np.random.Generator,
                  keep_series: bool = True):
    """Simulate one dyne trajectory on ``mode``.

    Returns (columns, posterior).  The columns are those of
    :func:`run_dyne_ensemble` for one lane, each with its lane axis:
    ``theta``, ``x`` and ``residual_weight``, shape (1,), plus under
    ``keep_series`` the per-step ``phases``, ``i_dt``, ``j_dt`` and the
    Wiener increments ``dw``, shape (1, n_steps).  The lane draws its
    noise from ``rng`` as an ensemble lane does (:class:`_LaneNoise`).
    The posterior is the normalized state of the remaining modes after
    the measured mode's truncated-tail excitation is projected onto
    vacuum (the discarded weight is ``residual_weight``).  Raises
    ``OverOccupiedError`` if ``mode`` holds two or more photons.
    """
    a0, rest_occs = _reduce_measured_mode(state, mode)
    _warn_on_long_loop_delay(policy, pulse)
    cols = _evolve(a0[None, :, :], _LaneNoise([rng], pulse), pulse, policy,
                   keep_series=keep_series)
    posterior_amps = dict(zip(rest_occs, cols.pop("a_final")[0, 0, :]))
    posterior = PureState(state.n_modes - 1, posterior_amps).normalized()
    return cols, posterior


def _posterior_fidelity(a0: np.ndarray, a_final: np.ndarray,
                        theta: np.ndarray) -> np.ndarray:
    """Fidelity of each trajectory posterior with the analytic conditional.

    The analytic conditional of the initial state at phase theta has
    rest-basis coefficients a0[0] + e^{-i theta} a0[1].
    """
    target = a0[0][None, :] + np.exp(-1j * theta)[:, None] * a0[1][None, :]
    post = a_final[:, 0, :]
    overlap = (target.conj() * post).sum(axis=1)
    t2 = (target.real ** 2 + target.imag ** 2).sum(axis=1)
    p2 = (post.real ** 2 + post.imag ** 2).sum(axis=1)
    return (overlap.real ** 2 + overlap.imag ** 2) / (t2 * p2)


def _ensemble_chunk(bounds, a0, pulse, policy, master_seed):
    """Columns of the trials in ``bounds``, stepped as one batch.  Each
    lane keeps its trial's own generator for the whole chunk (the only
    caller of ``lane_rngs``), and the kernel draws the lanes' noise from
    them one block of steps at a time (:class:`_LaneNoise`), so memory
    does not grow with n_steps."""
    noise = _LaneNoise(lane_rngs(master_seed, *bounds), pulse)
    cols = _evolve(a0[None], noise, pulse, policy)
    a_final = cols.pop("a_final")
    if policy.kind == "adaptive" and a0.shape[0] >= 2:
        cols["fidelity"] = _posterior_fidelity(a0, a_final, cols["theta"])
    return cols


def run_dyne_ensemble(state: PureState, mode: int, pulse: PulseShape,
                      policy: FeedbackPolicy, master_seed: int, n_trials: int,
                      threads: int | None = None,
                      chunk_size: int = DEFAULT_CHUNK) -> dict:
    """Run ``n_trials`` independent trajectories of the same initial state.

    Returns float-array columns ``theta``, ``x`` and ``residual_weight``
    (see :func:`_finish`).  When the policy is adaptive and ``mode`` has a
    one-photon level, a ``fidelity`` column compares each trajectory's
    posterior with the analytic phase-POVM conditional state at its
    theta.  Trial i draws its noise from the (master_seed, i) stream;
    chunking and reduction order are fixed, so results are bit-identical
    for a given master seed regardless of the worker count.  Raises
    ``OverOccupiedError`` if ``mode`` holds two or more photons.
    """
    a0, _ = _reduce_measured_mode(state, mode)
    _warn_on_long_loop_delay(policy, pulse)
    parts = []
    map_chunks(partial(_ensemble_chunk, a0=a0, pulse=pulse, policy=policy,
                       master_seed=master_seed),
               chunk_ranges(n_trials, chunk_size), parts.append, threads)
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
