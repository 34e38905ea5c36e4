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
stepped explicitly on the full amplitude array, with per-step
renormalization.  The time grid is truncated at the last step with
end-of-step U <= 1 - EPS_END, which bounds gamma_k dt < 1 (stability) at
the cost of leaving a residual excitation weight of order u(T) dt that
is projected onto vacuum at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fock import PureState
from .runner import DEFAULT_CHUNK, chunk_ranges, map_chunks, trial_rng

EPS_END = 1e-6

# Loop delays beyond this fraction of the pulse duration break the
# small-delay assumption behind the adaptive estimator.
DELAY_WARN_FRACTION = 0.05


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
    from the start-of-step U.  ``coverage`` is the envelope weight the
    retained grid accounts for (1 minus the truncated tail).
    """

    kind: str
    dt: float
    t: np.ndarray
    envelope: np.ndarray
    cum_end: np.ndarray
    decay: np.ndarray
    coverage: float

    @property
    def n_steps(self) -> int:
        return len(self.t)


def make_pulse(shape: str, dt: float = 1e-4) -> PulseShape:
    """Sample a named envelope on a step-dt grid over [0, 1].

    ``shape`` is one of "flat", "raised-cosine", or "expdecay:RATE"
    (e.g. "expdecay:4"); the envelope is renormalized so that the
    left-Riemann cumulative sum reaches exactly 1 at t = 1.  Steps whose
    end-of-step cumulative exceeds 1 - EPS_END are dropped, keeping the
    decay rate finite and gamma_k dt < 1 everywhere.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_total = int(round(1.0 / dt))
    if n_total < 2:
        raise ValueError("grid must have at least two steps")
    t = np.arange(n_total) * dt
    kind = shape.strip().lower()
    if kind == "flat":
        u = np.ones_like(t)
    elif kind in ("raised-cosine", "raised_cosine"):
        u = 1.0 - np.cos(2.0 * math.pi * t)
        kind = "raised-cosine"
    elif kind.startswith("expdecay"):
        _, _, arg = kind.partition(":")
        rate = float(arg) if arg else 4.0
        if rate <= 0:
            raise ValueError("expdecay rate must be positive")
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
                      decay=decay, coverage=float(cum_end[-1]))


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


@dataclass
class TrajectoryRecord:
    """One simulated trajectory.

    ``theta`` is the adaptive phase estimate (defined for any policy as
    the same functional of the current), ``x`` the integrated current,
    and ``residual_weight`` the measured-mode excitation discarded when
    the truncated tail is projected onto vacuum.  The time series are
    populated only when the simulation is asked to keep them.
    """

    theta: float
    x: float
    residual_weight: float
    t: np.ndarray | None = None
    phases: np.ndarray | None = None
    i_dt: np.ndarray | None = None
    j_dt: np.ndarray | None = None
    dw: np.ndarray | None = None


def _reduce_measured_mode(state: PureState, mode: int):
    """Factor a state as sum_n |n>_mode (x) row_n over rest occupations.

    Returns (a0, rest_occs): a0 is the (levels, n_rest) coefficient
    matrix of the normalized state; rest_occs the lexicographically
    sorted occupation tuples of the remaining modes.  The rest basis is
    orthonormal, so inner products reduce to plain dot products on rows.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    norm = state.norm()
    if norm == 0:
        raise ValueError("cannot simulate a zero state")
    entries = state.items()
    rest_occs = sorted({occ[:mode] + occ[mode + 1:] for occ, _ in entries})
    index = {rest: j for j, rest in enumerate(rest_occs)}
    levels = max(occ[mode] for occ, _ in entries) + 1
    a0 = np.zeros((levels, len(rest_occs)), dtype=complex)
    for occ, amp in entries:
        a0[occ[mode], index[occ[:mode] + occ[mode + 1:]]] = amp / norm
    return a0, rest_occs


@dataclass
class _KernelResult:
    theta: np.ndarray
    x: np.ndarray
    a_final: np.ndarray
    residual: np.ndarray
    phases: np.ndarray | None = None
    i_dt: np.ndarray | None = None
    j_dt: np.ndarray | None = None


class _KrausLanes:
    """Lanes whose measured mode holds at most one photon, in Kraus form.

    Each lane carries p = conj(q_k) as (real, imaginary) on a leading
    axis of two, and the Gram matrix of its own a0 (g00, g11 and
    g01 = sum conj(a0[0]) a0[1]); d_k is shared.  A vacuum-only mode is
    the case g01 = g11 = 0.
    """

    def __init__(self, a0, sqrt_gamma, half_gamma_dt):
        self.levels = a0.shape[1]
        self.row0 = row0 = a0[:, 0, :]
        self.row1 = row1 = a0[:, 1, :] if self.levels == 2 else np.zeros_like(row0)
        self.g00 = (row0.real ** 2 + row0.imag ** 2).sum(axis=1)
        self.g11 = (row1.real ** 2 + row1.imag ** 2).sum(axis=1)
        g01 = (row0.conj() * row1).sum(axis=1)
        self.g01 = np.stack([g01.real, g01.imag])
        self.p = np.zeros_like(self.g01)
        d = np.concatenate(([1.0], np.cumprod(1.0 - half_gamma_dt)))
        self.d = d.tolist()
        self.d2 = (d * d).tolist()
        self.kick = (sqrt_gamma * d[:-1]).tolist()

    def project(self, k, cs):
        m = self.p * self.g11
        m += self.g01                 # g01 + conj(q) g11
        t = m * cs
        proj = t[0] + t[1]
        proj *= self.d[k]
        m += self.g01
        m *= self.p                   # rows sum to 2 Re(q g01) + |q|^2 g11
        norm2 = m[0] + m[1]
        norm2 += self.g00 + self.d2[k] * self.g11
        return norm2, proj

    def step(self, k, cs, jdt):
        w = jdt * self.kick[k]
        self.p += w * cs

    def rows(self):
        q = self.p[0] - 1j * self.p[1]
        rows = np.stack([self.row0 + q[:, None] * self.row1,
                         self.d[-1] * self.row1], axis=1)
        return rows[:, :self.levels]


class _StateLanes:
    """Lanes of any occupation, stepped on the full amplitude array.

    Explicit application of M_k with the previous step's normalization
    folded in, so the array stays near unit norm.  ``project`` keeps the
    norm and phase factor that the following ``step`` reuses.
    """

    def __init__(self, a0, sqrt_gamma, half_gamma_dt):
        self.a = np.array(a0, dtype=complex)
        self.n_arr = np.arange(a0.shape[1], dtype=float)
        self.raise_w = np.sqrt(self.n_arr[1:])  # sqrt(n+1) couples |n+1> -> |n>
        self.sqrt_gamma = sqrt_gamma
        self.half_gamma_dt = half_gamma_dt

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


def _evolve(a0: np.ndarray, noise: np.ndarray, pulse: PulseShape,
            policy: FeedbackPolicy, keep_series: bool = False) -> _KernelResult:
    """Run the per-step update for a batch of trajectories.

    ``a0`` has shape (batch, levels, n_rest) and may differ per lane;
    ``noise`` holds the Wiener increments, shape (batch, n_steps).  A
    measured mode with at most one photon (levels <= 2) runs in Kraus
    form (:class:`_KrausLanes`), a few scalars per lane and step; more
    photons run on the full amplitude array (:class:`_StateLanes`).
    All per-step operations are elementwise across the batch, so each
    trajectory's floating point path is identical no matter how trials
    are batched.  ``a_final`` holds the normalized final rows.
    """
    batch, levels, _ = a0.shape
    n_steps = pulse.n_steps
    dt = pulse.dt
    adaptive = policy.kind == "adaptive"
    lag = int(round(policy.loop_delay / dt))
    if adaptive and policy.loop_delay > DELAY_WARN_FRACTION * (pulse.t[-1] + dt):
        warnings.warn(
            "adaptive loop delay is not small compared to the pulse; "
            "the phase estimate will degrade", stacklevel=2)

    sqrt_gamma = np.sqrt(pulse.decay)
    half_gamma_dt = 0.5 * pulse.decay * dt
    drive = (2.0 * sqrt_gamma * dt).tolist()  # J dt = drive * proj / norm2 + dW
    sqrt_u = np.sqrt(pulse.envelope).tolist()
    with np.errstate(divide="ignore"):
        inv_sqrt_cum = np.where(pulse.cum_end > 0.0,
                                1.0 / np.sqrt(np.maximum(pulse.cum_end, 1e-300)),
                                0.0).tolist()
    lanes = (_KrausLanes if levels <= 2 else _StateLanes)(a0, sqrt_gamma,
                                                         half_gamma_dt)

    s_sum = np.zeros(batch)
    x_sum = np.zeros(batch)
    if adaptive:
        cs = np.empty((2, batch))
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

    for k in range(n_steps):
        if adaptive:
            np.cos(phi, out=cs[0])
            np.sin(phi, out=cs[1])
        else:
            phi = fixed_phase[k]
            cs = fixed_cs[:, k]
        norm2, proj = lanes.project(k, cs)
        if k % 512 == 0 and not np.all(np.isfinite(norm2)):
            raise TrajectoryDivergedError(k)
        jdt = proj * drive[k]
        jdt /= norm2
        jdt += noise[:, k]
        lanes.step(k, cs, jdt)
        idt = jdt * sqrt_u[k]
        if keep_series:
            ser_phi[:, k] = phi
            ser_idt[:, k] = idt
            ser_jdt[:, k] = jdt
        x_sum += idt
        s_sum += idt * inv_sqrt_cum[k]
        if adaptive and lag > 0:
            ring[k % (lag + 1)] = s_sum
            phi = ring[(k + 1) % (lag + 1)]  # the sum from step k - lag, or 0

    rows = lanes.rows()
    norm2 = (rows.real ** 2 + rows.imag ** 2).sum(axis=(1, 2))
    if not np.all(np.isfinite(norm2)) or np.any(norm2 <= 0.0):
        raise TrajectoryDivergedError(n_steps - 1)
    theta = np.mod(s_sum - 0.5 * math.pi, 2.0 * math.pi)
    row0 = rows[:, 0, :]
    w0 = (row0.real ** 2 + row0.imag ** 2).sum(axis=1)
    residual = 1.0 - w0 / norm2
    a_final = rows / np.sqrt(norm2)[:, None, None]
    out = _KernelResult(theta=theta, x=x_sum, a_final=a_final, residual=residual)
    if keep_series:
        out.phases, out.i_dt, out.j_dt = ser_phi, ser_idt, ser_jdt
    return out


def simulate_dyne(state: PureState, mode: int, pulse: PulseShape,
                  policy: FeedbackPolicy, rng: np.random.Generator,
                  keep_series: bool = True):
    """Simulate one dyne trajectory on ``mode``.

    Returns (TrajectoryRecord, posterior): the posterior is the
    normalized state of the remaining modes after the measured mode's
    truncated-tail excitation is projected onto vacuum (the discarded
    weight is reported on the record).
    """
    a0, rest_occs = _reduce_measured_mode(state, mode)
    noise = rng.standard_normal(pulse.n_steps) * math.sqrt(pulse.dt)
    res = _evolve(a0[None, :, :], noise[None, :], pulse, policy,
                  keep_series=keep_series)
    posterior_amps = dict(zip(rest_occs, res.a_final[0, 0, :]))
    posterior = PureState(state.n_modes - 1, posterior_amps).normalized()
    record = TrajectoryRecord(
        theta=float(res.theta[0]),
        x=float(res.x[0]),
        residual_weight=float(res.residual[0]),
    )
    if keep_series:
        record.t = pulse.t.copy()
        record.phases = res.phases[0]
        record.i_dt = res.i_dt[0]
        record.j_dt = res.j_dt[0]
        record.dw = noise
    return record, posterior


@dataclass
class EnsembleResult:
    """Outcome arrays for an ensemble of independent trajectories.

    ``fidelity`` (when requested) compares each trajectory's posterior
    with the analytic phase-POVM conditional state at that trajectory's
    theta; it is None for policies or states where that comparison is
    undefined.
    """

    theta: np.ndarray
    x: np.ndarray
    residual_weight: np.ndarray
    fidelity: np.ndarray | None


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


def _ensemble_chunk(rng_range, a0, pulse, policy, master_seed, want_fidelity):
    start, stop = rng_range
    batch = stop - start
    n_steps = pulse.n_steps
    sqrt_dt = math.sqrt(pulse.dt)
    noise = np.empty((batch, n_steps))
    for i in range(batch):
        noise[i] = trial_rng(master_seed, start + i).standard_normal(n_steps)
    noise *= sqrt_dt
    tiled = np.broadcast_to(a0, (batch,) + a0.shape)
    res = _evolve(tiled, noise, pulse, policy)
    fid = None
    if want_fidelity and a0.shape[0] >= 2:
        fid = _posterior_fidelity(a0, res.a_final, res.theta)
    return res.theta, res.x, res.residual, fid


def run_dyne_ensemble(state: PureState, mode: int, pulse: PulseShape,
                      policy: FeedbackPolicy, master_seed: int, n_trials: int,
                      want_fidelity: bool = False, threads: int | None = None,
                      chunk_size: int = DEFAULT_CHUNK) -> EnsembleResult:
    """Run ``n_trials`` independent trajectories of the same initial state.

    Trial i draws its noise from the (master_seed, i) stream; chunking
    and reduction order are fixed, so results are bit-identical for a
    given master seed regardless of the worker count.
    """
    a0, _ = _reduce_measured_mode(state, mode)
    if want_fidelity and (policy.kind != "adaptive" or a0.shape[0] < 2):
        want_fidelity = False
    worker = partial(_ensemble_chunk, a0=a0, pulse=pulse, policy=policy,
                     master_seed=master_seed, want_fidelity=want_fidelity)
    parts = map_chunks(worker, chunk_ranges(n_trials, chunk_size), threads)
    theta = np.concatenate([p[0] for p in parts])
    x = np.concatenate([p[1] for p in parts])
    residual = np.concatenate([p[2] for p in parts])
    fid = np.concatenate([p[3] for p in parts]) if want_fidelity else None
    return EnsembleResult(theta=theta, x=x, residual_weight=residual,
                          fidelity=fid)
