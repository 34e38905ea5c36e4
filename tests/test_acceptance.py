"""End-to-end acceptance checks with fixed seeds and stated tolerances.

Each test covers one headline behavior of the package and prints a
single [PASS]/[FAIL] line with the measured numbers (run pytest with -s
to see the lines as they happen).  Seeds are pinned so reruns are
deterministic; tolerances leave room for the statistical fluctuation of
the pinned stream, not for systematic error.
"""

import math
import os
import subprocess
import sys

import numpy as np
from scipy import stats as sps

from railsim.fock import PureState, single_photon, vacuum
from railsim.optics import (BeamsplitterSpec, HADAMARD, SingleRailQubit,
                            beamsplitter)
from railsim.povm import QuadratureDensity, apm_sample, homodyne_density
from railsim.protocols import (PrepSpec,
                               apply_single_rail_unitary,
                               logical_target_fidelity, qubit_state,
                               run_protocol_trial, teleport_single_to_dual)
from railsim.runner import trial_rng
from railsim.stats import chi2_gof_pvalue, ks_statistic
from railsim.trajectory import FeedbackPolicy, make_pulse, run_dyne_ensemble

from current_profile import mean_current_profile
from paper_checks import apm_completeness, ks_uniform

RT2 = 1.0 / math.sqrt(2.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def split_photon() -> PureState:
    return beamsplitter(single_photon(0, 2), BeamsplitterSpec(0, 1, 0.5))


def test_01_phase_estimates_uniform_on_entangled_arm():
    # measuring one arm of a split photon: the estimate carries no
    # information, so theta must be uniform on [0, 2 pi)
    rng = np.random.default_rng(7)
    state = split_photon()
    n = 100_000
    thetas = np.fromiter(
        (apm_sample(state, 0, rng).value for _ in range(n)), float, count=n)
    ks = ks_uniform(thetas, 0.0, 2.0 * math.pi)
    report("uniform phase on split photon", ks < 0.006,
           f"ks={ks:.5f} (n={n}, limit 0.006)")


def test_02_phase_povm_resolves_identity():
    m = apm_completeness(4096)
    err = float(np.max(np.abs(m - np.eye(2))))
    report("phase POVM completeness", err < 1e-10,
           f"max|M - I|={err:.2e} (4096 points, limit 1e-10)")


def test_03_homodyne_arm_density_matches_closed_form():
    # quadrature of one arm of the split photon: exp(-x^2/2)(1+x^2)
    # normalized, second moment exactly 2
    state = split_photon()
    dens = homodyne_density(state, 0, 0.0)
    xs, cum = dens.x, dens.cum
    rng = np.random.default_rng(5)
    n = 100_000
    x = np.interp(rng.random(n) * cum[-1], cum, xs)
    ref = QuadratureDensity(xs, np.exp(-xs ** 2 / 2.0) * (1.0 + xs ** 2)
                            / (2.0 * math.sqrt(2.0 * math.pi)))
    p = chi2_gof_pvalue(x, ref.quantile)
    m2 = float(np.mean(x * x))
    ok = p > 0.01 and abs(m2 - 2.0) < 0.05
    report("homodyne arm density", ok,
           f"chi2 p={p:.3f} (limit 0.01), E[x^2]={m2:.4f} (2 +- 0.05)")


def test_04_preparation_succeeds_deterministically():
    rng = np.random.default_rng(43)
    n = 100
    fids, successes = [], 0
    for i in range(n):
        spec = PrepSpec(alpha=float(rng.random()),
                        phi=float(rng.random() * 2.0 * math.pi))
        rec = run_protocol_trial("prepare", apm_sample, 43, i,
                                 trial_rng(43, i), spec=spec)
        successes += rec["success"]
        fids.append(rec["fidelity"])
    ok = successes == n and min(fids) >= 1.0 - 1e-10
    report("deterministic preparation", ok,
           f"success {successes}/{n}, min fidelity={min(fids):.2e} offset "
           f"{1.0 - min(fids):.1e} (limit 1e-10)")


def test_05_trajectory_phase_statistics_match_analytic_povm():
    pulse = make_pulse("flat", dt=1e-4)
    worst_ks = 0.0
    for phi0 in (0.0, math.pi / 3.0, math.pi):
        state = PureState(1, {(0,): RT2, (1,): RT2 * np.exp(1j * phi0)})
        res = run_dyne_ensemble(state, 0, pulse, FeedbackPolicy.adaptive(),
                                master_seed=13, n_trials=10_000)

        def cdf(th, phi0=phi0):
            return (th + np.sin(th - phi0) + math.sin(phi0)) / (2.0 * math.pi)

        worst_ks = max(worst_ks, ks_statistic(res["theta"], cdf))
    # single-mode posteriors are scalars, so their fidelity against the
    # analytic conditional is trivial; the split photon keeps a two-mode
    # posterior and makes the comparison informative
    res = run_dyne_ensemble(split_photon(), 0, pulse, FeedbackPolicy.adaptive(),
                            master_seed=13, n_trials=2_000)
    fid = float(res["fidelity"].mean())
    ok = worst_ks < 0.03 and fid > 0.99
    report("trajectory realizes the phase POVM", ok,
           f"worst ks={worst_ks:.4f} over phi0 in (0, pi/3, pi) "
           f"(n=10000 each, limit 0.03); split-photon posterior "
           f"fidelity mean={fid:.5f} (limit 0.99)")


def two_sample_ks(a, b):
    """Two-sample KS distance and p-value."""
    res = sps.ks_2samp(np.asarray(a, float), np.asarray(b, float))
    return float(res.statistic), float(res.pvalue)


def test_06_integrated_current_reproduces_vacuum_quadrature():
    samples = {}
    for shape in ("flat", "expdecay:4"):
        pulse = make_pulse(shape, dt=1e-4)
        res = run_dyne_ensemble(vacuum(1), 0, pulse,
                                FeedbackPolicy.homodyne(0.0),
                                master_seed=17, n_trials=10_000)
        samples[shape] = res["x"]
    mean = float(samples["flat"].mean())
    var = float(samples["flat"].var())
    _, p = two_sample_ks(samples["flat"], samples["expdecay:4"])
    ok = abs(mean) < 0.04 and 0.94 < var < 1.06 and p > 0.01
    report("integrated current on vacuum", ok,
           f"mean={mean:.4f} (|.|<0.04), var={var:.4f} (0.94..1.06), "
           f"flat-vs-expdecay two-sample p={p:.3f} (limit 0.01)")


def test_07_mean_current_tracks_pulse_envelope():
    plus = PureState(1, {(0,): RT2, (1,): RT2})
    pulse = make_pulse("expdecay:4", dt=1e-3)
    t, mean_i, stderr = mean_current_profile(
        plus, 0, pulse, FeedbackPolicy.homodyne(0.0),
        master_seed=23, n_trials=100_000)
    z = np.abs(mean_i - pulse.envelope) / stderr
    worst = float(z.max())
    report("mean current tracks u(t)", worst < 4.0,
           f"max |mean_i - u| / stderr = {worst:.2f} over {len(t)} grid "
           f"points (n=100000, limit 4)")


def test_08_teleportation_success_statistics():
    rng = np.random.default_rng(29)
    n = 10_000
    succ, min_fid = 0, 1.0
    for _ in range(n):
        v = rng.normal(size=4)
        c0 = complex(v[0], v[1])
        c1 = complex(v[2], v[3])
        norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        c0, c1 = c0 / norm, c1 / norm
        out = teleport_single_to_dual(qubit_state(c0, c1), SingleRailQubit(0),
                                      apm_sample, rng)
        if out.success:
            succ += 1
            min_fid = min(min_fid, logical_target_fidelity(
                out.state, out.qubit, c0, c1))
    rate = succ / n
    rng = np.random.default_rng(31)
    fz = sum(teleport_single_to_dual(qubit_state(0.6, 0.8), SingleRailQubit(0),
                                     apm_sample, rng).bsm.kind == "fail_zero"
             for _ in range(n)) / n
    band = 3.0 * math.sqrt(0.18 * 0.82 / n)
    ok = 0.485 <= rate <= 0.515 and min_fid >= 1.0 - 1e-12 \
        and abs(fz - 0.18) < band
    report("teleportation statistics", ok,
           f"success={rate:.4f} (0.485..0.515), min success fidelity offset "
           f"{1.0 - min_fid:.1e} (limit 1e-12), no-photon branch "
           f"{fz:.4f} vs 0.18 +- {band:.4f}")


def test_09_teleported_hadamard_and_composition():
    rng = np.random.default_rng(37)
    n = 10_000
    state = qubit_state(1.0, 0.0)
    succ, min_fid = 0, 1.0
    for _ in range(n):
        out = apply_single_rail_unitary(state, SingleRailQubit(0), HADAMARD,
                                        apm_sample, rng)
        if out.success:
            succ += 1
            min_fid = min(min_fid, logical_target_fidelity(
                out.state, out.qubit, RT2, RT2))
    rate = succ / n
    # composition: running V after U must equal the single gate VU
    v = np.array([[np.exp(-0.4j), 0.0], [0.0, np.exp(0.9j)]])
    target = v @ HADAMARD @ np.array([1.0, 0.0])
    comp_err = 0.0
    checked = 0
    while checked < 20:
        first = apply_single_rail_unitary(state, SingleRailQubit(0), HADAMARD,
                                          apm_sample, rng)
        if not first.success:
            continue
        second = apply_single_rail_unitary(first.state, first.qubit, v, apm_sample, rng)
        if not second.success:
            continue
        checked += 1
        comp_err = max(comp_err, 1.0 - logical_target_fidelity(
            second.state, second.qubit, target[0], target[1]))
    ok = 0.485 <= rate <= 0.515 and min_fid >= 1.0 - 1e-12 \
        and comp_err < 1e-10
    report("teleported Hadamard pipeline", ok,
           f"success={rate:.4f} (0.485..0.515), min fidelity offset "
           f"{1.0 - min_fid:.1e} (limit 1e-12), composition infidelity "
           f"{comp_err:.1e} over 20 runs (limit 1e-10)")


def test_10_outputs_byte_identical_across_worker_counts(tmp_path):
    jobs = [
        ("sample-apm-trajectory",
         ["sample", "apm", "--state", "plus-split", "--backend", "trajectory",
          "--dt", "2e-3", "--n", "120", "--seed", "7"]),
        ("gate-hadamard",
         ["gate", "--u", "hadamard", "--input", "qubit:0.6,1.0",
          "--n", "400", "--seed", "29"]),
        ("trajectory-adaptive",
         ["trajectory", "--state", "plus", "--dt", "2e-3",
          "--n", "80", "--seed", "13"]),
    ]
    mismatched = []
    for name, argv in jobs:
        blobs = []
        for threads in (1, 3):
            jsonl = tmp_path / f"{name}-{threads}.jsonl"
            env = dict(os.environ, RAILSIM_THREADS=str(threads))
            proc = subprocess.run(
                [sys.executable, "-m", "railsim.cli"] + argv
                + ["--jsonl", str(jsonl)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            blobs.append((proc.stdout, jsonl.read_bytes()))
        if blobs[0] != blobs[1]:
            mismatched.append(name)
    report("worker count never changes output", not mismatched,
           f"{len(jobs)} commands x (1 vs 3 workers), byte-compared JSONL "
           f"and summaries; mismatches: {mismatched or 'none'}")
