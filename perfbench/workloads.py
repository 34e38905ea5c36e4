"""The benchmark's railsim workloads and the checks on their output.

Each workload is one ``railsim`` command.  The benchmark appends
``--n``, ``--seed``, ``--threads`` and ``--jsonl`` to its argv.  Sizes
are chosen so that one command takes about four seconds on a 2-vCPU
Xeon VM, so that a 30-second run of the benchmark holds four commands
and four set-up probes and reports their medians.

Every check below holds at any seed: rates are tested within four
standard errors of their exact value, and the thresholds on fidelity,
KS distance and residual weight sit well clear of the values measured
at these sizes (fidelity_mean about 0.999, ks_theta about 0.007,
mean_residual_weight about 6e-4).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "railsim" / "schemas" / "summary.json"

# Input qubit of both gate workloads: amplitude 0.6 on |0>, phase 0.5.
GATE_ALPHA = 0.6
GATE_INPUT = f"qubit:{GATE_ALPHA},0.5"
# A gate's Bell measurement sees no photon, which collapses the output
# to logical 1, with probability |c0|^2 / 2.
COLLAPSED_ONE_RATE = GATE_ALPHA ** 2 / 2.0


def _near(rate, p: float, n: int) -> bool:
    """Whether an observed rate lies within four standard errors of p."""
    return isinstance(rate, (int, float)) and \
        abs(rate - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def _above(results: dict, key: str, floor: float) -> list:
    value = results.get(key)
    if isinstance(value, (int, float)) and value > floor:
        return []
    return [f"{key}={value} is not above {floor}"]


def _below(results: dict, key: str, ceiling: float) -> list:
    value = results.get(key)
    if isinstance(value, (int, float)) and value < ceiling:
        return []
    return [f"{key}={value} is not below {ceiling}"]


def check_gate(results: dict, n: int) -> list:
    problems = _above(results, "fidelity_mean", 0.99)
    if not _near(results.get("success_rate"), 0.5, n):
        problems.append(f"success_rate={results.get('success_rate')} "
                        "is more than 4 sigma from 1/2")
    return problems


def check_gate_analytic(results: dict, n: int) -> list:
    problems = check_gate(results, n)
    rate = results.get("collapsed_one_rate")
    if not _near(rate, COLLAPSED_ONE_RATE, n):
        problems.append(f"collapsed_one_rate={rate} is more than 4 sigma "
                        f"from {COLLAPSED_ONE_RATE:.4g}")
    return problems


def check_ensemble(results: dict, n: int) -> list:
    return (_below(results, "ks_theta", 0.02)
            + _above(results, "fidelity_mean", 0.99)
            + _below(results, "mean_residual_weight", 1e-3))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    n: int
    threads: int
    check: Callable[[dict, int], list]  # (summary results, n) -> problems
    # Span and counter names (see spans.py) that a traced run must see
    # fire, and those it must never see.
    expects: frozenset = field(default_factory=frozenset)
    absent: frozenset = field(default_factory=frozenset)

    def command(self, seed: int, jsonl: str, threads: int | None = None,
                n: int | None = None) -> list:
        return [*self.argv, "--n", str(self.n if n is None else n),
                "--seed", str(seed),
                "--threads", str(self.threads if threads is None else threads),
                "--jsonl", jsonl]


_GATE = ("gate", "--u", "hadamard", "--input", GATE_INPUT)
_ENSEMBLE = ("trajectory", "--state", "plus-split", "--dt", "1e-3")
_CLI = frozenset({"cli.main", "cli.plan", "runner.map_chunks",
                  "runner.trial_rng"})

WORKLOADS = {w.name: w for w in (
    # Dict-state work in fock, optics, povm and protocols; the trajectory
    # kernel never runs.
    Workload("gate-analytic", _GATE, n=6000, threads=1,
             check=check_gate_analytic,
             expects=_CLI | {"povm.apm_sample", "povm.apm_density",
                             "fock.PureState.validate", "optics.beamsplitter",
                             "optics.dual_rail_unitary",
                             "protocols.run_protocol_trial"},
             absent=frozenset({"trajectory.kernel"})),
    # The batched kernel at 1024 lanes with per-trial seeding; no protocol
    # runs.  dt=1e-3 rather than the default 1e-4 keeps the run steady.
    Workload("ensemble-adaptive", _ENSEMBLE, n=16384, threads=1,
             check=check_ensemble,
             expects=_CLI | {"trajectory.run_dyne_ensemble",
                             "trajectory.ensemble_chunk", "trajectory.kernel"},
             absent=frozenset({"povm.apm_sample",
                               "protocols.run_protocol_trial"})),
    # The same kernel at one lane per call: every phase measurement of a
    # gate is its own simulate_dyne call.
    Workload("gate-trajectory", (*_GATE, "--backend", "trajectory",
                                 "--dt", "1e-3"), n=50, threads=1,
             check=check_gate,
             expects=_CLI | {"trajectory.simulate_dyne", "trajectory.kernel",
                             "protocols.run_protocol_trial",
                             "povm.apm_density", "fock.PureState.validate"},
             absent=frozenset({"povm.apm_sample",
                               "trajectory.run_dyne_ensemble"})),
    # ensemble-adaptive on the fork pool with two workers (2 = nproc); its
    # JSONL must equal the 1-worker JSONL byte for byte.
    Workload("ensemble-adaptive-2w", _ENSEMBLE, n=16384, threads=2,
             check=check_ensemble,
             expects=frozenset({"runner.map_chunks"})),
)}


def schema_validator():
    import jsonschema
    schema = json.loads(SCHEMA.read_text())
    return jsonschema.Draft202012Validator(schema)


def _trial_index(record: dict):
    """Trial number of a JSONL record.  Protocol records carry it as the
    second element of ``seed``: [master seed, trial]."""
    if "trial" in record:
        return record["trial"]
    return record["seed"][1]


def check_output(w: Workload, n: int, stdout: str, jsonl: Path,
                 validator=None):
    """Check one run's summary and JSONL.

    Returns (problems, sha256 of the JSONL or None).  ``n`` is the
    run's --n, which is w.n except for warm-up runs.
    """
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"], None
    validator = validator or schema_validator()
    problems = [f"schema: {e.message}" for e in validator.iter_errors(summary)]
    try:
        data = jsonl.read_bytes()
    except OSError as exc:
        return problems + [f"no JSONL: {exc}"], None
    lines = data.splitlines()
    if len(lines) != n:
        problems.append(f"JSONL has {len(lines)} lines, expected {n}")
    for i, line in enumerate(lines):
        try:
            trial = _trial_index(json.loads(line))
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                IndexError):
            trial = None
        if trial != i:
            problems.append(f"JSONL line {i} has trial {trial}")
            break
    if n == w.n and not problems:
        problems += w.check(summary.get("results", {}), n)
    return problems, hashlib.sha256(data).hexdigest()
