"""Per-layer spans around railsim's public functions, and the traced run.

The benchmark wraps railsim functions from its own code, so the program
runs unchanged.  Modules import functions by name (``from .povm import
apm_sample``), so a wrapper replaces every binding of the original
function in every loaded ``railsim`` module, including entries of
module-level dicts such as ``cli.HANDLERS``; a call through a binding
left behind would go unrecorded.  ``PureState.__post_init__`` is
wrapped on the class.

Spans are aggregated by name as they close (calls, inclusive seconds,
self seconds) instead of being stored one by one: a gate run opens
several hundred thousand of them.  A span's self time is its duration
minus the durations of the spans it encloses.

Run as a script, this executes one workload in-process with
``railsim.cli.main`` and prints one JSON line of per-layer metrics:

    PYTHONPATH=$PWD/src python3 perfbench/spans.py \\
        --workload gate-analytic --seed 1 --seconds 20 --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import WORKLOADS, check_output, schema_validator

FOCK_OPS = ("tensor", "apply_phase", "project_mode", "inner", "fidelity")
VALIDATE = "fock.PureState.validate"
KERNEL = "trajectory.kernel"
MAP_CHUNKS = "runner.map_chunks"
TRAJECTORY_SPANS = ("trajectory.simulate_dyne", "trajectory.run_dyne_ensemble",
                    "trajectory.ensemble_chunk")

# (span name, module, attribute).  cli.plan covers every command handler.
SPANS = (
    ("cli.main", "railsim.cli", "main"),
    *(("cli.plan", "railsim.cli", f"cmd_{c}")
      for c in ("sample", "prep", "gate", "trajectory")),
    ("runner.trial_rng", "railsim.runner", "trial_rng"),
    (MAP_CHUNKS, "railsim.runner", "map_chunks"),
    *((f"povm.{f}", "railsim.povm", f)
      for f in ("apm_sample", "photon_count", "apm_density")),
    *((f"fock.{f}", "railsim.fock", f) for f in FOCK_OPS),
    *((f"optics.{f}", "railsim.optics", f)
      for f in ("beamsplitter", "dual_rail_unitary")),
    ("protocols.run_protocol_trial", "railsim.protocols", "run_protocol_trial"),
    ("trajectory.simulate_dyne", "railsim.trajectory", "simulate_dyne"),
    ("trajectory.run_dyne_ensemble", "railsim.trajectory", "run_dyne_ensemble"),
    # The ensemble's chunk worker, so that kernel time inside map_chunks
    # counts as trajectory time.
    ("trajectory.ensemble_chunk", "railsim.trajectory", "_ensemble_chunk"),
)

# Metrics that count work; they must repeat exactly at a fixed seed.
COUNTS = ("runner.trial_rng.calls", "povm.apm_sample.calls",
          "fock.PureState.validations", "trajectory.kernel_calls",
          "trajectory.lanes_per_call", "trajectory.steps")


class Tracer:
    """Span and counter totals for one traced run."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.lanes = 0
        self.steps = 0
        self._open = []  # child seconds accumulated by each open span

    def span(self, name: str, fn):
        open_spans, clock = self._open, time.perf_counter
        calls, total, own = self.calls, self.total, self.own

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - children

        return wrapper

    def kernel(self, fn):
        """Count calls, lanes and lane-steps of the trajectory kernel.

        The kernel takes (initial amplitudes, noise[lanes, steps], ...).
        It gets no span, so its time stays in the trajectory span that
        called it, together with drawing the noise.
        """

        @functools.wraps(fn)
        def wrapper(a0, noise, *args, **kwargs):
            self.calls[KERNEL] += 1
            self.lanes += noise.shape[0]
            self.steps += noise.size
            return fn(a0, noise, *args, **kwargs)

        return wrapper


def rebind(original, replacement) -> int:
    """Point every binding of ``original`` in railsim modules at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if name != "railsim" and not name.startswith("railsim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
            elif type(value) is dict and not attr.startswith("__"):
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement
                        changed += 1
    return changed


class Instrumentation:
    """Context manager that installs a tracer's wrappers and removes them.

    ``names`` limits the spans to a subset; None installs all of them,
    with the validation span and the kernel counter.
    """

    def __init__(self, tracer: Tracer, names=None):
        self.tracer = tracer
        self.names = names
        self.bindings = 0
        self._swapped = []

    def _wanted(self, name: str) -> bool:
        return self.names is None or name in self.names

    def __enter__(self):
        try:
            for name, module, attr in SPANS:
                if self._wanted(name):
                    original = getattr(importlib.import_module(module), attr)
                    self._swap(f"{module}.{attr}", original,
                               self.tracer.span(name, original))
            if self._wanted(KERNEL):
                original = importlib.import_module("railsim.trajectory")._evolve
                self._swap("railsim.trajectory._evolve", original,
                           self.tracer.kernel(original))
            if self._wanted(VALIDATE):
                cls = importlib.import_module("railsim.fock").PureState
                original = cls.__dict__["__post_init__"]
                cls.__post_init__ = self.tracer.span(VALIDATE, original)
                self._swapped.append((cls, original))
                self.bindings += 1
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _swap(self, label: str, original, wrapper):
        changed = rebind(original, wrapper)
        self._swapped.append((original, wrapper))
        if changed == 0:
            raise RuntimeError(f"no binding of {label} found to wrap")
        self.bindings += changed

    def __exit__(self, *exc):
        for first, second in reversed(self._swapped):
            if isinstance(first, type):
                first.__post_init__ = second
            else:
                rebind(second, first)
        self._swapped.clear()
        return False


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one traced run; 0 where a layer did no work."""

    def per_call_us(name, seconds):
        return 1e6 * seconds[name] / t.calls[name] if t.calls[name] else 0.0

    kernel_calls = t.calls[KERNEL]
    trajectory_s = sum(t.own[name] for name in TRAJECTORY_SPANS)
    return {
        "cli.plan_s": t.total["cli.plan"],
        "cli.self_s": t.own["cli.main"],
        "runner.trial_rng.calls": t.calls["runner.trial_rng"],
        "runner.trial_rng.us": per_call_us("runner.trial_rng", t.total),
        "runner.map_chunks.s": t.total[MAP_CHUNKS],
        "povm.apm_sample.calls": t.calls["povm.apm_sample"],
        "povm.apm_sample.us": per_call_us("povm.apm_sample", t.own),
        "povm.photon_count.us": per_call_us("povm.photon_count", t.own),
        "povm.apm_density.us": per_call_us("povm.apm_density", t.own),
        "fock.PureState.validations": t.calls[VALIDATE],
        "fock.PureState.validate_s": t.total[VALIDATE],
        "fock.self_s": sum(t.own[f"fock.{f}"] for f in FOCK_OPS),
        "optics.beamsplitter.us": per_call_us("optics.beamsplitter", t.own),
        "optics.dual_rail_unitary.us":
            per_call_us("optics.dual_rail_unitary", t.own),
        "protocols.run_protocol_trial.us":
            per_call_us("protocols.run_protocol_trial", t.total),
        "protocols.self_s": t.own["protocols.run_protocol_trial"],
        "trajectory.kernel_calls": kernel_calls,
        "trajectory.lanes_per_call":
            t.lanes / kernel_calls if kernel_calls else 0.0,
        "trajectory.steps": t.steps,
        "trajectory.steps_per_s": t.steps / trajectory_s if trajectory_s else 0.0,
    }


def fired_problems(w, t: Tracer, names=None) -> list:
    """Self-check: every span the workload needs fired, and no span it
    must bypass did.  ``names`` is the installed subset (None: all)."""
    expects, absent = w.expects, w.absent
    if names is not None:
        expects, absent = expects & names, absent & names
    problems = [f"span {name} never fired" for name in sorted(expects)
                if not t.calls[name]]
    problems += [f"span {name} fired {t.calls[name]} times but this workload "
                 "must bypass it" for name in sorted(absent) if t.calls[name]]
    return problems


class InProcessRunner:
    """Runs ``railsim.cli.main`` in this process and checks its output."""

    def __init__(self, workload, seed: int, work: Path):
        from railsim import cli
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.work = work
        self.validator = schema_validator()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.bindings = 0

    def run(self, names=(), threads=None, n=None):
        """One run; ``names`` is the span subset (None: all, (): untraced).

        Returns (seconds in main, tracer or None, JSONL sha256).
        """
        jsonl = self.work / f"traced-{self.attempted}.jsonl"
        argv = self.w.command(self.seed, str(jsonl), threads=threads, n=n)
        tracer = Tracer() if names != () else None
        instrument = (Instrumentation(tracer, names) if tracer
                      else contextlib.nullcontext())
        out = io.StringIO()
        self.attempted += 1
        with instrument, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - start
        if tracer is not None:
            self.bindings = max(self.bindings, instrument.bindings)
        problems, sha = check_output(self.w, self.w.n if n is None else n,
                                     out.getvalue(), jsonl, self.validator)
        jsonl.unlink(missing_ok=True)
        if rc != 0:
            problems.insert(0, f"exit code {rc}")
        if tracer is not None and n is None:
            problems += fired_problems(self.w, tracer, names)
        self.fail(problems, " ".join(argv))
        return seconds, tracer, sha

    def fail(self, problems, label=""):
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def one_round(r: InProcessRunner) -> dict:
    """One round of traced runs; returns the per-layer metrics.

    The baseline wraps only map_chunks, which runs once per command, so
    it stands for the untraced time.  On a pooled workload spans
    recorded in the workers are lost with them, so the round keeps only
    that parent-side span and adds a 1-worker run, which gives the
    parallel efficiency and must write the same JSONL.
    """
    w = r.w
    base_s, base, sha = r.run({MAP_CHUNKS})
    if w.threads > 1:
        _, single, single_sha = r.run({MAP_CHUNKS}, threads=1)
        if single_sha != sha:
            r.fail([f"JSONL differs between 1 and {w.threads} workers"],
                   "stream contract")
        metrics = layer_metrics(base)
        metrics["runner.parallel_eff"] = (
            single.total[MAP_CHUNKS] / (w.threads * base.total[MAP_CHUNKS]))
        metrics["trace.overhead_frac"] = 0.0  # no span beyond the baseline's
        return metrics
    traced_s, tracer, traced_sha = r.run(None)
    if traced_sha != sha:
        r.fail(["traced JSONL differs from the baseline JSONL"], "trace")
    metrics = layer_metrics(tracer)
    metrics["runner.parallel_eff"] = 0.0  # one worker: no pool to measure
    metrics["trace.overhead_frac"] = (traced_s - base_s) / base_s
    return metrics


def traced_main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--budget", type=float, default=120.0,
                   help="start no round that would end after this many seconds")
    p.add_argument("--work", type=Path, required=True)
    args = p.parse_args(argv)
    start = time.perf_counter()
    w = WORKLOADS[args.workload]
    r = InProcessRunner(w, args.seed, args.work)
    # Warm-up: lazy set-up (schema, grids) should not land in round one.
    r.run((), n=2)
    rounds = []
    while True:
        round_start = time.perf_counter()
        rounds.append(one_round(r))
        # Start no round that the last one says would end too late.
        now = time.perf_counter()
        next_end = now - start + (now - round_start)
        if next_end > args.seconds or next_end > args.budget:
            break
    metrics = {}
    for key in rounds[0]:
        values = [m[key] for m in rounds]
        if key in COUNTS:
            if len(set(values)) != 1:
                r.fail([f"{key} differs between rounds: {values}"], "counts")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    print(json.dumps({"attempted": r.attempted, "failed": r.failed,
                      "problems": r.problems, "rounds": len(rounds),
                      "bindings": r.bindings,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(traced_main())
