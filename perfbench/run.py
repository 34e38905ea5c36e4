"""End-to-end benchmark of railsim commands, with a traced per-layer run.

Run from the repository root; railsim need not be installed:

    python3 perfbench/run.py --workload gate-analytic --seed 1 \\
        --seconds 30 --trace 0

--trace 0 measures the workload's command end to end.  It is a closed
loop: one client runs ``python -m railsim.cli <command>`` as a
subprocess, waits for it, then runs a set-up probe (plan_only.py) with
the same argv, and repeats while another pair fits in --seconds, with
at least three of each.  It reports medians of

  wall_s        wall time of the command, interpreter start-up included;
  setup_s       wall time of the probe: import, parse, build the plan;
  trials_per_s  --n / (wall_s - setup_s);
  peak_rss_mb   largest resident set of the command's process tree.

The two times are scaled to a fixed reference speed of the host.  On a
shared VM the speed of a core drifts by up to 40% within seconds and
for minutes at a time, which moves raw wall times more than any bound
can allow.  So while each process runs, a thread of this client wakes
every 20 ms and times a fixed unit of Python and numpy work in its own
CPU time (SpeedSampler).  A process's scaled time is its wall time
times REFERENCE_UNIT_S over the unit's mean time during that process.
A one-worker process and the sampler are pinned to different CPUs,
which swap from one pair to the next.  Raw medians and the speed
factor are printed beside the scaled ones.
The sampler takes about 5% of one core.  It shares the host with the
command, so a command that keeps more cores busy also slows the
sampler, and its scaled time then reads somewhat low.

--trace 1 runs ``python -X importtime`` for the set-up breakdown, then
spans.py, which runs the command in-process with spans around each
module's public functions, and reports the per-layer metrics.

Every run's output is checked (workloads.py).  A run that exits
non-zero or fails a check counts as failed and is never retried.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import NamedTuple

import numpy as np

from workloads import ROOT, SRC, WORKLOADS, check_output, schema_validator

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
# A run must end within 180 s: start no work after BUDGET_S and kill
# any process still running at HARD_LIMIT_S.
BUDGET_S = 150.0
HARD_LIMIT_S = 170.0
MIN_SAMPLES = 4  # even: as many pairs on each CPU
IMPORT_PROBES = 3
IMPORTED_PACKAGES = ("railsim", "scipy", "jsonschema")

END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "setup.import_railsim_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_jsonschema_s": "s",
    "cli.plan_s": "s",
    "cli.self_s": "s",
    "runner.trial_rng.calls": "count",
    "runner.trial_rng.us": "us",
    "runner.map_chunks.s": "s",
    "runner.parallel_eff": "ratio",
    "povm.apm_sample.calls": "count",
    "povm.apm_sample.us": "us",
    "povm.photon_count.us": "us",
    "povm.apm_density.us": "us",
    "fock.PureState.validations": "count",
    "fock.PureState.validate_s": "s",
    "fock.self_s": "s",
    "optics.beamsplitter.us": "us",
    "optics.dual_rail_unitary.us": "us",
    "protocols.run_protocol_trial.us": "us",
    "protocols.self_s": "s",
    "trajectory.kernel_calls": "count",
    "trajectory.lanes_per_call": "lanes/call",
    "trajectory.steps": "count",
    "trajectory.steps_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


# The speed sampler: one timed unit of work every SPEED_PERIOD_S, and
# the unit's CPU time at the reference speed, near its time on a 2-vCPU
# Xeon VM when the host is quiet.
SPEED_PERIOD_S = 0.02
REFERENCE_UNIT_S = 4.0e-4
SPEED_TRIM = 0.05
_UNIT_STATE = np.exp(1j * np.linspace(0.0, 1.0, 48)).reshape(4, 3, 4)


def speed_unit() -> float:
    """A fixed mix of small-array numpy and dict/complex work, as in
    railsim's own hot loops."""
    a = _UNIT_STATE
    for _ in range(20):
        a = a * 0.999
        norms = (a.real ** 2 + a.imag ** 2).sum(axis=(1, 2))
    amplitudes = {}
    for i in range(400):
        key = (i & 15, (i >> 4) & 7)
        amplitudes[key] = amplitudes.get(key, 0j) + complex(i, 1.0) * 0.5
    return float(norms[0]) + len(amplitudes)


class SpeedSampler:
    """Times speed_unit() in thread CPU time while a block runs.

    Use as a context manager; ``factor()`` is then REFERENCE_UNIT_S over
    the mean unit time (trimmed by SPEED_TRIM at each end), the number
    that scales a wall time measured in the block to the reference
    speed.
    """

    def __init__(self, period: float = SPEED_PERIOD_S, cpu=None):
        self.period = period
        self.cpu = cpu
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        # The first unit after a wake-up runs from cold caches, and its
        # extra cost depends on what else ran on the CPU; time the second.
        speed_unit()
        t = time.thread_time()
        speed_unit()
        self.samples.append(time.thread_time() - t)

    def _run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self._sample()

    def factor(self) -> float:
        ordered = sorted(self.samples)
        cut = int(len(ordered) * SPEED_TRIM)
        return REFERENCE_UNIT_S / statistics.fmean(
            ordered[cut:len(ordered) - cut])


class Proc(NamedTuple):
    rc: int
    seconds: float
    peak_rss_mib: float
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, env, cwd: Path, timeout: float, cpu=None) -> Proc:
    """Run argv to completion; wall time and peak RSS come from wait4.

    The process leads its own process group, which is killed if it
    outlives ``timeout``.  With ``cpu`` it is pinned to that CPU.
    """
    with tempfile.TemporaryFile("w+", dir=cwd) as out, \
            tempfile.TemporaryFile("w+", dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        if cpu is not None:
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(proc.pid, {cpu})
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux.
        return Proc(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                    out.read(), err.read())


class Tally:
    """Attempted and failed runs, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


def _time_left(start: float) -> float:
    return HARD_LIMIT_S - (time.perf_counter() - start)


def _process_problems(p: Proc) -> list:
    if p.rc == 0:
        return []
    tail = p.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {p.rc} {tail[0]}".rstrip()]


def measure_end_to_end(w, seed, seconds, work, env, start, tally):
    """Closed loop of commands and set-up probes; returns the metrics."""
    validator = schema_validator()
    jsonl = work / "run.jsonl"
    argv = w.command(seed, str(jsonl))
    probe = [sys.executable, str(HERE / "plan_only.py"), *argv]
    walls, rss, setups = [], [], []
    raw_walls, raw_setups, factors = [], [], []
    expected_sha = None

    # A one-worker process is pinned to one CPU and the sampler to the
    # other, swapping CPUs each pair: the two CPUs of a VM can run at
    # different speeds for minutes, and the sampler sees only the CPU
    # the process does not run on.  With as many pairs on each side, the
    # median falls between the two.
    cpus = sorted(os.sched_getaffinity(0))
    pinned = w.threads == 1 and len(cpus) >= 2

    def run_sampled(argv, side):
        cpu, other = (cpus[side], cpus[1 - side]) if pinned else (None, None)
        with SpeedSampler(cpu=other) as speed:
            p = run_process(argv, env, work, _time_left(start), cpu=cpu)
        return p, speed.factor()

    def run_command(argv, label, side=0):
        nonlocal expected_sha
        p, factor = run_sampled([sys.executable, "-m", "railsim.cli", *argv],
                                side)
        problems = _process_problems(p)
        if not problems:
            problems, sha = check_output(w, w.n, p.stdout, jsonl, validator)
            if expected_sha is None:
                expected_sha = sha
            elif sha != expected_sha:
                problems.append("JSONL differs from the first run at this "
                                "seed (stream contract)")
        jsonl.unlink(missing_ok=True)
        return p, factor, tally.record(label, problems)

    end = time.perf_counter() + seconds
    # One untimed run first fills the bytecode and page caches.
    if w.threads > 1:
        # The stream contract: the 1-worker JSONL is the reference.
        run_command(w.command(seed, str(jsonl), threads=1),
                    "1-worker reference")
    else:
        tally.record("warm-up probe", _process_problems(
            run_process(probe, env, work, _time_left(start))))
    pairs = 0
    while True:
        pairs += 1
        pair_start = time.perf_counter()
        p, factor, ok = run_command(argv, "command", pairs % 2)
        if ok:
            walls.append(p.seconds * factor)
            raw_walls.append(p.seconds)
            factors.append(factor)
            rss.append(p.peak_rss_mib)
        s, factor = run_sampled(probe, 1 - pairs % 2)
        problems = _process_problems(s)
        if not problems and s.stdout.strip():
            problems = ["set-up probe wrote to stdout"]
        if tally.record("set-up probe", problems):
            setups.append(s.seconds * factor)
            raw_setups.append(s.seconds)
            factors.append(factor)
        if pairs % 2:
            continue
        # Start no two pairs that the last says would end after --seconds.
        now = time.perf_counter()
        pair_s = now - pair_start
        if pairs >= MIN_SAMPLES and now + 2 * pair_s > end:
            break
        if now - start + 2 * pair_s > BUDGET_S:
            break
    if not walls or not setups:
        return {}, {}
    wall, setup = statistics.median(walls), statistics.median(setups)
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
               "raw wall_s": raw_walls, "raw setup_s": raw_setups,
               "speed factor": factors}
    if wall <= setup:
        tally.problems.append(f"wall_s {wall:.3f} is not above setup_s "
                              f"{setup:.3f}")
        return {}, samples
    return {"wall_s": wall, "setup_s": setup,
            "trials_per_s": w.n / (wall - setup),
            "peak_rss_mb": statistics.median(rss)}, samples


def import_times(stderr: str, packages=IMPORTED_PACKAGES) -> dict:
    """Cumulative import seconds of each package from ``-X importtime``.

    A package's time is the sum over its outermost entries: those with
    no ancestor in the import tree that belongs to the same package.
    """
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        rows.append((depth, name, cumulative_us))
    totals = dict.fromkeys(packages, 0.0)
    ancestors = []
    # Lines come in post-order; reversed, each parent precedes its children.
    for depth, name, cumulative_us in reversed(rows):
        del ancestors[depth:]
        for pkg in packages:
            if _in_package(name, pkg) and not any(
                    _in_package(a, pkg) for a in ancestors):
                totals[pkg] += cumulative_us / 1e6
        ancestors.append(name)
    return totals


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def measure_layers(w, seed, seconds, work, env, start, tally):
    """Import-time probes, then the in-process traced run (spans.py)."""
    probe = [sys.executable, "-X", "importtime", "-c", "import railsim.cli"]
    by_package = {pkg: [] for pkg in IMPORTED_PACKAGES}
    for _ in range(IMPORT_PROBES):
        p = run_process(probe, env, work, _time_left(start))
        times = import_times(p.stderr)
        # A package that railsim stops importing reads 0; railsim itself
        # must show up.
        problems = _process_problems(p) or (
            [] if times["railsim"] > 0 else ["no railsim in -X importtime"])
        if tally.record("import probe", problems):
            for pkg, s in times.items():
                by_package[pkg].append(s)
    elapsed = time.perf_counter() - start
    traced = [sys.executable, str(HERE / "spans.py"), "--workload", w.name,
              "--seed", str(seed), "--seconds", str(max(seconds - elapsed, 0.0)),
              "--budget", str(BUDGET_S - elapsed), "--work", str(work)]
    p = run_process(traced, env, work, _time_left(start))
    try:
        report = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tally.record("traced run", _process_problems(p)
                     or ["no result line from spans.py"])
        return {}
    tally.attempted += report["attempted"]
    tally.failed += report["failed"]
    tally.problems += report["problems"]
    print(f"traced run: {report['rounds']} rounds, "
          f"{report['bindings']} bindings wrapped")
    metrics = dict(report["metrics"])
    if by_package["railsim"]:
        for pkg, values in by_package.items():
            metrics[f"setup.import_{pkg}_s"] = statistics.median(values)
    return metrics


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return version(package)
    except PackageNotFoundError:
        return "missing"


def environment_info() -> dict:
    """Recorded with each result, for information only."""
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted(SRC.rglob("*.py"))),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    # Absolute, so that it resolves whatever the child's working directory.
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("RAILSIM_THREADS", None)  # every command passes --threads
    return env


def _print_samples(samples: dict) -> None:
    for name, values in samples.items():
        unit = END_TO_END.get(name.split()[-1], "")
        print(f"  {name:<13} median {statistics.median(values):.4f} "
              f"{unit}, min {min(values):.4f}, "
              f"max {max(values):.4f}, n={len(values)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "railsim" / "cli.py").is_file():
        print(f"perfbench: no railsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    start = time.perf_counter()
    w = WORKLOADS[args.workload]
    env = _child_env()
    tally = Tally()
    print("info " + json.dumps(environment_info(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        if args.trace:
            metrics = measure_layers(w, args.seed, args.seconds, work, env,
                                     start, tally)
            names = PER_LAYER
        else:
            metrics, samples = measure_end_to_end(w, args.seed, args.seconds,
                                                  work, env, start, tally)
            names = END_TO_END
            print(f"workload {w.name}: railsim {' '.join(w.argv)} --n {w.n} "
                  f"--threads {w.threads} --seed {args.seed}")
            _print_samples(samples)
            if "trials_per_s" in metrics:
                print(f"  trials_per_s  {metrics['trials_per_s']:.4f} 1/s "
                      "= n / (wall_s - setup_s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    missing = [name for name in names if name not in metrics]
    if missing:
        tally.problems.append(f"metrics not measured: {', '.join(missing)}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  failed_frac   {failed_frac:.4f} ({tally.failed} of "
          f"{tally.attempted} runs)")
    correct = tally.attempted > 0 and not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
