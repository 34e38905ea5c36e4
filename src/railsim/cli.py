"""Command-line front end for measurements, protocols, and trajectories.

Runs are configured by flags, optionally seeded from a JSON file given
with --config (flags override the file).  Trial i draws its randomness
from (master seed, i), so per-trial records are byte-identical no
matter how many workers run them.  Each command prints a summary JSON
on standard output that validates against the packaged
schemas/summary.json; per-trial records go to --jsonl as one JSON
object per line, written chunk by chunk as the chunks arrive.

Exit codes: 0 success, 2 configuration or validation error, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import json
import math
import os
import sys
from collections import Counter
from functools import partial

import jsonschema
import numpy as np

from .fock import (OverOccupiedError, PureState, TruncationError,
                   single_photon, vacuum)
from .optics import (BeamsplitterSpec, HADAMARD, IDENTITY, PAULI_X, PAULI_Z,
                     beamsplitter, check_unitary, dual_rail_bell,
                     single_rail_bell)
from .povm import apm_density, apm_sample, homodyne_density, photon_count
from .protocols import PrepSpec, run_protocol_trial, trajectory_apm
from .runner import (chunk_ranges, map_chunks, trial_rng, trial_rngs,
                     worker_count)
from .stats import chi2_gof_pvalue, ks_statistic
from .trajectory import (FeedbackPolicy, TrajectoryDivergedError, make_pulse,
                         run_dyne_ensemble, simulate_dyne)

SCHEMA_VERSION = 1
SAMPLE_CHUNK = 4096
PROTOCOL_CHUNK = 256
THETA_EDGES = np.linspace(0.0, 2.0 * math.pi, 33)
QUAD_EDGES = np.linspace(-8.0, 8.0, 33)
NAMED_UNITARIES = {
    "identity": IDENTITY,
    "hadamard": HADAMARD,
    "x": PAULI_X,
    "z": PAULI_Z,
}


class ConfigError(ValueError):
    """Invalid flag, config file, or state specification."""


def named_state(name: str):
    """Resolve a built-in state name to (state, canonical name)."""
    key = name.strip().lower()
    if key == "vacuum":
        return vacuum(1), key
    if key == "one":
        return single_photon(0, 1), key
    if key == "plus":
        return PureState(1, {(0,): 1.0, (1,): 1.0}).normalized(), key
    if key in ("plus-split", "babichev"):
        # single photon split 50:50 across two modes
        return beamsplitter(single_photon(0, 2), BeamsplitterSpec(0, 1, 0.5)), key
    if key == "bell-single":
        return single_rail_bell(), key
    if key == "bell-dual":
        return dual_rail_bell(), key
    if key.startswith("qubit:"):
        return _qubit_spec(*key[len("qubit:"):].split(",")).target().normalized(), key
    raise ConfigError(f"unknown state {name!r}")


def finite_float(text) -> float:
    """float() that refuses NaN and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _qubit_spec(*fields) -> PrepSpec:
    """PrepSpec from alpha and phi, given as numbers or numeric strings."""
    try:
        alpha, phi = map(finite_float, fields)
        return PrepSpec(alpha=alpha, phi=phi)
    except ValueError as exc:
        raise ConfigError(f"bad alpha,phi {','.join(map(str, fields))!r}: "
                          f"{exc}") from None


def parse_input_qubit(spec: str):
    """Logical amplitudes (c0, c1) for a gate input specification."""
    key = spec.strip().lower()
    r = 1.0 / math.sqrt(2.0)
    table = {"0": (1.0, 0.0), "1": (0.0, 1.0),
             "plus": (r, r), "minus": (r, -r)}
    if key in table:
        return tuple(complex(c) for c in table[key])
    if key.startswith("qubit:"):
        return _qubit_spec(*key[len("qubit:"):].split(",")).amplitudes()
    raise ConfigError(f"unknown input qubit {spec!r}")


def parse_unitary(spec: str) -> np.ndarray:
    """Named 2x2 unitary or file:PATH; file entries are re or [re, im]."""
    key = spec.strip()
    if key.lower() in NAMED_UNITARIES:
        return NAMED_UNITARIES[key.lower()]
    if key.lower().startswith("file:"):
        with open(key[len("file:"):]) as fh:
            raw = json.load(fh)
        try:
            return check_unitary([[_entry(c) for c in row] for row in raw])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad unitary file: {exc}") from None
    raise ConfigError(f"unknown unitary {spec!r}")


def _entry(c) -> complex:
    if isinstance(c, (int, float)):
        return complex(c)
    re, im = c
    return complex(float(re), float(im))


def parse_policy(spec: str, loop_delay: float) -> FeedbackPolicy:
    """Exactly "adaptive", "homodyne[:PHI]" or "heterodyne[:RAMP]"."""
    key = spec.strip().lower()
    if key == "adaptive":
        return FeedbackPolicy.adaptive(loop_delay=loop_delay)
    if loop_delay:
        raise ConfigError("--delay applies to the adaptive policy only")
    name, colon, arg = key.partition(":")
    if name == "homodyne":
        return FeedbackPolicy.homodyne(finite_float(arg) if colon else 0.0)
    if name == "heterodyne":
        return FeedbackPolicy.heterodyne(finite_float(arg) if colon else 50.0)
    raise ConfigError(f"unknown policy {spec!r}")


def _load_schema() -> dict:
    path = importlib.resources.files("railsim").joinpath("schemas/summary.json")
    return json.loads(path.read_text())


def _emit(command: str, config: dict, results: dict, args) -> int:
    summary = {"schema_version": SCHEMA_VERSION, "command": command,
               "config": config, "results": results}
    # The packaged schema is checked by the tests, not on every run.
    jsonschema.Draft202012Validator(_load_schema()).validate(summary)
    text = json.dumps(summary, sort_keys=True, indent=2)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


@contextlib.contextmanager
def _jsonl_writer(path: str | None, numbered: bool):
    """Yield ``write(columns)``, which writes one sorted-key JSON line per
    trial of equal-length columns; ``numbered`` adds a ``trial`` column
    that counts on across calls.  The lines go to a temporary file beside
    ``path`` (or its symlink's target) that replaces it only when the
    block succeeds, so a failed run leaves no file.  A path that exists
    but is no regular file (a pipe, /dev/stdout) is written in place;
    None writes nothing.
    """
    if path is None:
        yield lambda columns: None
        return
    encode = json.JSONEncoder(sort_keys=True).encode
    in_place = os.path.exists(path) and not os.path.isfile(path)
    path = path if in_place else os.path.realpath(path)
    tmp = path if in_place else f"{path}.{os.getpid()}.tmp"
    written = 0

    def write(columns):
        nonlocal written
        if numbered:
            rows = len(next(iter(columns.values())))
            columns = {"trial": range(written, written + rows), **columns}
            written += rows
        keys = tuple(columns)
        for row in zip(*columns.values(), strict=True):
            fh.write(encode(dict(zip(keys, row))) + "\n")

    try:
        with open(tmp, "w") as fh:
            yield write
    except BaseException:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    if not in_place:
        os.replace(tmp, path)


def _stream(fn, n, chunk_size, threads, path, fold, numbered=False) -> None:
    """Run ``fn`` over the chunks of range(n).  Each chunk's columns are
    written to the JSONL at ``path`` as they arrive, in trial order, and
    then handed to ``fold``, which keeps what the summary reads; the
    chunk is dropped after that."""
    with _jsonl_writer(path, numbered) as write:
        def consume(cols):
            write(cols)
            fold(cols)

        map_chunks(fn, chunk_ranges(n, chunk_size), consume, threads)


def _histogram(values, edges) -> dict:
    counts, _ = np.histogram(np.asarray(values), bins=edges)
    return {"edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts]}


def _moments(values) -> dict:
    v = np.asarray(values, dtype=float)
    return {"mean": float(v.mean()), "variance": float(v.var()),
            "mean_sq": float(np.mean(v * v))}


# Chunk workers return columns: a dict from JSONL key to one value per
# trial, as a float array or a list of Python values (numpy ints and
# bools do not encode as JSON).  Module level so the fork pool can
# pickle them.

def _draw_chunk(bounds, density, key, seed):
    value, p = np.array([density.draw(rng)
                         for rng in trial_rngs(seed, *bounds)]).T
    return {key: value, "density": p}


def _count_chunk(bounds, state, modes, seed):
    outs = (photon_count(state, modes, rng) for rng in trial_rngs(seed, *bounds))
    counts, probability = zip(*(([int(c) for c in o.value], o.density)
                                for o in outs))
    return {"counts": list(counts), "probability": np.array(probability)}


def _protocol_chunk(bounds, protocol, apm, seed, **target):
    records = [run_protocol_trial(protocol, apm, seed, i, rng, **target)
               for i, rng in zip(range(*bounds), trial_rngs(seed, *bounds))]
    return {key: [r[key] for r in records] for key in records[0]}


def _protocol_results(protocol, apm, seed, n, threads, path, **target) -> dict:
    """Run a prep or gate command's trials, streaming their records to the
    JSONL, and return its summary results.  Each chunk is folded into the
    success and collapse counts, the Bell-count outcomes and the
    fidelities of the successful trials, kept as one float array."""
    successes, collapsed, outcomes, fids = [], Counter(), Counter(), []

    def fold(cols):
        successes.append(sum(cols["success"]))
        collapsed.update(cols["collapsed"])  # None, 0 or 1, never a bool
        outcomes.update(",".join(map(str, c)) for c in cols["counts"]
                        if c is not None)
        fids.append(np.array([f for f in cols["fidelity"] if f is not None],
                             dtype=float))

    _stream(partial(_protocol_chunk, protocol=protocol, apm=apm, seed=seed,
                    **target), n, PROTOCOL_CHUNK, threads, path, fold)
    fids = np.concatenate(fids)
    results = {"n_trials": n, "success_rate": sum(successes) / n}
    if protocol == "gate":
        results.update(collapsed_zero_rate=collapsed[0] / n,
                       collapsed_one_rate=collapsed[1] / n,
                       counts_by_outcome=dict(sorted(outcomes.items())))
    if fids.size:
        results.update(fidelity_min=float(min(fids)),
                       fidelity_mean=float(np.mean(fids)))
    return results


def _common_ints(args):
    n = int(args.n)
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    seed = int(args.seed)
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    threads = worker_count(None if args.threads is None else int(args.threads))
    return n, seed, threads


def _trajectory_pulse(args, config):
    """The pulse of a trajectory-backend run; records it in config."""
    pulse = make_pulse(args.pulse, dt=float(args.dt))
    config.update({"pulse": pulse.kind, "dt": pulse.dt})
    return pulse


def cmd_sample(args):
    kind = args.kind
    state, state_name = named_state(args.state)
    mode = int(args.mode)
    n, seed, threads = _common_ints(args)
    backend = args.backend
    config = {"kind": kind, "state": state_name, "n": n, "seed": seed}
    if args.delay and (kind, backend) != ("apm", "trajectory"):
        raise ConfigError("--delay applies to trajectory apm sampling only")

    if kind == "count":
        if backend == "trajectory":
            raise ConfigError("count sampling has no trajectory backend")
        modes = tuple(range(state.n_modes))

        def run_count():
            by_outcome = Counter()
            _stream(partial(_count_chunk, state=state, modes=modes, seed=seed),
                    n, SAMPLE_CHUNK, threads, args.jsonl,
                    lambda cols: by_outcome.update(
                        ",".join(map(str, c)) for c in cols["counts"]),
                    numbered=True)
            results = {"n_trials": n,
                       "counts_by_outcome": dict(sorted(by_outcome.items()))}
            return _emit("sample-count", config, results, args)

        return run_count

    if not 0 <= mode < state.n_modes:
        raise ConfigError(f"mode {mode} out of range for state {state_name!r}")
    config.update({"mode": mode, "backend": backend})

    # apm and homodyne differ only in the density, its column and
    # histogram, the dyne policy, and homodyne's chi-squared test.
    if kind == "apm":
        density = apm_density(state, mode)
        key, edges = "theta", THETA_EDGES
    else:
        phi = float(args.phi)
        config["phi"] = phi
        density = homodyne_density(state, mode, phi)
        key, edges = "x", QUAD_EDGES
    if backend == "trajectory":
        pulse = _trajectory_pulse(args, config)
        if kind == "apm":
            policy = FeedbackPolicy.adaptive(loop_delay=float(args.delay))
            config["delay"] = policy.loop_delay
        else:
            policy = FeedbackPolicy.homodyne(phi)

    def run():
        if backend == "analytic":
            parts = []
            _stream(partial(_draw_chunk, density=density, key=key, seed=seed),
                    n, SAMPLE_CHUNK, threads, args.jsonl,
                    lambda cols: parts.append(cols[key]), numbered=True)
            values = np.concatenate(parts)
        else:
            values = run_dyne_ensemble(state, mode, pulse, policy, seed, n,
                                       threads=threads)[key]
            with _jsonl_writer(args.jsonl, numbered=True) as write:
                write({key: values, "density": density(values)})
        results = {"n_trials": n,
                   f"ks_{key}": float(ks_statistic(values, density.cdf)),
                   "histogram": _histogram(values, edges)}
        if kind == "homodyne" and n >= 400:
            results["chi2_p"] = float(chi2_gof_pvalue(values, density.quantile))
        results.update(_moments(values))
        return _emit(f"sample-{kind}", config, results, args)

    return run


def _protocol_apm(args, config):
    """Phase measurement of a prep or gate run; records it in config."""
    config["backend"] = args.backend
    if args.backend == "analytic":
        return apm_sample
    return partial(trajectory_apm, pulse=_trajectory_pulse(args, config))


def cmd_prep(args):
    if args.alpha is None:
        raise ConfigError("prep requires --alpha")
    spec = _qubit_spec(args.alpha, args.phi)
    n, seed, threads = _common_ints(args)
    config = {"alpha": spec.alpha, "phi": spec.phi, "n": n, "seed": seed}
    apm = _protocol_apm(args, config)

    def run():
        results = _protocol_results("prepare", apm, seed, n, threads,
                                    args.jsonl, spec=spec)
        return _emit("prep", config, results, args)

    return run


def cmd_gate(args):
    u = parse_unitary(args.u)
    c0, c1 = parse_input_qubit(args.input)
    n, seed, threads = _common_ints(args)
    config = {"u": args.u.strip().lower(), "input": args.input.strip().lower(),
              "n": n, "seed": seed}
    apm = _protocol_apm(args, config)

    def run():
        results = _protocol_results("gate", apm, seed, n, threads, args.jsonl,
                                    qubit=(c0, c1), u=u)
        return _emit("gate", config, results, args)

    return run


def cmd_trajectory(args):
    state, state_name = named_state(args.state)
    mode = int(args.mode)
    if not 0 <= mode < state.n_modes:
        raise ConfigError(f"mode {mode} out of range for state {state_name!r}")
    n, seed, threads = _common_ints(args)
    config = {"state": state_name, "mode": mode, "n": n, "seed": seed,
              "policy": args.policy.strip().lower()}
    pulse = _trajectory_pulse(args, config)
    policy = parse_policy(args.policy, float(args.delay))
    config["delay"] = policy.loop_delay
    adaptive = policy.kind == "adaptive"
    density = apm_density(state, mode) if adaptive else None

    def run():
        cols = run_dyne_ensemble(state, mode, pulse, policy, seed, n,
                                 threads=threads)
        fidelity = cols.pop("fidelity", None)
        with _jsonl_writer(args.jsonl, numbered=True) as write:
            write(cols)
        results = {"n_trials": n,
                   "mean_residual_weight": float(cols["residual_weight"].mean())}
        results.update(_moments(cols["x"]))
        if density is not None:
            results["ks_theta"] = float(ks_statistic(cols["theta"], density.cdf))
        if fidelity is not None:
            results["fidelity_min"] = float(fidelity.min())
            results["fidelity_mean"] = float(fidelity.mean())
        key, edges = ("theta", THETA_EDGES) if adaptive else ("x", QUAD_EDGES)
        results["histogram"] = _histogram(cols[key], edges)
        if args.full_record:
            series, _ = simulate_dyne(state, mode, pulse, policy,
                                      trial_rng(seed, 0), keep_series=True)
            table = np.column_stack([pulse.t, series["phases"][0],
                                     series["i_dt"][0] / pulse.dt,
                                     series["j_dt"][0] / pulse.dt,
                                     series["dw"][0]])
            np.savetxt(args.full_record, table, delimiter=",",
                       header="t,phi,i,j,dw", comments="")
        return _emit("trajectory", config, results, args)

    return run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="railsim",
        description="Adaptive phase measurements and teleported gates on "
                    "optical rail qubits.")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")
    sub_map = {}

    def dyne(p, backend=True):
        """The dyne integrator's flags; ``backend`` adds the choice of
        integrator or analytic POVM."""
        if backend:
            p.add_argument("--backend", choices=["analytic", "trajectory"],
                           default="analytic")
        p.add_argument("--dt", type=finite_float, default=1e-4,
                       help="trajectory time step")
        p.add_argument("--pulse", default="flat",
                       help="flat, raised-cosine, expdecay or expdecay:RATE")

    def common(p):
        p.add_argument("--n", type=int, default=1000, help="number of trials")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed; trial i draws from (seed, i)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: RAILSIM_THREADS or 1)")
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults; flags override it")
        p.add_argument("--jsonl", default=None,
                       help="write per-trial records to this path")
        p.add_argument("--summary", default=None,
                       help="also write the summary JSON to this path")

    ps = sub.add_parser("sample", help="draw measurement outcomes")
    ps.add_argument("kind", choices=["apm", "homodyne", "count"])
    ps.add_argument("--state", default="plus", help="built-in state name")
    ps.add_argument("--mode", type=int, default=0, help="measured mode")
    ps.add_argument("--phi", type=finite_float, default=0.0,
                    help="local-oscillator phase (homodyne)")
    dyne(ps)
    ps.add_argument("--delay", type=finite_float, default=0.0,
                    help="feedback loop delay (trajectory apm)")
    common(ps)
    sub_map["sample"] = ps

    pp = sub.add_parser("prep", help="deterministic state preparation")
    pp.add_argument("--alpha", type=finite_float, default=None,
                    help="target amplitude of |0>")
    pp.add_argument("--phi", type=finite_float, default=0.0, help="target phase")
    dyne(pp)
    common(pp)
    sub_map["prep"] = pp

    pg = sub.add_parser("gate", help="teleportation-based single-qubit gate")
    pg.add_argument("--u", default="identity",
                    help="identity|hadamard|x|z|file:PATH")
    pg.add_argument("--input", default="0",
                    help="0|1|plus|minus|qubit:alpha,phi")
    dyne(pg)
    common(pg)
    sub_map["gate"] = pg

    pt = sub.add_parser("trajectory", help="dyne trajectory ensembles")
    pt.add_argument("--state", default="plus")
    pt.add_argument("--mode", type=int, default=0)
    pt.add_argument("--policy", default="adaptive",
                    help="adaptive, homodyne[:PHI] or heterodyne[:RAMP]")
    dyne(pt, backend=False)
    pt.add_argument("--delay", type=finite_float, default=0.0,
                    help="feedback loop delay (adaptive)")
    pt.add_argument("--full-record", dest="full_record", default=None,
                    help="write t,phi,i,j,dw of trial 0 to this CSV")
    common(pt)
    sub_map["trajectory"] = pt

    return parser, sub_map


def _load_config_file(path: str, sub: argparse.ArgumentParser) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    unknown = sorted(set(raw) - set(actions))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _config_value(actions[key], value) for key, value in raw.items()}


def _config_value(action: argparse.Action, value):
    """Convert and check a config-file value as argparse would the flag."""
    try:
        if action.type is None and not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        value = value if action.type is None else action.type(str(value))
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{value!r} is not one of {list(action.choices)}")
    except ValueError as exc:
        raise ConfigError(f"config key {action.dest!r}: {exc}") from None
    return value


HANDLERS = {"sample": cmd_sample, "prep": cmd_prep, "gate": cmd_gate,
            "trajectory": cmd_trajectory}


def main(argv=None) -> int:
    parser, sub_map = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            file_cfg = _load_config_file(args.config, sub_map[args.cmd])
            sub_map[args.cmd].set_defaults(**file_cfg)
            args = parser.parse_args(argv)
        plan = HANDLERS[args.cmd](args)
    except (ConfigError, OverOccupiedError, ValueError, OSError,
            MemoryError) as exc:
        print(f"railsim: {exc}", file=sys.stderr)
        return 2
    try:
        return plan()
    except (OverOccupiedError, TruncationError, TrajectoryDivergedError,
            ValueError, ArithmeticError, RuntimeError, OSError,
            MemoryError) as exc:
        print(f"railsim: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
