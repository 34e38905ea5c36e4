"""Command line: parsing, exit codes, summary schema, reproducibility."""

import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import railsim
from railsim import cli, povm, protocols
from railsim.cli import (ConfigError, main, named_state, parse_input_qubit,
                         parse_policy, parse_unitary)
from railsim.fock import single_photon
from railsim.optics import (HADAMARD, BeamsplitterSpec, beamsplitter,
                            dual_rail_bell)
from railsim.povm import (apm_density, apm_sample, homodyne_density,
                          homodyne_sample)
from railsim.protocols import (PrepSpec, qubit_state, run_protocol_trial,
                               trajectory_apm)
from railsim.runner import trial_rng
from railsim.trajectory import make_pulse

import dict_ops
from state_lanes import wiener_increments
from summary_schema import load_schema, validate

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_main(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if rc == 0 else None)


def test_packaged_summary_schema_is_valid():
    # the tests validate summaries against it without checking it first
    jsonschema.Draft202012Validator.check_schema(load_schema())


# ---- parsing helpers ----

def test_named_states():
    state, name = named_state("Vacuum")
    assert name == "vacuum" and state.n_modes == 1
    split, _ = named_state("plus-split")
    bab, _ = named_state("babichev")
    assert split.n_modes == 2
    assert sorted(split.items()) == sorted(bab.items())
    q, _ = named_state("qubit:0.6,0.5")
    assert np.isclose(q.amp((0,)), 0.6)
    assert np.isclose(q.amp((1,)), 0.8 * np.exp(-0.5j))
    with pytest.raises(ConfigError):
        named_state("bogus")
    with pytest.raises(ConfigError):
        named_state("qubit:1.5,0")


def test_parse_input_qubit():
    r = 1.0 / math.sqrt(2.0)
    assert parse_input_qubit("plus") == (complex(r), complex(r))
    c0, c1 = parse_input_qubit("qubit:0.6,0.0")
    assert np.isclose(c0, 0.6) and np.isclose(c1, 0.8)
    with pytest.raises(ConfigError):
        parse_input_qubit("qubit:2,0")
    with pytest.raises(ConfigError):
        parse_input_qubit("left")


def test_parse_unitary_named_and_file(tmp_path):
    assert np.allclose(parse_unitary("Hadamard"), HADAMARD)
    path = tmp_path / "u.json"
    path.write_text(json.dumps([[0.6, 0.8], [0.8, -0.6]]))
    u = parse_unitary(f"file:{path}")
    assert np.allclose(u, [[0.6, 0.8], [0.8, -0.6]])
    path.write_text(json.dumps([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]))
    assert np.allclose(parse_unitary(f"file:{path}"), 1j * np.eye(2))
    path.write_text(json.dumps([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        parse_unitary(f"file:{path}")
    path.write_text(json.dumps([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(ConfigError):
        parse_unitary(f"file:{path}")


def test_parse_policy():
    assert parse_policy("adaptive", 0.01).loop_delay == 0.01
    assert parse_policy("homodyne:0.4", 0.0).phi0 == 0.4
    assert parse_policy("heterodyne:25", 0.0).ramp == 25.0
    with pytest.raises(ConfigError):
        parse_policy("homodyne", 0.01)  # delay is adaptive-only
    with pytest.raises(ConfigError):
        parse_policy("sideways", 0.0)


# ---- exit codes ----

def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "apm", "--bogus"])
    assert exc.value.code == 2


def test_config_errors_exit_2(capsys, tmp_path):
    assert main(["sample", "apm", "--state", "nope"]) == 2
    assert main(["sample", "count", "--backend", "trajectory"]) == 2
    assert main(["sample", "apm", "--mode", "5"]) == 2
    assert main(["prep"]) == 2
    assert main(["prep", "--alpha", "1.5"]) == 2
    assert main(["sample", "apm", "--n", "0"]) == 2
    assert main(["trajectory", "--policy", "homodyne", "--delay", "0.1"]) == 2
    assert main(["trajectory", "--pulse", "square"]) == 2
    # pulse and policy names match exactly, never by prefix
    capsys.readouterr()
    for argv in (["--pulse", "expdecay8"], ["--pulse", "expdecayXYZ"],
                 ["--policy", "homodyne0.3"], ["--policy", "heterodyneX"]):
        assert main(["trajectory", *argv]) == 2, argv
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in lines] == ["railsim:"] * 4
    # an empty number after the colon is named by its flag and grammar
    for argv, grammar in ((["--pulse", "expdecay:"], "--pulse expdecay:RATE"),
                          (["--policy", "homodyne:"], "--policy homodyne[:PHI]"),
                          (["--policy", "heterodyne:"],
                           "--policy heterodyne[:RAMP]")):
        assert main(["trajectory", *argv]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"railsim: {grammar} needs a finite"), err
        assert err.endswith(", got ''\n") and err.count("\n") == 1, err
    # a loop delay exists only where a trajectory runs the adaptive policy
    for argv in (["sample", "homodyne"],
                 ["sample", "homodyne", "--backend", "trajectory"],
                 ["sample", "apm"], ["sample", "count"]):
        assert main(argv + ["--delay", "0.3"]) == 2, argv
    # numbers inside a state, input or policy specification must be finite
    assert main(["gate", "--input", "qubit:0.5,nan", "--n", "4"]) == 2
    assert main(["sample", "apm", "--state", "qubit:inf,0"]) == 2
    assert main(["trajectory", "--policy", "homodyne:nan"]) == 2
    assert main(["trajectory", "--policy", "heterodyne:inf"]) == 2
    # a pulse rate must be finite and positive; it is refused before numpy
    # evaluates the envelope, so no RuntimeWarning is raised
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for rate in ("inf", "nan"):
            assert main(["trajectory", "--pulse", f"expdecay:{rate}"]) == 2, rate
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("finite and positive") == 2
    assert "RuntimeWarning" not in err
    # config-file values get the checks of the flags they stand for
    cfg = tmp_path / "cfg.json"
    for raw, argv in (({"state": 5}, ["sample", "apm"]),
                      ({"backend": "bogus"}, ["sample", "apm"]),
                      ({"backend": "bogus"}, ["gate"]),
                      ({"n": 2.7}, ["sample", "apm"]),
                      ({"phi": math.nan}, ["sample", "homodyne"]),
                      ({"alpha": math.nan}, ["prep"]),
                      ({"dt": math.inf}, ["trajectory"]),
                      ({"delay": "nan"}, ["trajectory"])):
        cfg.write_text(json.dumps(raw))
        assert main(argv + ["--config", str(cfg)]) == 2, raw
    err = capsys.readouterr().err
    assert "railsim:" in err


def test_non_finite_float_flags_exit_2(capsys):
    # argparse refuses them before any work, with its own SystemExit(2)
    for argv in (["sample", "homodyne", "--phi", "nan"],
                 ["prep", "--alpha", "0.5", "--phi", "nan"],
                 ["prep", "--alpha", "inf"],
                 ["gate", "--backend", "trajectory", "--dt", "inf"],
                 ["trajectory", "--delay", "nan"],
                 ["trajectory", "--delay", "inf"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "finite" in capsys.readouterr().err


def _readme_commands():
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("railsim ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids="_".join)
def test_readme_command_lines_run(argv, capsys, tmp_path, monkeypatch):
    # each documented command runs as written, at a small trial count
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--n", "20"]) == 0
    validate(json.loads(capsys.readouterr().out))


# ---- sampling commands ----

def test_sample_apm_summary(capsys):
    rc, summary = run_main(capsys, ["sample", "apm", "--state", "plus",
                                    "--n", "500", "--seed", "3"])
    assert rc == 0
    validate(summary)
    assert summary["command"] == "sample-apm"
    assert summary["config"]["backend"] == "analytic"
    res = summary["results"]
    assert res["n_trials"] == 500
    assert res["ks_theta"] < 0.08
    assert sum(res["histogram"]["counts"]) == 500
    assert 0.0 <= res["mean"] <= 2.0 * math.pi


def test_sample_apm_trajectory_backend(capsys):
    rc, summary = run_main(capsys, ["sample", "apm", "--state", "plus",
                                    "--backend", "trajectory", "--dt", "2e-3",
                                    "--n", "200", "--seed", "1"])
    assert rc == 0
    validate(summary)
    assert summary["config"]["pulse"] == "flat"
    assert summary["results"]["ks_theta"] < 0.12


def test_sample_homodyne_chi2_presence(capsys):
    rc, big = run_main(capsys, ["sample", "homodyne", "--state", "one",
                                "--n", "500", "--seed", "2"])
    assert rc == 0
    validate(big)
    assert big["results"]["ks_x"] < 0.08
    assert 0.0 <= big["results"]["chi2_p"] <= 1.0
    # photon number state: quadrature second moment is 3
    assert abs(big["results"]["mean_sq"] - 3.0) < 0.5
    rc, small = run_main(capsys, ["sample", "homodyne", "--state", "one",
                                  "--n", "100", "--seed", "2"])
    assert rc == 0
    assert "chi2_p" not in small["results"]


def test_sample_count_vacuum(capsys, tmp_path):
    jsonl = tmp_path / "counts.jsonl"
    rc, summary = run_main(capsys, ["sample", "count", "--state", "vacuum",
                                    "--n", "50", "--jsonl", str(jsonl)])
    assert rc == 0
    validate(summary)
    assert summary["results"]["counts_by_outcome"] == {"0": 50}
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 50
    rec = json.loads(lines[7])
    assert rec["trial"] == 7
    assert rec["counts"] == [0]
    assert np.isclose(rec["probability"], 1.0)


def test_sample_count_bell_dual(capsys):
    rc, summary = run_main(capsys, ["sample", "count", "--state", "bell-dual",
                                    "--n", "400", "--seed", "8"])
    assert rc == 0
    outcomes = summary["results"]["counts_by_outcome"]
    assert set(outcomes) == {"0,1,1,0", "1,0,0,1"}
    assert sum(outcomes.values()) == 400


# ---- protocol commands ----

def test_prep_summary(capsys):
    rc, summary = run_main(capsys, ["prep", "--alpha", "0.6", "--phi", "0.785",
                                    "--n", "200", "--seed", "4"])
    assert rc == 0
    validate(summary)
    res = summary["results"]
    assert res["success_rate"] == 1.0
    assert res["fidelity_min"] > 1.0 - 1e-9
    assert res["fidelity_mean"] > 1.0 - 1e-9


def test_gate_summary_and_jsonl(capsys, tmp_path):
    jsonl = tmp_path / "gate.jsonl"
    summary_path = tmp_path / "gate.json"
    rc, summary = run_main(capsys, ["gate", "--u", "hadamard", "--input", "0",
                                    "--n", "300", "--seed", "6",
                                    "--jsonl", str(jsonl),
                                    "--summary", str(summary_path)])
    assert rc == 0
    validate(summary)
    res = summary["results"]
    assert abs(res["success_rate"] - 0.5) < 0.15
    assert res["fidelity_min"] > 1.0 - 1e-9
    total_fail = res["collapsed_zero_rate"] + res["collapsed_one_rate"]
    assert np.isclose(total_fail, 1.0 - res["success_rate"])
    assert set(res["counts_by_outcome"]) <= {"0,0", "1,0", "0,1", "2,0", "0,2"}
    # summary file holds exactly what stdout showed
    assert json.loads(summary_path.read_text()) == summary
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 300
    first = json.loads(lines[0])
    assert first["protocol"] == "gate" and first["seed"] == [6, 0]


def test_gate_unitary_from_file(capsys, tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps([[0.6, 0.8], [0.8, -0.6]]))
    rc, summary = run_main(capsys, ["gate", "--u", f"file:{path}",
                                    "--input", "1", "--n", "60", "--seed", "2"])
    assert rc == 0
    assert summary["results"]["fidelity_min"] > 1.0 - 1e-9
    path.write_text(json.dumps([[1.0, 1.0], [0.0, 1.0]]))
    assert main(["gate", "--u", f"file:{path}"]) == 2
    # Off by 3e-6: close to unitary, but not within the 1e-10 that every
    # gate requires, so it must fail at set-up rather than mid-run.
    path.write_text(json.dumps([[math.sqrt(1.0 + 3e-6), 0.0], [0.0, 1.0]]))
    assert main(["gate", "--u", f"file:{path}"]) == 2
    assert "not unitary" in capsys.readouterr().err


# ---- trajectory command ----

def test_trajectory_summary_and_full_record(capsys, tmp_path):
    csv = tmp_path / "record.csv"
    rc, summary = run_main(capsys, ["trajectory", "--state", "plus",
                                    "--dt", "1e-3", "--n", "32", "--seed", "5",
                                    "--full-record", str(csv)])
    assert rc == 0
    validate(summary)
    res = summary["results"]
    assert res["fidelity_mean"] > 0.99
    assert res["mean_residual_weight"] < 5e-3
    assert "ks_theta" in res
    assert res["histogram"]["edges"][0] == 0.0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,phi,i,j,dw"
    table = np.loadtxt(str(csv), delimiter=",", skiprows=1)
    # flat pulse at dt = 1e-3 covers 999 steps (stops short of full
    # absorption so the effective rate stays finite)
    assert table.shape == (999, 5)
    assert table[0, 0] == 0.0
    # i = sqrt(u) * j pointwise for the flat pulse (u = 1)
    assert np.allclose(table[:, 2], table[:, 3])


def test_trajectory_homodyne_policy(capsys):
    rc, summary = run_main(capsys, ["trajectory", "--state", "one",
                                    "--policy", "homodyne:0.3",
                                    "--dt", "2e-3", "--n", "24", "--seed", "5"])
    assert rc == 0
    validate(summary)
    res = summary["results"]
    assert "ks_theta" not in res and "fidelity_mean" not in res
    assert res["histogram"]["edges"][0] == -8.0


def test_trajectory_heterodyne_policy(capsys):
    rc, summary = run_main(capsys, ["trajectory", "--state", "vacuum",
                                    "--policy", "heterodyne:40",
                                    "--dt", "2e-3", "--n", "16"])
    assert rc == 0
    assert summary["config"]["policy"] == "heterodyne:40"


def test_trajectory_delay_beyond_the_pulse_equals_a_whole_pulse(capsys,
                                                                tmp_path):
    # a delay of the whole pulse or more only ever feeds back the initial
    # zero phase, so 1e300 runs like 2 and sizes no ring by the delay
    outputs = {}
    for delay in ("2", "1e300"):
        jsonl = tmp_path / f"{delay}.jsonl"
        with pytest.warns(UserWarning, match="loop delay"):
            rc = main(["trajectory", "--state", "plus-split", "--dt", "1e-2",
                       "--n", "3", "--delay", delay, "--jsonl", str(jsonl)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"].pop("delay") == float(delay)
        outputs[delay] = (summary, jsonl.read_bytes())
    assert outputs["2"] == outputs["1e300"]


def test_loop_delay_warning_prints_once_whatever_the_worker_count(tmp_path):
    # the check runs in the calling process, not in each chunk worker, and
    # names no source file; n=3000 is three chunks, so --threads 2 forks
    argv = [sys.executable, "-m", "railsim.cli", "trajectory", "--state",
            "plus-split", "--dt", "1e-2", "--delay", "2", "--n", "3000"]
    errs = []
    for threads in (1, 2):
        proc = subprocess.run(argv + ["--threads", str(threads)],
                              capture_output=True, env=_child_env(),
                              cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert errs[0].count(b"loop delay") == 1
    assert b".py" not in errs[0]


def test_memory_error_exits_with_a_message(capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 76.3 GiB")

    argv = ["trajectory", "--dt", "1e-2", "--n", "4"]
    monkeypatch.setattr(railsim.trajectory, "_LaneNoise", too_large)
    assert main(argv) == 3
    assert capsys.readouterr().err == "railsim: Unable to allocate 76.3 GiB\n"
    monkeypatch.setattr(cli, "make_pulse", too_large)
    assert main(argv) == 2
    assert capsys.readouterr().err == "railsim: Unable to allocate 76.3 GiB\n"


@pytest.mark.parametrize("n", [1, 1025])
def test_trajectory_bytes_equal_full_noise_draws(capsys, monkeypatch, tmp_path, n):
    # --n 1 and the last chunk of --n 1025 hold one lane; every chunk
    # draws its noise in blocks of steps, and one full draw per lane, as
    # the full-array oracle makes it, gives the same bytes
    def run():
        jsonl = tmp_path / "records.jsonl"
        assert main(["trajectory", "--state", "plus-split", "--dt", "1e-2",
                     "--n", str(n), "--seed", "5", "--jsonl", str(jsonl)]) == 0
        return capsys.readouterr().out, jsonl.read_bytes()

    blocks = run()
    monkeypatch.setattr(
        railsim.trajectory, "_LaneNoise",
        lambda rngs, pulse: wiener_increments(len(rngs), rngs, pulse))
    assert run() == blocks


# ---- JSONL records ----

_JSONL_ARGV = {
    "sample apm": ["sample", "apm"],
    "sample homodyne": ["sample", "homodyne"],
    "sample count": ["sample", "count"],
    "prep": ["prep", "--alpha", "0.6"],
    "gate": ["gate", "--u", "hadamard"],
    "trajectory": ["trajectory", "--dt", "1e-2"],
}


def _readme_jsonl_keys():
    """{command: keys} from README's table of JSONL records."""
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("### JSONL records", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, keys = line.strip("|").split("|")[:2]
            rows[command.strip().strip("`")] = sorted(
                re.findall(r"`(\w+)`", keys))
    return rows


def test_readme_lists_the_jsonl_keys_of_every_command():
    assert sorted(_readme_jsonl_keys()) == sorted(_JSONL_ARGV)


@pytest.mark.parametrize("command", sorted(_JSONL_ARGV),
                         ids=lambda c: c.replace(" ", "-"))
def test_jsonl_records_carry_the_readme_keys(command, capsys, tmp_path):
    jsonl = tmp_path / "records.jsonl"
    assert main(_JSONL_ARGV[command] + ["--n", "3", "--jsonl", str(jsonl)]) == 0
    capsys.readouterr()
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 3
    # json.loads keeps the file's key order, which is sorted
    assert list(json.loads(lines[0])) == _readme_jsonl_keys()[command]


def test_write_jsonl_refuses_columns_of_unequal_length(tmp_path):
    # the failed write leaves neither the file nor its temporary
    path = str(tmp_path / "records.jsonl")
    for columns in ({"trial": range(3), "theta": np.zeros(2)},
                    {"trial": range(2), "theta": np.zeros(3)}):
        with pytest.raises(ValueError):
            with cli._jsonl_writer(path, numbered=False) as write:
                write(columns)
        assert list(tmp_path.iterdir()) == []


def test_write_jsonl_encodes_float_arrays_as_python_floats(tmp_path):
    # two writes of a numbered file: the trial index counts on
    values = [0.1, 1.0 / 3.0, 2.0 * math.pi, 5e-324, 1e300]
    lines = []
    for theta in (values, np.array(values)):
        path = tmp_path / "records.jsonl"
        with cli._jsonl_writer(str(path), numbered=True) as write:
            write({"theta": theta[:2]})
            write({"theta": theta[2:]})
        lines.append(path.read_text())
    assert lines[0] == lines[1]
    assert json.loads(lines[1].splitlines()[1]) == {"trial": 1,
                                                    "theta": 1.0 / 3.0}
    assert json.loads(lines[1].splitlines()[4]) == {"trial": 4, "theta": 1e300}


def _fail_on_the_third_chunk(bounds, *args, **kwargs):
    """The chunk worker in ``.wraps``, raising on the third chunk of four
    trials.  Module level, so that the fork pool can pickle it."""
    if bounds[0] == 8:
        raise RuntimeError("chunk 3 failed")
    return _fail_on_the_third_chunk.wraps(bounds, *args, **kwargs)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", ["sample count", "gate"])
def test_failed_run_leaves_no_jsonl(command, threads, capsys, monkeypatch,
                                    tmp_path):
    # Chunks 1 and 2 are written before chunk 3 fails; the run exits 3 and
    # leaves no file at --jsonl and no temporary file beside it.
    knob, worker = {"sample count": ("SAMPLE_CHUNK", "_count_chunk"),
                    "gate": ("PROTOCOL_CHUNK", "_protocol_chunk")}[command]
    monkeypatch.setattr(cli, knob, 4)
    monkeypatch.setattr(_fail_on_the_third_chunk, "wraps", getattr(cli, worker),
                        raising=False)
    monkeypatch.setattr(cli, worker, _fail_on_the_third_chunk)
    argv = _JSONL_ARGV[command] + ["--n", "20", "--threads", str(threads),
                                   "--jsonl", str(tmp_path / "records.jsonl")]
    assert main(argv) == 3
    assert capsys.readouterr().err == "railsim: chunk 3 failed\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sample apm", "trajectory"])
def test_non_finite_summary_exits_3_and_leaves_no_file(command, capsys,
                                                      monkeypatch, tmp_path):
    # JSON has no NaN, so the summary is refused, before the JSONL
    # replaces its target and before --summary is written.
    moments = cli._moments
    monkeypatch.setattr(cli, "_moments",
                        lambda values: {**moments(values), "variance": math.nan})
    argv = _JSONL_ARGV[command] + ["--n", "8",
                                   "--jsonl", str(tmp_path / "records.jsonl"),
                                   "--summary", str(tmp_path / "summary.json")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("railsim: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_jsonl_to_a_pipe_is_written_in_place(capsys, tmp_path):
    # A pipe cannot be replaced by a finished temporary file, so its
    # records go straight to it and nothing is left beside it.
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(
        fifo.read_text().splitlines()), daemon=True)
    reader.start()
    try:
        assert main(["sample", "count", "--n", "3", "--jsonl", str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    capsys.readouterr()
    assert [json.loads(line)["trial"] for line in lines] == [0, 1, 2]
    assert list(tmp_path.iterdir()) == [fifo]



def test_jsonl_through_a_symlink_replaces_its_target(capsys, tmp_path):
    target = tmp_path / "records.jsonl"
    target.write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert main(["sample", "count", "--n", "2", "--jsonl", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and len(target.read_text().splitlines()) == 2
    assert sorted(tmp_path.iterdir()) == [link, target]

# A run that keeps every trial's records grows by about 470 B per gate
# trial and 115 B per count trial; one that streams its chunks keeps 8 B
# per successful gate trial (the fidelities) and nothing per count trial.
MEMORY_GROWTH_BOUND = 256 * 1024  # bytes from --n 256 to --n 4096


@pytest.mark.parametrize("command", ["sample count", "gate"])
def test_run_memory_does_not_grow_with_the_trials(command, capsys,
                                                  monkeypatch, tmp_path):
    # 256-trial chunks for both commands, so that both runs hold one chunk
    # of the same size.  The first run warms the caches and is not counted.
    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 256)
    argv = _JSONL_ARGV[command] + ["--seed", "1", "--threads", "1",
                                   "--jsonl", str(tmp_path / "records.jsonl")]
    peaks = []
    for n in (256, 256, 4096):
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv + ["--n", str(n)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks[2] - peaks[1] < MEMORY_GROWTH_BOUND, peaks


# ---- config files ----

def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "prep.json"
    cfg.write_text(json.dumps({"alpha": 0.6, "n": 64, "seed": 9}))
    rc, summary = run_main(capsys, ["prep", "--config", str(cfg)])
    assert rc == 0
    assert summary["config"]["n"] == 64
    assert summary["config"]["seed"] == 9
    assert summary["config"]["alpha"] == 0.6
    rc, summary = run_main(capsys, ["prep", "--config", str(cfg),
                                    "--n", "32"])
    assert rc == 0
    assert summary["config"]["n"] == 32  # flag beats file

    cfg.write_text(json.dumps({"alpha": 0.6, "bogus": 1}))
    assert main(["prep", "--config", str(cfg)]) == 2
    cfg.write_text("not json")
    assert main(["prep", "--config", str(cfg)]) == 2
    assert main(["prep", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


# ---- reproducibility across worker counts and chunk sizes ----

def _child_env(**extra):
    """Environment for a child interpreter that imports this ``railsim``.

    The absolute source directory goes first on ``PYTHONPATH``, so the
    child finds the package from any working directory, installed or not.
    """
    src = str(Path(railsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_cli(argv, threads, cwd):
    env = _child_env(RAILSIM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "railsim.cli"] + argv,
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_identical_across_worker_counts(tmp_path):
    base = ["trajectory", "--state", "plus-split", "--mode", "0",
            "--dt", "2e-3", "--n", "40", "--seed", "5"]
    blobs = {}
    for threads in (1, 3):
        jsonl = tmp_path / f"t{threads}.jsonl"
        out = _run_cli(base + ["--jsonl", str(jsonl)], threads, str(tmp_path))
        blobs[threads] = (out, jsonl.read_bytes())
    assert blobs[1] == blobs[3]


def test_trajectory_outputs_identical_across_worker_counts_on_the_pool(tmp_path):
    # n=1100 is two runner.DEFAULT_CHUNK chunks, so --threads 2 forks
    base = ["trajectory", "--state", "plus-split", "--dt", "1e-3",
            "--n", "1100", "--seed", "5"]
    blobs = {}
    for threads in (1, 2):
        jsonl = tmp_path / f"t{threads}.jsonl"
        out = _run_cli(base + ["--threads", str(threads), "--jsonl", str(jsonl)],
                       threads, str(tmp_path))
        blobs[threads] = (out, jsonl.read_bytes())
    assert blobs[1] == blobs[2]


def _outputs_at_chunk_sizes(capsys, tmp_path, monkeypatch, knob, chunks, argv):
    """(stdout, JSONL bytes) of one command at each ``cli.<knob>`` value."""
    blobs = []
    for chunk in chunks:
        monkeypatch.setattr(cli, knob, chunk)
        jsonl = tmp_path / f"c{chunk}.jsonl"
        rc = main(argv + ["--jsonl", str(jsonl)])
        assert rc == 0
        blobs.append((capsys.readouterr().out, jsonl.read_bytes()))
    return blobs


_SAMPLE_COMMANDS = {
    "apm": ["sample", "apm", "--state", "plus-split", "--n", "5000",
            "--seed", "8"],
    "homodyne": ["sample", "homodyne", "--state", "babichev", "--n", "5000",
                 "--seed", "8"],
    "count": ["sample", "count", "--state", "bell-dual", "--n", "5000",
              "--seed", "8"],
}


@pytest.mark.parametrize("kind", sorted(_SAMPLE_COMMANDS))
def test_sample_outputs_identical_across_chunk_sizes(capsys, tmp_path,
                                                     monkeypatch, kind):
    small, large = _outputs_at_chunk_sizes(
        capsys, tmp_path, monkeypatch, "SAMPLE_CHUNK", (64, 4096),
        _SAMPLE_COMMANDS[kind])
    assert small == large


@settings(max_examples=40, deadline=None)
@given(dict_ops.states(), st.data())
def test_draw_chunk_columns_equal_the_samplers(state, data):
    # The sample command's worker draws from the run's density; the
    # samplers build the density and the posterior on every call.  A
    # seed of 2**32 or more takes trial_rngs' per-trial fallback.
    mode = data.draw(st.integers(0, state.n_modes - 1), label="mode")
    assume(all(occ[mode] <= 1 for occ, _ in state.items()))
    phi = data.draw(st.floats(-2.0 * math.pi, 2.0 * math.pi), label="phi")
    start = data.draw(st.integers(0, 50), label="start")
    bounds = (start, start + data.draw(st.integers(1, 8), label="length"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    samplers = (("theta", apm_density(state, mode),
                 partial(apm_sample, state, mode)),
                ("x", homodyne_density(state, mode, phi),
                 partial(homodyne_sample, state, mode, phi)))
    for seed in (seed, 2**32 + 7):
        for key, density, sample in samplers:
            columns = cli._draw_chunk(bounds, density, key, seed)
            outs = [sample(trial_rng(seed, i)) for i in range(*bounds)]
            assert sorted(columns) == sorted([key, "density"])
            assert columns[key].tolist() == [o.value for o in outs]
            assert columns["density"].tolist() == [o.density for o in outs]


@pytest.mark.parametrize("kind", ["apm", "homodyne"])
def test_analytic_sampling_builds_no_posterior(kind, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sample run projected a state")

    monkeypatch.setattr(povm, "project_mode", refuse)
    rc, summary = run_main(capsys, ["sample", kind, "--state", "plus-split",
                                    "--n", "500", "--seed", "4"])
    assert rc == 0
    assert summary["results"]["n_trials"] == 500


_PROTOCOL_COMMANDS = {
    "gate": ["gate", "--u", "hadamard", "--input", "qubit:0.6,1.0",
             "--n", "600", "--seed", "11"],
    "prep": ["prep", "--alpha", "0.6", "--phi", "0.4", "--n", "600",
             "--seed", "11"],
}


@pytest.mark.parametrize("command", sorted(_PROTOCOL_COMMANDS))
def test_protocol_outputs_identical_across_chunk_sizes(capsys, tmp_path,
                                                       monkeypatch, command):
    small, large = _outputs_at_chunk_sizes(
        capsys, tmp_path, monkeypatch, "PROTOCOL_CHUNK", (7, 256),
        _PROTOCOL_COMMANDS[command])
    assert small == large


@pytest.mark.parametrize("backend", ["analytic", "trajectory"])
def test_protocol_chunk_columns_equal_per_trial_records(backend):
    # The chunk seeds through trial_rngs; each record of the oracle gets
    # its own trial_rng.  A seed of 2**32 or more takes trial_rngs'
    # per-trial fallback.
    apm = (apm_sample if backend == "analytic"
           else partial(trajectory_apm, pulse=make_pulse("flat", dt=1e-2)))
    targets = {"prepare": {"spec": PrepSpec(alpha=0.6, phi=0.4)},
               "gate": {"qubit": parse_input_qubit("qubit:0.6,1.0"),
                        "u": HADAMARD}}
    bounds = (5, 17)
    for seed in (11, 2**32 + 3):
        for protocol, target in targets.items():
            columns = cli._protocol_chunk(bounds, protocol, apm, seed, **target)
            records = [run_protocol_trial(protocol, apm, seed, i,
                                          trial_rng(seed, i), **target)
                       for i in range(*bounds)]
            assert all(len(col) == len(records) for col in columns.values())
            for row, record in enumerate(records):
                assert {k: col[row] for k, col in columns.items()} == record


@pytest.mark.parametrize("backend", ["analytic", "trajectory"])
def test_protocol_chunks_leave_shared_states_unchanged(backend):
    # Every trial of a run reads the same few states, built once; after
    # whole chunks they are the same objects and still equal fresh ones.
    apm = (apm_sample if backend == "analytic"
           else partial(trajectory_apm, pulse=make_pulse("flat", dt=1e-2)))
    spec = PrepSpec(alpha=0.6, phi=0.4)
    c0, c1 = parse_input_qubit("qubit:0.6,1.0")

    def shared():
        return {"bell": protocols._bell_pair(),
                "input": protocols._input_state(c0, c1),
                "split": protocols._split_photon(spec.alpha),
                "target": protocols._prep_target(spec)}

    before = shared()
    for protocol, target in (("prepare", {"spec": spec}),
                             ("teleport", {"qubit": (c0, c1)}),
                             ("gate", {"qubit": (c0, c1), "u": HADAMARD})):
        cli._protocol_chunk((0, 8), protocol, apm, 3, **target)
    fresh = {"bell": dual_rail_bell(), "input": qubit_state(c0, c1),
             "split": beamsplitter(single_photon(0, 2), BeamsplitterSpec(
                 0, 1, spec.alpha * spec.alpha)),
             "target": spec.target()}
    for name, state in shared().items():
        assert state is before[name]
        assert state.n_modes == fresh[name].n_modes
        assert list(state.items()) == list(fresh[name].items())


def test_protocol_outputs_identical_across_worker_counts(tmp_path):
    base = ["gate", "--u", "hadamard", "--input", "qubit:0.6,1.0",
            "--n", "600", "--seed", "11"]
    blobs = {}
    for threads in (1, 4):
        jsonl = tmp_path / f"g{threads}.jsonl"
        out = _run_cli(base + ["--jsonl", str(jsonl)], threads, str(tmp_path))
        blobs[threads] = (out, jsonl.read_bytes())
    assert blobs[1] == blobs[4]


_TRAJECTORY_PROTOCOLS = {
    "gate": ["gate", "--u", "hadamard", "--input", "qubit:0.6,1.0",
             "--backend", "trajectory", "--dt", "1e-2", "--seed", "11"],
    "prep": ["prep", "--alpha", "0.6", "--phi", "0.4",
             "--backend", "trajectory", "--dt", "1e-2", "--seed", "11"],
}


@pytest.mark.parametrize("command", sorted(_TRAJECTORY_PROTOCOLS))
def test_trajectory_protocol_outputs_identical_across_chunk_sizes(
        capsys, tmp_path, monkeypatch, command):
    small, large = _outputs_at_chunk_sizes(
        capsys, tmp_path, monkeypatch, "PROTOCOL_CHUNK", (7, 256),
        _TRAJECTORY_PROTOCOLS[command] + ["--n", "60"])
    assert small == large


@pytest.mark.parametrize("command", sorted(_TRAJECTORY_PROTOCOLS))
def test_trajectory_protocol_outputs_identical_across_worker_counts(
        tmp_path, command):
    # n=300 is two PROTOCOL_CHUNK chunks, so --threads 2 forks
    base = _TRAJECTORY_PROTOCOLS[command] + ["--n", "300"]
    blobs = {}
    for threads in (1, 2):
        jsonl = tmp_path / f"t{threads}.jsonl"
        out = _run_cli(base + ["--threads", str(threads), "--jsonl", str(jsonl)],
                       threads, str(tmp_path))
        blobs[threads] = (out, jsonl.read_bytes())
    assert blobs[1] == blobs[2]


def test_cli_import_loads_no_test_or_pool_module():
    # A child process, as this one has them loaded.  scipy and jsonschema
    # are test dependencies; multiprocessing only a pooled run imports.
    probe = ("import sys, railsim, railsim.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('scipy', 'jsonschema', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_runs():
    # Run the declared [project.scripts] target the way a generated
    # console-script wrapper does, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    module, func = project["project"]["scripts"]["railsim"].split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "sample", "count",
                           "--state", "vacuum", "--n", "2"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "sample-count"
