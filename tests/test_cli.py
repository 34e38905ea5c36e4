"""Command line: parsing, exit codes, summary schema, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import importlib.resources
import jsonschema
import numpy as np
import pytest

import railsim
from railsim import cli
from railsim.cli import (ConfigError, main, named_state, parse_input_qubit,
                         parse_policy, parse_unitary)
from railsim.optics import HADAMARD

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_main(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if rc == 0 else None)


def validate(summary):
    schema = json.loads(importlib.resources.files("railsim")
                        .joinpath("schemas/summary.json").read_text())
    jsonschema.validate(summary, schema,
                        cls=jsonschema.Draft202012Validator)


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
    # numbers inside a state, input or policy specification must be finite
    assert main(["gate", "--input", "qubit:0.5,nan", "--n", "4"]) == 2
    assert main(["sample", "apm", "--state", "qubit:inf,0"]) == 2
    assert main(["trajectory", "--policy", "homodyne:nan"]) == 2
    assert main(["trajectory", "--policy", "heterodyne:inf"]) == 2
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


def test_sample_outputs_identical_across_chunk_sizes(capsys, tmp_path,
                                                     monkeypatch):
    small, large = _outputs_at_chunk_sizes(
        capsys, tmp_path, monkeypatch, "SAMPLE_CHUNK", (64, 4096),
        ["sample", "apm", "--state", "plus-split", "--n", "5000", "--seed", "8"])
    assert small == large


def test_protocol_outputs_identical_across_chunk_sizes(capsys, tmp_path,
                                                       monkeypatch):
    small, large = _outputs_at_chunk_sizes(
        capsys, tmp_path, monkeypatch, "PROTOCOL_CHUNK", (7, 256),
        ["gate", "--u", "hadamard", "--input", "qubit:0.6,1.0", "--n", "600",
         "--seed", "11"])
    assert small == large


def test_protocol_outputs_identical_across_worker_counts(tmp_path):
    base = ["gate", "--u", "hadamard", "--input", "qubit:0.6,1.0",
            "--n", "600", "--seed", "11"]
    blobs = {}
    for threads in (1, 4):
        jsonl = tmp_path / f"g{threads}.jsonl"
        out = _run_cli(base + ["--jsonl", str(jsonl)], threads, str(tmp_path))
        blobs[threads] = (out, jsonl.read_bytes())
    assert blobs[1] == blobs[4]


def test_cli_import_does_not_load_scipy():
    # a child process: this one has scipy loaded by the test suite
    probe = ("import sys, railsim, railsim.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
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
