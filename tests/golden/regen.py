"""Rewrite the golden corpus in this directory.

Each case is one command, run in-process through ``railsim.cli.main``
with ``--jsonl`` (and ``--full-record`` where the case asks for it).
Its stdout summary, JSONL and CSV are stored as ``<case>.stdout``,
``<case>.jsonl`` and ``<case>.csv``.  ``manifest.json`` lists the cases
with their argv and records the environment that wrote them, which
``tests/test_golden.py`` compares with its own to choose exact or
tolerance mode.

    PYTHONPATH=src python tests/golden/regen.py

Run it only for a change that moves output bytes on purpose, and list
the files it changed.
"""

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from railsim import cli

HERE = Path(__file__).resolve().parent
SEEDS = (3, 2**32 + 5)  # the second takes trial_rngs' per-trial fallback
DYNE = ("--backend", "trajectory", "--dt", "1e-2")
GATE = ("gate", "--u", "hadamard", "--input", "qubit:0.6,1.0")
PREP = ("prep", "--alpha", "0.6", "--phi", "0.4")
# name: (argv without --seed, --jsonl and --full-record; whether a CSV)
COMMANDS = {
    "sample-apm": (("sample", "apm", "--state", "plus-split", "--n", "64"), False),
    "sample-apm-trajectory": (("sample", "apm", "--state", "plus-split", *DYNE,
                               "--n", "64"), False),
    "sample-homodyne": (("sample", "homodyne", "--state", "babichev",
                         "--phi", "0.4", "--n", "64"), False),
    "sample-homodyne-trajectory": (("sample", "homodyne", "--state", "plus",
                                    *DYNE, "--n", "64"), False),
    "sample-count": (("sample", "count", "--state", "bell-dual", "--n", "64"),
                     False),
    "prep-analytic": ((*PREP, "--n", "64"), False),
    "prep-trajectory": ((*PREP, *DYNE, "--n", "32"), False),
    "gate-analytic": ((*GATE, "--n", "64"), False),
    "gate-analytic-x-plus": (("gate", "--u", "x", "--input", "plus",
                              "--n", "64"), False),
    "gate-trajectory": ((*GATE, *DYNE, "--n", "32"), False),
    "trajectory-adaptive": (("trajectory", "--state", "plus-split",
                             "--dt", "1e-2", "--n", "64"), True),
    "trajectory-homodyne": (("trajectory", "--state", "plus", "--policy",
                             "homodyne:0.3", "--dt", "1e-2", "--n", "64"), False),
    "trajectory-heterodyne": (("trajectory", "--state", "plus", "--policy",
                               "heterodyne", "--dt", "1e-2", "--n", "64"), False),
    "trajectory-delay": (("trajectory", "--state", "plus-split", "--delay",
                          "3e-3", "--dt", "1e-3", "--n", "64"), False),
    "trajectory-expdecay": (("trajectory", "--state", "bell-dual", "--pulse",
                             "expdecay:4", "--dt", "1e-2", "--n", "64"), False),
}


def environment() -> dict:
    """What the corpus's bytes depend on beyond the code: numpy's SIMD
    paths and libm."""
    return {"numpy": np.__version__, "libc": list(platform.libc_ver()),
            "machine": platform.machine()}


def cases() -> dict:
    """{case name: {"argv": [...], "csv": bool}} for every command and seed."""
    return {f"{name}-s{seed}": {"argv": [*argv, "--seed", str(seed)], "csv": csv}
            for name, (argv, csv) in COMMANDS.items() for seed in SEEDS}


def run_case(case: dict, work: Path) -> dict:
    """{suffix: text} of one case: its stdout and the files it wrote."""
    argv = [*case["argv"], "--jsonl", str(work / "out.jsonl")]
    if case["csv"]:
        argv += ["--full-record", str(work / "out.csv")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    texts = {"stdout": out.getvalue(),
             "jsonl": (work / "out.jsonl").read_text()}
    if case["csv"]:
        texts["csv"] = (work / "out.csv").read_text()
    return texts


def main() -> int:
    for suffix in ("stdout", "jsonl", "csv"):
        for path in HERE.glob(f"*.{suffix}"):
            path.unlink()
    table = cases()
    with tempfile.TemporaryDirectory() as work:
        for name, case in table.items():
            for suffix, text in run_case(case, Path(work)).items():
                (HERE / f"{name}.{suffix}").write_text(text)
    manifest = {"environment": environment(), "cases": table}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(table)} cases to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
