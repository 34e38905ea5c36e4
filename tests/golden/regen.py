"""Rewrite the golden corpus in this directory.

Each case is one command, run in-process through ``railsim.cli.main``
with ``--jsonl`` (and ``--full-record`` where the case asks for it).
Its stdout summary, JSONL and CSV are stored as ``<case>.stdout``,
``<case>.jsonl`` and ``<case>.csv``.  ``manifest.json`` lists the cases
with their argv and records the environment that wrote them, which
``tests/test_golden.py`` compares with its own to choose exact or
tolerance mode.

    PYTHONPATH=src python tests/golden/regen.py

Run it only for a change that moves output bytes on purpose.  It prints
the corpus files it changed, added and removed, and the largest relative
difference of a float in a changed file from the committed one; list
those in the change's notes.
"""

import contextlib
import io
import json
import math
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
    # n >= 400 adds chi2_p; vacuum's table saturates in its right tail
    "sample-homodyne-chi2-plus": (("sample", "homodyne", "--state", "plus",
                                   "--phi", "1.1", "--n", "512"), False),
    "sample-homodyne-chi2-vacuum": (("sample", "homodyne", "--state", "vacuum",
                                     "--n", "512"), False),
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


def parse(suffix, text):
    """A file's values in order: JSON documents, or the CSV's header and
    rows of floats."""
    lines = text.splitlines()
    if suffix in ("stdout", "json"):
        return json.loads(text)
    if suffix == "jsonl":
        return [json.loads(line) for line in lines]
    return [lines[0], *([float(v) for v in line.split(",")] for line in lines[1:])]


def floats(value):
    """The floats of a parsed file, depth first."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from floats(item)
    elif isinstance(value, float):
        yield value


def largest_rel_diff(name: str, old: str, new: str) -> float:
    """Largest |a - b| / max(|a|, |b|) over the floats of two versions of
    one file, paired in order; inf if they hold different numbers of
    floats."""
    suffix = name.rpartition(".")[2]
    a, b = (list(floats(parse(suffix, text))) for text in (old, new))
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b)
                if x != y), default=0.0)


def corpus() -> dict:
    """{file name: text} of the corpus as it stands."""
    return {path.name: path.read_text()
            for suffix in ("stdout", "jsonl", "csv", "json")
            for path in HERE.glob(f"*.{suffix}")}


def main() -> int:
    before = corpus()
    for name in before:
        (HERE / name).unlink()
    table = cases()
    with tempfile.TemporaryDirectory() as work:
        for name, case in table.items():
            for suffix, text in run_case(case, Path(work)).items():
                (HERE / f"{name}.{suffix}").write_text(text)
    manifest = {"environment": environment(), "cases": table}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    after = corpus()
    changed = sorted(n for n in before.keys() & after.keys()
                     if before[n] != after[n])
    print(f"wrote {len(table)} cases to {HERE}")
    for label, names in (("changed", changed),
                         ("added", sorted(after.keys() - before.keys())),
                         ("removed", sorted(before.keys() - after.keys()))):
        print(f"{label} ({len(names)}): {' '.join(names) or '-'}")
    diffs = {n: largest_rel_diff(n, before[n], after[n]) for n in changed}
    if diffs:
        worst = max(diffs, key=diffs.get)
        print(f"largest relative float difference: {diffs[worst]:.3g} in {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
