"""Golden outputs: every case of the corpus in tests/golden, run
in-process through ``cli.main``, against its stored stdout summary,
JSONL and CSV.

Where this environment matches the manifest's (numpy version, libc and
machine), the bytes must be equal.  Elsewhere numpy's SIMD paths or
libm may round differently, so counts, booleans, strings and keys are
compared exactly and floats to a relative tolerance of ``REL_TOL``; the
test warns that it ran in that mode, and each failure names its mode.
``tests/golden/regen.py`` rewrites the corpus.
"""

import json
import math
import warnings
from pathlib import Path

import pytest

from railsim import cli

from golden.regen import environment, parse, run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
EXACT = environment() == MANIFEST["environment"]
REL_TOL, ABS_TOL = 1e-9, 1e-12
MODE = "exact" if EXACT else f"tolerance (rel {REL_TOL:g}, abs {ABS_TOL:g})"


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{where}: {got!r} != {want!r}")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(MANIFEST["cases"]))
def test_golden_output(name, tmp_path, monkeypatch):
    # Chunks of 16 trials put every sample and protocol case over several
    # chunks, so with RAILSIM_THREADS=2 they cross the fork pool.
    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 16)
    monkeypatch.setattr(cli, "PROTOCOL_CHUNK", 16)
    got = run_case(MANIFEST["cases"][name], tmp_path)
    want = {suffix: (GOLDEN / f"{name}.{suffix}").read_text() for suffix in got}
    if EXACT:
        for suffix in want:
            assert got[suffix] == want[suffix], f"[{MODE}] {name}.{suffix}"
        return
    warnings.warn(f"golden outputs compared in {MODE} mode: this environment "
                  f"{environment()} is not the corpus's "
                  f"{MANIFEST['environment']}")
    for suffix in want:
        _assert_close(parse(suffix, got[suffix]), parse(suffix, want[suffix]),
                      f"[{MODE}] {name}.{suffix}")
