"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import time

import pytest

import run
import spans
from workloads import ROOT, WORKLOADS, _trial_index


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_excludes_enclosed_spans():
    t = spans.Tracer()
    inner = t.span("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    t.span("outer", body)()
    assert t.calls == {"outer": 1, "inner": 2}
    assert t.total["outer"] >= t.total["inner"] >= 0.02
    assert t.own["inner"] == t.total["inner"]
    assert t.own["outer"] == pytest.approx(t.total["outer"] - t.total["inner"])


def test_span_closes_when_the_call_raises():
    t = spans.Tracer()

    def fail():
        raise ValueError("boom")

    wrapped = t.span("fail", fail)
    with pytest.raises(ValueError):
        wrapped()
    assert t.calls["fail"] == 1
    assert t._open == []


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       scipy._lib
import time:        50 |        150 |     scipy
import time:       200 |        200 |       scipy.special
import time:        10 |        210 |     scipy.stats
import time:         5 |        365 |   railsim.stats
import time:        30 |         30 |   jsonschema
import time:         1 |        396 | railsim
import time:         4 |        400 | railsim.cli
"""


def test_import_times_sum_outermost_entries_of_each_package():
    assert run.import_times(IMPORTTIME) == pytest.approx(
        {"railsim": 796e-6, "scipy": 360e-6, "jsonschema": 30e-6})


def test_speed_sampler_scales_by_the_mean_unit_time():
    with run.SpeedSampler(period=0.005) as speed:
        time.sleep(0.2)
    assert len(speed.samples) >= 10
    speed.samples[:] = [2 * run.REFERENCE_UNIT_S] * 38 + [1.0, 0.0]
    # The trim drops the outliers at both ends.
    assert speed.factor() == pytest.approx(0.5)


def test_speed_sampler_samples_a_block_shorter_than_its_period():
    with run.SpeedSampler(period=10.0) as speed:
        pass
    assert len(speed.samples) == 1 and speed.factor() > 0


def test_trial_index_of_both_record_kinds():
    assert _trial_index({"trial": 3, "theta": 0.1}) == 3
    assert _trial_index({"protocol": "gate", "seed": [7, 5]}) == 5


def test_instrumentation_wraps_every_binding_and_restores_them():
    from railsim import cli, fock, povm, protocols
    apm_sample = povm.apm_sample
    cmd_gate = cli.cmd_gate
    post_init = fock.PureState.__dict__["__post_init__"]
    t = spans.Tracer()
    with spans.Instrumentation(t) as inst:
        assert povm.apm_sample is not apm_sample
        assert cli.apm_sample is povm.apm_sample is protocols.apm_sample
        assert cli.HANDLERS["gate"] is cli.cmd_gate is not cmd_gate
        assert inst.bindings > len(spans.SPANS)
        fock.vacuum(2)
    assert t.calls[spans.VALIDATE] == 1
    assert cli.apm_sample is povm.apm_sample is protocols.apm_sample is apm_sample
    assert cli.HANDLERS["gate"] is cli.cmd_gate is cmd_gate
    assert fock.PureState.__dict__["__post_init__"] is post_init


def test_traced_gate_trajectory_counts_one_lane_per_kernel_call(tmp_path):
    r = spans.InProcessRunner(WORKLOADS["gate-trajectory"], 1, tmp_path)
    _, tracer, sha = r.run(None, n=2)
    assert r.failed == 0, r.problems
    assert sha is not None
    m = spans.layer_metrics(tracer)
    assert m["trajectory.kernel_calls"] > 0
    assert m["trajectory.lanes_per_call"] == 1
    assert m["trajectory.steps"] % m["trajectory.kernel_calls"] == 0
    assert m["povm.apm_sample.calls"] == 0
    assert spans.fired_problems(WORKLOADS["gate-trajectory"], tracer) == []
    assert spans.fired_problems(WORKLOADS["gate-analytic"], tracer) != []
