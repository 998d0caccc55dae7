"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import run
import tracing
from workloads import Cli, Estimate, Train

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# Scaled-down workloads: the same code paths at a size a test can afford.
class SmallEstimate(Estimate):
    n, t, b, n_test = 4096, 8, 32, 20


class SmallTrain(Train):
    n, n_test, t_mb, b_mb, t_full = 4096, 20, 16, 32, 8


class SmallCli(Cli):
    n, n_test, t_train, b_train, t, b = 1024, 20, 16, 32, 8, 32


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 4.0, 8.0, 0]]
    assert tracing.self_times(spans)[0] == 3.0


def test_tracer_links_nested_spans_to_their_parent():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    tracer.active = False
    assert outer(1) == 4 and len(tracer.spans) == 2


@pytest.mark.parametrize("n, p", [(1000, 99), (300, 96), (201, 95), (20, 50), (10, None)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert tracing.tail_percentile(n) == p


def test_nearest_rank_percentile():
    values = list(range(1, 301))
    assert tracing.percentile(values, 50) == 150
    assert tracing.percentile(values, 96) == 288
    assert tracing.percentile([7.0], 50) == 7.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS.values())
    computed = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_s"}
    assert computed == set(tracing.LAYER_METRICS)


def test_estimate_check_reports_a_corrupted_error():
    wl = SmallEstimate()
    inp = wl.setup(3)
    out = wl.run(inp)
    assert wl.check(inp, out) == {"estimate": []}
    oracle, report = out.detail
    bad = dataclasses.replace(report, error=report.error + 1 / wl.n_test)
    failures = wl.check(inp, dataclasses.replace(out, detail=(oracle, bad)))
    assert len(failures["estimate"]) == 1


def test_train_check_reports_a_corrupted_digest():
    wl = SmallTrain()
    inp = wl.setup(5)
    out = wl.run(inp)
    recorded = {"5": dict(out.digest)}
    assert wl.check(inp, out, recorded) == {op: [] for op in wl.ops}
    recorded["5"]["top_down_full"] = "0" + out.digest["top_down_full"][1:]
    failures = wl.check(inp, out, recorded)
    assert failures["minibatch_top_down"] == [] and len(failures["top_down_full"]) == 1
    assert all(wl.check(inp, out, {})[op] for op in wl.ops)


def test_cli_check_parses_fields_and_reports_a_corrupted_one(tmp_path):
    wl = SmallCli()
    inp = wl.setup(11, workdir=str(tmp_path))
    try:
        out = wl.run(inp)
        assert wl.check(inp, out) == {op: [] for op in wl.ops}
        code, text, err, secs = out.detail["estimate"]
        fields = text.split()
        fields[0] = "error=0.5" if fields[0] != "error=0.5" else "error=0.25"
        detail = dict(out.detail, estimate=(code, " ".join(fields), err, secs))
        failures = wl.check(inp, dataclasses.replace(out, detail=detail))
        assert len(failures["estimate"]) == 1 and failures["local-predict"] == []
        detail = dict(out.detail, train=(1, "", "boom", secs))
        assert wl.check(inp, dataclasses.replace(out, detail=detail))["train"]
    finally:
        wl.cleanup(inp)


def test_failed_check_makes_the_run_incorrect(capsys):
    tally = run.Tally()
    tally.add_pass(Train(), 1, {"failures": {"minibatch_top_down": [],
                                             "top_down_full": ["digest differs"]}})
    tally.add_pass(Train(), 2, None)
    tally.same("repeat", {"digest": {"a": "x"}}, {"digest": {"a": "y"}})
    assert (tally.attempted, tally.failed) == (5, 4)
    assert "digest differs" in capsys.readouterr().err


def test_times_take_medians_and_counts_take_means():
    per_input = {1: [1.0, 9.0, 2.0], 2: [5.0], 3: [7.0, 8.0]}
    assert run.summarize("wall_s", per_input) == 5.0
    assert run.summarize("unique_labels", {1: [10, 10], 2: [20], 3: [60]}) == 30


TRACED_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import treelab, tracing
from test_bench import SmallEstimate
wl = SmallEstimate()
plain = wl.run(wl.setup(4)).digest
tracer = tracing.Tracer()
tracing.install(tracer)
traced = wl.run(wl.setup(4)).digest
tracer.active = False
import treelab.core, treelab.learners, treelab.local
print(json.dumps({
    "same": plain == traced,
    "metrics": tracing.layer_metrics(tracer),
    "rebound": [hasattr(m.draw_minibatch, "__wrapped__")
                for m in (treelab.core, treelab.learners, treelab.local)],
}))
"""


def test_traced_pass_wraps_every_binding_and_keeps_outputs():
    """Run in a child interpreter: install() rebinds treelab for good."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(BENCH), "src")
    proc = subprocess.run([sys.executable, "-c", TRACED_SCRIPT, BENCH, src],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=tests))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["same"] and all(result["rebound"])
    m = result["metrics"]
    assert m["local.LocalLearnerSession.predict.calls"] == SmallEstimate.n_test
    assert m["core.draw_minibatch.calls"] == m["core.consistent_indices.calls"] > 0
    assert m["core.LabelOracle.labels_for.fresh"] > 0
    assert m["core.StrandTracker.advance.calls"] > 0
    assert m["targets.eval_masks.points"] == SmallEstimate.n + SmallEstimate.n_test
    assert m["local.replay_steps"] > 0 and m["trace.spans"] > 0
