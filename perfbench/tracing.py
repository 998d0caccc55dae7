"""Spans around treelab's public functions, recorded from the benchmark side.

Nothing in `src/` is edited: `install` replaces each measured function in
every treelab module that binds its name (the modules import each other with
`from .core import ...`, so patching `treelab.core` alone would miss the
references held by `treelab.learners` and `treelab.local`), and replaces
measured methods on their class.  Spans are kept in memory and written out
once the pass ends; per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

# Per-layer metric names, in the order BENCHMARK.json lists them, with units.
LAYER_METRICS = {
    "core.consistent_indices.calls": "count",
    "core.consistent_indices.s": "s",
    "core.consistent_indices.points_scanned": "count",
    "core.consistent_indices.hit_ratio": "ratio",
    "core.draw_minibatch.calls": "count",
    "core.draw_minibatch.self_s": "s",
    "core.RandomnessTape.substream.calls": "count",
    "core.RandomnessTape.substream.s": "s",
    "core.StrandTracker.advance.calls": "count",
    "core.StrandTracker.advance.s": "s",
    "core.StrandTracker.distinct_paths.calls": "count",
    "core.StrandTracker.distinct_paths.s": "s",
    "core.StrandTracker.size_estimate.calls": "count",
    "core.StrandTracker.size_estimate.s": "s",
    "core.LabelOracle.init.s": "s",
    "core.LabelOracle.labels_for.calls": "count",
    "core.LabelOracle.labels_for.s": "s",
    "core.LabelOracle.labels_for.requested": "count",
    "core.LabelOracle.labels_for.fresh": "count",
    "core.LabelOracle.labels_for.fresh_ratio": "ratio",
    "core.read_dataset.s": "s",
    "core.read_dataset.rows": "count",
    "core.read_dataset.bytes": "bytes",
    "core.write_dataset.s": "s",
    "core.write_dataset.rows": "count",
    "core.write_dataset.bytes": "bytes",
    "impurity.batch_local_gains.calls": "count",
    "impurity.batch_local_gains.s": "s",
    "impurity.batch_local_gains.rows": "count",
    "impurity.batch_local_gains.computed_bytes": "bytes",
    "learners.minibatch_top_down.s": "s",
    "learners.top_down_full.s": "s",
    "learners.top_down_size_estimate.s": "s",
    "learners.score_leaf.calls": "count",
    "learners.score_leaf.self_s": "s",
    "learners.GrowthState.best.calls": "count",
    "learners.GrowthState.best.s": "s",
    "learners.GrowthState.best.frontier_scanned": "count",
    "learners.splits": "count",
    "local.LocalLearnerSession.predict.calls": "count",
    "local.LocalLearnerSession.predict.self_s": "s",
    "local.LocalLearnerSession.predict.ms_p50": "ms",
    "local.LocalLearnerSession.predict.ms_pNN": "ms",
    "local.LocalLearnerSession.predict.pNN": "pct",
    "local.replay_steps": "count",
    "estimator.estimate_learnability.s": "s",
    "estimator.estimate_learnability.self_s": "s",
    "trees.tree_from_splits.s": "s",
    "trees.evaluate_masks.s": "s",
    "trees.serialize_tree.s": "s",
    "targets.eval_masks.calls": "count",
    "targets.eval_masks.points": "count",
    "targets.eval_masks.s": "s",
    "targets.sample_dataset.s": "s",
    "cli.gen-data.s": "s",
    "cli.gen-data.self_s": "s",
    "cli.train.s": "s",
    "cli.train.self_s": "s",
    "cli.local-predict.s": "s",
    "cli.local-predict.self_s": "s",
    "cli.estimate.s": "s",
    "cli.estimate.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder for one pass.

    A span is [name, start, end, parent index]; `counters` holds the work
    counts taken at the same boundaries.  Recording stops when `active` is
    cleared, so output checks after the pass leave no spans.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.active = True
        self._stack: list = []

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span called `name`.  `before(args)` runs ahead of
        the span and its result is passed to `after(args, result, pre)`, which
        runs once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after:
                after(args, kwargs, result, pre)
            return result

        return traced

    def write(self, path: str, pass_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def tail_percentile(n: int, beyond: int = 10):
    """Highest whole percentile p in [50, 99] whose nearest-rank position
    leaves at least `beyond` of n samples above it; None if there is none."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of one pass; a layer the pass never entered
    reads 0."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for (name, start, end, _), self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        durations[name].append(end - start)
    c = tracer.counters
    predict = "local.LocalLearnerSession.predict"
    ms = [1e3 * s for s in durations[predict]]
    tail = tail_percentile(len(ms))
    out = {
        "core.consistent_indices.points_scanned": c["points_scanned"],
        "core.consistent_indices.hit_ratio": _ratio(c["pool_points"], c["points_scanned"]),
        "core.LabelOracle.labels_for.requested": c["labels_requested"],
        "core.LabelOracle.labels_for.fresh": c["labels_fresh"],
        "core.LabelOracle.labels_for.fresh_ratio": _ratio(c["labels_fresh"],
                                                          c["labels_requested"]),
        "core.read_dataset.rows": c["read_rows"],
        "core.read_dataset.bytes": c["read_bytes"],
        "core.write_dataset.rows": c["write_rows"],
        "core.write_dataset.bytes": c["write_bytes"],
        "impurity.batch_local_gains.rows": c["gain_rows"],
        "impurity.batch_local_gains.computed_bytes": c["gain_bytes"],
        "learners.GrowthState.best.frontier_scanned": c["frontier_scanned"],
        "learners.splits": calls["learners.GrowthState.apply"],
        f"{predict}.ms_p50": percentile(ms, 50) if ms else 0.0,
        f"{predict}.ms_pNN": percentile(ms, tail) if tail else 0.0,
        f"{predict}.pNN": tail or 0,
        "local.replay_steps": c["replay_steps"],
        "targets.eval_masks.points": c["target_points"],
        "trace.spans": len(tracer.spans),
    }
    for metric in LAYER_METRICS:
        if metric in out:
            continue
        name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls[name]
        elif stat == "s":
            out[metric] = total[name]
        elif stat == "self_s":
            out[metric] = own[name]
    return out


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _stream_bytes(fp) -> int:
    """Size of the file behind a dataset stream."""
    fp.flush()
    return os.fstat(fp.fileno()).st_size


def _hooks(c):
    """(before, after) counter hooks, keyed by span name."""

    def scanned(args, kwargs, pool, pre):
        c["points_scanned"] += len(_arg(args, kwargs, 0, "masks"))
        c["pool_points"] += len(pool)

    def oracle_before(args, kwargs):
        return args[0].query_count

    def oracle_after(args, kwargs, labels, before):
        c["labels_requested"] += len(labels)
        c["labels_fresh"] += args[0].query_count - before

    def read_after(args, kwargs, ds, pre):
        c["read_rows"] += ds.n
        c["read_bytes"] += _stream_bytes(_arg(args, kwargs, 0, "fp"))

    def write_after(args, kwargs, result, pre):
        c["write_rows"] += _arg(args, kwargs, 0, "ds").n
        c["write_bytes"] += _stream_bytes(_arg(args, kwargs, 1, "fp"))

    def gains_after(args, kwargs, gains, pre):
        rows = len(_arg(args, kwargs, 1, "masks"))
        c["gain_rows"] += rows
        c["gain_bytes"] += rows * _arg(args, kwargs, 3, "d") * 8  # int64 bit matrix

    def frontier_before(args, kwargs):
        c["frontier_scanned"] += len(args[0].frontier)

    def replay_after(args, kwargs, label, pre):
        c["replay_steps"] += len(args[0].last_trace)

    def points_after(args, kwargs, labels, pre):
        c["target_points"] += len(labels)

    return {
        "core.consistent_indices": (None, scanned),
        "core.LabelOracle.labels_for": (oracle_before, oracle_after),
        "core.read_dataset": (None, read_after),
        "core.write_dataset": (None, write_after),
        "impurity.batch_local_gains": (None, gains_after),
        "learners.GrowthState.best": (frontier_before, None),
        "local.LocalLearnerSession.predict": (None, replay_after),
        "targets.eval_masks": (None, points_after),
    }


# (module, function, span name): replaced wherever a treelab module binds it.
FUNCTIONS = [
    ("treelab.core", "consistent_indices", "core.consistent_indices"),
    ("treelab.core", "draw_minibatch", "core.draw_minibatch"),
    ("treelab.core", "read_dataset", "core.read_dataset"),
    ("treelab.core", "write_dataset", "core.write_dataset"),
    ("treelab.impurity", "batch_local_gains", "impurity.batch_local_gains"),
    ("treelab.learners", "minibatch_top_down", "learners.minibatch_top_down"),
    ("treelab.learners", "top_down_full", "learners.top_down_full"),
    ("treelab.learners", "top_down_size_estimate", "learners.top_down_size_estimate"),
    ("treelab.learners", "score_leaf", "learners.score_leaf"),
    ("treelab.estimator", "estimate_learnability", "estimator.estimate_learnability"),
    ("treelab.trees", "tree_from_splits", "trees.tree_from_splits"),
    ("treelab.trees", "evaluate_masks", "trees.evaluate_masks"),
    ("treelab.trees", "serialize_tree", "trees.serialize_tree"),
    ("treelab.targets", "sample_dataset", "targets.sample_dataset"),
    ("treelab.cli", "cmd_gen_data", "cli.gen-data"),
    ("treelab.cli", "cmd_train", "cli.train"),
    ("treelab.cli", "cmd_local_predict", "cli.local-predict"),
    ("treelab.cli", "cmd_estimate", "cli.estimate"),
]

# (module, class, method, span name): replaced on the class.
METHODS = [
    ("treelab.core", "RandomnessTape", "substream", "core.RandomnessTape.substream"),
    ("treelab.core", "StrandTracker", "advance", "core.StrandTracker.advance"),
    ("treelab.core", "StrandTracker", "distinct_paths", "core.StrandTracker.distinct_paths"),
    ("treelab.core", "StrandTracker", "size_estimate", "core.StrandTracker.size_estimate"),
    ("treelab.core", "LabelOracle", "__init__", "core.LabelOracle.init"),
    ("treelab.core", "LabelOracle", "labels_for", "core.LabelOracle.labels_for"),
    ("treelab.learners", "GrowthState", "best", "learners.GrowthState.best"),
    ("treelab.learners", "GrowthState", "apply", "learners.GrowthState.apply"),
    ("treelab.local", "LocalLearnerSession", "predict", "local.LocalLearnerSession.predict"),
]


def target_classes():
    """Every loaded TargetFunction class that defines its own eval_masks."""
    from treelab.targets import TargetFunction

    found, todo = [], [TargetFunction]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not TargetFunction and "eval_masks" in vars(cls):
            found.append(cls)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every measured treelab function and method in a span.  Modules
    of `treelab` that are not imported yet (such as `treelab.cli` outside the
    cli workload) are skipped."""
    hooks = _hooks(tracer.counters)
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "treelab" or name.startswith("treelab."))]
    for module, attr, name in FUNCTIONS:
        if module not in sys.modules:
            continue
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(name, original, *hooks.get(name, (None, None)))
        for m in loaded:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    for module, cls_name, method, name in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, method, tracer.wrap(name, vars(cls)[method],
                                         *hooks.get(name, (None, None))))
    for cls in target_classes():
        cls.eval_masks = tracer.wrap("targets.eval_masks", vars(cls)["eval_masks"],
                                     *hooks["targets.eval_masks"])
