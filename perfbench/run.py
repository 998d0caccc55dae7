"""treelab benchmark: one workload, measured for a set time, outputs checked.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (worker.py).  A run cycles through
the workload's input sets, all derived from --seed, until --seconds have
passed and every input set has run once.  Each time is the median over
input sets of the median over that set's passes, so one slow pass or one
unusually large input does not set the figure; each count is the mean over
input sets.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 every pass is paired with a traced pass on the same input; the
line holds the per-layer metrics (medians over traced passes) and the
tracing overhead, and spans are written under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from tracing import LAYER_METRICS
from workloads import WORK_DIR, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIMIT_S = 170  # a run must end within 180 s
PASS_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_points_per_s": "1/s",
    "unique_labels": "count",
    "target_evals": "count",
}
COUNTS = ("unique_labels", "target_evals")


def run_worker(workload: str, seed: int, trace: bool, spans: str, timeout: float) -> dict:
    """One pass in a fresh interpreter; None if it crashed or timed out."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--input-seed", str(seed), "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"pass {workload}/{seed}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass {workload}/{seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(metric: str, per_input: dict) -> float:
    """A run's figure from its values grouped by input set.  Times are the
    median over input sets of each set's median.  Counts repeat exactly on
    an input set and vary only between sets, so they are averaged over sets,
    which varies less from seed to seed than their median."""
    per_set = [statistics.median(v) for v in per_input.values() if v]
    return statistics.mean(per_set) if metric in COUNTS else statistics.median(per_set)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(map(str, failures))}", file=sys.stderr)

    def add_pass(self, wl, seed: int, result) -> None:
        """A pass's operations; all of them fail if the pass did not finish."""
        for op in wl.ops:
            self.add(f"{wl.name}/{seed}/{op}",
                     ["pass did not finish"] if result is None else result["failures"][op])

    def same(self, what: str, a: dict, b: dict) -> None:
        """Outputs that must be identical, such as two passes on one input."""
        self.add(what, [] if a["digest"] == b["digest"] else ["outputs differ"])


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple:
    """Run passes of one workload; return the tally and the metrics."""
    seeds = wl.input_seeds(seed)
    tally = Tally()
    first = {}                   # input seed -> first untraced result
    values = defaultdict(lambda: defaultdict(list))   # metric -> input seed -> values
    layers = defaultdict(list)   # per-layer metric -> traced values
    overhead = []
    spans_dir = os.path.join(WORK_DIR, "spans")
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
    start = time.monotonic()
    longest = 0.0
    i = 0
    while True:
        s = seeds[i % len(seeds)]
        t0 = time.monotonic()
        result = run_worker(wl.name, s, False, None,
                            min(LIMIT_S - (t0 - start), PASS_TIMEOUT_S))
        tally.add_pass(wl, s, result)
        if result is not None:
            if s in first:
                tally.same(f"{wl.name}/{s}: repeated pass", first[s], result)
            first.setdefault(s, result)
            for metric in END_TO_END:
                values[metric][s].append(result[metric])
        if trace:
            spans = os.path.join(spans_dir, f"{wl.name}-seed{seed}-pass{i}.jsonl")
            traced = run_worker(wl.name, s, True, spans,
                                min(LIMIT_S - (time.monotonic() - start), PASS_TIMEOUT_S))
            tally.add_pass(wl, s, traced)
            if result is not None and traced is not None:
                tally.same(f"{wl.name}/{s}: traced pass", result, traced)
                overhead.append(traced["wall_s"] - result["wall_s"])
                for metric, value in traced["layers"].items():
                    layers[metric].append(value)
        i += 1
        now = time.monotonic()
        longest = max(longest, now - t0)
        enough = i >= (1 if trace else len(seeds))
        if (enough and now - start >= seconds) or now - start + longest > LIMIT_S:
            break
    if trace:
        metrics = {m: statistics.median(v) for m, v in layers.items()}
        if overhead:
            metrics["trace.overhead_s"] = statistics.median(overhead)
        units = LAYER_METRICS
    else:
        metrics = {m: summarize(m, values[m]) for m in END_TO_END if values[m]}
        units = END_TO_END
    return tally, {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "treelab", "__init__.py")):
        print("error: treelab sources not found under src/", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tally, metrics = measure(wl, args.seed, args.seconds, bool(args.trace))
    if sorted(metrics) != sorted(LAYER_METRICS if args.trace else END_TO_END):
        print("error: no pass finished; nothing was measured", file=sys.stderr)
        tally.failed = max(tally.failed, 1)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
