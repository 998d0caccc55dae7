"""One workload pass in a fresh interpreter, so that its set-up time and peak
memory belong to it alone.  `run.py` starts this script; it prints one JSON
line: the pass's end-to-end figures, its output digests, its failed checks
and, when traced, its per-layer metrics.

    python3 perfbench/worker.py --workload estimate --input-seed 7 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class TargetEvals:
    """Counts the points a target function is evaluated on.  Installed in
    every pass, traced or not, since target_evals is an end-to-end metric."""

    def __init__(self):
        self.points = 0

    def install(self, classes) -> None:
        for cls in classes:
            cls.eval_masks = self._counted(vars(cls)["eval_masks"])

    def _counted(self, eval_masks):
        def counted(target, masks):
            labels = eval_masks(target, masks)
            self.points += len(labels)
            return labels

        return counted


def run_pass(workload: str, seed: int, trace: bool, spans_path: str = None) -> dict:
    """Set up, time and check one pass on the input set `seed`."""
    wl = WORKLOADS[workload]
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    for module in wl.imports:
        __import__(module)
    evals = TargetEvals()
    evals.install(tracing.target_classes())
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = wl.setup(seed)
    try:
        setup_s = time.perf_counter() - start
        evals.points = 0
        start = time.perf_counter()
        out = wl.run(inputs)
        wall_s = time.perf_counter() - start
        target_evals = evals.points
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "test_points_per_s": out.test_points / (out.scoring_s or wall_s),
            "unique_labels": out.unique_labels,
            "target_evals": target_evals,
            "digest": out.digest,
        }
        if tracer is not None:
            tracer.active = False
            result["layers"] = tracing.layer_metrics(tracer)
            if spans_path:
                tracer.write(spans_path, f"{workload}-{seed}")
        result["failures"] = wl.check(inputs, out)
    finally:
        wl.cleanup(inputs)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.input_seed, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
