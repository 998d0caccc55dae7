#!/usr/bin/env python3
"""Labels against n: what estimating the would-be tree's error costs as the
unlabeled set grows from 2^16 to 2^24 points, next to that tree's exact error.

The setting is the estimate benchmark's: the d = 20 read-once DNF
1&2|3&4&5|6&7&8&9|10&11&12&13&14|15&16&17&18&19&20, gini impurity, t = 64,
b = 256, 300 test points and tape seed 7.  Each n runs in an interpreter of
its own, so peak_rss_mb, that process's peak resident memory, belongs to that
n alone.  wall_s is the seconds the oracle and the estimator took, and both
are read before anything else runs.  target_evals counts the points the
oracle evaluated the target on, through a wrapper around the target.  Then
the n points are labeled and the global size-estimate tree is grown under
the same tape: true_error is its exact error over all 2^20 points and
t_prime its size.  The label count should stay flat while n grows, and error
should track true_error.  A row fails, and the run exits non-zero, if
target_evals differs from unique_labels or the estimator's error differs
from the tree's error on the test points.  Output is a TSV on stdout with
the columns n unique_labels target_evals error true_error t_prime wall_s
peak_rss_mb.

Usage: python3 scripts/scale_curve.py [--log2-n 16 18 20 22 24]
"""

import argparse
import os
import resource
import subprocess
import sys
import time

TARGET = "dnf:1&2|3&4&5|6&7&8&9|10&11&12&13&14|15&16&17&18&19&20"
D, T, B, N_TEST, SEED = 20, 64, 256, 300, 7


class CountedTarget:
    """`target`, counting the points it is evaluated on."""

    def __init__(self, target):
        self.target, self.d, self.points = target, target.d, 0

    def eval_masks(self, masks):
        self.points += len(masks)
        return self.target.eval_masks(masks)


def row(n: int) -> str:
    from treelab.core import LabeledDataset, LabelOracle, RandomnessTape, sample_points
    from treelab.estimator import estimate_learnability
    from treelab.impurity import get_impurity
    from treelab.learners import top_down_size_estimate
    from treelab.targets import exact_error, parse_target, sample_dataset
    from treelab.trees import evaluate_masks

    target, tape, impurity = parse_target(TARGET, D), RandomnessTape(SEED), get_impurity("gini")
    points = sample_points(D, n, tape)
    test = sample_dataset(target, N_TEST, tape, key="test")
    counted = CountedTarget(target)
    start = time.perf_counter()
    oracle = LabelOracle(counted, points)
    report = estimate_learnability(T, B, points, oracle, test, impurity, tape)
    wall_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if counted.points != report.unique_labels:
        raise RuntimeError(f"n={n}: the oracle evaluated the target on {counted.points} "
                           f"points to reveal {report.unique_labels} labels")
    labeled = LabeledDataset(D, points.masks, target.eval_masks(points.masks))
    tree = top_down_size_estimate(T, B, labeled, impurity, tape).tree
    wrong = int((evaluate_masks(tree, test.masks) != test.labels).sum())
    if report.error != wrong / N_TEST:
        raise RuntimeError(f"n={n}: estimated error {report.error!r} != the tree's "
                           f"test error {wrong / N_TEST!r}")
    return (f"{n}\t{report.unique_labels}\t{counted.points}\t{report.error:.4f}\t"
            f"{exact_error(target, tree):.4f}\t{tree.size}\t{wall_s:.3f}\t{peak_rss_mb:.1f}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--log2-n", type=int, nargs="+", default=[16, 18, 20, 22, 24])
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        print(row(1 << args.one))
        return 0
    print("n\tunique_labels\ttarget_evals\terror\ttrue_error\tt_prime\twall_s\tpeak_rss_mb",
          flush=True)
    for k in args.log2_n:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--one", str(k)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
