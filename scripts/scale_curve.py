#!/usr/bin/env python3
"""Scale curve of the learnability estimator: labels, time and memory as the
unlabeled set grows from 2^16 to 2^24 points.

The setting is the estimate benchmark's: the d = 20 read-once DNF
1&2|3&4&5|6&7&8&9|10&11&12&13&14|15&16&17&18&19&20, gini impurity, t = 64,
b = 256, 300 test points and tape seed 7.  Each n runs in an interpreter of
its own, so peak_rss_mb, that process's peak resident memory, belongs to that
n alone.  wall_s is the seconds the oracle and the estimator took.  The
label count should stay flat while n grows.  Output is a TSV on stdout.

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


def row(n: int) -> str:
    from treelab.core import LabelOracle, RandomnessTape, sample_points
    from treelab.estimator import estimate_learnability
    from treelab.impurity import get_impurity
    from treelab.targets import parse_target, sample_dataset

    target, tape = parse_target(TARGET, D), RandomnessTape(SEED)
    points = sample_points(D, n, tape)
    test = sample_dataset(target, N_TEST, tape, key="test")
    start = time.perf_counter()
    oracle = LabelOracle(target, points)
    report = estimate_learnability(T, B, points, oracle, test, get_impurity("gini"), tape)
    wall_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return f"{n}\t{report.unique_labels}\t{report.error:.4f}\t{wall_s:.3f}\t{peak_rss_mb:.1f}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--log2-n", type=int, nargs="+", default=[16, 18, 20, 22, 24])
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        print(row(1 << args.one))
        return 0
    print("n\tunique_labels\terror\twall_s\tpeak_rss_mb", flush=True)
    for k in args.log2_n:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--one", str(k)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
