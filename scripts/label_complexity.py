#!/usr/bin/env python3
"""Label-complexity experiment: how many labels does estimating the would-be
tree's test error actually cost as the unlabeled training set grows?

For each dataset size n we run the estimator once and record the number of
unique labels it revealed, next to the exact error of the global tree it is
shadowing.  The label count should stay flat while n grows by orders of
magnitude.  Each row also gives wall_s, the seconds the oracle and the
estimator took, and peak_rss_mb, the process's peak resident memory so far,
which grows with n, so the curve shows time and memory as well.  Output is a
TSV on stdout.

Usage: python3 scripts/label_complexity.py [--t 32] [--b 64] [--seed 0]
"""

import argparse
import resource
import sys
import time

from treelab.core import LabelOracle, RandomnessTape
from treelab.estimator import estimate_learnability
from treelab.impurity import get_impurity
from treelab.learners import top_down_size_estimate
from treelab.targets import ReadOnceDNF, exact_error, sample_dataset


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=int, default=32)
    ap.add_argument("--b", type=int, default=64)
    ap.add_argument("--test-n", type=int, default=200)
    ap.add_argument("--impurity", default="gini")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    d = 12
    target = ReadOnceDNF(d, (frozenset({0}), frozenset({1, 2}),
                             frozenset({3, 4, 5}), frozenset({6, 7, 8, 9})))
    impurity = get_impurity(args.impurity)

    print("n\tunique_labels\tlabel_fraction\testimated_error\ttrue_error\tt_prime"
          "\twall_s\tpeak_rss_mb")
    for n in (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18):
        tape = RandomnessTape(args.seed)
        labeled = sample_dataset(target, n, tape, key=f"lc-{n}")
        unlabeled = labeled.unlabeled()
        test = sample_dataset(target, args.test_n, tape, key=f"lc-test-{n}")
        start = time.perf_counter()
        oracle = LabelOracle(target, unlabeled)
        rep = estimate_learnability(args.t, args.b, unlabeled, oracle, test,
                                    impurity, tape)
        wall_s = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        glob = top_down_size_estimate(args.t, args.b, labeled, impurity, tape)
        true_err = exact_error(target, glob.tree)
        print(f"{n}\t{rep.unique_labels}\t{rep.unique_labels / n:.5f}\t"
              f"{rep.error:.4f}\t{true_err:.4f}\t{glob.tree.size}\t"
              f"{wall_s:.3f}\t{peak_rss_mb:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
