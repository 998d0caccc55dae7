#!/bin/sh
# End-to-end walkthrough of the CLI on a small read-once DNF target.
# Runs the CLI from this checkout, installed or not; artifacts land in a
# scratch directory.
set -e

REPO=$(cd "$(dirname "$0")/.." && pwd)
treelab() { PYTHONPATH="$REPO/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m treelab.cli "$@"; }

OUT=$(mktemp -d)
TARGET='dnf:1|2&3|4&5&6'
echo "== artifacts in $OUT"

echo "== generate labeled training data, an unlabeled copy, and a test set"
treelab gen-data --target "$TARGET" --d 10 --n 8192 --seed 3 --out "$OUT/train.txt"
treelab gen-data --target "$TARGET" --d 10 --n 8192 --seed 3 --out "$OUT/train_u.txt" --unlabeled
treelab gen-data --target "$TARGET" --d 10 --n 200 --seed 99 --out "$OUT/test.txt"

echo "== train all three learners"
treelab train --algo full        --t 32 --data "$OUT/train.txt" --out-tree "$OUT/full.tree"
treelab train --algo minibatch   --t 32 --b 64 --seed 7 --data "$OUT/train.txt" \
    --out-tree "$OUT/mb.tree" --out-trace "$OUT/mb.trace"
treelab train --algo size-estimate --t 32 --b 64 --seed 7 --data "$OUT/train.txt" \
    --out-tree "$OUT/se.tree"
treelab theory --t 32 --d 10

echo "== label one point with few queries"
treelab local-predict --t 32 --b 64 --seed 7 --unlabeled "$OUT/train_u.txt" \
    --target "$TARGET" --x '+---------' --report-queries

echo "== estimate the would-be tree's test error without training"
treelab estimate --t 32 --b 64 --seed 7 --unlabeled "$OUT/train_u.txt" \
    --target "$TARGET" --test "$OUT/test.txt" --budget-report "$OUT/budget.json"

echo "== strand-based size estimate of the trained tree"
treelab size-estimate --tree "$OUT/mb.tree" --d 10 --m 4096 --seed 1 --exact

echo "== sweep minibatch size (TSV)"
treelab sweep --vary b --values 8,16,32,64 --seeds 5 --target "$TARGET" \
    --d 10 --n 2048 --t 32 --test-n 200

echo "== brute-force self checks"
treelab verify --trials 100
