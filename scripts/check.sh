#!/bin/sh
# Run the library's test suite, the benchmark's own tests, one pass of each
# benchmark workload, the label-complexity experiment, then the CLI demo.
# The tests need two pytest invocations: tests/ and perfbench/tests/ each
# have a conftest module that their tests import by name, so one run fails
# collection.  Run from the repository root; extra arguments go to both
# pytest runs.
set -e

# The CLI reads each option's type, choices and whether it is required from
# the table build_parser keeps, not from argparse's private attributes.
if grep -nwE '_actions|_SubParsersAction|_choices_actions' src/treelab/*.py; then
    echo "check.sh: src/treelab names a private argparse attribute" >&2
    exit 1
fi
# Masks are uint32 up to d = 32, and mask arithmetic takes Python ints: under
# numpy 2's promotion rules a np.uint64 scalar widens every uint32 temporary
# to uint64, keeping the values but doubling the bytes moved.
if grep -n 'np\.uint64(' src/treelab/*.py; then
    echo "check.sh: src/treelab applies a np.uint64 scalar, which widens uint32 masks" >&2
    exit 1
fi

# --durations lists the slowest tier-1 tests, so where the suite's time goes
# shows on every check.  -W error turns any warning, such as a numpy overflow,
# cast or divide warning, into a failure.  The one warning ignored is raised
# inside hypothesis's failure report: as an error it aborts pytest with
# INTERNALERROR at the first failing @given test, hiding its assertion.
IGNORE="ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -W error -W "$IGNORE" --continue-on-collection-errors --durations=10 "$@"
python -m pytest -q -W error -W "$IGNORE" perfbench/tests "$@"
# run.py exits 1 when a pass fails its checks: the train trees and traces
# against their recorded digests, the estimate against the direct error, and
# the CLI's outputs against the library's.
for workload in estimate train cli; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 > /dev/null
done
# The label-complexity experiment the README describes, at a small t and b,
# and the smallest row of the committed scale curve.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 scripts/label_complexity.py --t 16 --b 32 > /dev/null
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 scripts/scale_curve.py --log2-n 16 > /dev/null
# The demo keeps its artifacts for inspection; here they go in a directory
# removed on exit.
DEMO_TMP=$(mktemp -d)
trap 'rm -rf "$DEMO_TMP"' EXIT
TMPDIR=$DEMO_TMP sh scripts/demo.sh
# Each tree the demo trains (d = 10) reads back through parse_tree and is
# written again byte for byte, as `train --out-tree` writes it.
for tree in "$DEMO_TMP"/*/full.tree "$DEMO_TMP"/*/mb.tree "$DEMO_TMP"/*/se.tree; do
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c '
import sys
from treelab.trees import parse_tree, serialize_tree
with open(sys.argv[1], encoding="utf-8") as src, open(sys.argv[2], "w", encoding="utf-8") as dst:
    dst.write(serialize_tree(parse_tree(src.read(), 10)) + "\n")' "$tree" "$DEMO_TMP/again.tree"
    cmp "$tree" "$DEMO_TMP/again.tree"
done
# Each file gen-data writes, labeled or not, reads back and is written again
# byte for byte, so the reader and the writer agree on the CLI's own files.
for d in 10 63; do
    for unlabeled in "" --unlabeled; do
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m treelab.cli gen-data \
            --target 'dnf:1|2&3' --d "$d" --n 5000 --seed 1 --out "$DEMO_TMP/gen.txt" $unlabeled > /dev/null
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c '
import sys
from treelab.core import read_dataset, write_dataset
with open(sys.argv[1], encoding="utf-8") as src, open(sys.argv[2], "w", encoding="utf-8") as dst:
    write_dataset(read_dataset(src), dst)' "$DEMO_TMP/gen.txt" "$DEMO_TMP/again.txt"
        cmp "$DEMO_TMP/gen.txt" "$DEMO_TMP/again.txt"
    done
done
# Every change reports the library's line count the same way.
wc -l src/treelab/*.py | tail -1
