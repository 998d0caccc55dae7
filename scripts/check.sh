#!/bin/sh
# Run the library's test suite, the benchmark's own tests, one pass of each
# benchmark workload, README's library example, the smallest row of the scale
# curve, then the CLI demo.
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
# the CLI's outputs against the library's.  The traced pass also fails when
# tracing changes an output or a per-layer metric goes unmeasured, so a
# change to a traced layer cannot leave its trace broken until the next
# measurement.
for workload in estimate train cli; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 > /dev/null
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 1 > /dev/null
done
# The paired comparison script, run on one pair of the committed tree against
# itself, must print two lines, one per side, each with a passing run.
pairs=$(sh scripts/bench_pairs.sh HEAD HEAD estimate 1 0)
if [ "$(printf '%s\n' "$pairs" | wc -l)" -ne 2 ] ||
   [ "$(printf '%s\n' "$pairs" | grep -c '"correct": true')" -ne 2 ]; then
    echo "check.sh: scripts/bench_pairs.sh did not print two passing runs:" >&2
    printf '%s\n' "$pairs" >&2
    exit 1
fi
# The demo keeps its artifacts for inspection; here they go in a directory
# removed on exit.
DEMO_TMP=$(mktemp -d)
trap 'rm -rf "$DEMO_TMP"' EXIT
# README's ```python example runs as written, so the documented library API
# cannot go stale.
awk '/^```python$/ { on = 1; next } /^```$/ { on = 0 } on' README.md > "$DEMO_TMP/readme.py"
if [ ! -s "$DEMO_TMP/readme.py" ]; then
    echo "check.sh: README.md has no \`\`\`python example" >&2
    exit 1
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 "$DEMO_TMP/readme.py" > /dev/null
# The smallest row of the committed scale curve, which exits non-zero when the
# estimator's error differs from the global tree's test error.  The committed
# curve must have the script's columns, so it cannot go stale when one changes.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 scripts/scale_curve.py --log2-n 16 > "$DEMO_TMP/curve.tsv"
if [ "$(head -n 1 "$DEMO_TMP/curve.tsv")" != "$(grep -v '^#' scripts/scale_curve.tsv | head -n 1)" ]; then
    echo "check.sh: scripts/scale_curve.tsv does not have scripts/scale_curve.py's columns" >&2
    exit 1
fi
TMPDIR=$DEMO_TMP sh scripts/demo.sh > "$DEMO_TMP/demo.out"
cat "$DEMO_TMP/demo.out"
# The demo's stdout (saved as `stdout`, its artifact directory's path read as
# <OUT>) and every file it writes hash to scripts/demo.sha256, and it writes no
# other file.  An intended output change updates that file in the same commit.
OUT=$(sed -n '1s/^== artifacts in //p' "$DEMO_TMP/demo.out")
sed "s|$OUT|<OUT>|g" "$DEMO_TMP/demo.out" > "$OUT/stdout"
if ! (cd "$OUT" && sha256sum -c --quiet) < scripts/demo.sha256 ||
   [ "$(cd "$OUT" && LC_ALL=C ls)" != "$(awk '{ print $2 }' scripts/demo.sha256 | LC_ALL=C sort)" ]; then
    echo "check.sh: the demo's output differs from scripts/demo.sha256 (see above)," \
         "or it writes another set of files: $(cd "$OUT" && ls | tr '\n' ' ')" >&2
    exit 1
fi
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
# The trace the demo writes reads back through read_trace and is written
# again byte for byte.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c '
import sys
from treelab.core import read_trace, write_trace
with open(sys.argv[1], encoding="utf-8") as src, open(sys.argv[2], "w", encoding="utf-8") as dst:
    write_trace(read_trace(src), dst)' "$DEMO_TMP"/*/mb.trace "$DEMO_TMP/again.trace"
cmp "$DEMO_TMP"/*/mb.trace "$DEMO_TMP/again.trace"
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
