#!/bin/sh
# Run the library's test suite, the benchmark's own tests, then the CLI demo.
# The tests need two pytest invocations: tests/ and perfbench/tests/ each
# have a conftest module that their tests import by name, so one run fails
# collection.  Run from the repository root; extra arguments go to both
# pytest runs.
set -e

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors "$@"
python -m pytest -q perfbench/tests "$@"
# The demo keeps its artifacts for inspection; here they go in a directory
# removed on exit.
DEMO_TMP=$(mktemp -d)
trap 'rm -rf "$DEMO_TMP"' EXIT
TMPDIR=$DEMO_TMP sh scripts/demo.sh
