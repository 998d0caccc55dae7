#!/bin/sh
# Run the library's test suite, then the benchmark's own tests.  They need
# two pytest invocations: tests/ and perfbench/tests/ each have a conftest
# module that their tests import by name, so one run fails collection.
# Run from the repository root; extra arguments go to both pytest runs.
set -e

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors "$@"
python -m pytest -q perfbench/tests "$@"
