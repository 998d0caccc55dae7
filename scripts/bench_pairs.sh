#!/bin/sh
# Alternating benchmark runs of two commits, for comparing a change with its
# parent on one workload:
#
#     scripts/bench_pairs.sh PARENT CHANGE WORKLOAD PAIRS [SECONDS]
#
# Both commits are exported with `git archive` into the directories parent/
# and change/ of one new temporary directory, so the two checkout paths have
# equal length: peak memory moves with that length, so a comparison across
# unequal paths can show a difference neither commit makes.  TMPDIR chooses
# where they go, and so the length; run again under another TMPDIR to repeat
# a comparison at a second length.  Pair k runs seed FIRST_SEED + k (default
# FIRST_SEED 1) on both sides for SECONDS (default 30) each, the parent first
# in even pairs and the change first in odd ones.  Each run prints one JSON
# line on stdout: {"pair", "side", "sha", "seed", "path_length", "result"},
# where result is perfbench/run.py's summary line (null if it printed none).
# Run from inside the repository; the checkouts are removed on exit.
set -e

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
for number in "$4" "${5:-30}" "${FIRST_SEED:-1}"; do
    case "$number" in
        ''|*[!0-9]*)
            echo "$0: PAIRS, SECONDS and FIRST_SEED must be whole numbers" >&2
            exit 2 ;;
    esac
done
parent_sha=$(git rev-parse --verify "$1^{commit}")
change_sha=$(git rev-parse --verify "$2^{commit}")
workload=$3 pairs=$4 seconds=${5:-30} first_seed=${FIRST_SEED:-1}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in parent change; do
    mkdir "$work/$side"
    [ "$side" = parent ] && sha=$parent_sha || sha=$change_sha
    git archive "$sha" | tar -x -C "$work/$side"
done

run() {
    side=$1 seed=$2 pair=$3
    [ "$side" = parent ] && sha=$parent_sha || sha=$change_sha
    dir=$work/$side
    # run.py exits 1 when a check fails; its line still says so.
    result=$(cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" | tail -n 1) || true
    printf '{"pair": %d, "side": "%s", "sha": "%s", "seed": %d, "path_length": %d, "result": %s}\n' \
        "$pair" "$side" "$sha" "$seed" "${#dir}" "${result:-null}"
}

pair=0
while [ "$pair" -lt "$pairs" ]; do
    seed=$((first_seed + pair))
    if [ $((pair % 2)) -eq 0 ]; then
        run parent "$seed" "$pair"
        run change "$seed" "$pair"
    else
        run change "$seed" "$pair"
        run parent "$seed" "$pair"
    fi
    pair=$((pair + 1))
done
