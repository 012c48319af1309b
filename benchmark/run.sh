#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--twice]
#       Build, run the five workloads each in a fresh process with tracing
#       off, then a shorter traced pass, check every answer, and print every
#       metric as `workload metric value unit`. `--twice` runs two full sets
#       and compares them cell by cell against BENCHMARK.json's bounds.
#       Exits non-zero on any failed check or disagreement.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run, as the driver invokes it (BENCHMARK.json's `command`): the
#       last line of standard output is the result object.
#
# Everything is read and written inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default benchmark/target), scratch data and trace files
# to benchmark/out. Build output goes to standard error.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
# A relative CARGO_TARGET_DIR is relative to the invoking directory, for
# cargo and for us alike, so stay there.
target=${CARGO_TARGET_DIR:-$here/target}
bin=$target/release/sage-benchmark

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@" --out "$here/out"
    fi
done

seed=1
twice=0
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --twice) twice=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
traced_seconds=$(( (seconds + 1) / 2 ))

out=$here/out/run-$(date +%Y%m%d-%H%M%S)-$$
mkdir -p "$out"
workloads=$("$bin" list)

# One full set: every workload untraced, then every workload traced. The
# result object (last line) is kept in the set's file, not echoed.
run_set() {
    local results=$1 trace w
    for trace in 0 1; do
        local s=$seconds
        [ "$trace" = 1 ] && s=$traced_seconds
        for w in $workloads; do
            "$bin" run --workload "$w" --seed "$seed" --seconds "$s" --trace "$trace" \
                --out "$out" --append "$results" | sed '$d'
        done
    done
    "$bin" overhead "$results"
}

run_set "$out/results-1.jsonl"
if [ "$twice" = 1 ]; then
    run_set "$out/results-2.jsonl"
    "$bin" compare "$out/results-1.jsonl" "$out/results-2.jsonl" \
        --manifest "$root/BENCHMARK.json"
fi
echo "results and traces are in $out" >&2
