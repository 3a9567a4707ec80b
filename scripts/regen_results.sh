#!/usr/bin/env bash
# Regenerates every committed results/* file from the rmc-bench bins.
#
# "Every results/* regenerates bit-identically" is the repo's definition of
# behavioural equality, so a refactor is checked with
#
#     scripts/regen_results.sh && git diff --exit-code results/
#
# It is also the only gate on the numbers: a claim about a number is an
# `assert!` in the bin that produces it, so a broken claim stops this script
# (`set -e`) before there is anything to diff.
#
# Runs every bin in crates/bench/src/bin/, in name order. A bin's stdout is
# its results/<bin>.txt; the JSON, .prom, .folded and .trace.json companions
# are written by the bins themselves. `mcslap` runs with the flags its
# committed JSON was made with, and its stdout is not a results file. Prints
# seconds per bin and, last, their total. Fails, naming them, when files
# under results/ were not rewritten by the run: an orphan whose bin is gone.
set -euo pipefail
cd "$(dirname "$0")/.."

stamp=$(mktemp)
trap 'rm -f "$stamp"' EXIT

cargo build --release --quiet -p rmc-bench --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"
total_ms=0

# run <bin> <stdout file> [args...]; a bin's stderr is shown only if it fails
run() {
    local name=$1 out=$2 start ms err
    shift 2
    start=$(date +%s%N)
    err=$("$bin_dir/$name" "$@" 2>&1 >"$out") || {
        printf '%s\n%s failed\n' "$err" "$name" >&2
        exit 1
    }
    ms=$((($(date +%s%N) - start) / 1000000))
    total_ms=$((total_ms + ms))
    seconds "$name" "$ms"
}

# seconds <label> <milliseconds>
seconds() {
    printf '%-28s %3d.%03d s\n' "$1" $(($2 / 1000)) $(($2 % 1000))
}

for src in crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    if [ "$name" = mcslap ]; then
        run mcslap /dev/null --transport sdp --depth 4
    else
        run "$name" "results/$name.txt"
    fi
done
seconds total "$total_ms"

orphans=$(find results -type f ! -newer "$stamp" | sort)
if [ -n "$orphans" ]; then
    printf 'not rewritten by any bin:\n%s\n' "$orphans" >&2
    exit 1
fi
