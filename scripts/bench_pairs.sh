#!/usr/bin/env bash
# Runs the benchmark as alternating pairs, a parent revision against the
# working tree, on one workload, and judges the difference by the rule a
# host-clock claim is held to:
#
#     scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seed]
#
# (pairs defaults to 10, seed to 42). Builds benchmark/ once at
# <parent-rev> and once from the working tree (tracked files plus untracked
# ones git does not ignore), each from a copy in a temporary directory with
# its own CARGO_TARGET_DIR, so nothing is written under benchmark/, not even
# its out/. Every run is `--seed <seed> --seconds 20 --trace 0`; the change
# runs first in odd pairs and the parent first in even ones. Workloads run
# one after another, each with its own pairs and its own table.
#
# For the eight end-to-end metrics of BENCHMARK.json plus host_ops_per_s
# and setup_stopwatch_s (the fastest set-up by the clock, read from the
# "took A to B s" line) it prints each side's median [Q1-Q3], the pairs the
# change won (ties count for neither side), and whether a gain holds: the
# change won at least nine tenths of the pairs and its median is better
# than the parent's by more than the parent's Q3 - Q1. Each side's
# sim_digests come last; a side whose runs disagree is named.
set -euo pipefail
export LC_ALL=C

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload>[,<workload>...] [pairs] [seed]" >&2
    exit 2
fi
rev=$1 workloads=$2 pairs=${3:-10} seed=${4:-42}
cd "$(dirname "$0")/.."
git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
    echo "bench_pairs: not a revision: $rev" >&2
    exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent/src" "$tmp/change/src"
git archive "$rev" | tar -x -C "$tmp/parent/src"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        [ -e "$f" ] && printf '%s\0' "$f"
    done |
    tar --null -T - -cf - | tar -x -C "$tmp/change/src"

for side in parent change; do
    echo "building $side" >&2
    CARGO_TARGET_DIR="$tmp/$side/target" cargo build --release --quiet \
        --manifest-path "$tmp/$side/src/benchmark/Cargo.toml"
done

# run <side> <pair>: appends "<pair> <metric> <value>" rows to
# $tmp/<workload>.<side>.pairs and the run's digest to $tmp/<workload>.<side>.digests
run() {
    local out="$tmp/$workload.$1.$2.out"
    "$tmp/$1/target/release/rmc-benchmark" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0 </dev/null >"$out"
    awk '$1 == "sim_digest" { print $2 }' "$out" >>"$tmp/$workload.$1.digests"
    awk -v pair="$2" '
        / repetitions; setup_s: / {
            for (i = 1; i < NF; i++) if ($i == "took") print pair, "setup_stopwatch_s", $(i + 1)
        }
        NF >= 3 && $1 ~ /^(sim_[op]|host_|peak_rss_mb$|setup_s$)/ && $2 ~ /^[0-9.]+$/ {
            print pair, $1, $2
        }' "$out" >>"$tmp/$workload.$1.pairs"
}

# quartiles <side> <metric>: "Q1 median Q3", linearly interpolated
quartiles() {
    awk -v m="$2" '$2 == m { print $3 }' "$tmp/$workload.$1.pairs" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { v[NR + 1] = v[NR]; printf "%.10g %.10g %.10g\n", q(0.25), q(0.5), q(0.75) }'
}

for workload in ${workloads//,/ }; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="change parent"; else order="parent change"; fi
        for side in $order; do
            echo "$workload pair $pair/$pairs: $side" >&2
            run "$side" "$pair"
        done
    done

    echo "$workload, seed $seed, $pairs pairs of --seconds 20 --trace 0, parent $rev"
    printf '%-24s %-42s %-42s %6s  %s\n' metric "parent median [Q1-Q3]" \
        "change median [Q1-Q3]" won gain
    for metric in sim_ops_per_s sim_p50_us sim_p99_us sim_p999_us host_allocs_per_op \
        host_alloc_bytes_per_op peak_rss_mb setup_s host_ops_per_s setup_stopwatch_s; do
        case $metric in sim_ops_per_s | host_ops_per_s) higher=1 ;; *) higher=0 ;; esac
        read -r p1 pm p3 < <(quartiles parent "$metric")
        read -r c1 cm c3 < <(quartiles change "$metric")
        won=$(join <(awk -v m="$metric" '$2 == m { print $1, $3 }' "$tmp/$workload.parent.pairs" | sort) \
            <(awk -v m="$metric" '$2 == m { print $1, $3 }' "$tmp/$workload.change.pairs" | sort) |
            awk -v hi="$higher" '{ d = $3 - $2; if (hi ? d > 0 : d < 0) n++ } END { print n + 0 }')
        gain=$(awk -v hi="$higher" -v won="$won" -v n="$pairs" -v p1="$p1" -v pm="$pm" \
            -v p3="$p3" -v cm="$cm" 'BEGIN {
                d = hi ? cm - pm : pm - cm
                print (won * 10 >= n * 9 && d > p3 - p1) ? "holds" : "no"
            }')
        printf '%-24s %-42s %-42s %3s/%-2s  %s\n' "$metric" "$pm [$p1-$p3]" "$cm [$c1-$c3]" \
            "$won" "$pairs" "$gain"
    done
    for side in parent change; do
        digests=$(sort -u "$tmp/$workload.$side.digests" | tr '\n' ' ')
        echo "$side sim_digest: $digests"
        if [ "$(wc -w <<<"$digests")" -ne 1 ]; then echo "bench_pairs: $side runs disagree" >&2; fi
    done
done
