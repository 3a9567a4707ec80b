#!/usr/bin/env bash
# Prints the Rust lines of the workspace, split into library code and test
# code. Library code is every line under a package's src/ outside a
# #[cfg(test)] item; test code is those items (a `#[cfg(test)] mod x;` file
# whole), and everything under tests/, examples/ and benches/. Lines are
# counted as `wc -l` counts them: comments and blank lines included.
#
#     scripts/rust_lines.sh                one row per package, then the total
#     scripts/rust_lines.sh PATH...        one row per .rs file under each PATH
#                                          (a file or a directory), then the total
#
# The packages are the root one and crates/*; benchmark/ is a crate of its
# own and is not counted. A #[cfg(test)] item ends at the first `}` or `;` line
# at its own indentation, which is how rustfmt writes one.
set -euo pipefail
cd "$(dirname "$0")/.."

# split FILE...: prints "lib test path" for each file under a src/ directory.
split() {
    awk '
        FNR == 1 { lib[FILENAME] = 0; test[FILENAME] = 0; pending = 0; inside = 0 }
        function indent(s) { match(s, /^[ \t]*/); return RLENGTH }
        inside {
            test[FILENAME]++
            if (indent($0) == depth && $0 ~ /^[ \t]*[};]/) inside = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; depth = indent($0); test[FILENAME]++; next }
        pending && /^[ \t]*#\[/ { test[FILENAME]++; next }
        pending {
            pending = 0
            test[FILENAME]++
            if ($0 ~ /;[ \t]*$/) {
                if (match($0, /mod [A-Za-z_0-9]+;/)) {
                    name = substr($0, RSTART + 4, RLENGTH - 5)
                    dir = FILENAME
                    sub(/\/(lib|main|mod)\.rs$/, "", dir)
                    sub(/\.rs$/, "", dir)
                    gated[dir "/" name ".rs"] = 1
                    gated[dir "/" name "/mod.rs"] = 1
                }
            } else if ($0 !~ /\}[ \t]*$/) {
                inside = 1
            }
            next
        }
        { lib[FILENAME]++ }
        END {
            for (f in lib) {
                if (f in gated) print 0, lib[f] + test[f], f
                else print lib[f], test[f], f
            }
        }
    ' "$@"
}

# count FILE...: prints "lib test path" for each file.
count() {
    local src=() rest=() f
    for f in "$@"; do
        case "$f" in
            */src/*) src+=("$f") ;;
            *) rest+=("$f") ;;
        esac
    done
    if ((${#src[@]})); then split "${src[@]}"; fi
    for f in ${rest[@]+"${rest[@]}"}; do
        echo "0 $(wc -l <"$f") $f"
    done
}

# rust_files DIR...: the .rs files under each existing DIR, sorted.
rust_files() {
    local d
    for d in "$@"; do
        if [[ -f $d ]]; then echo "$d"; elif [[ -d $d ]]; then find "$d" -name '*.rs'; fi
    done | LC_ALL=C sort
}

if (($#)); then
    mapfile -t files < <(rust_files "$@")
    if ((${#files[@]} == 0)); then
        echo "no .rs file under: $*" >&2
        exit 1
    fi
    count "${files[@]}" | LC_ALL=C sort -k3 |
        awk '{ printf "%-56s %7d %7d\n", $3, $1, $2; l += $1; t += $2 }
             END { printf "%-56s %7d %7d\n", "total", l, t }'
    exit 0
fi

printf '%-20s %7s %7s\n' package lib test
for pkg in . crates/*; do
    mapfile -t files < <(rust_files "$pkg/src" "$pkg/tests" "$pkg/examples" "$pkg/benches")
    ((${#files[@]})) || continue
    count "${files[@]}" |
        awk -v pkg="${pkg/#./(root)}" '{ l += $1; t += $2 } END { print pkg, l, t }'
done | awk '{ printf "%-20s %7d %7d\n", $1, $2, $3; l += $2; t += $3 }
    END { printf "%-20s %7d %7d\n", "total", l, t }'
