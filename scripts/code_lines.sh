#!/usr/bin/env bash
# Counts code lines: every non-blank, non-comment line of Rust under
# `crates/*/src` and `src/`, except `#[cfg(test)] mod …` modules (inline
# blocks and their out-of-line declarations) and `tests.rs` files.
# A `#[cfg(test)]` item that is not a module (a helper fn) is counted.
# Nothing under `benchmark/` or `tests/` is counted.
#
# Usage: scripts/code_lines.sh [repo-root]   (default: the script's repo)
# Prints one line per crate, then the total.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count_file() {
    awk '
        function trim(s) { sub(/^[ \t]+/, "", s); sub(/[ \t]+$/, "", s); return s }
        # Inside a skipped test module: wait for the close brace at the
        # indentation of its `mod` line (rustfmt layout).
        skip_until != "" {
            if ($0 == skip_until) skip_until = ""
            next
        }
        {
            t = trim($0)
            if (t == "" || t ~ /^\/\//) next
            if (cfg_test) {
                cfg_test = 0
                if (t ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ *;$/) next
                if (t ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ *\{$/) {
                    match($0, /^[ \t]*/)
                    skip_until = substr($0, 1, RLENGTH) "}"
                    next
                }
                n++   # the attribute belongs to a counted item
            }
            if (t == "#[cfg(test)]") { cfg_test = 1; next }
            n++
        }
        END { print n + 0 }
    ' "$1"
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    case "$dir" in
        crates/*) name="${dir#crates/}"; name="${name%/src}" ;;
        *) name="(root)" ;;
    esac
    lines=0
    while IFS= read -r file; do
        lines=$((lines + $(count_file "$file")))
    done < <(find "$dir" -name '*.rs' ! -name tests.rs | sort)
    printf '%-10s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
