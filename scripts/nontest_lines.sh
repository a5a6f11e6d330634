#!/usr/bin/env bash
# Counts the non-test lines of the named crates: every `.rs` file under
# `crates/<crate>/src`, up to the file's first line containing
# `#[cfg(test)]` (the whole file when it has none), comments and blank
# lines included. Prints one `<crate> <lines>` row per crate and a total.
#
# Usage: scripts/nontest_lines.sh core stream net udp reactor experiments deploy
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <crate>..." >&2
    exit 1
fi
cd "$(dirname "$0")/.."
total=0
for crate in "$@"; do
    dir="crates/$crate/src"
    if [ ! -d "$dir" ]; then
        echo "no such crate directory: $dir" >&2
        exit 1
    fi
    lines=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
