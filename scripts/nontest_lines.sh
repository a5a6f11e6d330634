#!/usr/bin/env bash
# Counts the non-test lines of the named crates: every `.rs` file under
# `crates/<crate>/src`, up to the file's first line containing
# `#[cfg(test)]` (the whole file when it has none), comments and blank
# lines included. The name `examples` counts the workspace's
# `examples/*.rs` the same way. Prints one `<name> <lines>` row per name
# and a total. With no arguments it counts every crate under `crates/`
# except `compat` (the offline stand-ins for registry crates), then
# `examples`.
#
# Usage: scripts/nontest_lines.sh [<crate>|examples...]
set -euo pipefail

cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    for dir in crates/*/; do
        crate=$(basename "$dir")
        [ "$crate" = compat ] || set -- "$@" "$crate"
    done
    set -- "$@" examples
fi
total=0
for crate in "$@"; do
    dir="crates/$crate/src"
    [ "$crate" = examples ] && dir=examples
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
