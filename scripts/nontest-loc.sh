#!/bin/sh
# Non-test lines of Rust: every .rs under crates/*/src and shims/*/src, each
# counted up to (not including) its first `#[cfg(test)]` at the start of a
# line — the test module; an indented one gates a statement, not the rest of
# the file. One line per crate (shims as one), then the total. Run from
# anywhere; pass a checkout's root to count another tree.
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' {} +
}

total=0
for dir in crates/*/src; do
    n=$(count "$dir")
    printf '%-10s %6d\n' "$(basename "$(dirname "$dir")")" "$n"
    total=$((total + n))
done
n=$(count shims/*/src)
printf '%-10s %6d\n' shims "$n"
printf '%-10s %6d\n' total $((total + n))
