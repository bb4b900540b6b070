#!/bin/sh
# Where a binary's CPU time goes, on a host without `perf`:
#
#     scripts/profile.sh [--by-file | --by-line] <binary> [args...]
#
# builds scripts/sigprof.c, preloads it into the run (whose own output goes
# to stderr), and folds the sampled addresses, every key sampled, largest
# share first:
#
# - by default into per-function shares: a sample counts for the function
#   whose code it is in, inlined callees included;
# - with --by-file into per-source-file shares: a sample counts for the
#   file of the innermost frame, inlined frames included, that is not the
#   Rust standard library's (a slice index or `Option::map` counts for the
#   code that called it). Files are named from their crate directory on
#   (`sim/src/hierarchy.rs`, `core/src/barrier.rs`, `benchmark/src/sim.rs`),
#   so this is the split by layer even where inlining has merged the layers'
#   functions into one;
# - with --by-line into per-source-line shares: the same frame as --by-file,
#   keyed by its `file:line` (`sim/src/cache.rs:212`), which says which
#   loop or call inside a layer the time is in.
#
# Build the binary with debug info (this workspace's release profile has it).
set -eu
by=function
case "${1:-}" in
--by-file) by=file; shift ;;
--by-line) by=line; shift ;;
esac
[ $# -ge 1 ] || { echo "usage: $0 [--by-file | --by-line] <binary> [args...]" >&2; exit 2; }
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cc -O2 -Wall -Werror -shared -fPIC -o "$tmp/sigprof.so" "$here/sigprof.c"
bin=$1
shift
SIGPROF_OUT="$tmp/samples" LD_PRELOAD="$tmp/sigprof.so" "$bin" "$@" >&2
# `addr2line -a -f -i`: the address, then a function line and a file:line
# line per frame, innermost first; the last function line before the next
# address is the frame that was not inlined.
addr2line -a -f -C -i -e "$bin" <"$tmp/samples" | awk -v by="$by" '
    function tally() {
        if (frame_line == 0) return
        site = own != "" ? own : innermost
        if (by == "line") site = own != "" ? own ":" own_line : innermost ":" innermost_line
        key = by == "function" ? fn : site
        if (key != "") hits[key]++
    }
    /^0x/ { tally(); fn = own = innermost = ""; frame_line = 0; samples++; next }
    ++frame_line % 2 == 1 { fn = $0; next }
    {
        path = $0
        sub(/ \(discriminator [0-9]+\)$/, "", path)
        line = path
        sub(/.*:/, "", line)
        sub(/:[0-9?]*$/, "", path)
        std = path ~ /^\/rustc\// || path ~ /\/library\/(core|alloc|std)\//
        if (match(path, /\/(crates|shims)\//)) path = substr(path, RSTART + RLENGTH)
        else if (match(path, /\/(benchmark|library)\//)) path = substr(path, RSTART + 1)
        else sub(/.*\//, "", path)
        if (innermost == "") { innermost = path; innermost_line = line }
        if (own == "" && !std) { own = path; own_line = line }
    }
    END {
        tally()
        printf "%d samples, by %s\n", samples, by
        for (key in hits) printf "%6.2f%% %8d  %s\n", 100 * hits[key] / samples, hits[key], key
    }' | sort -k1,1 -s -t% -rn
