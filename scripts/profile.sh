#!/bin/sh
# Where a binary's CPU time goes, on a host without `perf`:
#
#     scripts/profile.sh <binary> [args...]
#
# builds scripts/sigprof.c, preloads it into the run (whose own output goes
# to stderr), and folds the sampled addresses into per-function shares — a
# sample counts for the function whose code it is in, inlined callees
# included, every function sampled, largest share first. Build the binary
# with debug info (this workspace's release profile has it).
set -eu
[ $# -ge 1 ] || { echo "usage: $0 <binary> [args...]" >&2; exit 2; }
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
addr2line -a -f -C -i -e "$bin" <"$tmp/samples" | awk '
    /^0x/ { if (fn != "") hits[fn]++; fn = ""; frame_line = 0; samples++; next }
    { if (++frame_line % 2 == 1) fn = $0 }
    END {
        if (fn != "") hits[fn]++
        printf "%d samples\n", samples
        for (fn in hits) printf "%6.2f%% %8d  %s\n", 100 * hits[fn] / samples, hits[fn], fn
    }' | sort -k1,1 -s -t% -rn
