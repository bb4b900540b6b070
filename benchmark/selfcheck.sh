#!/usr/bin/env bash
# Runs the full suite twice on one build and fails if the two sets
# disagree: an end-to-end metric's two medians differ by more than that
# metric's bound in BENCHMARK.json, a count the simulator workloads derive
# from simulated statistics differs at all, or an operation failed. Prints
# the table of both sets.
#
# Each set is every workload three times untraced (the median run kept) and
# once traced. The two sets' runs alternate, so slow drift of the host lands
# on both alike. Extra arguments go to both sets, e.g. `--seconds 5`; a full
# check takes about 15 minutes.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/hastm-benchmark"

mkdir -p "$here/out"
first="$here/out/selfcheck-first.json"
second="$here/out/selfcheck-second.json"
"$bin" run --trace --repeat 3 "$@" --out "$first" --out "$second"
"$bin" compare "$first" "$second"
