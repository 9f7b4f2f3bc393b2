#!/usr/bin/env bash
# A/A check of the benchmark: two interleaved sets of runs of the same
# code must agree within every end-to-end bound.
#
#   crates/perf/aa.sh [RUNS] [OUT]
#
# RUNS runs per set and workload (default 10; run i uses seed 77+i),
# OUT the JSON ledger entry (default <target dir>/perf/aa.json). Commit
# the output of a PR that changes the benchmark as
# crates/perf/ledger/aa-<issue>.json.
set -euo pipefail
cd "$(dirname "$0")/../.."
args=(aa --sets 2 --runs "${1:-10}")
if [ -n "${2:-}" ]; then
    args+=(--out "$2")
fi
exec cargo run --release --offline --quiet -p dp-perf -- "${args[@]}"
