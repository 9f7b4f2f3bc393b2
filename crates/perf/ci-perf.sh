#!/usr/bin/env bash
# Perf job for CI: one full benchmark run (every workload, outputs
# checked), then a short A/A that fails when two sets of the same code
# disagree by more than a bound. Not wired into .github/workflows/ci.yml
# yet; a later PR adds the job and compares against the newest
# crates/perf/ledger entry.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo run --release --offline --quiet -p dp-perf -- run
cargo run --release --offline --quiet -p dp-perf -- aa --sets 2 --runs 3
