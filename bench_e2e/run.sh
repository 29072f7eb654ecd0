#!/usr/bin/env bash
# Build bench_e2e and run the suite: every workload in its own child
# process, untraced (end-to-end metrics) then traced (per-layer metrics).
# Results land in bench_e2e/out/latest.json, traces in
# bench_e2e/out/trace_<workload>.json.
#
#   bench_e2e/run.sh                          # all workloads, both runs
#   bench_e2e/run.sh --workload paper_dd      # one workload
#   bench_e2e/run.sh --trace 1                # traced run only (--trace 0: untraced only)
#   bench_e2e/run.sh --seed 7 --seconds 4     # other inputs, shorter timed sections
#   bench_e2e/run.sh --selfcheck              # the suite twice, compared against the bounds
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path bench_e2e/Cargo.toml
exec "${CARGO_TARGET_DIR:-bench_e2e/target}/release/bench_e2e" --suite "$@"
