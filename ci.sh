#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests. Run from the workspace root.
set -euo pipefail
cd "$(dirname "$0")"

# Run one gate step with a wall-clock timing line, so slow CI runs show where
# the time went without re-running anything.
step() {
  local label="$1"
  shift
  echo "==> $label"
  local t0=$SECONDS
  "$@"
  echo "    [$label: $((SECONDS - t0))s]"
}

step "cargo fmt --check" cargo fmt --all -- --check

step "cargo clippy (deny warnings)" cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (deny warnings)" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "cargo build --release" cargo build --release --workspace

step "cargo build --examples" cargo build --examples

step "cargo bench --no-run" cargo bench --workspace --no-run

step "cargo test" cargo test -q --workspace

# `cargo test` runs the differential fuzzers in debug, and optimised code
# generation differs from debug (inlining, float op fusion, loop shapes);
# run them again in release so the code that ships is the code they check.
step "tier differentials (release)" \
  cargo test --release -q -p sigmavp-sptx --test warp_differential --test parallel_differential \
  -p sigmavp-workloads --test warp_suite

# The benchmark path-depends on the workspace crates but is its own
# workspace, so an API change can break it without any step above noticing.
step "benchmark smoke (sigmabench --tiny)" \
  env CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path sigmabench/Cargo.toml

step "audit regression gate + chaos smoke + sync windows (results/baselines/audit.json)" \
  cargo run --release -p sigmavp-bench --bin audit -- --faults 42 --sync --check

step "post-mortem bundle well-formedness (BENCH_postmortem.json)" \
  cargo run --release -p sigmavp-bench --bin top -- --check-bundle BENCH_postmortem.json

# The perf gate measures BOTH execution tiers each run (scalar reference vs
# warp lockstep at one worker) and hard-fails unless warp beats scalar on
# wall clock, in addition to the baseline regression check.
step "perf throughput + tier (warp >= scalar) + observability-overhead gate (results/baselines/perf.json)" \
  cargo run --release -p sigmavp-bench --bin perf -- --check --tolerance 0.25

step "fleet scaling + failover gate (results/baselines/fleet.json)" \
  cargo run --release -p sigmavp-bench --bin perf -- --fleet --check --tolerance 0.25

echo "CI green."
