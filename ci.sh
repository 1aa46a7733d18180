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
