#!/usr/bin/env bash
# Gate for every PR: formatting, lints, and the tier-1 test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== every test of every crate (unit + integration + property suites; tier-1 included)"
cargo test --workspace --release -q

echo "== analyzer over every shipped app"
cargo run --release --example analyze > /dev/null

echo "== bench_e2e smoke (the pinned product API: builds against this workspace; four workloads, correct pages, names checked against BENCHMARK.json)"
cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- --smoke

echo "== MVCC seeded-schedule stress (snapshot-isolation properties under three seeds)"
for seed in 1 20030108 "${RELSTORE_STRESS_SEED:-3224275387}"; do
  RELSTORE_STRESS_SEED="$seed" \
    cargo test -p relstore --release -q --test concurrent seeded_schedule_stress
done

echo "verify.sh: all green"
