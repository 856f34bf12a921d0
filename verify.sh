#!/usr/bin/env bash
# Gate for every PR: formatting, lints, and the tier-1 test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== wal fault-injection smoke (crash-point matrix + recovery properties)"
cargo test -p wal --release -q

echo "== analyze smoke (mutation matrix + analyzer over every shipped app)"
cargo test -p analyze --release -q
cargo run --release --example analyze > /dev/null

echo "== distribution-analysis smoke (AZ4xx at Deny over shipped apps, replicated + sharded)"
cargo test --release -q --test distribution

echo "== serving-path smoke (reactor mode: keep-alive grid, C10K fan-in, 503-admission shed, cache microbench)"
cargo run -p bench --release --bin exp_serving -- --smoke

echo "== 503-admission smoke (budget sheds with Retry-After, fds drain to baseline)"
cargo test --release -q --test serving admission_budget_sheds_load_end_to_end

echo "== query-planner smoke (derived indexes, hash join, Top-K; reduced dataset)"
cargo run -p bench --release --bin exp_query -- --smoke

echo "== MVCC smoke (snapshot reads vs one slow open writer; throughput + p95 gates)"
cargo run -p bench --release --bin exp_mvcc -- --smoke

echo "== replication smoke (read scale-out, read-your-writes, shard routing gates)"
cargo run -p bench --release --bin exp_repl -- --smoke

echo "== maintenance smoke (WAL bean patching, dirty-fragment re-render, conditional GET)"
cargo run -p bench --release --bin exp_maint -- --smoke

echo "== bench_e2e smoke (the pinned product API: builds against this workspace; four workloads, correct pages, names checked against BENCHMARK.json)"
cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- --smoke

echo "== MVCC seeded-schedule stress (snapshot-isolation properties under three seeds)"
for seed in 1 20030108 "${RELSTORE_STRESS_SEED:-3224275387}"; do
  RELSTORE_STRESS_SEED="$seed" \
    cargo test -p relstore --release -q --test concurrent seeded_schedule_stress
done

echo "== tier-1 tests (root package: unit + integration + property suites)"
cargo test --release -q

echo "verify.sh: all green"
