#!/usr/bin/env bash
# Gate for every PR: formatting, lints, and the tier-1 test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (intra-doc links resolve: no dangling or ambiguous names)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== every test of every crate (unit + integration + property suites; tier-1 included)"
cargo test --workspace --release -q

echo "== analyzer over every shipped app"
cargo run --release --example analyze > /dev/null

echo "== E5: model-driven invalidation keeps cached reads fresh (0 stale reads; fragment-only caching fresh after a write)"
cargo run --release -p bench --bin exp_cache_freshness

echo "== bench_e2e smoke (the pinned product API: builds against this workspace; four workloads, correct pages, names checked against BENCHMARK.json)"
cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- --smoke

echo "== bench_e2e counter gate: URL variants of a page share its fragments (traced browse_warm at smoke length)"
cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- \
  --workload browse_warm --seed 1 --trace 1 --seconds 1 --min-beyond 0 | tail -n 1 | python3 -c '
import json, sys
run = json.load(sys.stdin)
failed, hit = run["failed"], run["metrics"]["cache.fragment_hit_ratio"]["value"]
print(f"failed={failed} cache.fragment_hit_ratio={hit:.2f} (gate: 0 failed, ratio > 0.3)")
sys.exit(0 if failed == 0 and hit > 0.3 else 1)'

echo "== bench_e2e counter gate: commits patch beans and fragments stay warm under writes (traced edit_mix at smoke length)"
cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- \
  --workload edit_mix --seed 1 --trace 1 --seconds 1 --min-beyond 0 | tail -n 1 | python3 -c '
import json, sys
run = json.load(sys.stdin)
m = run["metrics"]
failed, patches, hit = run["failed"], m["cache.patches_applied"]["value"], m["cache.fragment_hit_ratio"]["value"]
print(f"failed={failed} cache.patches_applied={patches:.0f} cache.fragment_hit_ratio={hit:.2f} (gate: 0 failed, patches > 0, ratio > 0.5)")
sys.exit(0 if failed == 0 and patches > 0 and hit > 0.5 else 1)'

echo "== seeded schedules under three seeds: storage stress (transactions, rollbacks and exact reads) and the cache composition oracle (maintained caches vs cold recompute, with and without model-tagged units)"
for seed in 1 20030108 "${RELSTORE_STRESS_SEED:-3224275387}"; do
  RELSTORE_STRESS_SEED="$seed" \
    cargo test -p relstore --release -q --test concurrent seeded_schedule_stress
  RELSTORE_STRESS_SEED="$seed" \
    cargo test --release -q --test caching -- \
      maintained_cache_matches_cold_recompute untagged_fragments_match_cold_recompute
done

echo "verify.sh: all green"
