#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Everything runs offline — all external dependencies are vendored.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# The release profile (thin/fat LTO, single codegen unit) is what the
# experiments and benches run under; make sure it keeps building.
echo "== cargo build --release =="
cargo build --offline --release --workspace

# The experiments binary's identity assertions (E15-E21) without the
# timing loops: compiled dispatch agreeing with the transform and rule
# interpreters, wire byte stability, broadcast observables at 1 and 4
# shards, the chaos coverage invariant with breaker states in the
# determinism fingerprint, and the Small-tier population identity at 1
# and 4 shards plus the flat-cost pass (10x idle growth).
echo "== experiments --quick (identity assertions) =="
cargo run --offline --release -q -p b2b-bench --bin experiments -- --quick

# The same chaos identity on a second, fixed seed, so every commit
# exercises the fault grid determinism beyond the default seed.
echo "== experiments --quick (fixed chaos seed) =="
B2B_CHAOS_SEED=20010917 cargo run --offline --release -q -p b2b-bench --bin experiments -- --quick

# The suite runs twice: once sequential, once with the execute stage
# sharded across 4 workers, so the parallel path is exercised on every
# commit. Results must be identical (see tests/sharding.rs).
echo "== cargo test (B2B_SHARDS=1) =="
B2B_SHARDS=1 cargo test --offline -q --workspace

echo "== cargo test (B2B_SHARDS=4) =="
B2B_SHARDS=4 cargo test --offline -q --workspace

# Third pass on the compact binary wire format: every scenario the
# suite builds (round trips, chaos grid, examples' plumbing) runs its
# partners on the binary codec's zero-copy decode path instead of EDI.
echo "== cargo test (B2B_WIRE_FORMAT=binary) =="
B2B_WIRE_FORMAT=binary cargo test --offline -q --workspace

# The big population fixtures (Large and Huge tiers, up to a million
# sessions) are generated to disk once; later E21 runs load them
# instead of regenerating. Idempotent: existing fixtures are reused.
echo "== population fixtures (Large + Huge tiers) =="
cargo run --offline --release -q -p b2b-bench --bin experiments -- --fixtures

# The hub benchmark's correctness checks on its two listed workloads: a
# one-second run exits 1 if any pass misses a completion, reply, rule
# run, back-end order or dead-letter check.
echo "== hubbench (rfq_bulk, po_exchange: correctness checks) =="
for workload in rfq_bulk po_exchange; do
  cargo run --offline --release -q --manifest-path hubbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1
done

# Benches are not run in CI, but they must keep compiling.
echo "== cargo bench --no-run =="
cargo bench --offline --no-run --workspace

echo "CI OK"
