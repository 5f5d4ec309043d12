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

# The experiments binary's identity assertions (E15-E22) without the
# timing loops: compiled-vs-interpreted dispatch agreement, wire byte
# stability, broadcast observables across dispatch mode x shard count,
# the chaos coverage invariant with breaker states in the determinism
# fingerprint, the Small-tier population identity + flat-cost pass
# (touched-only vs full-partition settle, 10x idle growth), and the
# batched-emit/coalescing differential (sequential vs pool-batched vs
# coalesced frames, across shard counts).
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

# Third pass on the rule-tree interpreter: every engine the suite builds
# dispatches business rules interpreted instead of compiled. Identical
# results are the contract (see tests/properties.rs and tests/sharding.rs).
echo "== cargo test (B2B_RULES=interpreted) =="
B2B_RULES=interpreted cargo test --offline -q --workspace

# Fourth pass at the machine's real parallelism: B2B_SHARDS=0 resolves
# to the host core count, so the pool runs as wide as it ever will on
# this box. Same byte-identical results required.
echo "== cargo test (B2B_SHARDS=0, auto) =="
B2B_SHARDS=0 cargo test --offline -q --workspace

# Fifth pass on the compact binary wire format: every scenario the
# suite builds (round trips, chaos grid, examples' plumbing) runs its
# partners on the binary codec's zero-copy decode path instead of EDI.
echo "== cargo test (B2B_WIRE_FORMAT=binary) =="
B2B_WIRE_FORMAT=binary cargo test --offline -q --workspace

# Sixth pass with the pool-batched emit path disabled: every outbound
# document takes the sequential per-document encode+send path, and the
# whole suite must agree with the batched default byte for byte (the
# differential contract in tests/sharding.rs, run here suite-wide).
echo "== cargo test (B2B_EMIT_BATCH=0, sequential emit) =="
B2B_EMIT_BATCH=0 cargo test --offline -q --workspace

# Seventh pass with aggressive frame coalescing: same-endpoint emit
# batches ride the wire as multi-document checksummed frames, split and
# acked as a unit. Business outcomes must be unchanged.
echo "== cargo test (B2B_EMIT_COALESCE=8) =="
B2B_EMIT_COALESCE=8 cargo test --offline -q --workspace

# Pool stress: the sharding determinism properties with every settle
# and decode round forced to steal-chunk 1 — maximum inter-thread
# interleaving, the hardest schedule for the fingerprint contract.
echo "== sharding determinism (B2B_POOL_STRESS=1, steal-chunk 1) =="
B2B_POOL_STRESS=1 B2B_SHARDS=4 cargo test --offline -q --test sharding

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
