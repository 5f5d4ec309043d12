#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Everything runs offline — all external dependencies are vendored.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# hubbench is a workspace of its own, so the two steps above skip it.
echo "== hubbench: cargo fmt --check, cargo clippy (warnings are errors) =="
cargo fmt --manifest-path hubbench/Cargo.toml -- --check
cargo clippy --offline --manifest-path hubbench/Cargo.toml --all-targets -- -D warnings

# Doc comments name items by link; a link to a deleted or private item
# fails here instead of rotting silently.
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The release profile (thin/fat LTO, single codegen unit) is what the
# experiments and benches run under; make sure it keeps building.
echo "== cargo build --release =="
cargo build --offline --release --workspace

echo "== cargo test =="
cargo test --offline -q --workspace

# The hub benchmark's correctness checks on its two listed workloads and
# on rfq_population, the one workload that starts sessions with
# `initiate` rather than `initiate_deferred`: a one-second run exits 1 if
# any pass misses a completion, reply, rule run, back-end order or
# dead-letter check. Traced passes also run the harness's codec probe (a
# normalized PO through the public transform and format registries: to
# EDI, encode, decode) and the per-layer ledger.
echo "== hubbench (rfq_bulk, po_exchange, rfq_population: correctness checks, traced) =="
for workload in rfq_bulk po_exchange rfq_population; do
  cargo run --offline --release -q --manifest-path hubbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1
done

# The examples assert their own outcomes (failure_recovery alone holds
# eleven asserts); a failed assert exits non-zero and fails this step.
# They and the experiments print simulated time only, so their output is
# deterministic: each must match its transcript in tests/transcripts/. A
# change that alters what they print updates the transcript and says why.
echo "== examples and experiments (transcripts) =="
for example in quickstart multi_partner failure_recovery change_management negotiated_protocol; do
  cargo run --offline --release -q --example "$example" | diff -u "tests/transcripts/$example.txt" -
done
cargo run --offline --release -q -p b2b-bench --bin experiments | diff -u tests/transcripts/experiments.txt -

# Benches are not run in CI, but they must keep compiling.
echo "== cargo bench --no-run =="
cargo bench --offline --no-run --workspace

echo "CI OK"
