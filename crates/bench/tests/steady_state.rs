//! Every test that asserts on allocator counts.
//!
//! The counting allocator's counters are process-wide, so a measurement
//! is only exact while nothing else in the process allocates. This
//! binary therefore runs without the libtest harness: `main` runs the
//! tests one at a time on its own thread, so while one test measures, no
//! other test and no harness thread allocates — only the measured code
//! and the worker-pool threads it starts. (A shared lock under the
//! libtest harness would still leave the harness's own threads spawning
//! and reporting while the next test measures.)
//!
//! The symbol-keyed record core's contract is that after warm-up, a
//! repeated identical workload interns nothing new (the interner is
//! frozen) and asks the allocator for exactly the same traffic on every
//! pump — no hidden per-document key allocations, no cache churn. These
//! tests pin both properties; a regression that reintroduces per-decode
//! key strings or per-apply program recompilation fails them.

use b2b_bench::alloc_count;
use b2b_bench::population::{run_flat_cost, SizeTier};
use b2b_document::formats::sample_edi_po;
use b2b_document::{interned_count, FormatId, FormatRegistry};
use b2b_transform::{TransformContext, TransformRegistry};

/// One steady-state unit of binding work: decode wire bytes, transform
/// to normalized, transform back, re-encode.
fn pump_once(
    formats: &FormatRegistry,
    transforms: &TransformRegistry,
    ctx: &TransformContext,
    wire: &[u8],
) -> usize {
    let doc = formats.decode(&FormatId::EDI_X12, wire).expect("decode");
    let norm = transforms.transform(&doc, &FormatId::NORMALIZED, ctx).expect("to normalized");
    let back = transforms.transform(&norm, &FormatId::EDI_X12, ctx).expect("back to EDI");
    formats.encode(&back).expect("encode").len()
}

fn repeated_po_round_trips_are_allocation_steady() {
    let formats = FormatRegistry::with_builtins();
    let transforms = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000042", "i-steady");
    let wire = formats.encode(&sample_edi_po("STEADY", 7)).expect("sample wire");

    // Pump 1 warms every cache: codec symbols are interned at registry
    // construction, compiled transform programs on first dispatch.
    std::hint::black_box(pump_once(&formats, &transforms, &ctx, &wire));

    let interned_after_warmup = interned_count();
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let (len, delta) = alloc_count::measure(|| pump_once(&formats, &transforms, &ctx, &wire));
        assert!(len > 0, "round trip produced bytes");
        deltas.push(delta);
    }

    // The interner froze at warm-up: steady-state pumps intern no new
    // field names (record keys come from the codecs' pre-interned
    // symbols and already-known path segments).
    assert_eq!(interned_count(), interned_after_warmup, "steady-state pumps interned new symbols");

    // Pump-to-pump allocation traffic is exactly reproducible: the same
    // work asks the allocator for the same calls and bytes every time.
    assert_eq!(deltas[0], deltas[1], "allocation traffic drifted between pumps 2 and 3");
    assert_eq!(deltas[1], deltas[2], "allocation traffic drifted between pumps 3 and 4");
}

fn pool_rounds_allocate_nothing_after_warm_up() {
    // The persistent worker pool's dispatch path is allocation-free: a
    // round publishes a borrowed job pointer through pre-existing shared
    // state, workers self-schedule with atomic fetch-adds, and the
    // barrier is a condvar wait. After the workers are spawned, settle
    // rounds ask the allocator for nothing.
    use std::sync::atomic::{AtomicU64, Ordering};

    let mut pool = b2b_wfms::WorkerPool::default();
    pool.ensure_workers(3);
    let slots: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
    let job = |k: usize| {
        slots[k].fetch_add(1, Ordering::Relaxed);
    };

    // Warm round: first dispatch wakes every parked worker once.
    pool.run(slots.len(), &job);
    let spawned = pool.stats().threads_spawned;
    assert_eq!(spawned, 3, "pool spawned exactly the requested workers");

    for round in 0..2 {
        let (_, delta) = alloc_count::measure(|| pool.run(slots.len(), &job));
        assert_eq!(delta.allocations, 0, "steady-state pool round {round} allocated: {delta:?}");
    }

    let stats = pool.stats();
    assert_eq!(stats.threads_spawned, spawned, "steady rounds spawned threads");
    assert_eq!(stats.rounds, 3, "all three rounds dispatched to the pool");
    let total: u64 = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
    assert_eq!(total, 3 * 64, "every index ran exactly once per round");
}

fn binary_decode_allocations_are_independent_of_text_payload() {
    // The zero-copy contract of the binary codec: a cache-miss decode
    // borrows every text node from the payload `Bytes`, so allocator
    // traffic depends only on the document's *structure* — two documents
    // with identical shape but wildly different string payloads must ask
    // the allocator for exactly the same calls and bytes. A regression
    // that reintroduces per-string-field copies breaks the equality.
    use b2b_document::normalized::PoBuilder;
    use b2b_document::{
        CorrelationId, Currency, Date, DocKind, Document, DocumentId, Money, Value,
    };
    use b2b_network::Bytes;

    let formats = FormatRegistry::with_builtins();
    let po = |item: &str| -> Bytes {
        let built =
            PoBuilder::new("Z1", "ACME", "GADGET", Date::new(2001, 5, 21).unwrap(), Currency::Usd)
                .line(item, 3, Money::from_cents(995, Currency::Usd))
                .unwrap()
                .build()
                .unwrap();
        let doc = Document::with_id(
            DocumentId::new("bin-Z1"),
            DocKind::PurchaseOrder,
            FormatId::BINARY,
            CorrelationId::for_po_number("Z1"),
            built.into_body(),
        );
        Bytes::from(formats.encode(&doc).expect("encode"))
    };
    let short = po("W");
    let long = po(&"WIDGET-".repeat(64));
    assert!(long.len() > short.len() + 400, "the payloads really differ in text volume");

    // Warm once, then measure: the short and long decode must be
    // allocation-identical, and every text node must borrow.
    std::hint::black_box(formats.decode_bytes(&FormatId::BINARY, &short).expect("decode"));
    let (doc_short, delta_short) =
        alloc_count::measure(|| formats.decode_bytes(&FormatId::BINARY, &short).expect("decode"));
    let (doc_long, delta_long) =
        alloc_count::measure(|| formats.decode_bytes(&FormatId::BINARY, &long).expect("decode"));
    assert_eq!(
        delta_short, delta_long,
        "binary decode allocator traffic scaled with text payload size"
    );

    fn all_text_borrowed(v: &Value) -> bool {
        match v {
            Value::Text(s) => s.is_borrowed(),
            Value::List(items) => items.iter().all(all_text_borrowed),
            Value::Record(fields) => fields.iter().all(|(_, v)| all_text_borrowed(v)),
            _ => true,
        }
    }
    assert!(all_text_borrowed(doc_short.body()), "short decode copied a string");
    assert!(all_text_borrowed(doc_long.body()), "long decode copied a string");
}

fn settle_cost_is_independent_of_idle_session_population() {
    // The touched-only settle contract at the harness level: grow the
    // idle-session population 10x and run the *identical* active burst —
    // per-round planner work (instances moved into shard slices) and
    // per-document allocator traffic must not drift. Before the
    // touched-only planner, every idle instance was moved into a shard
    // slice every round, so this probe scaled linearly with idle mass.

    let report = run_flat_cost(SizeTier::Tiny, 5, 2, 40, 24).expect("flat-cost probe");
    assert_eq!(
        report.base.active_sessions, report.grown.active_sessions,
        "both phases ran the same burst"
    );
    assert!(
        report.grown.idle_sessions >= report.base.idle_sessions * 5,
        "idle population must have grown substantially: {} -> {}",
        report.base.idle_sessions,
        report.grown.idle_sessions
    );
    assert!(
        report.grown.instances_resident >= report.base.instances_resident * 5,
        "resident instances must have grown with the idle sessions"
    );
    // The planner's touched set is exactly the active traffic, so the
    // identical burst touches (and moves) the identical instances — the
    // counters match exactly, not just within a tolerance.
    assert_eq!(report.base.rounds, report.grown.rounds, "settle rounds drifted");
    assert_eq!(report.base.moved, report.grown.moved, "instances moved drifted");
    assert_eq!(report.base.touched, report.grown.touched, "touched set drifted");
    // Allocator traffic per routed document may wobble with BTreeMap
    // depth and pool-thread timing, but must stay within the 5% band the
    // experiment asserts.
    assert!(
        report.max_drift() <= 0.05,
        "per-document allocation cost drifted under idle growth: {report:?}"
    );
}

fn interning_the_same_names_again_allocates_nothing() {
    // Warm the interner with the vocabulary, then re-intern it: hits on
    // the read path must not touch the allocator at all.
    let names = ["envelope", "beg", "po1", "line_no", "quantity", "unit_price"];
    for name in names {
        b2b_document::intern(name);
    }
    let before = interned_count();
    let (_, delta) = alloc_count::measure(|| {
        for name in names {
            std::hint::black_box(b2b_document::intern(name));
        }
    });
    assert_eq!(interned_count(), before, "re-interning grew the table");
    assert_eq!(delta.allocations, 0, "re-interning allocated: {delta:?}");
}

fn counting_allocator_sees_a_boxed_allocation() {
    let (_kept, delta) = alloc_count::measure(|| std::hint::black_box(vec![0u8; 4096]));
    assert!(delta.allocations >= 1, "vec allocation not counted");
    assert!(delta.bytes >= 4096, "vec bytes not counted: {}", delta.bytes);
}

fn flat_cost_is_flat_at_tiny_scale() {
    let report = run_flat_cost(SizeTier::Tiny, 3, 2, 40, 24).expect("flat cost");
    assert_eq!(report.base.active_sessions, report.grown.active_sessions);
    assert!(
        report.grown.idle_sessions >= report.base.idle_sessions * 5,
        "idle population must have grown substantially ({} -> {})",
        report.base.idle_sessions,
        report.grown.idle_sessions
    );
    assert!(report.max_drift() <= 0.05, "settle cost must stay flat under idle growth: {report:?}");
}

/// Runs the tests in order on this thread; an optional first non-flag
/// argument filters them by name. Exits non-zero if any test panicked.
fn main() {
    let tests: [(&str, fn()); 7] = [
        ("counting_allocator_sees_a_boxed_allocation", counting_allocator_sees_a_boxed_allocation),
        (
            "repeated_po_round_trips_are_allocation_steady",
            repeated_po_round_trips_are_allocation_steady,
        ),
        ("pool_rounds_allocate_nothing_after_warm_up", pool_rounds_allocate_nothing_after_warm_up),
        (
            "binary_decode_allocations_are_independent_of_text_payload",
            binary_decode_allocations_are_independent_of_text_payload,
        ),
        (
            "settle_cost_is_independent_of_idle_session_population",
            settle_cost_is_independent_of_idle_session_population,
        ),
        ("flat_cost_is_flat_at_tiny_scale", flat_cost_is_flat_at_tiny_scale),
        (
            "interning_the_same_names_again_allocates_nothing",
            interning_the_same_names_again_allocates_nothing,
        ),
    ];
    let filter = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
    let mut failed = Vec::new();
    let mut ran = 0;
    for (name, test) in tests {
        if filter.as_deref().is_some_and(|f| !name.contains(f)) {
            continue;
        }
        ran += 1;
        match std::panic::catch_unwind(test) {
            Ok(()) => println!("test {name} ... ok"),
            Err(_) => {
                println!("test {name} ... FAILED");
                failed.push(name);
            }
        }
    }
    println!("\ntest result: {} passed; {} failed", ran - failed.len(), failed.len());
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
