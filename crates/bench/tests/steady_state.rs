//! Every test that asserts on allocator counts.
//!
//! The counting allocator's counters are process-wide, so a measurement
//! is only exact while nothing else in the process allocates. This
//! binary therefore runs without the libtest harness: `main` runs the
//! tests one at a time on its own thread, so while one test measures, no
//! other test and no harness thread allocates — only the measured code.
//! (A shared lock under the libtest harness would still leave the
//! harness's own threads spawning and reporting while the next test
//! measures.)
//!
//! The symbol-keyed record core's contract is that after warm-up, a
//! repeated identical workload interns nothing new (the interner is
//! frozen) and asks the allocator for exactly the same traffic on every
//! pump — no hidden per-document key allocations, no cache churn. These
//! tests pin both properties, and the allocator calls of one builtin
//! dispatch; a regression that reintroduces per-decode key strings or
//! per-rule path strings fails them.

use b2b_bench::population::{Population, PopulationConfig, PopulationPlan, WAVE};
use b2b_core::error::{IntegrationError, Result};
use b2b_document::formats::sample_edi_po;
use b2b_document::{interned_count, FormatId, FormatRegistry};
use b2b_transform::{TransformContext, TransformRegistry};

mod alloc_count {
    //! A counting global allocator for the allocation-audited tests.
    //!
    //! This binary allocates through [`CountingAllocator`], which forwards
    //! to the system allocator and keeps two relaxed atomic counters.
    //! [`measure`] brackets a closure and reports the allocation traffic
    //! it caused; with no other threads allocating, the delta is exact,
    //! not sampled.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to [`System`], counting each allocation and its size.
    /// Deallocations are not counted: the tests audit how much a workload
    /// *asks* the allocator for, not its live footprint.
    pub struct CountingAllocator;

    // SAFETY: defers all allocation to `System`; the counters are plain
    // relaxed atomics with no other side effects.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Allocation traffic caused by one closure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocDelta {
        /// Calls into the allocator (alloc, alloc_zeroed, realloc).
        pub allocations: u64,
        /// Bytes requested across those calls.
        pub bytes: u64,
    }

    /// Runs `f` and returns its result plus the allocation traffic it
    /// caused on this thread (exact while nothing else allocates).
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let bytes_before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let out = f();
        let delta = AllocDelta {
            allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocs_before,
            bytes: ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes_before,
        };
        (out, delta)
    }
}

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

    // Pump 1 is a warm-up only; nothing compiles on first dispatch.
    // Codec symbols are interned when the format registry is built,
    // transform path segments when the builtin programs are.
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

fn setting_a_field_of_an_existing_record_allocates_nothing() {
    // `FieldPath::set` renders its path only into an error: a write
    // through records that already exist asks the allocator for nothing.
    use b2b_document::normalized::sample_po;
    use b2b_document::{FieldPath, Value};

    let mut body = sample_po("4711", 10).into_body();
    let path = FieldPath::parse("header.po_number").expect("path");
    let value = Value::text("4712");
    let (set, delta) = alloc_count::measure(|| path.set(&mut body, value));
    set.expect("set");
    assert_eq!(path.get(&body).expect("written"), &Value::text("4712"));
    assert_eq!(delta.allocations, 0, "an in-place set allocated: {delta:?}");
}

fn builtin_dispatch_allocations_stay_pinned() {
    // Ceilings on the allocator calls of one builtin dispatch of a 7-unit
    // EDI 850; a lookup of a builtin conversion asks for none.
    use b2b_document::DocKind;

    let formats = FormatRegistry::with_builtins();
    let transforms = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000042", "i-pinned");
    let po = sample_edi_po("PINNED", 7);
    let wire = formats.encode(&po).expect("sample wire");
    std::hint::black_box(pump_once(&formats, &transforms, &ctx, &wire));

    let (program, lookup) = alloc_count::measure(|| {
        transforms.program(&FormatId::EDI_X12, &FormatId::NORMALIZED, DocKind::PurchaseOrder)
    });
    program.expect("builtin program");
    let (norm, inbound) = alloc_count::measure(|| {
        transforms.transform(&po, &FormatId::NORMALIZED, &ctx).expect("to normalized")
    });
    let (back, outbound) = alloc_count::measure(|| {
        transforms.transform(&norm, &FormatId::EDI_X12, &ctx).expect("back to EDI")
    });
    let (_, round_trip) = alloc_count::measure(|| pump_once(&formats, &transforms, &ctx, &wire));
    std::hint::black_box(back);
    assert_eq!(lookup.allocations, 0, "looking up a builtin conversion allocated");
    assert!(inbound.allocations <= 4, "EDI 850 -> normalized: {inbound:?}");
    assert!(outbound.allocations <= 9, "normalized -> EDI: {outbound:?}");
    assert!(round_trip.allocations <= 25, "decode, both transforms, encode: {round_trip:?}");
}

fn text_codec_allocations_stay_pinned() {
    // Allocator calls of each text codec on its sample PO (7 units):
    // `decode_bytes` asks for the document's records and lists plus the
    // walker's token list (the XML walker's is its flat element index) —
    // a short text is inline and a long one a slice of the payload — and
    // `encode_into` a buffer grown by an earlier encode asks for nothing.
    use b2b_document::formats::{sample_oagis_po, sample_oracle_po, sample_rn_po, sample_sap_po};
    use b2b_network::Bytes;

    let formats = FormatRegistry::with_builtins();
    let pins = [
        (sample_edi_po("4711", 7), 10, 0),
        (sample_rn_po("4711", 7), 6, 0),
        (sample_oagis_po("4711", 7), 7, 0),
        (sample_sap_po("4711", 7), 11, 0),
        (sample_oracle_po("4711", 7), 6, 0),
    ];
    for (doc, decode_pin, encode_pin) in pins {
        let wire = Bytes::from(formats.encode(&doc).expect("encode"));
        let mut buf = Vec::new();
        formats.encode_into(&doc, &mut buf).expect("warm the buffer");
        std::hint::black_box(formats.decode_bytes(doc.format(), &wire).expect("warm decode"));
        let (back, decode) =
            alloc_count::measure(|| formats.decode_bytes(doc.format(), &wire).expect("decode"));
        buf.clear();
        let (done, encode) = alloc_count::measure(|| formats.encode_into(&back, &mut buf));
        done.expect("encode");
        assert_eq!(buf, &wire[..], "{}: re-encoding changed the bytes", doc.format());
        assert!(decode.allocations <= decode_pin, "{} decode: {decode:?}", doc.format());
        assert!(encode.allocations <= encode_pin, "{} encode: {encode:?}", doc.format());
    }
}

fn xml_decode_allocations_are_independent_of_layout_and_text_volume() {
    // The RosettaNet quote is the payload the hub decodes most (most of
    // an RFQ broadcast's routed documents). Its decode asks for the flat
    // element index plus the document's records: the same calls whether
    // the payload is indented or its texts are long, as whitespace
    // between tags is dropped, a short text is inline and a long one a
    // slice of the payload.
    use b2b_network::Bytes;

    let formats = FormatRegistry::with_builtins();
    let path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/wire/rosettanet.quote.txt");
    let compact = std::fs::read_to_string(path).expect("the recorded quote");
    let pretty = compact.replace("><", ">\n  <");
    let seller = "Gadget Supply Co";
    let long = compact.replace(seller, &[seller; 30].join(" "));
    assert!(long.len() > compact.len() + 400, "the texts really differ in volume");
    let decode = |wire: &str| {
        let wire = Bytes::from(wire.as_bytes().to_vec());
        let decode = || formats.decode_bytes(&FormatId::ROSETTANET, &wire).expect("decode");
        std::hint::black_box(decode());
        let (doc, delta) = alloc_count::measure(decode);
        (doc, delta.allocations)
    };
    let (doc, calls) = decode(&compact);
    assert!(calls <= 4, "quote decode: {calls} allocator calls");
    let (pretty_doc, pretty_calls) = decode(&pretty);
    assert_eq!(pretty_doc, doc, "indentation changed the document");
    assert_eq!(pretty_calls, calls, "indentation changed the allocator calls");
    let (long_doc, long_calls) = decode(&long);
    assert_ne!(long_doc, doc);
    assert_eq!(long_calls, calls, "longer texts changed the allocator calls");
}

fn short_texts_and_ids_allocate_nothing() {
    // A text of up to `INLINE_CAP` bytes lives inside its value, and so
    // do the ids and transform contexts made of such texts: creating and
    // cloning one never calls the allocator.
    use b2b_document::{CorrelationId, DocumentId, Value};
    use b2b_network::EndpointId;

    let cases: [(&str, &dyn Fn()); 5] = [
        ("a 22-byte text", &|| {
            let text = Value::text("GADGET-SUPPLY-CO-00042");
            std::hint::black_box((text.clone(), text));
        }),
        ("a CorrelationId", &|| {
            let id = CorrelationId::for_po_number("4500012345");
            std::hint::black_box((id.clone(), id));
        }),
        ("an EndpointId", &|| {
            let id = EndpointId::new("ep:Gadget Supply Co");
            std::hint::black_box((id.clone(), id));
        }),
        ("a DocumentId::fresh", &|| {
            let id = DocumentId::fresh("po");
            std::hint::black_box((id.clone(), id));
        }),
        ("a TransformContext", &|| {
            let ctx = TransformContext::new(
                "ACME Manufacturing",
                "Gadget Supply Co",
                "000000042",
                "i-42",
            );
            std::hint::black_box((ctx.clone(), ctx));
        }),
    ];
    assert_eq!("GADGET-SUPPLY-CO-00042".len(), 22);
    for (what, make_and_clone) in cases {
        let ((), delta) = alloc_count::measure(make_and_clone);
        assert_eq!(delta.allocations, 0, "creating and cloning {what} allocated: {delta:?}");
    }
}

fn parsing_a_currency_or_an_amount_allocates_nothing() {
    // Codes compare case-insensitively in place, and an amount parses
    // against its currency: only an error renders a string.
    use b2b_document::{Currency, Money};

    let (currency, delta) = alloc_count::measure(|| Currency::parse("usd"));
    assert_eq!(currency.expect("known code"), Currency::Usd);
    assert_eq!(delta.allocations, 0, "Currency::parse allocated: {delta:?}");
    let (money, delta) = alloc_count::measure(|| Money::parse("1234.56 EUR"));
    assert_eq!(money.expect("valid amount").cents(), 123_456);
    assert_eq!(delta.allocations, 0, "Money::parse allocated: {delta:?}");
}

fn binary_decode_allocations_are_independent_of_text_payload() {
    // The zero-copy contract of the binary codec: a decode keeps every
    // short text inline and borrows every long one from the payload
    // `Bytes`, so allocator traffic depends only on the document's
    // *structure* — two documents with identical shape but wildly
    // different string payloads must ask the allocator for exactly the
    // same calls and bytes. A regression that reintroduces per-string-
    // field copies breaks the equality.
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
    // allocation-identical, and no text node may own a heap copy.
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
            Value::Text(s) => s.is_borrowed() || s.is_inline(),
            Value::List(items) => items.iter().all(all_text_borrowed),
            Value::Record(fields) => fields.iter().all(|(_, v)| all_text_borrowed(v)),
            _ => true,
        }
    }
    assert!(all_text_borrowed(doc_short.body()), "short decode copied a string");
    assert!(all_text_borrowed(doc_long.body()), "long decode copied a string");
}

fn document_hops_allocate_independently_of_document_size() {
    // One copy per document: a send step shares its variable's document
    // with the outbox, the host re-queues that `Arc` on the next instance,
    // and the receive step stores it as it is. A chain of hops therefore
    // asks the allocator for the same calls whatever the document's size;
    // a copy on any hop scales with the line count and breaks the
    // equality.
    use b2b_document::normalized::PoBuilder;
    use b2b_document::{Currency, Date, Document, Money};
    use b2b_wfms::{ChannelId, Engine, EngineId, StepDef, WorkflowBuilder, WorkflowTypeId};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const HOPS: usize = 4;
    let po = |lines: usize| -> Arc<Document> {
        let order_date = Date::new(2001, 9, 17).unwrap();
        let mut po = PoBuilder::new("HOP", "ACME", "GADGET", order_date, Currency::Usd);
        for i in 0..lines {
            po = po.line(&format!("ITEM-{i}"), 1, Money::from_units(1, Currency::Usd)).unwrap();
        }
        Arc::new(po.build().unwrap())
    };
    let relay = WorkflowBuilder::new("relay")
        .step(StepDef::receive("take", "in", "doc"))
        .step(StepDef::send("pass", "out", "doc"))
        .edge("take", "pass")
        .build()
        .unwrap();
    // Sets up HOPS waiting relays on a fresh engine, then measures the
    // document's trip down the chain: each relay's outbox entry is
    // queued on the next relay.
    let chain = |doc: Arc<Document>| {
        let mut engine = Engine::new(EngineId::new("hops"));
        engine.deploy(relay.clone());
        let relays: Vec<_> = (0..HOPS)
            .map(|_| {
                let id = engine
                    .create_instance(&WorkflowTypeId::new("relay"), BTreeMap::new(), "s", "t")
                    .unwrap();
                engine.run(id).unwrap();
                id
            })
            .collect();
        let inbox = ChannelId::new("in");
        let (out, delta) = alloc_count::measure(|| {
            let mut doc = doc;
            for &id in &relays {
                engine.enqueue_to(id, &inbox, doc).unwrap();
                engine.settle().unwrap();
                doc = engine.drain_outbox().pop().expect("the relay sent").2;
            }
            doc
        });
        assert_eq!(engine.stats().receives, HOPS as u64, "every relay received");
        (out, delta)
    };
    let (small, large) = (po(1), po(50));
    std::hint::black_box(chain(Arc::clone(&small)));
    let (small_out, delta_small) = chain(Arc::clone(&small));
    let (large_out, delta_large) = chain(Arc::clone(&large));
    assert_eq!(
        delta_small.allocations, delta_large.allocations,
        "allocator calls along the hops scaled with the document: {delta_small:?} vs {delta_large:?}"
    );
    assert!(Arc::ptr_eq(&small_out, &small) && Arc::ptr_eq(&large_out, &large));
}

fn settle_cost_is_independent_of_idle_session_population() {
    // The touched-only settle contract at the harness level: grow the
    // idle-session population 10x and run the *identical* active burst —
    // the settle rounds, their touched sets and per-document allocator
    // traffic must not drift.
    for seed in [3, 5] {
        let report = run_flat_cost(seed, 40, 24).expect("flat-cost probe");
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
        // identical burst touches the identical instances — the counters
        // match exactly, not just within a tolerance.
        assert_eq!(report.base.rounds, report.grown.rounds, "settle rounds drifted");
        assert_eq!(report.base.touched, report.grown.touched, "touched set drifted");
        // Allocator traffic per routed document may wobble with BTreeMap
        // depth, but must stay within a 5% band.
        assert!(
            report.drift() <= 0.05,
            "seed {seed}: per-document allocation cost drifted under idle growth: {report:?}"
        );
    }
}

/// The ERP simulators read an order's header fields straight from its
/// body records, parsing no path: storing and acknowledging one sample
/// order (one line) asks the allocator for at most these calls.
fn erp_simulator_allocations_stay_pinned() {
    use b2b_backend::{AckPolicy, BackendApplication, OracleSystem, SapSystem};
    use b2b_document::formats::{sample_oracle_po, sample_sap_po};
    use b2b_document::Document;
    use std::sync::Arc;

    type Sample = fn(&str, i64) -> Document;
    let cases: [(Box<dyn BackendApplication>, Sample, u64, u64); 2] = [
        (Box::new(SapSystem::new(AckPolicy::AcceptAll)), sample_sap_po, 4, 17),
        (Box::new(OracleSystem::new(AckPolicy::AcceptAll)), sample_oracle_po, 4, 12),
    ];
    for (mut system, sample, store_pin, extract_pin) in cases {
        // Warm-up: the first order interns the acknowledgment's names.
        system.store_po(&Arc::new(sample("warm", 7))).expect("store");
        system.extract_poas().expect("extract");
        let po = Arc::new(sample("4711", 7));
        let (stored, store) = alloc_count::measure(|| system.store_po(&po));
        stored.expect("store");
        let (poas, extract) = alloc_count::measure(|| system.extract_poas());
        assert_eq!(poas.expect("extract").len(), 1);
        let name = system.name();
        assert!(store.allocations <= store_pin, "{name} store_po: {store:?}");
        assert!(extract.allocations <= extract_pin, "{name} extract_poas: {extract:?}");
    }
}

fn interning_the_same_names_again_allocates_nothing() {
    // Warm the interner with the vocabulary, then re-intern it: hits on
    // the read path must not touch the allocator at all.
    let names = ["ISA", "BEG", "PO1", "line_no", "quantity", "unit_price"];
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

/// Per-phase numbers of the flat-cost probe: one active-traffic burst
/// measured against a given idle-session backdrop.
#[derive(Debug, Clone, Copy)]
struct FlatCostPhase {
    /// Idle (lurker) sessions resident when the burst ran.
    idle_sessions: usize,
    /// Workflow instances resident before the burst.
    instances_resident: u64,
    /// Active sessions initiated and completed by the burst.
    active_sessions: usize,
    /// Settle rounds the burst took.
    rounds: u64,
    /// Touched-set sizes, summed over rounds.
    touched: u64,
    /// Allocator calls per routed document.
    allocs_per_doc: f64,
}

/// The flat-cost probe: the same active burst measured at 1× and 10×
/// idle sessions.
#[derive(Debug, Clone, Copy)]
struct FlatCostReport {
    /// The burst against the 1× idle backdrop.
    base: FlatCostPhase,
    /// The identical burst against the 10× idle backdrop.
    grown: FlatCostPhase,
}

impl FlatCostReport {
    /// Relative drift of allocs/doc between the two phases.
    fn drift(&self) -> f64 {
        let (a, b) = (self.base.allocs_per_doc, self.grown.allocs_per_doc);
        if a == 0.0 {
            f64::from(u8::from(b != 0.0))
        } else {
            (b - a).abs() / a
        }
    }
}

/// Measures settle cost under idle growth: seed `base_idle` lurker
/// sessions, run an active burst and measure (rounds, touched set,
/// allocs/routed doc), grow the idle population to 10×, run the
/// identical burst again, and report both phases. A settle round visits
/// only the instances with work, so the two phases must agree.
fn run_flat_cost(seed: u64, base_idle: usize, active_per_phase: usize) -> Result<FlatCostReport> {
    let plan = PopulationPlan::generate(seed);
    let cfg = PopulationConfig { faults: false, ..PopulationConfig::default() };
    let mut pop = Population::build(&plan, &cfg)?;
    let lurkers: Vec<usize> =
        plan.partners.iter().enumerate().filter(|(_, s)| !s.responder).map(|(i, _)| i).collect();
    let responders: Vec<usize> =
        plan.partners.iter().enumerate().filter(|(_, s)| s.responder).map(|(i, _)| i).collect();
    if lurkers.is_empty() || responders.is_empty() {
        return Err(IntegrationError::Config("flat-cost needs both behaviours".into()));
    }
    let seed_idle = |pop: &mut Population, count: usize| -> Result<()> {
        for chunk_start in (0..count).step_by(WAVE) {
            for i in chunk_start..(chunk_start + WAVE).min(count) {
                pop.initiate(lurkers[i % lurkers.len()])?;
            }
            pop.drain(4_000)?;
        }
        pop.drain(20_000)?;
        Ok(())
    };
    let burst = |pop: &mut Population| -> Result<FlatCostPhase> {
        let idle_sessions = pop.sessions_initiated() - pop.hub.completed_sessions();
        let before = pop.hub.settle_metrics();
        let routed_before = pop.hub.stage_profile().counters.routed_documents;
        let completed_before = pop.hub.completed_sessions();
        let (ran, alloc) = alloc_count::measure(|| -> Result<()> {
            for chunk_start in (0..active_per_phase).step_by(WAVE) {
                for i in chunk_start..(chunk_start + WAVE).min(active_per_phase) {
                    pop.initiate(responders[i % responders.len()])?;
                }
                pop.drain(4_000)?;
            }
            pop.drain(20_000)?;
            Ok(())
        });
        ran?;
        if !pop.quiescent() {
            return Err(IntegrationError::Config("flat-cost burst failed to quiesce".into()));
        }
        let after = pop.hub.settle_metrics();
        let routed = pop.hub.stage_profile().counters.routed_documents - routed_before;
        let active = pop.hub.completed_sessions() - completed_before;
        if active != active_per_phase {
            return Err(IntegrationError::Config(format!(
                "flat-cost burst: {active} of {active_per_phase} active sessions completed"
            )));
        }
        Ok(FlatCostPhase {
            idle_sessions,
            instances_resident: before.instances_resident,
            active_sessions: active,
            rounds: after.rounds - before.rounds,
            touched: after.touched_total - before.touched_total,
            allocs_per_doc: alloc.allocations as f64 / routed.max(1) as f64,
        })
    };
    // Warm everything the first burst would otherwise pay for alone:
    // codec caches, compiled programs, scratch capacity.
    for _ in 0..WAVE.min(active_per_phase) {
        pop.initiate(responders[0])?;
    }
    pop.drain(20_000)?;
    seed_idle(&mut pop, base_idle)?;
    let base = burst(&mut pop)?;
    seed_idle(&mut pop, base_idle * 9)?;
    let grown = burst(&mut pop)?;
    Ok(FlatCostReport { base, grown })
}

/// Runs the tests in order on this thread; an optional first non-flag
/// argument filters them by name. Exits non-zero if any test panicked.
fn main() {
    let tests: [(&str, fn()); 13] = [
        ("counting_allocator_sees_a_boxed_allocation", counting_allocator_sees_a_boxed_allocation),
        (
            "repeated_po_round_trips_are_allocation_steady",
            repeated_po_round_trips_are_allocation_steady,
        ),
        (
            "setting_a_field_of_an_existing_record_allocates_nothing",
            setting_a_field_of_an_existing_record_allocates_nothing,
        ),
        ("builtin_dispatch_allocations_stay_pinned", builtin_dispatch_allocations_stay_pinned),
        ("text_codec_allocations_stay_pinned", text_codec_allocations_stay_pinned),
        (
            "xml_decode_allocations_are_independent_of_layout_and_text_volume",
            xml_decode_allocations_are_independent_of_layout_and_text_volume,
        ),
        ("short_texts_and_ids_allocate_nothing", short_texts_and_ids_allocate_nothing),
        (
            "parsing_a_currency_or_an_amount_allocates_nothing",
            parsing_a_currency_or_an_amount_allocates_nothing,
        ),
        (
            "binary_decode_allocations_are_independent_of_text_payload",
            binary_decode_allocations_are_independent_of_text_payload,
        ),
        (
            "document_hops_allocate_independently_of_document_size",
            document_hops_allocate_independently_of_document_size,
        ),
        (
            "settle_cost_is_independent_of_idle_session_population",
            settle_cost_is_independent_of_idle_session_population,
        ),
        ("erp_simulator_allocations_stay_pinned", erp_simulator_allocations_stay_pinned),
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
