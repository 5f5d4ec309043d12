//! The experiment runner: regenerates every row of EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run -p b2b-bench --bin experiments            # all experiments
//! cargo run -p b2b-bench --bin experiments -- e5 e9   # selected ones
//! ```

use b2b_bench::population::SizeTier;
use b2b_bench::{explosion_row, run_roundtrips};
use b2b_core::baseline::cooperative::IntegrationConfig;
use b2b_core::baseline::distributed::run_distributed_roundtrip;
use b2b_core::change::{advanced_impact, naive_impact, ChangeKind};
use b2b_core::figures;
use b2b_core::scenario::{ScenarioProtocol, TwoEnterpriseScenario};
use b2b_core::SessionState;
use b2b_document::DocKind;
use b2b_network::{
    BackoffPolicy, Bytes, DeliveryStatus, EndpointId, FaultConfig, ReliableConfig,
    ReliableEndpoint, SimNetwork,
};
use b2b_protocol::{MessageExchangePattern, PublicProcessDef};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quick") {
        // CI mode: every identity assertion of the perf and chaos
        // experiments (E15-E18) without the timing loops — seconds, not
        // minutes.
        println!("==== QUICK — identity assertions for E15/E16/E17/E18/E20/E21, no timing ====");
        quick_identity();
        println!("quick identity pass: all assertions held");
        return;
    }
    if args.iter().any(|a| a == "--fixtures") {
        // Generate the big population fixtures to disk once, so full E21
        // runs (and any future tier) load instead of regenerating.
        use b2b_bench::population::{PopulationPlan, DEFAULT_POPULATION_SEED};
        let dir = std::path::Path::new("fixtures");
        for tier in [SizeTier::Large, SizeTier::Huge] {
            let plan = PopulationPlan::load_or_generate(tier, DEFAULT_POPULATION_SEED, dir);
            let path = PopulationPlan::fixture_path(dir, tier, DEFAULT_POPULATION_SEED);
            println!(
                "fixture {}: {} partners, {} sessions ({})",
                tier.name(),
                plan.partners.len(),
                plan.traffic.len(),
                path.display(),
            );
        }
        return;
    }
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    let experiments: &[(&str, &str, fn())] = &[
        ("e1", "Figures 1-3: round trip as one workflow", e1),
        ("e2", "Figures 4-6: migration mechanics", e2),
        ("e3", "Figure 7: inter-organizational exposure", e3),
        ("e4", "Figure 8: cooperative workflows", e4),
        ("e5", "Figures 9-10: workflow-type explosion", e5),
        ("e6", "Figures 11-15: advanced architecture end to end", e6),
        ("e7", "Section 4.5: change management", e7),
        ("e8", "Section 4.6: scalability of additions", e8),
        ("e9", "RNIF reliability under loss", e9),
        ("e10", "Message exchange patterns", e10),
        ("e13", "Failure containment: exactly-once-or-dead-lettered", e13),
        ("e15", "Binding hot path: compiled transforms and codec caching", e15),
        ("e16", "Decision layer: compiled rules, de-cloned execution, stage profile", e16),
        ("e17", "Document core: symbol-keyed records, allocation audit", e17),
        ("e18", "Partner failure domains: chaos grid, breakers, graceful degradation", e18),
        ("e20", "Compact binary wire format: zero-copy decode, per-format codec cost", e20),
        ("e21", "Population-scale settle: touched-only rounds, million-session harness", e21),
    ];
    for (id, title, run) in experiments {
        if want(id) {
            println!("==== {} — {title} ====", id.to_uppercase());
            run();
            println!();
        }
    }
}

fn e1() {
    // The Figure 2 type runs end to end on one engine (see the unit tests
    // for the mechanics); here we report its size: everything inline.
    let wf = figures::figure2_type().expect("figure 2 builds");
    println!(
        "figure-2 single workflow: {} steps, {} edges ({} with business-rule guards)",
        wf.steps().len(),
        wf.edges().len(),
        wf.edges().iter().filter(|e| e.guard.is_some()).count()
    );
    let sub = figures::figure3().expect("figure 3 builds");
    println!(
        "figure-3 redesign: {} types ({} total steps; control-flow edge added inside buyer ERP subworkflow)",
        sub.len(),
        sub.iter().map(|w| w.steps().len()).sum::<usize>()
    );
}

fn e2() {
    let outcome = run_distributed_roundtrip(12_000).expect("distributed run");
    println!(
        "migration round trip: completed={} instances_migrated={} types_migrated={}",
        outcome.completed, outcome.instances_migrated, outcome.types_migrated
    );
}

fn e3() {
    let outcome = run_distributed_roundtrip(12_000).expect("distributed run");
    println!("distributed exposure at the partner: {}", outcome.exposure);
    println!(
        "advanced exposure (by construction): types=0 rule-nodes=0 instance-states=0 \
         interfaces=0 schemas=2 (score 2)"
    );
}

fn e4() {
    for amount in [12_000, 600_000] {
        let ok = figures::run_figure8_roundtrip(amount).expect("cooperative run");
        println!(
            "cooperative round trip, amount {amount}: completed={ok} \
             (only EDI documents crossed; no types, no instances)"
        );
    }
}

fn e5() {
    println!(
        "{:>3} {:>3} {:>3} | {:>14} {:>17} {:>14} | {:>6}",
        "P", "T", "B", "naive elements", "advanced elements", "advanced total", "ratio"
    );
    for (p, t, b) in [
        (1, 1, 1),
        (2, 2, 2), // Figure 9
        (3, 3, 2), // Figure 10
        (3, 4, 3),
        (4, 8, 4),
        (6, 16, 4),
        (8, 32, 8),
    ] {
        let row = explosion_row(p, t, b).expect("sweep row");
        println!(
            "{:>3} {:>3} {:>3} | {:>14} {:>17} {:>14} | {:>5.1}x",
            row.p,
            row.t,
            row.b,
            row.naive_elements,
            row.advanced_elements,
            row.advanced_total,
            row.naive_elements as f64 / row.advanced_elements as f64
        );
    }
}

fn e6() {
    for protocol in [ScenarioProtocol::Edi, ScenarioProtocol::RosettaNet, ScenarioProtocol::Oagis] {
        let mut s = TwoEnterpriseScenario::with_protocol(protocol, FaultConfig::reliable(), 42)
            .expect("scenario");
        let before = s.seller.responder_private_hash().expect("hash");
        let po = s.po("e6", 12_000).expect("po");
        let c = s.submit(po).expect("submit");
        s.run_until_quiescent(120_000).expect("run");
        let after = s.seller.responder_private_hash().expect("hash");
        println!(
            "{protocol:?}: buyer={:?} seller={:?} private-process-hash-stable={}",
            s.buyer.session_state(&c),
            s.seller.session_state(&c),
            before == after
        );
    }
    let (before, after, new_artifacts) = figures::figure15_addition_is_local().expect("figure 15");
    println!(
        "figure-15 (add TP3 + OAGIS): private hash {before:#x} -> {after:#x} \
         (unchanged={}), {new_artifacts} new artifacts",
        before == after
    );
}

fn e7() {
    let base = IntegrationConfig::synthetic(2, 2, 2);
    println!("{:<34} | {:<55} | naive", "change", "advanced");
    for kind in ChangeKind::all() {
        let adv = advanced_impact(*kind, &base).expect("advanced impact");
        let naive = naive_impact(*kind, &base).expect("naive impact");
        println!("{:<34} | {:<55} | {}", kind.name(), adv.to_string(), naive);
    }
}

fn e8() {
    // Same analysis at a larger base to show locality is scale-free.
    let base = IntegrationConfig::synthetic(4, 8, 4);
    println!("base: 4 protocols, 8 partners, 4 back ends");
    for kind in [ChangeKind::AddPartner, ChangeKind::AddProtocol, ChangeKind::AddBackend] {
        let adv = advanced_impact(kind, &base).expect("advanced impact");
        let naive = naive_impact(kind, &base).expect("naive impact");
        println!(
            "{:<26}: advanced touches {:>3} artifacts ({} elements to review); \
             naive re-reviews {} elements",
            kind.name(),
            adv.touched_artifacts(),
            adv.elements_to_review,
            naive.elements_to_review
        );
    }
}

fn e9() {
    println!("loss | sent acked retries failures | delivery rate");
    for loss in [0.0, 0.1, 0.3, 0.5, 0.7] {
        let mut net = SimNetwork::new(
            FaultConfig { loss, duplicate: loss / 2.0, ..FaultConfig::flaky(loss) },
            99,
        );
        let config = ReliableConfig::fixed(200, 10);
        let mut a =
            ReliableEndpoint::new(EndpointId::new("a"), config.clone(), &mut net).expect("a");
        let mut b = ReliableEndpoint::new(EndpointId::new("b"), config, &mut net).expect("b");
        let to = b.id().clone();
        let mut ids = Vec::new();
        for i in 0..50 {
            ids.push(
                a.send(
                    &mut net,
                    &to,
                    b2b_document::FormatId::EDI_X12,
                    Bytes::from(format!("po-{i}")),
                )
                .expect("send"),
            );
        }
        for _ in 0..4000 {
            net.advance(10);
            a.tick(&mut net).expect("tick");
            b.receive(&mut net).expect("receive");
            a.receive(&mut net).expect("receive");
        }
        let acked =
            ids.iter().filter(|id| a.delivery_status(id) == DeliveryStatus::Acknowledged).count();
        println!(
            "{loss:>4.1} | {:>4} {:>5} {:>7} {:>8} | {:>5.1}%",
            a.stats().sends,
            acked,
            a.stats().retries,
            a.stats().failures,
            100.0 * acked as f64 / 50.0
        );
    }
}

fn e10() {
    let patterns = [
        MessageExchangePattern::OneWay { kind: DocKind::ShipmentNotice },
        MessageExchangePattern::RequestReply {
            request: DocKind::PurchaseOrder,
            reply: DocKind::PurchaseOrderAck,
        },
        MessageExchangePattern::Broadcast { kind: DocKind::RequestForQuote, recipients: 5 },
        MessageExchangePattern::MultiStep {
            legs: vec![
                b2b_protocol::patterns::ExchangeLeg {
                    initiator_sends: true,
                    kind: DocKind::RequestForQuote,
                },
                b2b_protocol::patterns::ExchangeLeg {
                    initiator_sends: false,
                    kind: DocKind::Quote,
                },
                b2b_protocol::patterns::ExchangeLeg {
                    initiator_sends: true,
                    kind: DocKind::PurchaseOrder,
                },
                b2b_protocol::patterns::ExchangeLeg {
                    initiator_sends: false,
                    kind: DocKind::PurchaseOrderAck,
                },
            ],
        },
    ];
    for pattern in patterns {
        let (init, resp) = pattern
            .role_processes("e10", b2b_document::FormatId::EDI_X12)
            .expect("pattern compiles");
        let ok = PublicProcessDef::check_complementary(&init, &resp).is_ok();
        println!(
            "{:<13}: initiator {} steps, responder {} steps, complementary={ok}",
            pattern.name(),
            init.step_count(),
            resp.step_count()
        );
    }
    // Throughput sanity: 10 concurrent request/replies end to end.
    let (done, elapsed) = run_roundtrips(10, FaultConfig::reliable(), 5).expect("round trips");
    println!("10 concurrent request/reply sessions: {done} completed in {elapsed} sim-ms");
    // Live broadcast: one RFQ correlation fanned out to three sellers,
    // each quoting with its own externalized pricing rule (§2.3).
    let prices = [94_999, 89_950, 97_500];
    let live = rfq_broadcast_audited_mixed(61, prices.len(), |i| prices[i], false);
    println!(
        "broadcast RFQ  : one correlation -> {}/{} sellers quoted \
         (each priced by its own private rule)",
        live.done,
        prices.len()
    );
}

fn e13() {
    // Part 1: transport level. Sweep (loss, duplication, corruption) ×
    // backoff policy and classify every send: delivered to the receiver's
    // application, or failed at the sender (→ dead-lettered by the
    // engine). `cover` counts messages in the union — it must equal
    // `sent`: nothing is ever silently lost, whatever the fault mix.
    println!("transport: every send ends delivered or dead-lettered, never silently lost");
    println!("loss  dup corr | policy | sent deliv dead cover | retries nack-rtx corrupt-rej");
    let grid = [
        (0.0, 0.0, 0.0),
        (0.3, 0.0, 0.0),
        (0.0, 0.3, 0.0),
        (0.0, 0.0, 0.3),
        (0.3, 0.15, 0.15),
        (0.5, 0.25, 0.25),
        (0.2, 0.1, 0.6),
        (1.0, 0.0, 0.0),
    ];
    let policies: [(&str, ReliableConfig); 2] = [
        ("fixed", ReliableConfig::fixed(200, 10)),
        (
            "expo",
            ReliableConfig {
                retry_timeout_ms: 200,
                max_retries: 10,
                backoff: BackoffPolicy::Exponential { max_interval_ms: 2_000, jitter: 0.1 },
                deadline_ms: None,
                jitter_seed: 7,
            },
        ),
    ];
    for (loss, duplicate, corrupt) in grid {
        for (name, config) in &policies {
            let faults =
                FaultConfig { loss, duplicate, corrupt, min_delay_ms: 10, max_delay_ms: 120 };
            let mut net = SimNetwork::new(faults, 4242);
            let mut a =
                ReliableEndpoint::new(EndpointId::new("a"), config.clone(), &mut net).expect("a");
            let mut b =
                ReliableEndpoint::new(EndpointId::new("b"), config.clone(), &mut net).expect("b");
            let to = b.id().clone();
            let mut ids = Vec::new();
            for i in 0..40 {
                ids.push(
                    a.send(
                        &mut net,
                        &to,
                        b2b_document::FormatId::EDI_X12,
                        Bytes::from(format!("po-{i}")),
                    )
                    .expect("send"),
                );
            }
            let mut delivered = std::collections::BTreeSet::new();
            let mut dead = std::collections::BTreeSet::new();
            for _ in 0..6_000 {
                net.advance(10);
                dead.extend(a.tick(&mut net).expect("tick").into_iter().map(|e| e.id));
                for env in b.receive(&mut net).expect("receive") {
                    assert!(env.verify_integrity(), "no corrupt payload surfaces");
                    assert!(delivered.insert(env.id), "no duplicate surfaces");
                }
                a.receive(&mut net).expect("receive");
            }
            let cover = ids.iter().filter(|id| delivered.contains(id) || dead.contains(id)).count();
            assert_eq!(cover, ids.len(), "every message delivered or dead-lettered");
            println!(
                "{loss:>4.1} {duplicate:>4.2} {corrupt:>4.2} | {name:<6} | {:>4} {:>5} {:>4} {:>5} | {:>7} {:>8} {:>11}",
                ids.len(),
                delivered.len(),
                dead.len(),
                cover,
                a.stats().retries,
                a.stats().nack_retransmits,
                b.stats().corrupt_rejected,
            );
        }
    }

    // Part 2: engine level. Failed interactions are dead-lettered and the
    // counterparty is notified; completed + failed always accounts for
    // every session.
    println!();
    println!("engine: 8 EDI round trips per row; failed sessions notify the counterparty");
    println!("loss | completed failed | dead-lettered notified(sent/recv)");
    for loss in [0.0, 0.3, 1.0] {
        let faults = if loss == 0.0 {
            FaultConfig::reliable()
        } else {
            FaultConfig { loss, ..FaultConfig::flaky(loss) }
        };
        let mut s = TwoEnterpriseScenario::new(faults, 77).expect("scenario");
        let mut correlations = Vec::new();
        for i in 0..8 {
            let po = s.po(&format!("E13-{i}"), 1_000 + i).expect("po");
            correlations.push(s.submit(po).expect("submit"));
        }
        s.run_until_quiescent(600_000).expect("run");
        let completed = correlations
            .iter()
            .filter(|c| s.buyer.session_state(c) == SessionState::Completed)
            .count();
        let failed = correlations
            .iter()
            .filter(|c| matches!(s.buyer.session_state(c), SessionState::Failed(_)))
            .count();
        assert_eq!(completed + failed, 8, "every session reaches a terminal state");
        let dead = s.buyer.stats().dead_lettered + s.seller.stats().dead_lettered;
        let sent = s.buyer.stats().notifications_sent + s.seller.stats().notifications_sent;
        let recv = s.buyer.stats().notifications_received + s.seller.stats().notifications_received;
        println!("{loss:>4.1} | {completed:>9} {failed:>6} | {dead:>13} {sent:>8}/{recv}");
    }
}

fn e15() {
    use b2b_document::formats::sample_edi_po;
    use b2b_document::{Document, FormatId};
    use b2b_transform::{TransformContext, TransformRegistry};

    // Part 1: per-document transform latency, the rule-tree interpreter
    // (`TransformProgram::apply`) vs the registry's compiled dispatch, on
    // the PO round trip a binding actually runs per inbound order (EDI ->
    // normalized -> EDI). Identity is asserted in the same run: both must
    // produce equal documents before timing counts.
    const BATCHES: u32 = 10;
    const BATCH_ITERS: u32 = 1_000;
    let reg = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000042", "i-e15");
    let doc = sample_edi_po("E15", 7);
    let to_norm = reg
        .program(&FormatId::EDI_X12, &FormatId::NORMALIZED, DocKind::PurchaseOrder)
        .expect("EDI -> normalized program");
    let to_edi = reg
        .program(&FormatId::NORMALIZED, &FormatId::EDI_X12, DocKind::PurchaseOrder)
        .expect("normalized -> EDI program");
    let interpreted = || -> (Document, Document) {
        let norm = to_norm.apply(&doc, &ctx).expect("interpreted norm");
        let back = to_edi.apply(&norm, &ctx).expect("interpreted back");
        (norm, back)
    };
    let compiled = || -> (Document, Document) {
        let norm = reg.transform(&doc, &FormatId::NORMALIZED, &ctx).expect("compiled norm");
        let back = reg.transform(&norm, &FormatId::EDI_X12, &ctx).expect("compiled back");
        (norm, back)
    };
    assert_eq!(compiled(), interpreted(), "registry dispatch diverged from the interpreter");

    // One timed batch per call; the caller interleaves the two paths and
    // keeps the per-path minimum, which is robust against scheduler noise.
    let time_batch = |round_trip: &dyn Fn() -> (Document, Document)| -> f64 {
        let started = std::time::Instant::now();
        for _ in 0..BATCH_ITERS {
            std::hint::black_box(round_trip());
        }
        started.elapsed().as_secs_f64() * 1e6 / BATCH_ITERS as f64
    };
    let (mut interp_us, mut compiled_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BATCHES {
        interp_us = interp_us.min(time_batch(&interpreted));
        compiled_us = compiled_us.min(time_batch(&compiled));
    }
    let speedup = interp_us / compiled_us;
    println!(
        "PO round trip (EDI -> normalized -> EDI), \
         best of {BATCHES}x{BATCH_ITERS} iterations:"
    );
    println!("  interpreted: {interp_us:>8.2} us/round-trip");
    println!("  compiled:    {compiled_us:>8.2} us/round-trip  ({speedup:.2}x)");

    // Part 2: end to end. The broadcast workload (one buyer, 24 sellers,
    // RosettaNet RFQ -> Quote) and the buyer's codec work.
    let sellers_n = SizeTier::from_env(SizeTier::Small).broadcast_sellers();
    let run = rfq_broadcast_audited_mixed(15, sellers_n, fleet_price_cents, false);
    let per_s = run.done as f64 / (run.wall_ms / 1_000.0);
    println!();
    println!(
        "{sellers_n}-seller RFQ broadcast, end to end: {:>7.1} ms wall  {per_s:>8.0} sessions/s",
        run.wall_ms
    );
    println!("  buyer codec work: {}", run.cache);

    let json = format!(
        "{{\n  \"experiment\": \"binding\",\n  \"roundtrip\": {{\"batches\": {BATCHES}, \
         \"batch_iters\": {BATCH_ITERS}, \
         \"interpreted_us_per_doc\": {interp_us:.3}, \"compiled_us_per_doc\": {compiled_us:.3}, \
         \"speedup\": {speedup:.3}}},\n  \"rfq_broadcast\": {{\"sellers\": {sellers_n}, \
         \"compiled_wall_ms\": {:.2}, \"compiled_sessions_per_s\": {per_s:.1}}},\n  \
         \"codec_cache\": {{\"payloads_parsed\": {}, \
         \"encode_buffer_reuses\": {}, \"encode_buffer_allocs\": {}}}\n}}\n",
        run.wall_ms,
        run.cache.decode_misses,
        run.cache.encode_buffer_reuses,
        run.cache.encode_buffer_allocs,
    );
    if let Err(e) = std::fs::write("BENCH_binding.json", &json) {
        println!("(BENCH_binding.json not written: {e})");
    } else {
        println!("wrote BENCH_binding.json");
    }
}

fn e16() {
    use b2b_document::normalized::sample_po;
    use b2b_document::Value;
    use b2b_rules::approval::{check_need_for_approval, ApprovalThreshold};
    use b2b_rules::{BusinessRule, RuleContext, RuleFunction, RuleRegistry};

    // Part 1: per-invocation rule latency, the tree interpreter
    // (`RuleFunction::invoke`) vs the registry's compiled dispatch, on the
    // paper's approval family scaled to 32 partners with the worst case
    // dispatched (the LAST partner matches, so every guard before it
    // runs). Identity is asserted in the same run — match, no-match
    // error, and unknown-partner error — before any timing counts.
    const BATCHES: u32 = 10;
    const BATCH_ITERS: u32 = 1_000;
    const PARTNERS: usize = 32;
    let thresholds: Vec<ApprovalThreshold> = (0..PARTNERS)
        .flat_map(|k| {
            let tp = format!("TP{}", k + 1);
            [
                ApprovalThreshold::new("SAP", &tp, 10_000 + 5_000 * k as i64),
                ApprovalThreshold::new("Oracle", &tp, 10_000 + 5_000 * k as i64),
            ]
        })
        .collect();
    let function = check_need_for_approval(&thresholds).expect("approval function");

    // Same shape with *rich* guards — each rule applies only from an
    // effective date and only to orders with at least one line. The tree
    // interpreter re-computes both gates from scratch on every guard
    // evaluation of every dispatch: it re-parses the `date("…")` literal,
    // and `len(document.lines)` materializes a deep copy of the line list
    // just to count it. The compiled program folds the literal to a
    // constant once and reads the pre-resolved list by reference. This is
    // where lowering pays: the rule scan stops being dominated by
    // re-evaluating (and re-allocating) parts that never change.
    let mut dated = RuleFunction::new("approve-effective-dated");
    for (k, t) in thresholds.iter().enumerate() {
        dated.add_rule(
            BusinessRule::parse(
                &format!("dated rule {}", k + 1),
                &format!(
                    "date(\"2001-01-01\") <= document.header.order_date \
                     and len(document.lines) >= 1 \
                     and target == \"{}\" and source == \"{}\"",
                    t.target, t.source
                ),
                &format!("document.amount >= {}", t.threshold_units),
            )
            .expect("dated rule"),
        );
    }
    let mut reg = RuleRegistry::new();
    reg.register(function.clone());
    reg.register(dated.clone());
    let doc = sample_po("E16", 42_000);
    let last = format!("TP{PARTNERS}");
    for f in [&function, &dated] {
        for (source, target) in
            [(last.as_str(), "Oracle"), (last.as_str(), "SAP"), ("TP999", "SAP")]
        {
            assert_eq!(
                reg.invoke(&f.name, source, target, &doc),
                f.invoke(&RuleContext::new(source, target, &doc)),
                "{}: registry dispatch diverged from the interpreter for ({source}, {target})",
                f.name
            );
        }
    }

    let time_batch = |invoke: &dyn Fn() -> Value| -> f64 {
        let started = std::time::Instant::now();
        for _ in 0..BATCH_ITERS {
            std::hint::black_box(invoke());
        }
        started.elapsed().as_secs_f64() * 1e6 / BATCH_ITERS as f64
    };
    // The worst-case scan of `f`, interpreted and through the registry.
    let scans = |f: &RuleFunction| -> (f64, f64) {
        let interpret =
            || f.invoke(&RuleContext::new(&last, "Oracle", &doc)).expect("interpreted invoke");
        let dispatch = || reg.invoke(&f.name, &last, "Oracle", &doc).expect("compiled invoke");
        let (mut interp_us, mut compiled_us) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..BATCHES {
            interp_us = interp_us.min(time_batch(&interpret));
            compiled_us = compiled_us.min(time_batch(&dispatch));
        }
        (interp_us, compiled_us)
    };
    let (plain_interp_us, plain_compiled_us) = scans(&function);
    let plain_speedup = plain_interp_us / plain_compiled_us;
    println!(
        "approval rule, {PARTNERS} partners, last-partner match, \
         best of {BATCHES}x{BATCH_ITERS} invocations:"
    );
    println!("  interpreted: {plain_interp_us:>8.3} us/invoke");
    println!("  compiled:    {plain_compiled_us:>8.3} us/invoke  ({plain_speedup:.2}x)");

    let (interp_us, compiled_us) = scans(&dated);
    let rule_speedup = interp_us / compiled_us;
    println!("effective-dated approval rule, same scan:");
    println!("  interpreted: {interp_us:>8.3} us/invoke");
    println!("  compiled:    {compiled_us:>8.3} us/invoke  ({rule_speedup:.2}x)");

    // Part 2: end to end. The 24-seller RFQ broadcast (as E15, which set
    // the pre-optimization baseline in BENCH_binding.json). Every
    // observable — integration stats, WFMS counters (guard evaluations
    // included), completions, simulated clock, per-stage counters — must
    // be byte-identical across the repeat runs; only wall-clock may move.
    let sellers_n = SizeTier::from_env(SizeTier::Small).broadcast_sellers();
    let broadcast = best_broadcast(sellers_n);
    println!();
    println!(
        "{sellers_n}-seller RFQ broadcast, end to end \
         (all observables asserted identical across repeat runs):"
    );
    println!("  {:>7.1} ms wall", broadcast.wall_ms);
    println!("  buyer stage profile: {}", broadcast.profile);

    // The same workload was timed by E15 before this round of
    // optimizations (compiled transforms, but cloning execution core and
    // interpreted rules): its compiled_wall_ms is the baseline this
    // experiment improves on.
    let baseline_ms = std::fs::read_to_string("BENCH_binding.json").ok().and_then(|text| {
        let tail = text.split("\"compiled_wall_ms\":").nth(1)?;
        tail.split([',', '}']).next()?.trim().parse::<f64>().ok()
    });
    let vs_baseline = match baseline_ms {
        Some(base) => {
            println!(
                "  vs E15 compiled baseline ({base:.2} ms): {:.2}x end to end",
                base / broadcast.wall_ms
            );
            format!("{:.3}", base / broadcast.wall_ms)
        }
        None => {
            println!("  (BENCH_binding.json absent — no pre-optimization baseline to compare)");
            "null".to_string()
        }
    };

    let stages = broadcast.profile.counters;
    let json = format!(
        "{{\n  \"experiment\": \"exec\",\n  \"rule_eval\": {{\"partners\": {PARTNERS}, \
         \"batches\": {BATCHES}, \"batch_iters\": {BATCH_ITERS}, \
         \"interpreted_us_per_invoke\": {interp_us:.3}, \
         \"compiled_us_per_invoke\": {compiled_us:.3}, \"speedup\": {rule_speedup:.3}, \
         \"plain_interpreted_us_per_invoke\": {plain_interp_us:.3}, \
         \"plain_compiled_us_per_invoke\": {plain_compiled_us:.3}, \
         \"plain_speedup\": {plain_speedup:.3}}},\n  \
         \"rfq_broadcast\": {{\"sellers\": {sellers_n}, \"compiled_wall_ms\": {:.2}, \
         \"speedup_vs_binding_baseline\": {vs_baseline}}},\n  \
         \"stage_counters\": {{\"pumps\": {}, \"edge_payloads\": {}, \"edge_notices\": {}, \
         \"edge_duplicates\": {}, \"routed_documents\": {}, \"settle_passes\": {}, \
         \"emitted_documents\": {}}}\n}}\n",
        broadcast.wall_ms,
        stages.pumps,
        stages.edge_payloads,
        stages.edge_notices,
        stages.edge_duplicates,
        stages.routed_documents,
        stages.settle_passes,
        stages.emitted_documents,
    );
    if let Err(e) = std::fs::write("BENCH_exec.json", &json) {
        println!("(BENCH_exec.json not written: {e})");
    } else {
        println!("wrote BENCH_exec.json");
    }
}

/// Everything observable about (and the allocator traffic of) one
/// RFQ-broadcast run of [`rfq_broadcast_audited_mixed`].
struct BroadcastRun {
    wall_ms: f64,
    sim_ms: u64,
    stats: b2b_core::engine::IntegrationStats,
    /// Each seller's integration counters, in seller order.
    seller_stats: Vec<b2b_core::engine::IntegrationStats>,
    wf_stats: b2b_wfms::EngineStats,
    done: usize,
    /// Buyer per-stage counters (deterministic) and timers (measurement).
    profile: b2b_core::metrics::StageProfile,
    cache: b2b_core::metrics::CodecCacheStats,
    /// Documents the route stage queued, summed over the whole fleet —
    /// the denominator for allocs/doc.
    fleet_routed: u64,
    /// Allocator traffic of the message-processing phase only (initiate
    /// plus the pump loop; fleet construction is excluded).
    alloc: b2b_bench::alloc_count::AllocDelta,
}

/// Seller `i`'s quote price, in cents, in the E15-E20 broadcast fleet.
fn fleet_price_cents(i: usize) -> i64 {
    80_000 + 100 * i as i64
}

/// The broadcast workload of E10 and E15-E20: one buyer sends one RFQ
/// correlation to `sellers_n` sellers (RosettaNet RFQ -> Quote), seller
/// `i` pricing it with its own private rule at `price_cents(i)`, the
/// message-processing phase allocation-audited. With `mixed_binary`,
/// every odd-numbered seller trades on the compact binary wire format
/// instead — the E20 configuration proving the zero-copy codec coexists
/// with the text codecs inside one broadcast without perturbing any
/// observable.
fn rfq_broadcast_audited_mixed(
    seed: u64,
    sellers_n: usize,
    price_cents: impl Fn(usize) -> i64,
    mixed_binary: bool,
) -> BroadcastRun {
    use b2b_core::engine::IntegrationEngine;
    use b2b_core::partner::TradingPartner;
    use b2b_core::private_process::QUOTE_PRICE_RULE;
    use b2b_document::{record, CorrelationId, Date, Document, FormatId, Value};
    use b2b_protocol::TradingPartnerAgreement;
    use b2b_rules::{BusinessRule, RuleFunction};

    let mut net = SimNetwork::new(FaultConfig::reliable(), seed);
    let mut buyer = IntegrationEngine::new("ACME", &mut net).expect("buyer");
    let mut sellers = Vec::new();
    for i in 0..sellers_n {
        let name = format!("Seller{i:02}");
        let mut seller = IntegrationEngine::new(&name, &mut net).expect("seller");
        seller.add_partner(TradingPartner::new("ACME"));
        let cents = price_cents(i);
        let mut f = RuleFunction::new(QUOTE_PRICE_RULE);
        f.add_rule(
            BusinessRule::parse(
                "flat",
                "true",
                &format!("money(\"{}.{:02} USD\")", cents / 100, cents % 100),
            )
            .expect("rule"),
        );
        seller.rules_mut().register(f);
        buyer.add_partner(TradingPartner::new(&name));
        let wire_format =
            if mixed_binary && i % 2 == 1 { FormatId::BINARY } else { FormatId::ROSETTANET };
        let (init, resp) = MessageExchangePattern::RequestReply {
            request: DocKind::RequestForQuote,
            reply: DocKind::Quote,
        }
        .role_processes(&format!("rfq-{name}"), wire_format)
        .expect("processes");
        let agreement = TradingPartnerAgreement::between(
            &format!("rfq-{name}"),
            "ACME",
            &name,
            &init,
            &resp,
            true,
        )
        .expect("agreement");
        buyer.install_agreement(agreement.clone(), &init, &resp).expect("install");
        seller.install_agreement(agreement.clone(), &init, &resp).expect("install");
        sellers.push((seller, agreement.id));
    }
    let rfq = Document::new(
        DocKind::RequestForQuote,
        FormatId::NORMALIZED,
        CorrelationId::for_rfq_number("E17"),
        record! {
            "header" => record! {
                "rfq_number" => Value::text("E17"),
                "buyer" => Value::text("ACME"),
                "item" => Value::text("LAPTOP-T23"),
                "quantity" => Value::Int(100),
                "respond_by" => Value::Date(Date::new(2001, 10, 1).expect("date")),
            },
        },
    );
    let correlation = rfq.correlation().clone();
    let started = std::time::Instant::now();
    let ((), alloc) = b2b_bench::alloc_count::measure(|| {
        for (_, agreement_id) in &sellers {
            buyer.initiate(&mut net, agreement_id, rfq.clone()).expect("initiate");
        }
        for _ in 0..2_000 {
            net.advance(10);
            buyer.pump(&mut net).expect("pump");
            for (seller, _) in sellers.iter_mut() {
                seller.pump(&mut net).expect("pump");
            }
            if net.idle() {
                break;
            }
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(buyer.session_state(&correlation), SessionState::Completed, "broadcast completes");
    let profile = *buyer.stage_profile();
    let fleet_routed = profile.counters.routed_documents
        + sellers.iter().map(|(s, _)| s.stage_profile().counters.routed_documents).sum::<u64>();
    BroadcastRun {
        wall_ms,
        sim_ms: net.now().as_millis(),
        stats: buyer.stats().clone(),
        seller_stats: sellers.iter().map(|(s, _)| s.stats().clone()).collect(),
        wf_stats: buyer.wf().stats().clone(),
        done: buyer.completed_sessions(),
        profile,
        cache: *buyer.codec_cache_stats(),
        fleet_routed,
        alloc,
    }
}

/// The fastest of three broadcast-fleet runs after a warm-up run:
/// wall-clock on a few-ms workload is noisy, the minimum is robust.
/// Observables are asserted identical on every run.
fn best_broadcast(sellers_n: usize) -> BroadcastRun {
    let run = || rfq_broadcast_audited_mixed(15, sellers_n, fleet_price_cents, false);
    std::hint::black_box(run()); // warm-up: the first run pays one-time costs
    let mut best = run();
    for _ in 0..2 {
        let next = run();
        assert_broadcast_identical("repeat run", &best, &next);
        if next.wall_ms < best.wall_ms {
            best = next;
        }
    }
    best
}

/// Asserts every observable of two broadcast runs equal (wall clock and
/// allocator traffic excepted — those are what the experiments measure).
fn assert_broadcast_identical(label: &str, base: &BroadcastRun, other: &BroadcastRun) {
    assert_eq!(base.stats, other.stats, "{label}: integration stats diverged");
    assert_eq!(base.seller_stats, other.seller_stats, "{label}: seller stats diverged");
    assert_eq!(base.wf_stats, other.wf_stats, "{label}: WFMS counters diverged");
    assert_eq!(base.done, other.done, "{label}: completions diverged");
    assert_eq!(base.sim_ms, other.sim_ms, "{label}: simulated clock diverged");
    assert_eq!(base.profile.counters, other.profile.counters, "{label}: stage counters diverged");
    assert_eq!(base.cache, other.cache, "{label}: codec cache traffic diverged");
    assert_eq!(base.fleet_routed, other.fleet_routed, "{label}: fleet routing diverged");
}

fn e17() {
    use b2b_bench::alloc_count;
    use b2b_document::formats::sample_edi_po;
    use b2b_document::normalized::sample_po;
    use b2b_document::{FormatId, FormatRegistry};
    use b2b_rules::{BusinessRule, RuleFunction, RuleRegistry};
    use b2b_transform::{TransformContext, TransformRegistry};

    // Part 1: the compiled PO round trip (EDI -> normalized -> EDI) after
    // the symbol-keyed record flattening, measured two ways: wall time per
    // document AND allocator calls per document. The wire bytes are
    // asserted stable first — flattening the in-memory record layout must
    // not move a single byte of what partners see.
    //
    // More batches than E15/E16 use: this host's clock is bimodal under
    // shared load, and a per-mode minimum over a longer window reliably
    // captures the fast state both baselines were recorded in.
    const BATCHES: u32 = 24;
    const BATCH_ITERS: u32 = 1_000;
    let reg = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000042", "i-e17");
    let doc = sample_edi_po("E17", 7);
    let formats = FormatRegistry::with_builtins();
    let wire = formats.encode(&doc).expect("encode");
    let redecoded = formats.decode(&FormatId::EDI_X12, &wire).expect("decode");
    assert_eq!(doc.body(), redecoded.body(), "decode -> encode round trip drifted");
    assert_eq!(formats.encode(&redecoded).expect("re-encode"), wire, "EDI wire bytes drifted");

    let round_trip = || {
        let norm = reg.transform(&doc, &FormatId::NORMALIZED, &ctx).expect("norm");
        let back = reg.transform(&norm, &FormatId::EDI_X12, &ctx).expect("back");
        std::hint::black_box(back);
    };
    // Warm the compiled-program caches and spin the clock governor up
    // before any timing.
    let warm = std::time::Instant::now();
    while warm.elapsed().as_millis() < 60 {
        round_trip();
    }
    let interned_before = b2b_document::interned_count();
    let mut rt_us = f64::INFINITY;
    for _ in 0..BATCHES {
        let started = std::time::Instant::now();
        for _ in 0..BATCH_ITERS {
            round_trip();
        }
        rt_us = rt_us.min(started.elapsed().as_secs_f64() * 1e6 / BATCH_ITERS as f64);
    }
    let ((), rt_alloc) = alloc_count::measure(|| {
        for _ in 0..BATCH_ITERS {
            round_trip();
        }
    });
    assert_eq!(
        b2b_document::interned_count(),
        interned_before,
        "steady-state round trips interned new symbols"
    );
    let rt_allocs = rt_alloc.allocations as f64 / f64::from(BATCH_ITERS);
    let rt_bytes = rt_alloc.bytes as f64 / f64::from(BATCH_ITERS);
    println!("PO round trip (compiled), best of {BATCHES}x{BATCH_ITERS} iterations:");
    println!("  {rt_us:>8.2} us/doc   {rt_allocs:>7.1} allocs/doc   {rt_bytes:>9.0} bytes/doc");

    // The baseline is E15's compiled round trip as checked in *before*
    // this flattening (BENCH_binding.json); re-running E15 on the new
    // core overwrites it, so the comparison only holds against history.
    let baseline_field = |path: &str, key: &str| -> Option<f64> {
        let text = std::fs::read_to_string(path).ok()?;
        let tail = text.split(&format!("\"{key}\":")).nth(1)?;
        tail.split([',', '}']).next()?.trim().parse::<f64>().ok()
    };
    let rt_base = baseline_field("BENCH_binding.json", "compiled_us_per_doc");
    let rt_speedup = match rt_base {
        Some(base) => {
            println!("  vs E15 compiled baseline ({base:.2} us/doc): {:.2}x", base / rt_us);
            format!("{:.3}", base / rt_us)
        }
        None => {
            println!("  (BENCH_binding.json absent — no pre-flattening baseline)");
            "null".to_string()
        }
    };

    // Part 2: the E16 worst-case rule scan — 32 partners, effective-dated
    // guards, last partner matches — with the same two meters. Record
    // field access inside guard evaluation is now a symbol-pointer probe
    // into a sorted slice instead of a string-keyed tree walk.
    const PARTNERS: usize = 32;
    let mut dated = RuleFunction::new("approve-effective-dated");
    for k in 0..PARTNERS {
        for source in ["SAP", "Oracle"] {
            let tp = format!("TP{}", k + 1);
            dated.add_rule(
                BusinessRule::parse(
                    &format!("dated rule {source}/{tp}"),
                    &format!(
                        "date(\"2001-01-01\") <= document.header.order_date \
                         and len(document.lines) >= 1 \
                         and target == \"{source}\" and source == \"{tp}\""
                    ),
                    &format!("document.amount >= {}", 10_000 + 5_000 * k as i64),
                )
                .expect("dated rule"),
            );
        }
    }
    let dated_name = dated.name.clone();
    let mut rules = RuleRegistry::new();
    rules.register(dated);
    let po = sample_po("E17", 42_000);
    let last = format!("TP{PARTNERS}");
    let warm = std::time::Instant::now();
    while warm.elapsed().as_millis() < 60 {
        std::hint::black_box(rules.invoke(&dated_name, &last, "Oracle", &po).expect("invoke"));
    }
    let mut scan_us = f64::INFINITY;
    for _ in 0..BATCHES {
        let started = std::time::Instant::now();
        for _ in 0..BATCH_ITERS {
            std::hint::black_box(rules.invoke(&dated_name, &last, "Oracle", &po).expect("invoke"));
        }
        scan_us = scan_us.min(started.elapsed().as_secs_f64() * 1e6 / BATCH_ITERS as f64);
    }
    let ((), scan_alloc) = alloc_count::measure(|| {
        for _ in 0..BATCH_ITERS {
            std::hint::black_box(rules.invoke(&dated_name, &last, "Oracle", &po).expect("invoke"));
        }
    });
    let scan_allocs = scan_alloc.allocations as f64 / f64::from(BATCH_ITERS);
    println!();
    println!("effective-dated approval scan ({PARTNERS} partners, compiled, last match):");
    println!("  {scan_us:>8.3} us/invoke   {scan_allocs:>5.1} allocs/invoke");
    let scan_base = baseline_field("BENCH_exec.json", "compiled_us_per_invoke");
    let scan_speedup = match scan_base {
        Some(base) => {
            println!("  vs E16 compiled baseline ({base:.2} us/invoke): {:.2}x", base / scan_us);
            format!("{:.3}", base / scan_us)
        }
        None => {
            println!("  (BENCH_exec.json absent — no pre-flattening baseline)");
            "null".to_string()
        }
    };

    // Part 3: end to end. The 24-seller RFQ broadcast; every observable
    // (integration stats, WFMS counters, completions, simulated clock,
    // stage counters, codec cache traffic, fleet routing) must be
    // byte-identical across the repeat runs — only wall clock and
    // allocator traffic may move.
    let sellers = SizeTier::from_env(SizeTier::Small).broadcast_sellers();
    let compiled = best_broadcast(sellers);
    let bc_allocs = compiled.alloc.allocations as f64 / compiled.fleet_routed as f64;
    println!();
    println!(
        "{sellers}-seller RFQ broadcast, end to end \
         (all observables asserted identical across repeat runs):"
    );
    println!("  {:>7.1} ms wall", compiled.wall_ms);
    println!(
        "  allocator traffic: {} calls over {} routed documents ({bc_allocs:.0} allocs/doc)",
        compiled.alloc.allocations, compiled.fleet_routed
    );

    let json = format!(
        "{{\n  \"experiment\": \"doc\",\n  \"roundtrip\": {{\"batches\": {BATCHES}, \
         \"batch_iters\": {BATCH_ITERS}, \"us_per_doc\": {rt_us:.3}, \
         \"allocs_per_doc\": {rt_allocs:.2}, \"bytes_per_doc\": {rt_bytes:.0}, \
         \"speedup_vs_binding_baseline\": {rt_speedup}}},\n  \
         \"rule_scan\": {{\"partners\": {PARTNERS}, \"us_per_invoke\": {scan_us:.3}, \
         \"allocs_per_invoke\": {scan_allocs:.2}, \
         \"speedup_vs_exec_baseline\": {scan_speedup}}},\n  \
         \"rfq_broadcast\": {{\"sellers\": {sellers}, \"compiled_wall_ms\": {:.2}, \
         \"fleet_routed_documents\": {}, \"allocs_per_doc\": {bc_allocs:.1}}}\n}}\n",
        compiled.wall_ms, compiled.fleet_routed,
    );
    if let Err(e) = std::fs::write("BENCH_doc.json", &json) {
        println!("(BENCH_doc.json not written: {e})");
    } else {
        println!("wrote BENCH_doc.json");
    }
}

fn e18() {
    use b2b_bench::chaos::{chaos_seed, run_chaos, ChaosConfig, ChaosFault};
    use b2b_core::PartnerPolicy;

    let seed = chaos_seed();
    println!("chaos seed: {seed} (override with B2B_CHAOS_SEED)");

    // The armed policy of the grid: a guarded breaker plus a tight
    // inbound cap so the flood cell actually sheds.
    let armed = PartnerPolicy { inbound_queue_cap: 4, ..PartnerPolicy::guarded() };

    // Part 1: the fault grid. Five fault shapes x breakers on/off; every
    // cell must keep the coverage invariant — each submitted order ends
    // completed, dead-lettered, or shed, and the reliable ledger drains.
    println!();
    println!("fault grid: every order completes, dead-letters, or is shed — never silently lost");
    println!("fault      brk | compl fail shed dead | trips poison shed-in | sim-ms");
    let faults: [(&str, ChaosFault); 5] = [
        ("none", ChaosFault::None),
        ("black-hole", ChaosFault::BlackHole),
        ("poison", ChaosFault::Poison),
        ("flood", ChaosFault::Flood { burst: 8 }),
        ("flap", ChaosFault::Flap { up_ms: 200, down_ms: 200 }),
    ];
    for (fname, fault) in faults {
        for (pname, policy) in [("on", armed.clone()), ("off", PartnerPolicy::permissive())] {
            let r = run_chaos(&ChaosConfig::cell(fault, policy, seed)).expect("chaos cell");
            if let Err(e) = r.check_invariant() {
                panic!("[{fname}/breakers {pname}] {e}");
            }
            if pname == "on" {
                match fault {
                    ChaosFault::BlackHole => {
                        assert!(r.breaker_trips >= 1, "black hole must trip the breaker");
                        assert!(r.shed >= 1, "post-trip sends must be shed");
                    }
                    ChaosFault::Poison => {
                        assert!(r.poison_trips >= 1, "repeated poison must quarantine");
                    }
                    ChaosFault::Flood { .. } => {
                        assert!(r.shed_inbound >= 1, "flood must hit the inbound cap");
                    }
                    _ => {}
                }
            }
            println!(
                "{fname:<10} {pname:>3} | {:>5} {:>4} {:>4} {:>4} | {:>5} {:>6} {:>7} | {:>6}",
                r.completed,
                r.failed,
                r.shed,
                r.dead_lettered,
                r.breaker_trips,
                r.poison_trips,
                r.shed_inbound,
                r.elapsed_ms,
            );
        }
    }

    // Part 2: determinism. For every fault shape, two runs are byte-
    // identical — breaker states, shed counters, and session outcomes are
    // all in the fingerprint.
    println!();
    for (fname, fault) in faults {
        let cell = ChaosConfig::cell(fault, armed.clone(), seed);
        let first = run_chaos(&cell).expect("first run");
        let second = run_chaos(&cell).expect("second run");
        assert_eq!(first.fingerprint, second.fingerprint, "[{fname}] two identical runs diverged");
    }
    println!("determinism: observables byte-identical across two runs");

    // Part 3: graceful degradation. One partner black-holes under a
    // finite per-pump send budget (shared-wire contention): without
    // breakers its retry storm starves the healthy partners' sends; with
    // breakers the victim is cut off and the healthy partners finish on
    // time.
    let headline = |fault: ChaosFault, policy: PartnerPolicy| ChaosConfig {
        partners: 4,
        waves: 20,
        wave_gap_ms: 50,
        fault,
        policy,
        seed,
        drain_ms: 120_000,
    };
    let breakers_on =
        PartnerPolicy { pump_send_budget: 1, open_ms: 120_000, ..PartnerPolicy::guarded() };
    let breakers_off = PartnerPolicy { pump_send_budget: 1, ..PartnerPolicy::permissive() };
    let baseline = run_chaos(&headline(ChaosFault::None, breakers_on.clone())).expect("baseline");
    let protected = run_chaos(&headline(ChaosFault::BlackHole, breakers_on)).expect("breakers on");
    let exposed = run_chaos(&headline(ChaosFault::BlackHole, breakers_off)).expect("breakers off");
    for r in [&baseline, &protected, &exposed] {
        if let Err(e) = r.check_invariant() {
            panic!("headline run broke the invariant: {e}");
        }
    }
    let base_ms = baseline.healthy_done_ms.expect("baseline settles") as f64;
    let prot_ms = protected.healthy_done_ms.expect("protected settles") as f64;
    let expo_ms = exposed.healthy_done_ms.expect("exposed settles") as f64;
    println!();
    println!("graceful degradation: 3 healthy partners + 1 black-holed, send budget 1/pump");
    println!("                 healthy-done sim-ms  healthy completed  vs baseline");
    println!("no fault         {:>19} {:>18} {:>11}", base_ms, baseline.healthy_completed, "1.00x");
    println!(
        "breakers on      {:>19} {:>18} {:>10.2}x",
        prot_ms,
        protected.healthy_completed,
        prot_ms / base_ms
    );
    println!(
        "breakers off     {:>19} {:>18} {:>10.2}x",
        expo_ms,
        exposed.healthy_completed,
        expo_ms / base_ms
    );
    assert_eq!(
        protected.healthy_completed, baseline.healthy_completed,
        "breakers-on run must complete every healthy session"
    );
    assert!(
        prot_ms <= base_ms * 1.10,
        "breakers-on healthy completion must stay within 10% of no-fault \
         ({prot_ms} vs {base_ms})"
    );
    assert!(
        expo_ms > base_ms * 1.10,
        "breakers-off must measurably degrade healthy completion ({expo_ms} vs {base_ms})"
    );

    let json = format!(
        "{{\n  \"experiment\": \"chaos\",\n  \"seed\": {seed},\n  \
         \"baseline_healthy_done_ms\": {base_ms},\n  \
         \"breakers_on_healthy_done_ms\": {prot_ms},\n  \
         \"breakers_off_healthy_done_ms\": {expo_ms},\n  \
         \"breakers_on_trips\": {},\n  \"breakers_on_shed\": {},\n  \
         \"healthy_sessions\": {}\n}}\n",
        protected.breaker_trips, protected.shed, baseline.healthy_sessions,
    );
    if let Err(e) = std::fs::write("BENCH_chaos.json", &json) {
        println!("(BENCH_chaos.json not written: {e})");
    } else {
        println!("wrote BENCH_chaos.json");
    }
}

fn e20() {
    use b2b_bench::alloc_count;
    use b2b_document::formats::sample_edi_po;
    use b2b_document::{FormatId, FormatRegistry, Value};
    use b2b_network::Bytes as WireBytes;
    use b2b_transform::{TransformContext, TransformRegistry};

    // Part 1: the full binding round trip — decode wire bytes, transform
    // to normalized, transform back, re-encode into a reused buffer (the
    // edge's steady-state encode path) — measured per wire format on the
    // SAME 7-line purchase order. One run, one host state, so the text
    // vs binary comparison is apples to apples; the historical E17
    // constants are printed alongside for the trajectory.
    const BATCHES: u32 = 16;
    const BATCH_ITERS: u32 = 500;
    let formats = FormatRegistry::with_builtins();
    let transforms = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000042", "i-e20");
    let norm = transforms
        .transform(&sample_edi_po("E20", 7), &FormatId::NORMALIZED, &ctx)
        .expect("normalize sample");

    let wire_formats = [
        FormatId::EDI_X12,
        FormatId::ROSETTANET,
        FormatId::OAGIS,
        FormatId::SAP_IDOC,
        FormatId::ORACLE_APPS,
        FormatId::BINARY,
    ];
    struct WireRow {
        name: String,
        wire_len: usize,
        us: f64,
        allocs: f64,
        bytes: f64,
    }
    let mut rows: Vec<WireRow> = Vec::new();
    for fmt in &wire_formats {
        let wire_doc = transforms.transform(&norm, fmt, &ctx).expect("render");
        let wire = WireBytes::from(formats.encode(&wire_doc).expect("encode"));
        // Codec identity first: decode -> re-encode must reproduce the
        // wire bytes exactly for every codec, binary included.
        let redecoded = formats.decode_bytes(fmt, &wire).expect("decode");
        assert_eq!(
            formats.encode(&redecoded).expect("re-encode"),
            &wire[..],
            "{fmt}: wire bytes drifted"
        );
        let mut buf = Vec::with_capacity(wire.len() * 2);
        let round_trip = |buf: &mut Vec<u8>| {
            let doc = formats.decode_bytes(fmt, &wire).expect("decode");
            let n = transforms.transform(&doc, &FormatId::NORMALIZED, &ctx).expect("to norm");
            let back = transforms.transform(&n, fmt, &ctx).expect("from norm");
            buf.clear();
            formats.encode_into(&back, buf).expect("encode");
            std::hint::black_box(buf.len());
        };
        let warm = std::time::Instant::now();
        while warm.elapsed().as_millis() < 40 {
            round_trip(&mut buf);
        }
        let mut us = f64::INFINITY;
        for _ in 0..BATCHES {
            let started = std::time::Instant::now();
            for _ in 0..BATCH_ITERS {
                round_trip(&mut buf);
            }
            us = us.min(started.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH_ITERS));
        }
        let ((), delta) = alloc_count::measure(|| {
            for _ in 0..BATCH_ITERS {
                round_trip(&mut buf);
            }
        });
        rows.push(WireRow {
            name: fmt.to_string(),
            wire_len: wire.len(),
            us,
            allocs: delta.allocations as f64 / f64::from(BATCH_ITERS),
            bytes: delta.bytes as f64 / f64::from(BATCH_ITERS),
        });
    }
    println!(
        "binding round trip per wire format (decode -> normalize -> render -> encode, \
         same 7-line PO, best of {BATCHES}x{BATCH_ITERS}):"
    );
    println!("format       | wire B |  us/doc | allocs/doc | bytes/doc");
    for r in &rows {
        println!(
            "{:<12} | {:>6} | {:>7.2} | {:>10.1} | {:>9.0}",
            r.name, r.wire_len, r.us, r.allocs, r.bytes
        );
    }

    // The headline ratios are asserted, not just printed: the binary
    // partner's round trip must stay >=3x cheaper in allocator calls and
    // >=2x faster than the EDI text partner's, or E20 fails loudly.
    let edi = &rows[0];
    let bin = rows.last().expect("binary row");
    let alloc_ratio = edi.allocs / bin.allocs;
    let us_ratio = edi.us / bin.us;
    println!();
    println!(
        "binary vs EDI text partner: {alloc_ratio:.1}x fewer allocs/doc, {us_ratio:.1}x faster"
    );
    assert!(
        alloc_ratio >= 3.0,
        "binary round trip must be >=3x cheaper in allocs (got {alloc_ratio:.2}x)"
    );
    assert!(us_ratio >= 2.0, "binary round trip must be >=2x faster (got {us_ratio:.2}x)");

    // Zero-copy is structural, not incidental: every text node of a
    // binary cache-miss decode borrows from the payload allocation.
    {
        let wire_doc = transforms.transform(&norm, &FormatId::BINARY, &ctx).expect("render");
        let wire = WireBytes::from(formats.encode(&wire_doc).expect("encode"));
        let doc = formats.decode_bytes(&FormatId::BINARY, &wire).expect("decode");
        fn all_text_borrowed(v: &Value) -> bool {
            match v {
                Value::Text(s) => s.is_borrowed(),
                Value::List(items) => items.iter().all(all_text_borrowed),
                Value::Record(fields) => fields.iter().all(|(_, v)| all_text_borrowed(v)),
                _ => true,
            }
        }
        assert!(all_text_borrowed(doc.body()), "binary decode copied a string payload");
        println!("zero-copy: every text node of the binary decode borrows from the payload");
    }

    // Context: the E17 constants this PR set out to beat (transform-only
    // scope — no codec in the loop — so strictly easier than the rows
    // above, which pay decode + encode too).
    let field_after = |path: &str, anchor: &str, key: &str| -> Option<f64> {
        let text = std::fs::read_to_string(path).ok()?;
        let tail = text.split(&format!("\"{anchor}\"")).nth(1)?;
        let tail = tail.split(&format!("\"{key}\":")).nth(1)?;
        tail.split([',', '}']).next()?.trim().parse::<f64>().ok()
    };
    let e17_us = field_after("BENCH_doc.json", "roundtrip", "us_per_doc").unwrap_or(1.65);
    let e17_allocs = field_after("BENCH_doc.json", "roundtrip", "allocs_per_doc").unwrap_or(34.0);
    let e17_routed =
        field_after("BENCH_doc.json", "rfq_broadcast", "allocs_per_doc").unwrap_or(739.0);
    println!(
        "E17 text baseline for scale: {e17_us:.2} us / {e17_allocs:.0} allocs per transform-only \
         round trip, {e17_routed:.0} allocs/routed broadcast doc"
    );

    // Part 2: the 24-seller RFQ broadcast with binary partners in the mix
    // — every odd seller on the binary codec — asserted observably
    // identical across repeat runs, exactly like the homogeneous E17
    // broadcast.
    let sellers = SizeTier::from_env(SizeTier::Small).broadcast_sellers();
    let mixed = || rfq_broadcast_audited_mixed(15, sellers, fleet_price_cents, true);
    let warm_up = mixed(); // the first run pays one-time costs
    let mixed_run = mixed();
    assert_broadcast_identical("mixed repeat run", &warm_up, &mixed_run);
    let pure = rfq_broadcast_audited_mixed(15, sellers, fleet_price_cents, false);
    let mixed_allocs = mixed_run.alloc.allocations as f64 / mixed_run.fleet_routed as f64;
    let pure_allocs = pure.alloc.allocations as f64 / pure.fleet_routed as f64;
    println!();
    println!(
        "{sellers}-seller RFQ broadcast, {} sellers on the binary codec \
         (all observables identical across repeat runs):",
        sellers / 2
    );
    println!("  mixed fleet:       {mixed_allocs:>6.0} allocs/routed doc");
    println!("  all-RosettaNet:    {pure_allocs:>6.0} allocs/routed doc");
    println!("  E17 baseline:      {e17_routed:>6.0} allocs/routed doc");

    let per_format_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"format\": \"{}\", \"wire_bytes\": {}, \"us_per_doc\": {:.3}, \
                 \"allocs_per_doc\": {:.2}, \"bytes_per_doc\": {:.0}}}",
                r.name, r.wire_len, r.us, r.allocs, r.bytes
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"wire\",\n  \"roundtrip\": {{\"batches\": {BATCHES}, \
         \"batch_iters\": {BATCH_ITERS}, \"lines\": 7, \"per_format\": [\n{per_format_json}\n  ]}},\n  \
         \"binary_vs_edi\": {{\"alloc_ratio\": {alloc_ratio:.2}, \"us_ratio\": {us_ratio:.2}}},\n  \
         \"e17_baseline\": {{\"transform_only_us_per_doc\": {e17_us:.3}, \
         \"transform_only_allocs_per_doc\": {e17_allocs:.2}, \
         \"broadcast_allocs_per_routed_doc\": {e17_routed:.1}}},\n  \
         \"mixed_broadcast\": {{\"sellers\": {sellers}, \"binary_sellers\": {}, \
         \"allocs_per_routed_doc\": {mixed_allocs:.1}, \
         \"pure_rosettanet_allocs_per_routed_doc\": {pure_allocs:.1}, \
         \"compiled_wall_ms\": {:.2}}}\n}}\n",
        sellers / 2,
        mixed_run.wall_ms,
    );
    if let Err(e) = std::fs::write("BENCH_wire.json", &json) {
        println!("(BENCH_wire.json not written: {e})");
    } else {
        println!("wrote BENCH_wire.json");
    }
}

fn e21() {
    use b2b_bench::population::{
        run_flat_cost, run_population, PopulationConfig, PopulationPlan, DEFAULT_POPULATION_SEED,
    };
    use std::path::Path;

    let tier = SizeTier::from_env(SizeTier::Large);
    let seed = DEFAULT_POPULATION_SEED;
    let plan = PopulationPlan::load_or_generate(tier, seed, Path::new("fixtures"));
    println!(
        "population: tier={} ({} partners, {} sessions; {} responder-directed), seed={seed}",
        tier.name(),
        plan.partners.len(),
        plan.traffic.len(),
        plan.responder_sessions(),
    );

    // Part 1: sustained-throughput numbers from one full population run.
    let run = run_population(&plan, &PopulationConfig::default()).expect("population run");
    let wall_s = run.wall_ms / 1_000.0;
    let docs_per_s = run.routed_docs as f64 / wall_s;
    let sessions_per_s = run.sessions as f64 / wall_s;
    let allocs_per_doc = run.alloc.allocations as f64 / run.routed_docs.max(1) as f64;
    println!();
    println!("sustained traffic (faults on):");
    println!(
        "  {:.0} docs/s routed, {:.0} sessions/s initiated ({} completed, {} quotes, \
         {} duplicate deliveries suppressed)",
        docs_per_s, sessions_per_s, run.completed, run.replies, run.duplicates_suppressed,
    );
    println!(
        "  {} bytes/open session ({} sessions retained), {allocs_per_doc:.0} allocs/routed doc",
        run.memory.bytes_per_session, run.memory.sessions,
    );
    if let Some(kb) = run.vm_hwm_kb {
        println!("  peak RSS (VmHWM): {:.1} MiB", kb as f64 / 1024.0);
    }

    // Part 2: the flat-cost assertion — the same active burst against a
    // 1x and a 10x idle-session backdrop must cost the same per routed
    // document (allocator calls), within 5%. This is the in-run guard on
    // the touched-only settle.
    let (base_idle, active) = match tier {
        SizeTier::Tiny => (40, 24),
        SizeTier::Small => (300, 200),
        SizeTier::Medium => (1_000, 600),
        SizeTier::Large | SizeTier::Huge => (5_000, 2_000),
    };
    let flat = run_flat_cost(tier, seed, base_idle, active).expect("flat-cost probe");
    println!();
    println!("flat-cost probe ({active} active sessions per burst):");
    println!("  idle sessions | resident | rounds | touched | allocs/doc");
    for phase in [&flat.base, &flat.grown] {
        println!(
            "  {:>13} | {:>8} | {:>6} | {:>7} | {:>10.0}",
            phase.idle_sessions,
            phase.instances_resident,
            phase.rounds,
            phase.touched,
            phase.allocs_per_doc,
        );
    }
    let drift = flat.drift();
    println!("  allocs/doc drift: {:.2}% (limit 5%)", drift * 100.0);
    assert!(drift <= 0.05, "per-round settle cost must stay flat under 10x idle growth: {flat:?}");

    let json = format!(
        "{{\n  \"experiment\": \"population\",\n  \"tier\": \"{}\",\n  \"seed\": {seed},\n  \
         \"partners\": {},\n  \"sessions\": {},\n  \"completed\": {},\n  \"replies\": {},\n  \
         \"duplicates_suppressed\": {},\n  \
         \"throughput\": {{\"docs_per_s\": {docs_per_s:.0}, \"sessions_per_s\": {sessions_per_s:.0}, \
         \"wall_ms\": {:.1}, \"allocs_per_routed_doc\": {allocs_per_doc:.1}, \
         \"bytes_per_session\": {}, \"vm_hwm_kb\": {}}},\n  \
         \"settle\": {{\"rounds\": {}, \"touched_total\": {}}},\n  \
         \"flat_cost\": {{\"base_idle\": {}, \"grown_idle\": {}, \
         \"base_allocs_per_doc\": {:.1}, \"grown_allocs_per_doc\": {:.1}, \
         \"max_drift\": {drift:.4}}}\n}}\n",
        tier.name(),
        run.partners,
        run.sessions,
        run.completed,
        run.replies,
        run.duplicates_suppressed,
        run.wall_ms,
        run.memory.bytes_per_session,
        run.vm_hwm_kb.unwrap_or(0),
        run.settle.rounds,
        run.settle.touched_total,
        flat.base.idle_sessions,
        flat.grown.idle_sessions,
        flat.base.allocs_per_doc,
        flat.grown.allocs_per_doc,
    );
    if let Err(e) = std::fs::write("BENCH_population.json", &json) {
        println!("(BENCH_population.json not written: {e})");
    } else {
        println!("wrote BENCH_population.json");
    }
}

/// `--quick`: the identity assertions of E15-E21 with no timing loops,
/// cheap enough for every CI run.
fn quick_identity() {
    use b2b_document::formats::sample_edi_po;
    use b2b_document::normalized::sample_po;
    use b2b_document::{FormatId, FormatRegistry};
    use b2b_rules::approval::{check_need_for_approval, ApprovalThreshold};
    use b2b_rules::{BusinessRule, RuleContext, RuleFunction, RuleRegistry};
    use b2b_transform::{TransformContext, TransformRegistry};

    // E15: registry dispatch agrees with the interpreter
    // (`TransformProgram::apply`) on the PO round trip, and decode ->
    // re-encode reproduces the wire bytes exactly.
    let reg = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000042", "i-quick");
    let doc = sample_edi_po("QUICK", 7);
    let compiled_norm = reg.transform(&doc, &FormatId::NORMALIZED, &ctx).expect("compiled norm");
    let compiled_back =
        reg.transform(&compiled_norm, &FormatId::EDI_X12, &ctx).expect("compiled back");
    let interp_norm = reg
        .program(&FormatId::EDI_X12, &FormatId::NORMALIZED, DocKind::PurchaseOrder)
        .and_then(|p| p.apply(&doc, &ctx))
        .expect("interpreted norm");
    let interp_back = reg
        .program(&FormatId::NORMALIZED, &FormatId::EDI_X12, DocKind::PurchaseOrder)
        .and_then(|p| p.apply(&interp_norm, &ctx))
        .expect("interpreted back");
    assert_eq!(compiled_norm, interp_norm, "dispatch diverged on EDI -> normalized");
    assert_eq!(compiled_back, interp_back, "dispatch diverged on normalized -> EDI");
    let formats = FormatRegistry::with_builtins();
    let wire = formats.encode(&doc).expect("encode");
    let redecoded = formats.decode(&FormatId::EDI_X12, &wire).expect("decode");
    assert_eq!(formats.encode(&redecoded).expect("re-encode"), wire, "EDI wire bytes drifted");
    println!("  E15: transform dispatch agrees with the interpreter; EDI wire bytes stable");

    // E16: registry dispatch agrees with the interpreter
    // (`RuleFunction::invoke`) on the 32-partner approval scans (plain
    // and effective-dated; match, no-match, unknown partner).
    const PARTNERS: usize = 32;
    let thresholds: Vec<ApprovalThreshold> = (0..PARTNERS)
        .flat_map(|k| {
            let tp = format!("TP{}", k + 1);
            [
                ApprovalThreshold::new("SAP", &tp, 10_000 + 5_000 * k as i64),
                ApprovalThreshold::new("Oracle", &tp, 10_000 + 5_000 * k as i64),
            ]
        })
        .collect();
    let function = check_need_for_approval(&thresholds).expect("approval function");
    let mut dated = RuleFunction::new("approve-effective-dated");
    for (k, t) in thresholds.iter().enumerate() {
        dated.add_rule(
            BusinessRule::parse(
                &format!("dated rule {}", k + 1),
                &format!(
                    "date(\"2001-01-01\") <= document.header.order_date \
                     and len(document.lines) >= 1 \
                     and target == \"{}\" and source == \"{}\"",
                    t.target, t.source
                ),
                &format!("document.amount >= {}", t.threshold_units),
            )
            .expect("dated rule"),
        );
    }
    let mut rules = RuleRegistry::new();
    rules.register(function.clone());
    rules.register(dated.clone());
    let po = sample_po("QUICK", 42_000);
    let last = format!("TP{PARTNERS}");
    for f in [&function, &dated] {
        for (source, target) in
            [(last.as_str(), "Oracle"), (last.as_str(), "SAP"), ("TP999", "SAP")]
        {
            assert_eq!(
                rules.invoke(&f.name, source, target, &po),
                f.invoke(&RuleContext::new(source, target, &po)),
                "{} diverged for ({source}, {target})",
                f.name
            );
        }
    }
    println!("  E16: rule dispatch agrees with the interpreter on {PARTNERS}-partner scans");

    // E17: two runs of the RFQ broadcast are observably identical
    // (identity only, no timing).
    let sellers = SizeTier::from_env(SizeTier::Small).broadcast_sellers();
    let first = rfq_broadcast_audited_mixed(15, sellers, fleet_price_cents, false);
    let second = rfq_broadcast_audited_mixed(15, sellers, fleet_price_cents, false);
    assert_broadcast_identical("E17 repeat run", &first, &second);
    println!("  E17: broadcast observables identical across two runs");

    // E18: one chaos cell (flapping victim link, guarded breakers) holds
    // the coverage invariant and two runs of it are byte-identical —
    // identity only, no degradation timing.
    {
        use b2b_bench::chaos::{chaos_seed, run_chaos, ChaosConfig, ChaosFault};
        use b2b_core::PartnerPolicy;
        let cell = ChaosConfig::cell(
            ChaosFault::Flap { up_ms: 200, down_ms: 200 },
            PartnerPolicy::guarded(),
            chaos_seed(),
        );
        let first = run_chaos(&cell).expect("chaos first run");
        first.check_invariant().expect("chaos coverage invariant");
        let second = run_chaos(&cell).expect("chaos second run");
        assert_eq!(first.fingerprint, second.fingerprint, "E18: two identical runs diverged");
        println!("  E18: chaos cell invariant holds; identical across two runs");
    }

    // E20: every codec's wire bytes are stable (decode -> re-encode is
    // the identity on bytes), binary decode borrows its text from the
    // payload, and two runs of the mixed text/binary broadcast are
    // observably identical.
    {
        use b2b_document::Value;
        use b2b_network::Bytes as WireBytes;
        let norm = reg.transform(&doc, &FormatId::NORMALIZED, &ctx).expect("normalize");
        for fmt in [
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ] {
            let wire_doc = reg.transform(&norm, &fmt, &ctx).expect("render");
            let wire = WireBytes::from(formats.encode(&wire_doc).expect("encode"));
            let redecoded = formats.decode_bytes(&fmt, &wire).expect("decode");
            assert_eq!(
                formats.encode(&redecoded).expect("re-encode"),
                &wire[..],
                "E20: {fmt} wire bytes drifted"
            );
            if fmt == FormatId::BINARY {
                fn all_text_borrowed(v: &Value) -> bool {
                    match v {
                        Value::Text(s) => s.is_borrowed(),
                        Value::List(items) => items.iter().all(all_text_borrowed),
                        Value::Record(fields) => fields.iter().all(|(_, v)| all_text_borrowed(v)),
                        _ => true,
                    }
                }
                assert!(
                    all_text_borrowed(redecoded.body()),
                    "E20: binary decode copied a string payload"
                );
            }
        }
        let first = rfq_broadcast_audited_mixed(15, sellers, fleet_price_cents, true);
        let second = rfq_broadcast_audited_mixed(15, sellers, fleet_price_cents, true);
        assert_broadcast_identical("E20 mixed repeat run", &first, &second);
        println!(
            "  E20: six codecs byte-stable; binary decode zero-copy; \
             mixed-format broadcast identical across two runs"
        );
    }

    // E21: a Small-tier population run (partners in the thousands is the
    // full experiment; CI runs the same machinery at 64 partners / 2,000
    // sessions) completes every responder session, and settle cost stays
    // flat as the idle-session population grows 10x. Determinism of
    // population runs is covered by `tests/population.rs`.
    {
        use b2b_bench::population::{
            run_flat_cost, run_population, PopulationConfig, PopulationPlan,
            DEFAULT_POPULATION_SEED,
        };
        let tier = SizeTier::Small;
        let plan = PopulationPlan::generate(tier, DEFAULT_POPULATION_SEED);
        let run = run_population(&plan, &PopulationConfig::default()).expect("population run");
        assert_eq!(run.completed, plan.responder_sessions(), "E21: sessions went missing");
        let flat =
            run_flat_cost(tier, DEFAULT_POPULATION_SEED, 300, 200).expect("E21 flat-cost probe");
        assert!(
            flat.drift() <= 0.05,
            "E21: settle cost must stay flat under 10x idle growth: {flat:?}"
        );
        println!(
            "  E21: {}-partner population completes; \
             settle cost flat at {} -> {} idle sessions (drift {:.2}%)",
            plan.partners.len(),
            flat.base.idle_sessions,
            flat.grown.idle_sessions,
            flat.drift() * 100.0,
        );
    }
}
