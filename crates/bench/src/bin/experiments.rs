//! The experiment runner: regenerates every row of EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run -p b2b-bench --bin experiments            # all experiments
//! cargo run -p b2b-bench --bin experiments -- e5 e9   # selected ones
//! ```

use b2b_bench::{explosion_row, run_rfq_broadcast, run_roundtrips};
use b2b_core::baseline::cooperative::IntegrationConfig;
use b2b_core::baseline::distributed::run_distributed_roundtrip;
use b2b_core::change::{advanced_impact, naive_impact, ChangeKind};
use b2b_core::figures;
use b2b_core::scenario::{ScenarioProtocol, TwoEnterpriseScenario};
use b2b_core::SessionState;
use b2b_document::DocKind;
use b2b_network::{
    BackoffPolicy, Bytes, EndpointId, FaultConfig, ReliableConfig, ReliableEndpoint, SimNetwork,
};
use b2b_protocol::{MessageExchangePattern, PublicProcessDef};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
        for i in 0..50 {
            let payload = Bytes::from(format!("po-{i}"));
            a.send(&mut net, &to, b2b_document::FormatId::EDI_X12, payload).expect("send");
        }
        for _ in 0..4000 {
            net.advance(10);
            a.tick(&mut net).expect("tick");
            b.receive(&mut net).expect("receive");
            a.receive(&mut net).expect("receive");
        }
        let acked = a.stats().acks;
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
    let live =
        run_rfq_broadcast(&prices, |_| b2b_document::FormatId::ROSETTANET).expect("broadcast");
    assert_eq!(
        live.buyer.session_state(&live.correlation),
        SessionState::Completed,
        "broadcast completes"
    );
    println!(
        "broadcast RFQ  : one correlation -> {}/{} sellers quoted \
         (each priced by its own private rule)",
        live.buyer.completed_sessions(),
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
                dead.extend(a.tick(&mut net).expect("tick").into_iter().map(|(e, _)| e.id));
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
