//! Error handling on a hostile network: the RNIF-style reliable layer
//! recovers from loss and duplication; corrupted payloads are rejected at
//! the edge (the paper's "lost messages, incorrect message content or
//! duplicate messages" — Section 1).
//!
//! Run with: `cargo run --example failure_recovery`

use b2b_core::scenario::{TwoEnterpriseScenario, SELLER};
use b2b_core::{PartnerPolicy, SessionState};
use b2b_document::FormatId;
use b2b_network::{
    Bytes, EndpointId, FaultConfig, ReliableConfig, ReliableEndpoint, ReliableSnapshot, SimNetwork,
};

/// Crash/restart mid-exchange: the reliable layer's state is serialized to
/// JSON, the endpoint dropped, and a fresh endpoint restored from the
/// snapshot finishes the exchange — without re-delivering anything the
/// receiver already saw and without losing anything still in flight.
fn snapshot_restore_demo() -> Result<(), Box<dyn std::error::Error>> {
    let faults = FaultConfig::flaky(0.3);
    let mut net = SimNetwork::new(faults, 77);
    let config = ReliableConfig::fixed(100, 20);
    let mut sender = ReliableEndpoint::new(EndpointId::new("crashy"), config.clone(), &mut net)?;
    let mut receiver = ReliableEndpoint::new(EndpointId::new("steady"), config.clone(), &mut net)?;
    let to = receiver.id().clone();

    for i in 0..6 {
        sender.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("po-{i}")))?;
    }
    // Run just long enough that some messages are acknowledged and some are
    // still outstanding, then "crash": persist state and drop the endpoint.
    let mut surfaced = 0usize;
    for _ in 0..6 {
        net.advance(20);
        sender.tick(&mut net)?;
        surfaced += receiver.receive(&mut net)?.len();
        sender.receive(&mut net)?;
    }
    let acked_before = sender.stats().acks;
    let json = serde_json::to_string(&sender.snapshot())?;
    drop(sender);
    println!(
        "crashed mid-exchange: {acked_before}/6 acked, snapshot is {} bytes of JSON",
        json.len()
    );

    // Restart from the snapshot and let the exchange finish.
    let snapshot: ReliableSnapshot = serde_json::from_str(&json)?;
    let mut sender = ReliableEndpoint::restore(config, snapshot);
    for _ in 0..2_000 {
        net.advance(10);
        sender.tick(&mut net)?;
        surfaced += receiver.receive(&mut net)?.len();
        sender.receive(&mut net)?;
    }
    // The counters travel in the snapshot: this counts every ack.
    let acked_after = sender.stats().acks;
    println!("after restore: {acked_after}/6 acked, receiver surfaced {surfaced} (exactly once)");
    assert!(acked_before < 6, "the crash really was mid-exchange");
    assert_eq!(acked_after, 6, "restored endpoint completed every delivery");
    assert_eq!(surfaced, 6, "no loss and no duplicate across the restart");
    Ok(())
}

/// A dead partner is a failure domain, not a tar pit: with the guarded
/// policy, the first few orders to a black-holed seller burn the full
/// retry budget, trip the buyer's circuit breaker, and every order after
/// that fails fast — shed at the wire edge without consuming a single
/// retransmission. Nothing is lost: every session is either dead-lettered
/// (with its delivery failure) or shed with the breaker open.
fn circuit_breaker_demo() -> Result<(), Box<dyn std::error::Error>> {
    let faults = FaultConfig { loss: 1.0, ..FaultConfig::flaky(0.0) };
    let mut scenario = TwoEnterpriseScenario::new(faults, 9)?;
    scenario.buyer.set_partner_policy(PartnerPolicy::guarded());

    println!("seller black-holed; buyer policy: {:?}", scenario.buyer.partner_policy());
    for i in 0..6 {
        let po = scenario.po(&format!("PO-DOOMED-{i}"), 3_000 + i)?;
        let correlation = scenario.submit(po)?;
        let elapsed = scenario.run_until_quiescent(60_000)?;
        println!(
            "PO-DOOMED-{i}: {:?} after {elapsed:>5} ms, breaker {:?}",
            scenario.buyer.session_state(&correlation),
            scenario.buyer.breaker_state(SELLER),
        );
    }

    let health = scenario.buyer.health_stats();
    let stats = scenario.buyer.stats();
    println!(
        "buyer health: {} breaker trips, {} sends shed, {} sessions failed fast, \
         {} shed notices",
        health.breaker_trips, stats.shed, health.fast_failed_sessions, health.shed_notices
    );
    println!(
        "buyer dead letters: {} (slow failures, with their delivery faults)",
        stats.dead_lettered
    );

    assert_eq!(health.breaker_trips, 1, "three permanent failures tripped the breaker once");
    assert!(health.fast_failed_sessions >= 1, "post-trip orders failed fast");
    assert!(stats.shed >= 1, "post-trip sends were shed, not retried");
    assert!(stats.dead_lettered >= 1, "pre-trip failures were quarantined with provenance");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 25% loss, 12% duplication, 10–120 ms latency spread (reordering).
    let faults = FaultConfig::flaky(0.25);
    println!(
        "network profile: loss={:.0}% duplicate={:.0}% latency={}–{} ms",
        faults.loss * 100.0,
        faults.duplicate * 100.0,
        faults.min_delay_ms,
        faults.max_delay_ms
    );
    let mut scenario = TwoEnterpriseScenario::new(faults, 1234)?;

    let mut correlations = Vec::new();
    for i in 0..10 {
        let po = scenario.po(&format!("PO-FLAKY-{i}"), 2_000 + i)?;
        correlations.push(scenario.submit(po)?);
    }
    let elapsed = scenario.run_until_quiescent(600_000)?;

    let completed = correlations
        .iter()
        .filter(|c| scenario.buyer.session_state(c) == SessionState::Completed)
        .count();
    let net = scenario.net.stats();
    println!("{completed}/10 round trips completed after {elapsed} simulated ms");
    println!(
        "network: {} sent, {} delivered, {} lost, {} duplicated",
        net.sent, net.delivered, net.lost, net.duplicated
    );
    println!(
        "seller: {} wire docs received, {} decode failures, {} unroutable",
        scenario.seller.stats().wire_received,
        scenario.seller.stats().decode_failures,
        scenario.seller.stats().unroutable
    );
    println!(
        "seller SAP holds {} orders (exactly-once despite duplicates)",
        scenario.seller.backend("SAP")?.backend().order_count()
    );

    assert_eq!(completed, 10, "retransmission recovered every exchange");
    assert_eq!(
        scenario.seller.backend("SAP")?.backend().order_count(),
        10,
        "no duplicate orders reached the ERP"
    );
    assert_eq!(
        scenario.buyer.stats().dead_lettered + scenario.seller.stats().dead_lettered,
        0,
        "nothing needed quarantining — retransmission healed every fault"
    );
    assert!(net.lost > 0, "the network really was hostile");
    let health = scenario.buyer.health_stats();
    println!(
        "buyer health: {} breaker trips, {} sends shed, {} dead letters \
         (retransmission absorbed the faults; the breaker never armed)",
        health.breaker_trips,
        scenario.buyer.stats().shed,
        scenario.buyer.stats().dead_lettered
    );

    println!();
    circuit_breaker_demo()?;
    println!();
    snapshot_restore_demo()?;
    println!("OK");
    Ok(())
}
