//! Runs are a function of their inputs: two runs with identical inputs
//! on fresh engines must be byte-identical — same integration and WFMS
//! counters, same session states, same dead letters, same audit history,
//! same simulated clock — under arbitrary network fault mixes.

use proptest::prelude::*;
use semantic_b2b::integration::engine::{IntegrationEngine, IntegrationStats};
use semantic_b2b::integration::metrics::{CodecCacheStats, HealthStats, StageCounters};
use semantic_b2b::integration::scenario::{ScenarioProtocol, TwoEnterpriseScenario};
use semantic_b2b::integration::{BreakerState, PartnerPolicy, SessionState};
use semantic_b2b::network::FaultConfig;
use semantic_b2b::wfms::HistoryEvent;

/// Everything observable about one engine after a run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    stats: IntegrationStats,
    wf_stats: semantic_b2b::wfms::EngineStats,
    states: Vec<(String, SessionState)>,
    dead_letters: Vec<(u64, String, String)>,
    completed: usize,
    history: Vec<HistoryEvent>,
    cache: CodecCacheStats,
    /// Per-pump-stage counters (not the timers — those are wall-clock).
    stages: StageCounters,
    /// Shed/trip counters of the partner-health subsystem.
    health: HealthStats,
    /// Final circuit-breaker state and trip count per partner.
    breakers: Vec<(String, BreakerState, u64)>,
}

fn fingerprint(engine: &IntegrationEngine) -> Fingerprint {
    Fingerprint {
        stats: engine.stats().clone(),
        wf_stats: engine.wf().stats().clone(),
        states: engine
            .correlations()
            .iter()
            .map(|c| (c.to_string(), engine.session_state(c)))
            .collect(),
        dead_letters: engine
            .dead_letters()
            .iter()
            .map(|l| (l.seq, l.reason.to_string(), l.envelope.id.to_string()))
            .collect(),
        completed: engine.completed_sessions(),
        history: engine.wf().history().to_vec(),
        cache: *engine.codec_cache_stats(),
        stages: engine.stage_profile().counters,
        health: *engine.health_stats(),
        breakers: engine.breaker_states(),
    }
}

/// What one two-enterprise run leaves behind.
#[derive(Debug, PartialEq)]
struct Run {
    /// Simulated milliseconds until both engines were quiescent.
    elapsed: u64,
    buyer: Fingerprint,
    seller: Fingerprint,
    /// Settle planner counters (rounds, touched) of buyer and seller.
    planner: [(u64, u64); 2],
}

/// Runs the two-enterprise scenario: `pos` purchase orders over
/// `protocol`, both engines under `policy`.
fn run(
    protocol: ScenarioProtocol,
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    policy: PartnerPolicy,
) -> Run {
    let mut s = TwoEnterpriseScenario::with_protocol(protocol, faults, seed).unwrap();
    s.buyer.set_partner_policy(policy.clone());
    s.seller.set_partner_policy(policy);
    for i in 0..pos {
        let po = s.po(&format!("po-{i}"), 1_000 + i as i64).unwrap();
        s.submit(po).unwrap();
    }
    let elapsed = s.run_until_quiescent(240_000).unwrap();
    let planner = [&s.buyer, &s.seller].map(|e| {
        let m = e.settle_metrics();
        (m.rounds, m.touched_total)
    });
    Run { elapsed, buyer: fingerprint(&s.buyer), seller: fingerprint(&s.seller), planner }
}

/// Runs the scenario twice with identical inputs and asserts the runs
/// observably identical, one part at a time so a failure names what
/// diverged.
fn run_twice(
    protocol: ScenarioProtocol,
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    policy: PartnerPolicy,
) -> Result<Run, TestCaseError> {
    let first = run(protocol, faults.clone(), seed, pos, policy.clone());
    let second = run(protocol, faults, seed, pos, policy);
    prop_assert_eq!(&first.elapsed, &second.elapsed, "elapsed simulated time diverged");
    prop_assert_eq!(&first.buyer, &second.buyer, "buyer observables diverged");
    prop_assert_eq!(&first.seller, &second.seller, "seller observables diverged");
    prop_assert_eq!(&first.planner, &second.planner, "settle planner counters diverged");
    Ok(first)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fault_mix_runs_are_byte_identical(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig { loss, duplicate, corrupt, min_delay_ms: 1, max_delay_ms: 40 };
        run_twice(ScenarioProtocol::from_env(), faults, seed, pos, PartnerPolicy::permissive())?;
    }

    /// The same identity with the containment subsystem fully armed: a
    /// guarded policy (breakers, bounded queues, finite send budget) under
    /// hostile fault mixes — breaker states and shed counters are part of
    /// the fingerprint.
    #[test]
    fn guarded_policy_runs_are_byte_identical(
        loss in 0.0f64..0.9,
        duplicate in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig { loss, duplicate, corrupt, min_delay_ms: 1, max_delay_ms: 40 };
        let policy = PartnerPolicy { pump_send_budget: 4, ..PartnerPolicy::guarded() };
        run_twice(ScenarioProtocol::from_env(), faults, seed, pos, policy)?;
    }
}

#[test]
fn flaky_broadcast_workload_runs_are_identical() {
    // A deterministic anchor alongside the property: a lossy
    // multi-session run.
    let protocol = ScenarioProtocol::from_env();
    let policy = PartnerPolicy::permissive();
    let first = run_twice(protocol, FaultConfig::flaky(0.3), 7, 8, policy).unwrap();
    // The run was not trivially clean: sessions really completed.
    assert!(first.buyer.completed >= 1, "at least one session completed");
}

/// A wave initiated with `initiate_deferred` runs in the pump's settle,
/// not sequentially in the pump's timer stage: the wave's instances count
/// in the touched set of that settle, and a second run has the same
/// outcome.
#[test]
fn deferred_wave_settles_in_the_pump() {
    let run = || {
        let mut s =
            TwoEnterpriseScenario::with_protocol(ScenarioProtocol::Edi, FaultConfig::reliable(), 7)
                .unwrap();
        let agreement = s.agreement_id.clone();
        for i in 0..6 {
            let po = s.po(&format!("wave-{i}"), 1_000 + i).unwrap();
            s.buyer.initiate_deferred(&agreement, po).unwrap();
        }
        s.net.advance(10);
        s.buyer.pump(&mut s.net).unwrap();
        let touched = s.buyer.settle_metrics().touched_total;
        s.run_until_quiescent(60_000).unwrap();
        assert_eq!(s.buyer.completed_sessions(), 6);
        (touched, fingerprint(&s.buyer), fingerprint(&s.seller))
    };
    let (touched, buyer, seller) = run();
    assert!(touched >= 18, "the wave's 18 instances settle in the pump (touched {touched})");
    let (again_touched, again_buyer, again_seller) = run();
    assert_eq!(again_touched, touched, "touched set of the second run");
    assert_eq!(again_buyer, buyer, "buyer of the second run");
    assert_eq!(again_seller, seller, "seller of the second run");
}

#[test]
fn binary_protocol_runs_are_identical() {
    // The zero-copy decode path must be as deterministic as the text
    // codecs: with both partners on the compact binary wire format
    // (documents full of borrowed `Str`s at the edge), two lossy runs are
    // byte-identical. Text ownership — borrowed slices of the payload
    // `Bytes` versus owned strings after a transform — must be invisible
    // to every counter, state, and audit record.
    let policy = PartnerPolicy::permissive();
    let first =
        run_twice(ScenarioProtocol::Binary, FaultConfig::flaky(0.3), 23, 6, policy).unwrap();
    assert!(first.buyer.completed >= 1, "at least one binary session completed");
}

#[test]
fn duplicates_are_never_parsed() {
    // The reliable layer suppresses a duplicated delivery before the edge
    // sees it, so the edge parses each routed payload exactly once: with
    // heavy duplication and nothing corrupt, payloads parsed equal
    // payloads received, on both engines.
    let dup_heavy =
        FaultConfig { loss: 0.0, duplicate: 0.6, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40 };
    let r = run(ScenarioProtocol::from_env(), dup_heavy, 11, 4, PartnerPolicy::permissive());
    for (who, fp) in [("buyer", &r.buyer), ("seller", &r.seller)] {
        assert!(fp.stages.edge_duplicates > 0, "{who}: the run suppressed no duplicates");
        assert_eq!(
            fp.cache.decode_misses, fp.stats.wire_received,
            "{who}: a duplicate was parsed ({:?}, {:?})",
            fp.cache, fp.stats
        );
    }
}
