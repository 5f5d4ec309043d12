//! Sharded execution is an optimization, not a semantics: a run with
//! `shards = N` must be byte-identical to `shards = 1` — same integration
//! and WFMS counters, same session states, same dead letters, same audit
//! history, same simulated clock — under arbitrary network fault mixes.

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
    /// Slices settle to quiescence independently inside a round, so how
    /// the touched set is split across shards cannot change them.
    planner: [(u64, u64); 2],
}

/// Runs the two-enterprise scenario: `pos` purchase orders over
/// `protocol`, both engines at `shards` workers under `policy`.
fn run(
    protocol: ScenarioProtocol,
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    policy: PartnerPolicy,
) -> Run {
    let mut s = TwoEnterpriseScenario::with_protocol(protocol, faults, seed).unwrap();
    s.buyer.set_shards(shards);
    s.seller.set_shards(shards);
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

/// Asserts two runs observably identical, one part at a time so a
/// failure names what diverged.
fn same(label: &str, base: &Run, other: &Run) -> Result<(), TestCaseError> {
    prop_assert_eq!(&base.elapsed, &other.elapsed, "{}: elapsed simulated time diverged", label);
    prop_assert_eq!(&base.buyer, &other.buyer, "{}: buyer observables diverged", label);
    prop_assert_eq!(&base.seller, &other.seller, "{}: seller observables diverged", label);
    prop_assert_eq!(&base.planner, &other.planner, "{}: settle planner counters diverged", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_runs_are_byte_identical_to_sequential(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
        shards in 2usize..=4,
    ) {
        let faults = FaultConfig { loss, duplicate, corrupt, min_delay_ms: 1, max_delay_ms: 40 };
        let protocol = ScenarioProtocol::from_env();
        let policy = PartnerPolicy::permissive();
        let sequential = run(protocol, faults.clone(), seed, pos, 1, policy.clone());
        let sharded = run(protocol, faults, seed, pos, shards, policy);
        same(&format!("{shards} shards"), &sequential, &sharded)?;
    }

    /// The same identity with the containment subsystem fully armed: a
    /// guarded policy (breakers, bounded queues, finite send budget) under
    /// hostile fault mixes must not introduce any shard-count dependence —
    /// breaker states and shed counters are part of the fingerprint.
    #[test]
    fn guarded_policy_runs_are_byte_identical_across_shards(
        loss in 0.0f64..0.9,
        duplicate in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig { loss, duplicate, corrupt, min_delay_ms: 1, max_delay_ms: 40 };
        let protocol = ScenarioProtocol::from_env();
        let policy = PartnerPolicy { pump_send_budget: 4, ..PartnerPolicy::guarded() };
        let sequential = run(protocol, faults.clone(), seed, pos, 1, policy.clone());
        let sharded = run(protocol, faults, seed, pos, 4, policy);
        same("4 shards", &sequential, &sharded)?;
    }
}

proptest! {
    // Each case is four full scenario runs; fewer cases keep the matrix
    // affordable while still sampling the fault space.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pool shape is invisible: for pool sizes 1, 2, and 4 workers
    /// (shards = workers + 1) every fingerprint is byte-identical to the
    /// sequential run.
    #[test]
    fn pool_size_is_invisible(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig {
            loss, duplicate, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40,
        };
        let protocol = ScenarioProtocol::from_env();
        let policy = PartnerPolicy::permissive();
        let sequential = run(protocol, faults.clone(), seed, pos, 1, policy.clone());
        for workers in [1usize, 2, 4] {
            let pooled = run(protocol, faults.clone(), seed, pos, workers + 1, policy.clone());
            same(&format!("{workers} workers"), &sequential, &pooled)?;
        }
    }
}

#[test]
fn flaky_broadcast_workload_is_identical_across_shard_counts() {
    // A deterministic anchor alongside the property: a lossy multi-session
    // run compared across 1, 2, 4, and 8 workers.
    let protocol = ScenarioProtocol::from_env();
    let policy = PartnerPolicy::permissive();
    let baseline = run(protocol, FaultConfig::flaky(0.3), 7, 8, 1, policy.clone());
    for shards in [2, 4, 8] {
        let parallel = run(protocol, FaultConfig::flaky(0.3), 7, 8, shards, policy.clone());
        same(&format!("{shards} shards"), &baseline, &parallel).unwrap();
    }
    // The run was not trivially clean: sessions really completed.
    assert!(baseline.buyer.completed >= 1, "at least one session completed");
}

/// A wave initiated with `initiate_deferred` runs in the pump's sharded
/// settle, not sequentially in the pump's timer stage: the wave's
/// instances count in the touched set of that settle, the pool runs it,
/// and the outcome is the same at every shard count.
#[test]
fn deferred_wave_settles_sharded_in_the_pump() {
    let run = |shards: usize| {
        let mut s =
            TwoEnterpriseScenario::with_protocol(ScenarioProtocol::Edi, FaultConfig::reliable(), 7)
                .unwrap();
        s.buyer.set_shards(shards);
        s.seller.set_shards(shards);
        let agreement = s.agreement_id.clone();
        for i in 0..6 {
            let po = s.po(&format!("wave-{i}"), 1_000 + i).unwrap();
            s.buyer.initiate_deferred(&agreement, po).unwrap();
        }
        let rounds_before = s.buyer.pool_stats().rounds;
        s.net.advance(10);
        s.buyer.pump(&mut s.net).unwrap();
        let touched = s.buyer.settle_metrics().touched_total;
        let pool_rounds = s.buyer.pool_stats().rounds - rounds_before;
        s.run_until_quiescent(60_000).unwrap();
        assert_eq!(s.buyer.completed_sessions(), 6);
        (touched, pool_rounds, fingerprint(&s.buyer), fingerprint(&s.seller))
    };
    let (touched, pool_rounds, buyer, seller) = run(2);
    assert!(touched >= 18, "the wave's 18 instances settle in the pump (touched {touched})");
    assert!(pool_rounds > 0, "the worker pool settled the wave");
    for shards in [1, 4] {
        let (other_touched, _, other_buyer, other_seller) = run(shards);
        assert_eq!(other_touched, touched, "touched set at {shards} shards");
        assert_eq!(other_buyer, buyer, "buyer at {shards} shards");
        assert_eq!(other_seller, seller, "seller at {shards} shards");
    }
}

#[test]
fn zero_shards_means_auto_and_is_identical_to_sequential() {
    // `set_shards(0)` (and `B2B_SHARDS=0`) resolves to the machine's
    // real available parallelism. Whatever it resolves to, the run must
    // stay byte-identical to shards = 1.
    let mut probe = TwoEnterpriseScenario::new(FaultConfig::reliable(), 1).unwrap();
    probe.buyer.set_shards(0);
    let auto = probe.buyer.shards();
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    assert!(auto >= 1, "auto shard count must be positive: {auto}");
    assert!(auto <= cores, "auto shard count {auto} exceeds host parallelism {cores}");

    let protocol = ScenarioProtocol::from_env();
    let policy = PartnerPolicy::permissive();
    let baseline = run(protocol, FaultConfig::flaky(0.3), 13, 4, 1, policy.clone());
    let auto_run = run(protocol, FaultConfig::flaky(0.3), 13, 4, 0, policy);
    same("auto shards", &baseline, &auto_run).unwrap();
}

#[test]
fn pool_spawns_no_threads_after_warm_up() {
    // The persistent pool is the point of the exercise: `shards = N`
    // spawns its N-1 workers once (the dispatcher is the Nth), then every
    // subsequent pump reuses them. A fork/join regression would show up
    // here as a growing `threads_spawned`.
    let mut s = TwoEnterpriseScenario::new(FaultConfig::flaky(0.2), 17).unwrap();
    s.buyer.set_shards(4);
    s.seller.set_shards(4);
    for i in 0..4 {
        let po = s.po(&format!("po-warm-{i}"), 1_000 + i).unwrap();
        s.submit(po).unwrap();
    }
    s.run_until_quiescent(240_000).unwrap();
    let warm = (s.buyer.pool_stats(), s.seller.pool_stats());
    for (who, stats) in [("buyer", warm.0), ("seller", warm.1)] {
        assert_eq!(stats.workers, 3, "{who}: 4 shards keep 3 pool workers");
        assert_eq!(stats.threads_spawned, 3, "{who}: warm-up spawns exactly the workers");
        assert!(stats.tasks >= stats.rounds, "{who}: every round ran at least one task");
    }
    // A session's instances all pin to one shard, so an engine whose
    // sessions happen to share a shard settles inline; across both
    // engines the multi-session run must have dispatched real rounds.
    assert!(warm.0.rounds + warm.1.rounds > 0, "no parallel rounds dispatched: {warm:?}");

    for batch in 0..2 {
        for i in 0..4 {
            let po = s.po(&format!("po-steady-{batch}-{i}"), 2_000 + batch * 10 + i).unwrap();
            s.submit(po).unwrap();
        }
        s.run_until_quiescent(240_000).unwrap();
    }
    let steady = (s.buyer.pool_stats(), s.seller.pool_stats());
    assert_eq!(
        (steady.0.threads_spawned, steady.1.threads_spawned),
        (warm.0.threads_spawned, warm.1.threads_spawned),
        "steady-state pumps must spawn zero threads"
    );
    assert!(
        steady.0.rounds + steady.1.rounds > warm.0.rounds + warm.1.rounds,
        "steady-state pumps kept using the pool"
    );
}

#[test]
fn binary_protocol_fingerprints_are_identical_across_shards() {
    // The zero-copy decode path must be as deterministic as the text
    // codecs: with both partners on the compact binary wire format
    // (documents full of borrowed `Str`s at the edge), a lossy run's
    // fingerprint is byte-identical across shard counts. Text ownership
    // — borrowed slices of the payload `Bytes` versus owned strings after
    // a transform — must be invisible to every counter, state, and audit
    // record.
    let policy = PartnerPolicy::permissive();
    let baseline = run(ScenarioProtocol::Binary, FaultConfig::flaky(0.3), 23, 6, 1, policy.clone());
    assert!(baseline.buyer.completed >= 1, "at least one binary session completed");
    let sharded = run(ScenarioProtocol::Binary, FaultConfig::flaky(0.3), 23, 6, 4, policy);
    same("4 shards", &baseline, &sharded).unwrap();
}

proptest! {
    // Each case is six full scenario runs (2 protocols x 3 shard
    // counts); fewer cases keep the matrix affordable.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The touched-only settle planner is an optimization, not a
    /// semantics. One shard settles every resident instance in place, so
    /// it is the reference: at 2 and 4 shards, where rounds move only the
    /// touched instances into shard slices, the run must be
    /// byte-identical to it — planner counters (rounds, touched)
    /// included — on both a text (EDI) and the binary wire protocol.
    #[test]
    fn touched_only_settle_matches_one_shard_reference(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig {
            loss, duplicate, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40,
        };
        let policy = PartnerPolicy::permissive();
        for protocol in [ScenarioProtocol::Edi, ScenarioProtocol::Binary] {
            let reference = run(protocol, faults.clone(), seed, pos, 1, policy.clone());
            for shards in [2usize, 4] {
                let sharded = run(protocol, faults.clone(), seed, pos, shards, policy.clone());
                same(&format!("{protocol:?} at {shards} shards"), &reference, &sharded)?;
            }
        }
    }
}

#[test]
fn duplicates_are_never_parsed() {
    // The reliable layer suppresses a duplicated delivery before the edge
    // sees it, so the edge parses each routed payload exactly once: with
    // heavy duplication and nothing corrupt, payloads parsed equal
    // payloads received, on both engines.
    let dup_heavy =
        FaultConfig { loss: 0.0, duplicate: 0.6, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40 };
    let r = run(ScenarioProtocol::from_env(), dup_heavy, 11, 4, 1, PartnerPolicy::permissive());
    for (who, fp) in [("buyer", &r.buyer), ("seller", &r.seller)] {
        assert!(fp.stages.edge_duplicates > 0, "{who}: the run suppressed no duplicates");
        assert_eq!(
            fp.cache.decode_misses, fp.stats.wire_received,
            "{who}: a duplicate was parsed ({:?}, {:?})",
            fp.cache, fp.stats
        );
    }
}
