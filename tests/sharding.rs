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

/// Runs the two-enterprise scenario with the given worker count and
/// dispatch mode (`interpreted` switches *both* the transform executor
/// and the rule programs to their tree interpreters), returning
/// (elapsed ms, buyer fingerprint, seller fingerprint).
fn run(
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    interpreted: bool,
) -> (u64, Fingerprint, Fingerprint) {
    run_with_policy(faults, seed, pos, shards, interpreted, PartnerPolicy::permissive())
}

/// [`run`], with a partner containment policy installed on both engines.
fn run_with_policy(
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    interpreted: bool,
    policy: PartnerPolicy,
) -> (u64, Fingerprint, Fingerprint) {
    let mut s = TwoEnterpriseScenario::new(faults, seed).unwrap();
    s.buyer.set_shards(shards);
    s.seller.set_shards(shards);
    // Under `B2B_POOL_STRESS=1` (CI's second pass) every pool round runs
    // at steal-chunk 1 — maximum inter-thread interleaving, the hardest
    // schedule for the determinism bar.
    if std::env::var("B2B_POOL_STRESS").as_deref() == Ok("1") {
        s.buyer.set_steal_chunk(1);
        s.seller.set_steal_chunk(1);
    }
    s.buyer.set_interpreted_transforms(interpreted);
    s.seller.set_interpreted_transforms(interpreted);
    s.buyer.set_interpreted_rules(interpreted);
    s.seller.set_interpreted_rules(interpreted);
    s.buyer.set_partner_policy(policy.clone());
    s.seller.set_partner_policy(policy);
    for i in 0..pos {
        let po = s.po(&format!("po-{i}"), 1_000 + i as i64).unwrap();
        s.submit(po).unwrap();
    }
    let elapsed = s.run_until_quiescent(240_000).unwrap();
    (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller))
}

/// [`run`], with an explicit steal-chunk override on both engines
/// (`0` restores the per-stage defaults).
fn run_with_chunk(
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    chunk: usize,
) -> (u64, Fingerprint, Fingerprint) {
    let mut s = TwoEnterpriseScenario::new(faults, seed).unwrap();
    s.buyer.set_shards(shards);
    s.seller.set_shards(shards);
    s.buyer.set_steal_chunk(chunk);
    s.seller.set_steal_chunk(chunk);
    s.buyer.set_partner_policy(PartnerPolicy::permissive());
    s.seller.set_partner_policy(PartnerPolicy::permissive());
    for i in 0..pos {
        let po = s.po(&format!("po-{i}"), 1_000 + i as i64).unwrap();
        s.submit(po).unwrap();
    }
    let elapsed = s.run_until_quiescent(240_000).unwrap();
    (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller))
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
        let sequential = run(faults.clone(), seed, pos, 1, false);
        let sharded = run(faults.clone(), seed, pos, shards, false);
        prop_assert_eq!(&sequential.0, &sharded.0, "elapsed simulated time diverged");
        prop_assert_eq!(&sequential.1, &sharded.1, "buyer observables diverged");
        prop_assert_eq!(&sequential.2, &sharded.2, "seller observables diverged");
        // Compiled transform and rule dispatch are the default above; the
        // same run on the tree-walking interpreters must be observably
        // identical, down to the codec cache and stage counters in the
        // fingerprint.
        let interpreted = run(faults, seed, pos, shards, true);
        prop_assert_eq!(&sequential.0, &interpreted.0, "elapsed diverged under interpreter");
        prop_assert_eq!(&sequential.1, &interpreted.1, "buyer diverged under interpreter");
        prop_assert_eq!(&sequential.2, &interpreted.2, "seller diverged under interpreter");
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
        let policy = PartnerPolicy { pump_send_budget: 4, ..PartnerPolicy::guarded() };
        let sequential =
            run_with_policy(faults.clone(), seed, pos, 1, false, policy.clone());
        let sharded = run_with_policy(faults, seed, pos, 4, false, policy);
        prop_assert_eq!(&sequential.0, &sharded.0, "elapsed simulated time diverged");
        prop_assert_eq!(&sequential.1, &sharded.1, "buyer observables diverged");
        prop_assert_eq!(&sequential.2, &sharded.2, "seller observables diverged");
    }
}

proptest! {
    // Each case is seven full scenario runs; fewer cases keep the matrix
    // affordable while still sampling the fault space.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pool shape is invisible: for pool sizes 1, 2, and 4 workers
    /// (shards = workers + 1) crossed with steal chunks 1 and 8, every
    /// fingerprint is byte-identical to the sequential run. Chunk 1
    /// maximizes inter-thread interleaving; chunk 8 gives one worker
    /// long uncontended runs — opposite extremes of the steal schedule.
    #[test]
    fn pool_size_and_steal_chunk_are_invisible(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig {
            loss, duplicate, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40,
        };
        let sequential = run(faults.clone(), seed, pos, 1, false);
        for workers in [1usize, 2, 4] {
            for chunk in [1usize, 8] {
                let pooled = run_with_chunk(faults.clone(), seed, pos, workers + 1, chunk);
                prop_assert_eq!(
                    &sequential.0, &pooled.0,
                    "elapsed diverged at {} workers, chunk {}", workers, chunk
                );
                prop_assert_eq!(
                    &sequential.1, &pooled.1,
                    "buyer diverged at {} workers, chunk {}", workers, chunk
                );
                prop_assert_eq!(
                    &sequential.2, &pooled.2,
                    "seller diverged at {} workers, chunk {}", workers, chunk
                );
            }
        }
    }
}

#[test]
fn flaky_broadcast_workload_is_identical_across_shard_counts() {
    // A deterministic anchor alongside the property: a lossy multi-session
    // run compared across 1, 2, 4, and 8 workers.
    let baseline = run(FaultConfig::flaky(0.3), 7, 8, 1, false);
    for shards in [2, 4, 8] {
        let parallel = run(FaultConfig::flaky(0.3), 7, 8, shards, false);
        assert_eq!(baseline.0, parallel.0, "elapsed diverged at {shards} shards");
        assert_eq!(baseline.1, parallel.1, "buyer diverged at {shards} shards");
        assert_eq!(baseline.2, parallel.2, "seller diverged at {shards} shards");
    }
    // Dispatch mode must be as invisible as the shard count.
    let interpreted = run(FaultConfig::flaky(0.3), 7, 8, 4, true);
    assert_eq!(baseline.0, interpreted.0, "elapsed diverged under interpreter");
    assert_eq!(baseline.1, interpreted.1, "buyer diverged under interpreter");
    assert_eq!(baseline.2, interpreted.2, "seller diverged under interpreter");
    // The run was not trivially clean: sessions really completed.
    assert!(baseline.1.completed >= 1, "at least one session completed");
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
    // real available parallelism, capped only by `B2B_SHARDS_CAP` when
    // that is set. Whatever it resolves to, the run must stay
    // byte-identical to shards = 1.
    let mut probe = TwoEnterpriseScenario::new(FaultConfig::reliable(), 1).unwrap();
    probe.buyer.set_shards(0);
    let auto = probe.buyer.shards();
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    assert!(auto >= 1, "auto shard count must be positive: {auto}");
    assert!(auto <= cores, "auto shard count {auto} exceeds host parallelism {cores}");

    let baseline = run(FaultConfig::flaky(0.3), 13, 4, 1, false);
    let auto_run = run(FaultConfig::flaky(0.3), 13, 4, 0, false);
    assert_eq!(baseline.0, auto_run.0, "elapsed diverged under auto shards");
    assert_eq!(baseline.1, auto_run.1, "buyer diverged under auto shards");
    assert_eq!(baseline.2, auto_run.2, "seller diverged under auto shards");
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
    // fingerprint is byte-identical across shard counts and dispatch
    // modes. Text ownership — borrowed slices of the payload `Bytes`
    // versus owned strings after a transform — must be invisible to
    // every counter, state, and audit record.
    use semantic_b2b::integration::scenario::ScenarioProtocol;

    let run_binary = |shards: usize, interpreted: bool| {
        let mut s = TwoEnterpriseScenario::with_protocol(
            ScenarioProtocol::Binary,
            FaultConfig::flaky(0.3),
            23,
        )
        .unwrap();
        s.buyer.set_shards(shards);
        s.seller.set_shards(shards);
        s.buyer.set_interpreted_transforms(interpreted);
        s.seller.set_interpreted_transforms(interpreted);
        s.buyer.set_interpreted_rules(interpreted);
        s.seller.set_interpreted_rules(interpreted);
        s.buyer.set_partner_policy(PartnerPolicy::permissive());
        s.seller.set_partner_policy(PartnerPolicy::permissive());
        for i in 0..6 {
            let po = s.po(&format!("po-bin-{i}"), 1_000 + i).unwrap();
            s.submit(po).unwrap();
        }
        let elapsed = s.run_until_quiescent(240_000).unwrap();
        (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller))
    };

    let baseline = run_binary(1, false);
    assert!(baseline.1.completed >= 1, "at least one binary session completed");
    for (shards, interpreted) in [(4, false), (1, true), (4, true)] {
        let other = run_binary(shards, interpreted);
        assert_eq!(
            baseline.0, other.0,
            "elapsed diverged at {shards} shards (interpreted: {interpreted})"
        );
        assert_eq!(
            baseline.1, other.1,
            "buyer diverged at {shards} shards (interpreted: {interpreted})"
        );
        assert_eq!(
            baseline.2, other.2,
            "seller diverged at {shards} shards (interpreted: {interpreted})"
        );
    }
}

/// [`run`], with a scenario wire protocol and the settle reference path
/// selectable. Returns the fingerprints plus both engines' settle
/// planner counters (rounds / touched), which are part of the
/// determinism bar for the touched-only path.
fn run_settle(
    protocol: semantic_b2b::integration::scenario::ScenarioProtocol,
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    interpreted: bool,
    full_partition: bool,
) -> (u64, Fingerprint, Fingerprint, [(u64, u64); 2]) {
    let mut s = TwoEnterpriseScenario::with_protocol(protocol, faults, seed).unwrap();
    s.buyer.set_shards(shards);
    s.seller.set_shards(shards);
    s.buyer.set_interpreted_transforms(interpreted);
    s.seller.set_interpreted_transforms(interpreted);
    s.buyer.set_interpreted_rules(interpreted);
    s.seller.set_interpreted_rules(interpreted);
    s.buyer.set_full_partition_settle(full_partition);
    s.seller.set_full_partition_settle(full_partition);
    s.buyer.set_partner_policy(PartnerPolicy::permissive());
    s.seller.set_partner_policy(PartnerPolicy::permissive());
    for i in 0..pos {
        let po = s.po(&format!("po-{i}"), 1_000 + i as i64).unwrap();
        s.submit(po).unwrap();
    }
    let elapsed = s.run_until_quiescent(240_000).unwrap();
    let planner = [&s.buyer, &s.seller].map(|e| {
        let m = e.settle_metrics();
        (m.rounds, m.touched_total)
    });
    (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller), planner)
}

proptest! {
    // Each case is ten full scenario runs (2 protocols x 5 settle
    // configurations); fewer cases keep the matrix affordable.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The touched-only settle planner is an optimization, not a
    /// semantics: against the full-partition reference path (every
    /// resident instance moved into a shard slice every round) the run
    /// must be byte-identical, across shard counts {1, 2, 4}, both
    /// dispatch modes, and both a text (EDI) and the binary wire
    /// protocol. The planner's own counters (rounds, touched) must also
    /// be shard-count- and dispatch-invariant: slices settle to
    /// quiescence independently inside a round, so how the touched set
    /// is split cannot change what was touched.
    #[test]
    fn touched_only_settle_matches_full_partition_reference(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
        interpreted in any::<bool>(),
    ) {
        use semantic_b2b::integration::scenario::ScenarioProtocol;
        let faults = FaultConfig {
            loss, duplicate, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40,
        };
        for protocol in [ScenarioProtocol::Edi, ScenarioProtocol::Binary] {
            let touched =
                run_settle(protocol, faults.clone(), seed, pos, 1, interpreted, false);
            for shards in [2usize, 4] {
                let sharded =
                    run_settle(protocol, faults.clone(), seed, pos, shards, interpreted, false);
                prop_assert_eq!(
                    &touched.0, &sharded.0,
                    "{:?}: elapsed diverged at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.1, &sharded.1,
                    "{:?}: buyer diverged at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.2, &sharded.2,
                    "{:?}: seller diverged at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.3, &sharded.3,
                    "{:?}: settle planner counters diverged at {} shards", protocol, shards
                );
            }
            for shards in [1usize, 4] {
                let full =
                    run_settle(protocol, faults.clone(), seed, pos, shards, interpreted, true);
                prop_assert_eq!(
                    &touched.0, &full.0,
                    "{:?}: elapsed diverged vs full partition at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.1, &full.1,
                    "{:?}: buyer diverged vs full partition at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.2, &full.2,
                    "{:?}: seller diverged vs full partition at {} shards", protocol, shards
                );
            }
        }
    }
}

/// [`run_settle`], with the emit path selectable: `batched` toggles the
/// pool-batched outbound encode, `coalesce` the per-partner frame
/// coalescing cap (1 = one document per envelope).
#[allow(clippy::too_many_arguments)]
fn run_emit(
    protocol: semantic_b2b::integration::scenario::ScenarioProtocol,
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    interpreted: bool,
    batched: bool,
    coalesce: usize,
) -> (u64, Fingerprint, Fingerprint) {
    let mut s = TwoEnterpriseScenario::with_protocol(protocol, faults, seed).unwrap();
    s.buyer.set_shards(shards);
    s.seller.set_shards(shards);
    s.buyer.set_interpreted_transforms(interpreted);
    s.seller.set_interpreted_transforms(interpreted);
    s.buyer.set_interpreted_rules(interpreted);
    s.seller.set_interpreted_rules(interpreted);
    s.buyer.set_batched_emit(batched);
    s.seller.set_batched_emit(batched);
    s.buyer.set_emit_coalesce(coalesce);
    s.seller.set_emit_coalesce(coalesce);
    s.buyer.set_partner_policy(PartnerPolicy::permissive());
    s.seller.set_partner_policy(PartnerPolicy::permissive());
    for i in 0..pos {
        let po = s.po(&format!("po-{i}"), 1_000 + i as i64).unwrap();
        s.submit(po).unwrap();
    }
    let elapsed = s.run_until_quiescent(240_000).unwrap();
    (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller))
}

/// Zeroes the counters that deliberately distinguish the batched emit
/// path from the sequential one (`encode_batches`, `coalesced_frames`,
/// `emit_buffer_reuses`). Everything else in the fingerprint — wire
/// bytes are covered transitively by the stats, states, dead letters,
/// and audit history they produce — must be byte-identical.
fn mask_emit_counters(fp: &mut Fingerprint) {
    fp.stages.encode_batches = 0;
    fp.stages.coalesced_frames = 0;
    fp.stages.emit_buffer_reuses = 0;
}

proptest! {
    // Each case is ten full scenario runs (2 protocols x 5 emit
    // configurations); fewer cases keep the matrix affordable.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The pool-batched emit path is an optimization, not a semantics:
    /// at coalesce = 1 it must be byte-identical to the sequential
    /// per-document path (the only permitted difference is the three
    /// counters that *count* the batching itself), across shard counts
    /// {1, 4}, both dispatch modes, and both a text (EDI) and the binary
    /// wire protocol. At coalesce = 8 the wire framing genuinely changes
    /// (fewer envelopes, different message ids), so the bar there is
    /// shard-invariance: a coalesced run must be byte-identical to
    /// itself across shard counts.
    #[test]
    fn batched_emit_matches_sequential_reference(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
        interpreted in any::<bool>(),
    ) {
        use semantic_b2b::integration::scenario::ScenarioProtocol;
        let faults = FaultConfig {
            loss, duplicate, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40,
        };
        for protocol in [ScenarioProtocol::Edi, ScenarioProtocol::Binary] {
            let (seq_elapsed, mut seq_buyer, mut seq_seller) =
                run_emit(protocol, faults.clone(), seed, pos, 1, interpreted, false, 1);
            // The reference must not itself have batched: sequential
            // mode books no batch counters.
            prop_assert_eq!(seq_buyer.stages.encode_batches, 0);
            prop_assert_eq!(seq_buyer.stages.coalesced_frames, 0);
            mask_emit_counters(&mut seq_buyer);
            mask_emit_counters(&mut seq_seller);

            for shards in [1usize, 4] {
                let (elapsed, mut buyer, mut seller) =
                    run_emit(protocol, faults.clone(), seed, pos, shards, interpreted, true, 1);
                prop_assert_eq!(buyer.stages.coalesced_frames, 0,
                    "{:?}: coalesce=1 must never build a batch frame", protocol);
                mask_emit_counters(&mut buyer);
                mask_emit_counters(&mut seller);
                prop_assert_eq!(
                    &seq_elapsed, &elapsed,
                    "{:?}: elapsed diverged under batched emit at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &seq_buyer, &buyer,
                    "{:?}: buyer diverged under batched emit at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &seq_seller, &seller,
                    "{:?}: seller diverged under batched emit at {} shards", protocol, shards
                );
            }

            let coalesced =
                run_emit(protocol, faults.clone(), seed, pos, 1, interpreted, true, 8);
            let coalesced_4 =
                run_emit(protocol, faults.clone(), seed, pos, 4, interpreted, true, 8);
            prop_assert_eq!(
                &coalesced.0, &coalesced_4.0,
                "{:?}: elapsed diverged across shards at coalesce 8", protocol
            );
            prop_assert_eq!(
                &coalesced.1, &coalesced_4.1,
                "{:?}: buyer diverged across shards at coalesce 8", protocol
            );
            prop_assert_eq!(
                &coalesced.2, &coalesced_4.2,
                "{:?}: seller diverged across shards at coalesce 8", protocol
            );
        }
    }
}

#[test]
fn coalesced_emit_preserves_business_outcomes() {
    // Coalescing changes the wire framing, not the business: on a clean
    // network (no loss, so the per-message fault draws cannot diverge
    // into different retransmit histories) a coalesce = 8 run must reach
    // the same session states, completions, and document-level
    // integration stats as the sequential per-document path.
    use semantic_b2b::integration::scenario::ScenarioProtocol;
    for protocol in [ScenarioProtocol::Edi, ScenarioProtocol::Binary] {
        let (_, seq_buyer, seq_seller) =
            run_emit(protocol, FaultConfig::reliable(), 19, 6, 1, false, false, 1);
        let (_, buyer, seller) =
            run_emit(protocol, FaultConfig::reliable(), 19, 6, 4, false, true, 8);
        // Each `submit` routes its PO in its own settle pass, so the
        // buyer's requests go out one at a time; it is the responder —
        // whose replies to same-window arrivals share an emit pass —
        // that exercises the coalescer.
        assert!(
            buyer.stages.coalesced_frames + seller.stages.coalesced_frames > 0,
            "{protocol:?}: a six-session clean run must actually coalesce frames \
             (buyer {:?}, seller {:?})",
            buyer.stages,
            seller.stages
        );
        for (who, seq, coalesced) in
            [("buyer", &seq_buyer, &buyer), ("seller", &seq_seller, &seller)]
        {
            assert_eq!(seq.stats, coalesced.stats, "{protocol:?}: {who} stats diverged");
            assert_eq!(seq.states, coalesced.states, "{protocol:?}: {who} states diverged");
            assert_eq!(
                seq.completed, coalesced.completed,
                "{protocol:?}: {who} completions diverged"
            );
            assert_eq!(
                seq.dead_letters.len(),
                coalesced.dead_letters.len(),
                "{protocol:?}: {who} dead-letter count diverged"
            );
        }
        assert!(seq_buyer.completed >= 1, "{protocol:?}: at least one session completed");
    }
}

#[test]
fn decode_memo_hits_track_duplication() {
    // Every duplicated delivery the reliable layer suppresses is counted
    // against the decode memo: the original decode populated the memo, so
    // the duplicate registers as a hit (a re-parse the memo saved).
    let dup_heavy =
        FaultConfig { loss: 0.0, duplicate: 0.6, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40 };
    let (_, buyer, seller) = run(dup_heavy, 11, 4, 1, false);
    assert!(
        buyer.cache.decode_hits + seller.cache.decode_hits > 0,
        "duplication-heavy run produced no decode-memo hits: buyer {:?}, seller {:?}",
        buyer.cache,
        seller.cache
    );

    // With duplication disabled (and nothing lost, so nothing is ever
    // retransmitted) every payload is decoded exactly once and the memo
    // never hits — but real decodes still happened.
    let (_, buyer, seller) = run(FaultConfig::reliable(), 11, 4, 1, false);
    assert_eq!(buyer.cache.decode_hits, 0, "clean run must not hit the decode memo");
    assert_eq!(seller.cache.decode_hits, 0, "clean run must not hit the decode memo");
    assert!(buyer.cache.decode_misses > 0, "documents were decoded at the buyer edge");
    assert!(seller.cache.decode_misses > 0, "documents were decoded at the seller edge");
}
