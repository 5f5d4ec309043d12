//! What one pass of a workload measures.
//!
//! A pass builds fresh engines, drives one workload's whole traffic plan
//! to quiescence and records, from outside the engine:
//!
//! - every call into the hub's public API (`initiate`,
//!   `initiate_deferred`, `pump`): its wall time, its allocator traffic,
//!   and the change in the engine's own stage timers and counters while
//!   it ran;
//! - in a traced pass, the harness around those calls (partner sims,
//!   network, codec probes), so the wall time splits into engine layers
//!   plus harness cost.

use crate::alloc;
use crate::calib::Reference;
use b2b_core::metrics::{StageCounters, StageTimers};
use b2b_core::IntegrationEngine;
use std::time::Instant;

/// Which public engine call a measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `initiate` or `initiate_deferred`.
    Initiate,
    /// `pump`.
    Pump,
}

/// Change in the engine's stage timers across one call, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub edge: u64,
    pub route: u64,
    pub execute: u64,
    pub emit: u64,
}

impl Stages {
    fn between(before: &StageTimers, after: &StageTimers) -> Self {
        Self {
            edge: after.edge_ns - before.edge_ns,
            route: after.route_ns - before.route_ns,
            execute: after.execute_ns - before.execute_ns,
            emit: after.emit_ns - before.emit_ns,
        }
    }

    fn add(&mut self, other: &Stages) {
        self.edge += other.edge;
        self.route += other.route;
        self.execute += other.execute;
        self.emit += other.emit;
    }

    pub fn total(&self) -> u64 {
        self.edge + self.route + self.execute + self.emit
    }
}

/// Totals over every call of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallLedger {
    pub ns: u64,
    pub alloc: alloc::Delta,
    pub stages: Stages,
    /// Documents the engine routed during these calls.
    pub routed: u64,
}

impl CallLedger {
    pub fn add(&mut self, other: &CallLedger) {
        self.ns += other.ns;
        self.alloc += other.alloc;
        self.stages.add(&other.stages);
        self.routed += other.routed;
    }
}

/// Harness activities a traced pass times apart from the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harness {
    /// The simulated partners' pumps.
    Partner,
    /// `SimNetwork::advance`.
    Network,
    /// The harness's own codec and transform calls on `po_exchange`.
    Probe,
}

/// Wire formats the codec probes distinguish.
pub const FORMATS: [&str; 3] = ["rosettanet", "binary", "edi-x12"];

/// Time spent in the harness's own calls into the codec and transform
/// registries: the same code the hub's edge and bindings run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecTimes {
    /// (calls, ns) per entry of [`FORMATS`].
    pub decode: [(u64, u64); 3],
    pub encode: [(u64, u64); 3],
    pub transform: (u64, u64),
}

impl CodecTimes {
    pub fn add(&mut self, other: &CodecTimes) {
        for i in 0..FORMATS.len() {
            self.decode[i].0 += other.decode[i].0;
            self.decode[i].1 += other.decode[i].1;
            self.encode[i].0 += other.encode[i].0;
            self.encode[i].1 += other.encode[i].1;
        }
        self.transform.0 += other.transform.0;
        self.transform.1 += other.transform.1;
    }
}

/// Counters read from the engines' public accessors at the end of a
/// pass, summed over the engines a workload runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub stage: StageCounters,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub settle_rounds: u64,
    pub settle_touched: u64,
    pub settle_moved: u64,
    pub pool_rounds: u64,
    pub pool_steals: u64,
    pub pool_idle_wakeups: u64,
    pub reliable_sends: u64,
    pub reliable_retries: u64,
    pub reliable_acks: u64,
    pub dead_letters: u64,
    pub table_bytes: u64,
    pub table_sessions: u64,
    pub rule_invocations: u64,
    pub backend_orders: u64,
}

impl Counters {
    /// One engine's accessors (`backend_orders` is left to the workload,
    /// which knows its back ends).
    pub fn of(engine: &IntegrationEngine) -> Self {
        let cache = engine.codec_cache_stats();
        let settle = engine.settle_metrics();
        let pool = engine.pool_stats();
        let reliable = engine.reliable_stats();
        let memory = engine.session_memory();
        Self {
            stage: engine.stage_profile().counters,
            memo_hits: cache.decode_hits,
            memo_misses: cache.decode_misses,
            settle_rounds: settle.rounds,
            settle_touched: settle.touched_total,
            settle_moved: settle.moved_total,
            pool_rounds: pool.rounds,
            pool_steals: pool.steals,
            pool_idle_wakeups: pool.idle_wakeups,
            reliable_sends: reliable.sends,
            reliable_retries: reliable.retries,
            reliable_acks: reliable.acks,
            dead_letters: engine.dead_letters().len() as u64,
            table_bytes: memory.bytes as u64,
            table_sessions: memory.sessions as u64,
            rule_invocations: engine.wf().stats().rule_invocations,
            backend_orders: 0,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        let (s, c) = (&mut self.stage, &o.stage);
        s.pumps += c.pumps;
        s.edge_payloads += c.edge_payloads;
        s.edge_notices += c.edge_notices;
        s.edge_duplicates += c.edge_duplicates;
        s.routed_documents += c.routed_documents;
        s.settle_passes += c.settle_passes;
        s.emitted_documents += c.emitted_documents;
        s.encode_batches += c.encode_batches;
        s.coalesced_frames += c.coalesced_frames;
        s.emit_buffer_reuses += c.emit_buffer_reuses;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.settle_rounds += o.settle_rounds;
        self.settle_touched += o.settle_touched;
        self.settle_moved += o.settle_moved;
        self.pool_rounds += o.pool_rounds;
        self.pool_steals += o.pool_steals;
        self.pool_idle_wakeups += o.pool_idle_wakeups;
        self.reliable_sends += o.reliable_sends;
        self.reliable_retries += o.reliable_retries;
        self.reliable_acks += o.reliable_acks;
        self.dead_letters += o.dead_letters;
        self.table_bytes += o.table_bytes;
        self.table_sessions += o.table_sessions;
        self.rule_invocations += o.rule_invocations;
        self.backend_orders += o.backend_orders;
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Whether harness activities and codec calls were timed.
    pub traced: bool,
    pub initiate: CallLedger,
    pub pump: CallLedger,
    /// Wall time of each initiate call, µs.
    pub initiate_us: Vec<f64>,
    /// (wall ms, documents routed) of every pump that routed any.
    pub doc_latency: Vec<(f64, u64)>,
    /// Sim-time from initiate to completion of every completed session.
    pub session_sim_ms: Vec<f64>,
    /// Sessions initiated.
    pub sessions: u64,
    /// Sessions that failed or missed their expected outcome.
    pub failed: u64,
    /// Wall time of the traffic phase (setup and reference slices
    /// excluded).
    pub wall_ns: u64,
    /// Live-heap high-water mark during the traffic phase, sampled after
    /// every engine call and harness activity.
    pub peak_live: i64,
    /// Allocator traffic of the whole traffic phase (engine + harness):
    /// its `live` is the heap still live after the final quiescence minus
    /// the heap live before the first initiate.
    pub traffic_alloc: alloc::Delta,
    /// Traced pass only: ns per [`Harness`] activity.
    pub harness_ns: [u64; 3],
    /// Traced pass only: codec and transform calls of the harness.
    pub codec: CodecTimes,
    /// Engine accessors at the end of the pass.
    pub counters: Counters,
    /// Correctness checks that failed.
    pub errors: Vec<String>,
    /// Reference samples taken between waves, ns each.
    pub reference_samples: Vec<f64>,
    /// Time the reference samples took, left out of `wall_ns`.
    pub reference_spent_ns: u64,
}

impl Pass {
    pub fn new(traced: bool) -> Self {
        Self { traced, ..Self::default() }
    }

    /// Runs one public engine call and books it.
    pub fn call<R>(
        &mut self,
        kind: Call,
        engine: &mut IntegrationEngine,
        f: impl FnOnce(&mut IntegrationEngine) -> R,
    ) -> R {
        let timers_before = engine.stage_profile().timers;
        let routed_before = engine.stage_profile().counters.routed_documents;
        let alloc_before = alloc::snapshot();
        let started = Instant::now();
        let out = f(engine);
        let ns = started.elapsed().as_nanos() as u64;
        let alloc_after = alloc::snapshot();
        alloc::raise_peak(&alloc_after);
        let alloc_delta = alloc_after.since(&alloc_before);
        let profile = engine.stage_profile();
        let routed = profile.counters.routed_documents - routed_before;
        let ledger = match kind {
            Call::Initiate => {
                self.initiate_us.push(ns as f64 / 1e3);
                &mut self.initiate
            }
            Call::Pump => {
                if routed > 0 {
                    self.doc_latency.push((ns as f64 / 1e6, routed));
                }
                &mut self.pump
            }
        };
        ledger.ns += ns;
        ledger.alloc += alloc_delta;
        ledger.stages.add(&Stages::between(&timers_before, &profile.timers));
        ledger.routed += routed;
        out
    }

    /// Runs one harness activity, timing it in a traced pass.
    pub fn harness<R>(&mut self, what: Harness, f: impl FnOnce(&mut CodecTimes) -> R) -> R {
        let out = if self.traced {
            let started = Instant::now();
            let out = f(&mut self.codec);
            self.harness_ns[what as usize] += started.elapsed().as_nanos() as u64;
            out
        } else {
            f(&mut self.codec)
        };
        alloc::raise_peak(&alloc::snapshot());
        out
    }

    /// Samples the reference workload, between waves.
    pub fn sample_reference(&mut self, reference: &mut Reference) {
        let started = Instant::now();
        self.reference_samples.push(reference.measure());
        self.reference_spent_ns += started.elapsed().as_nanos() as u64;
    }

    /// Mean of the pass's reference samples, ns.
    pub fn reference_ns(&self) -> f64 {
        self.reference_samples.iter().sum::<f64>() / self.reference_samples.len() as f64
    }

    /// Engine time: wall time inside public engine calls.
    pub fn engine_ns(&self) -> u64 {
        self.initiate.ns + self.pump.ns
    }

    /// Documents the engines routed.
    pub fn docs(&self) -> u64 {
        self.initiate.routed + self.pump.routed
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Times one codec or transform call into `slot` when `traced`.
pub fn timed<R>(traced: bool, slot: &mut (u64, u64), f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    let started = Instant::now();
    let out = f();
    slot.0 += 1;
    slot.1 += started.elapsed().as_nanos() as u64;
    out
}

/// Index of a wire format in [`FORMATS`].
pub fn format_slot(format: &b2b_document::FormatId) -> usize {
    FORMATS
        .iter()
        .position(|f| *f == format.as_str())
        .expect("the workloads use rosettanet, binary and edi-x12 only")
}
