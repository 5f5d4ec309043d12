//! Model-size and knowledge-exposure metrics.
//!
//! The paper's Section 3 argument is quantitative in nature ("the
//! complexity of the workflow types increases dramatically") but never
//! measured; these metrics make it measurable. Experiment E5 sweeps them
//! over (protocols × partners × back ends).

use b2b_rules::RuleRegistry;
use b2b_transform::TransformRegistry;
use b2b_wfms::{StepKind, WorkflowType};
use std::fmt;

/// Size of a set of workflow types plus the external registries serving
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelSize {
    /// Workflow type definitions.
    pub types: usize,
    /// Steps across all types.
    pub steps: usize,
    /// Control-flow edges across all types.
    pub edges: usize,
    /// Guard-expression AST nodes inlined in workflow types.
    pub guard_nodes: usize,
    /// Transform steps inlined in workflow types (the naïve designs put
    /// transformations here; the advanced design has zero).
    pub inline_transforms: usize,
    /// Transformation programs held externally in the registry.
    pub external_transforms: usize,
    /// Business rules held externally in the registry.
    pub external_rules: usize,
}

impl ModelSize {
    /// Measures a set of workflow types (no external registries).
    pub fn of_types<'a>(types: impl IntoIterator<Item = &'a WorkflowType>) -> Self {
        let mut m = Self::default();
        for wf in types {
            m.types += 1;
            m.steps += wf.steps().len();
            m.edges += wf.edges().len();
            m.guard_nodes += wf
                .edges()
                .iter()
                .filter_map(|e| e.guard.as_ref())
                .map(|g| g.node_count())
                .sum::<usize>();
            m.inline_transforms +=
                wf.steps().iter().filter(|s| matches!(s.kind, StepKind::Transform { .. })).count();
        }
        m
    }

    /// Adds the external registries.
    pub fn with_registries(mut self, transforms: &TransformRegistry, rules: &RuleRegistry) -> Self {
        self.external_transforms = transforms.len();
        self.external_rules = rules.rule_count();
        self
    }

    /// Total workflow-type elements (what a modeler maintains *inside*
    /// workflow definitions — the explosion quantity).
    pub fn workflow_elements(&self) -> usize {
        self.steps + self.edges + self.guard_nodes
    }

    /// Total elements including the external registries.
    pub fn total_elements(&self) -> usize {
        self.workflow_elements() + self.external_transforms + self.external_rules
    }
}

impl fmt::Display for ModelSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} types, {} steps, {} edges, {} guard nodes, {} inline transforms \
             (+{} transforms / {} rules external)",
            self.types,
            self.steps,
            self.edges,
            self.guard_nodes,
            self.inline_transforms,
            self.external_transforms,
            self.external_rules
        )
    }
}

/// Counters for the edge's codec work.
///
/// Every fresh inbound payload is parsed once; the reliable layer has
/// already dropped duplicate deliveries, so there is no decode cache.
/// The encode buffers are reused per `(format, kind)`, so after warm-up
/// every outbound encode appends into an existing allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecCacheStats {
    /// Always 0 since the decode memo was removed; kept so existing
    /// readers of this struct still compile.
    pub decode_hits: u64,
    /// Payloads parsed.
    pub decode_misses: u64,
    /// Outbound encodes that reused an existing per-(format, kind) buffer.
    pub encode_buffer_reuses: u64,
    /// Outbound encodes that allocated a fresh buffer (first use of a
    /// (format, kind) pair).
    pub encode_buffer_allocs: u64,
}

/// Counters for the partner-health subsystem.
///
/// Every field is a pure function of the interaction trace and simulated
/// time, so these counters join the determinism fingerprint alongside
/// [`StageCounters`]. The shed counters extend the delivery invariant:
/// every payload handed to the engine is *delivered, dead-lettered, or
/// shed* — never silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Circuit-breaker trips (`Closed/HalfOpen → Open`), poison
    /// quarantines included.
    pub breaker_trips: u64,
    /// Poison escalations: a repeated identical decode failure forced a
    /// partner's breaker open.
    pub poison_trips: u64,
    /// Outbound payloads shed (breaker open or outbound queue full)
    /// instead of being handed to the reliable layer.
    pub shed_outbound: u64,
    /// Inbound payloads shed by the per-partner per-pump cap.
    pub shed_inbound: u64,
    /// Failure notices suppressed because the counterparty's breaker was
    /// open (notifying a dead partner would only feed the retry storm).
    pub shed_notices: u64,
    /// Sessions failed fast by an open breaker (no retry budget spent).
    pub fast_failed_sessions: u64,
}

/// Deterministic per-stage counters for the pump pipeline.
///
/// Every field is a pure function of the interaction trace — never of
/// wall-clock — so fingerprint tests can assert byte-identity across
/// runs. Wall-clock lives in [`StageTimers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Pipeline passes ([`crate::engine::IntegrationEngine`]::pump calls).
    pub pumps: u64,
    /// Payload envelopes drained by the edge stage.
    pub edge_payloads: u64,
    /// Failure notices drained by the edge stage.
    pub edge_notices: u64,
    /// Suppressed duplicate envelopes drained by the edge stage.
    pub edge_duplicates: u64,
    /// Documents the route stage queued into process instances (inbound
    /// payloads and back-end outputs).
    pub routed_documents: u64,
    /// Execute-stage passes (settle calls; the execute ⇄ emit loop runs
    /// until the outbox stays empty).
    pub settle_passes: u64,
    /// Outbox documents the emit stage routed between instances / onto
    /// the wire.
    pub emitted_documents: u64,
    /// Always 0 since the pool-batched encode was removed: emit encodes
    /// each wire-bound document inline. Kept so existing readers compile.
    pub encode_batches: u64,
    /// Always 0 since wire frame coalescing was removed: every wire send
    /// is one envelope owned by one session. Kept so existing readers
    /// compile.
    pub coalesced_frames: u64,
    /// Always 0 since the pool-batched encode was removed (inline encode
    /// reuse is [`CodecCacheStats::encode_buffer_reuses`]). Kept so
    /// existing readers compile.
    pub emit_buffer_reuses: u64,
}

/// Always zeros since the settle worker pool was removed: settle runs on
/// the calling thread. Kept because the hub benchmark still reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0.
    pub rounds: u64,
    /// Always 0.
    pub steals: u64,
    /// Always 0.
    pub idle_wakeups: u64,
}

/// Wall-clock spent per pump stage, in nanoseconds.
///
/// Timers are measurement, not state: they vary run to run, so they are
/// deliberately *not* `Eq` and must stay out of determinism
/// fingerprints. Use [`StageCounters`] there instead.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimers {
    /// Draining and decoding at the reliable edge.
    pub edge_ns: u64,
    /// Routing (session lookup/creation, queueing).
    pub route_ns: u64,
    /// Execution (settling instances to quiescence).
    pub execute_ns: u64,
    /// Emitting the sorted outbox (wire sends, hand-offs).
    pub emit_ns: u64,
}

impl StageTimers {
    /// Total time across all stages.
    pub fn total_ns(&self) -> u64 {
        self.edge_ns + self.route_ns + self.execute_ns + self.emit_ns
    }
}

/// Measured retained memory of the session table.
///
/// `bytes` is an accounting walk over every owned vector, index, and
/// interning arena — what the table actually holds onto, not an
/// allocator high-water mark. Like [`StageTimers`], capacities depend on
/// growth history, so this is measurement, not state: deliberately not
/// `Eq` and never part of a determinism fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionMemory {
    /// Open sessions in the table.
    pub sessions: usize,
    /// Retained bytes across slots, indexes, and interned strings.
    pub bytes: usize,
    /// `bytes / sessions` (0 when the table is empty).
    pub bytes_per_session: usize,
}

/// Per-stage pipeline profile: deterministic counters plus wall-clock
/// timers and settle-cost counters, kept separate so tests can
/// fingerprint the counters without the measurements.
///
/// `counters` and `settle` are deterministic; `timers` is wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageProfile {
    pub counters: StageCounters,
    pub timers: StageTimers,
    /// Settle-cost counters: resident instances, rounds, touched sets.
    pub settle: b2b_wfms::SettleMetrics,
}

/// What one enterprise can learn about another under a given architecture
/// (experiment E3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExposureReport {
    /// Full workflow type definitions visible to the partner (business
    /// rules included) — the distributed approach's fatal flaw.
    pub workflow_types_visible: usize,
    /// Business-rule AST nodes readable by the partner.
    pub rule_nodes_visible: usize,
    /// Instance execution states visible (migration snapshots).
    pub instance_states_visible: usize,
    /// Subworkflow interfaces visible (variables only).
    pub interfaces_visible: usize,
    /// Message schemas visible (what the advanced approach shares: only
    /// the agreed wire formats).
    pub message_schemas_visible: usize,
}

impl ExposureReport {
    /// A single scalar for ranking: weighted count of exposed artifacts
    /// (full types and instance states weigh most, schemas least).
    pub fn exposure_score(&self) -> usize {
        self.workflow_types_visible * 100
            + self.instance_states_visible * 100
            + self.rule_nodes_visible * 10
            + self.interfaces_visible * 5
            + self.message_schemas_visible
    }
}

impl fmt::Display for ExposureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "types={} rule-nodes={} instance-states={} interfaces={} schemas={} (score {})",
            self.workflow_types_visible,
            self.rule_nodes_visible,
            self.instance_states_visible,
            self.interfaces_visible,
            self.message_schemas_visible,
            self.exposure_score()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::private_process::responder_private_process;
    use b2b_wfms::{StepDef, WorkflowBuilder};

    #[test]
    fn measures_steps_edges_and_guards() {
        let wf = responder_private_process().unwrap();
        let m = ModelSize::of_types([&wf]);
        assert_eq!(m.types, 1);
        assert_eq!(m.steps, 7);
        assert_eq!(m.edges, 7);
        assert!(m.guard_nodes > 0, "the two guarded edges count");
        assert_eq!(m.inline_transforms, 0, "private processes have no transforms");
        assert_eq!(m.workflow_elements(), m.steps + m.edges + m.guard_nodes);
    }

    #[test]
    fn inline_transforms_are_counted() {
        let wf = WorkflowBuilder::new("naive")
            .step(StepDef::transform("t", b2b_document::FormatId::SAP_IDOC, "a", "b"))
            .build()
            .unwrap();
        let m = ModelSize::of_types([&wf]);
        assert_eq!(m.inline_transforms, 1);
    }

    #[test]
    fn registries_count_as_external() {
        let wf = responder_private_process().unwrap();
        let transforms = TransformRegistry::with_builtins();
        let mut rules = b2b_rules::RuleRegistry::new();
        rules.register(
            b2b_rules::approval::check_need_for_approval(&b2b_rules::approval::paper_thresholds())
                .unwrap(),
        );
        let m = ModelSize::of_types([&wf]).with_registries(&transforms, &rules);
        assert_eq!(m.external_transforms, 32);
        assert_eq!(m.external_rules, 4);
        assert!(m.total_elements() > m.workflow_elements());
    }

    #[test]
    fn exposure_score_orders_architectures() {
        let distributed = ExposureReport {
            workflow_types_visible: 3,
            rule_nodes_visible: 40,
            instance_states_visible: 2,
            ..ExposureReport::default()
        };
        let advanced = ExposureReport { message_schemas_visible: 2, ..ExposureReport::default() };
        assert!(distributed.exposure_score() > advanced.exposure_score());
    }
}
