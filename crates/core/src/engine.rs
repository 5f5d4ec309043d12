//! The per-enterprise integration engine.
//!
//! One `IntegrationEngine` per organization. It hosts the three process
//! layers of Section 4 on a single WFMS and routes every document between
//! them per *session* (one business interaction = one session), so that
//! the layers stay decoupled exactly as the paper prescribes: public
//! processes never see the normalized format, private processes never see
//! wire formats or partner specifics, and all transformations happen in
//! binding instances.
//!
//! This module is the configuration facade: partners, agreements, back
//! ends, and outbound initiation. The per-pump machinery lives in
//! [`crate::runtime`] (edge → route → execute → emit), session state in
//! [`crate::session`].

use crate::binding::{compile_backend_binding, compile_wire_binding, BindingRole};
use crate::compile::{compile_public, public_type_id};
use crate::deadletter::{DeadLetterQueue, DeadLetterReason};
use crate::error::{IntegrationError, Result};
use crate::health::{BreakerState, PartnerHealth, PartnerPolicy};
use crate::metrics::{HealthStats, StageProfile};
use crate::partner::{PartnerDirectory, TradingPartner};
use crate::private_process::{
    approve_activity, audit_activity, initiator_private_process, make_quote_activity,
    quote_generation_process, record_quote_activity, responder_private_id,
    responder_private_process, rfq_submission_process, APPROVE_ACTIVITY, AUDIT_ACTIVITY,
    MAKE_QUOTE_ACTIVITY, RECORD_QUOTE_ACTIVITY,
};
use crate::runtime::edge::Edge;
use crate::session::{NewSession, SessionTable};
use b2b_backend::ApplicationProcess;
use b2b_document::{CorrelationId, Document, FormatId};
use b2b_network::{Bytes, EndpointId, MessageId, ReliableConfig, SimNetwork, WireClass};
use b2b_protocol::{PublicAction, PublicProcessDef, TradingPartnerAgreement};
use b2b_rules::RuleRegistry;
use b2b_wfms::{Engine as WfEngine, EngineId, Variable, WorkflowType, WorkflowTypeId};
use std::collections::{BTreeMap, VecDeque};

pub use crate::session::SessionState;

/// Rule function the engine consults to pick a back end for an inbound
/// document (`result` must be the back-end name). When absent, the sole
/// registered back end is used.
pub const SELECT_BACKEND_RULE: &str = "select-backend";

/// Counters for one integration engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrationStats {
    /// Sessions started (either side).
    pub sessions_started: u64,
    /// Wire documents sent.
    pub wire_sent: u64,
    /// Wire documents received and routed.
    pub wire_received: u64,
    /// Wire payloads that failed to decode (corruption → rejected at the
    /// edge).
    pub decode_failures: u64,
    /// Wire documents with no matching session or agreement.
    pub unroutable: u64,
    /// Reliable-messaging failures that killed a session.
    pub delivery_failures: u64,
    /// Messages quarantined in the dead-letter queue (all reasons).
    pub dead_lettered: u64,
    /// Failure notifications sent to counterparties.
    pub notifications_sent: u64,
    /// Failure notifications received from counterparties.
    pub notifications_received: u64,
    /// Dead letters replayed through the engine.
    pub replays: u64,
    /// Outbound payloads shed (breaker open or queue overflow) instead of
    /// sent — the third leg of `sent = delivered ∪ dead-lettered ∪ shed`.
    pub shed: u64,
}

/// One outbound payload waiting in the bounded per-partner send queue
/// (only used when the policy's `pump_send_budget` is finite; with an
/// unbounded budget, sends bypass the queue entirely).
#[derive(Debug)]
pub(crate) struct PendingSend {
    pub(crate) session: usize,
    /// Interned partner name, shared with the session table.
    pub(crate) partner: std::sync::Arc<str>,
    pub(crate) endpoint: EndpointId,
    pub(crate) format: FormatId,
    pub(crate) bytes: Bytes,
    pub(crate) deadline_ms: Option<u64>,
}

/// The workflow types a session instantiates, resolved once when its
/// agreement (or back end) is installed, so creating a session builds no
/// type ids.
pub(crate) struct BindingTypes {
    pub(crate) responder: WorkflowTypeId,
    pub(crate) initiator: WorkflowTypeId,
}

impl BindingTypes {
    pub(crate) fn for_role(&self, role: BindingRole) -> &WorkflowTypeId {
        match role {
            BindingRole::Responder => &self.responder,
            BindingRole::Initiator => &self.initiator,
        }
    }
}

/// The integration engine of one enterprise.
pub struct IntegrationEngine {
    pub(crate) name: String,
    pub(crate) endpoint: EndpointId,
    pub(crate) wf: WfEngine,
    pub(crate) edge: Edge,
    pub(crate) partners: PartnerDirectory,
    pub(crate) agreements: BTreeMap<String, TradingPartnerAgreement>,
    /// Our compiled public-process type per agreement.
    pub(crate) public_types: BTreeMap<String, WorkflowTypeId>,
    /// Wire-binding types per wire format (deployed with the first
    /// agreement on that format).
    pub(crate) wire_bindings: BTreeMap<FormatId, BindingTypes>,
    /// Per-agreement wire-send deadline, derived from the public process's
    /// tightest `WaitReceipt { timeout_ms }` step.
    pub(crate) receipt_deadlines: BTreeMap<String, u64>,
    pub(crate) backends: BTreeMap<String, ApplicationProcess>,
    /// Back-end binding types per back end.
    pub(crate) backend_bindings: BTreeMap<String, BindingTypes>,
    pub(crate) table: SessionTable,
    /// Unacknowledged wire payloads → owning session index. An entry
    /// leaves when its send is acknowledged or fails.
    pub(crate) outstanding_wire: BTreeMap<MessageId, usize>,
    /// Partner breakers, poison ladders, and shed counters.
    pub(crate) health: PartnerHealth,
    /// Outbound sends queued behind the pump send budget, FIFO.
    pub(crate) pending_sends: VecDeque<PendingSend>,
    /// Replayed dead-letter messages (payloads and failure notices) back
    /// in flight → (original letter's seq, accumulated replay count);
    /// consulted when a replay fails again so the relapse letter keeps
    /// its provenance, dropped when the replay is acknowledged.
    pub(crate) replay_origins: BTreeMap<MessageId, (u64, u32)>,
    pub(crate) stats: IntegrationStats,
    /// Per-pump-stage counters and timers.
    pub(crate) profile: StageProfile,
}

impl IntegrationEngine {
    /// Creates an engine for enterprise `name`, registering its endpoint
    /// (`ep:<name>`) on the network and deploying the default private
    /// processes and activities.
    pub fn new(name: &str, net: &mut SimNetwork) -> Result<Self> {
        Self::with_reliable_config(name, net, ReliableConfig::default())
    }

    /// Like [`IntegrationEngine::new`] with an explicit retry policy.
    pub fn with_reliable_config(
        name: &str,
        net: &mut SimNetwork,
        config: ReliableConfig,
    ) -> Result<Self> {
        let endpoint = EndpointId::new(format!("ep:{name}"));
        let edge = Edge::new(endpoint.clone(), config, net)?;
        let mut wf = WfEngine::new(EngineId::new(name));
        wf.set_transforms(b2b_transform::TransformRegistry::with_builtins());
        wf.deploy(responder_private_process()?);
        wf.deploy(initiator_private_process()?);
        wf.deploy(quote_generation_process()?);
        wf.deploy(rfq_submission_process()?);
        wf.register_activity(APPROVE_ACTIVITY, approve_activity());
        wf.register_activity(AUDIT_ACTIVITY, audit_activity());
        wf.register_activity(MAKE_QUOTE_ACTIVITY, make_quote_activity(name));
        wf.register_activity(RECORD_QUOTE_ACTIVITY, record_quote_activity());
        Ok(Self {
            name: name.to_string(),
            endpoint,
            wf,
            edge,
            partners: PartnerDirectory::new(),
            agreements: BTreeMap::new(),
            public_types: BTreeMap::new(),
            wire_bindings: BTreeMap::new(),
            receipt_deadlines: BTreeMap::new(),
            backends: BTreeMap::new(),
            backend_bindings: BTreeMap::new(),
            table: SessionTable::new(),
            outstanding_wire: BTreeMap::new(),
            health: PartnerHealth::default(),
            pending_sends: VecDeque::new(),
            replay_origins: BTreeMap::new(),
            stats: IntegrationStats::default(),
            profile: StageProfile::default(),
        })
    }

    /// Enterprise name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Network endpoint.
    pub fn endpoint(&self) -> &EndpointId {
        &self.endpoint
    }

    /// Counters.
    pub fn stats(&self) -> &IntegrationStats {
        &self.stats
    }

    /// The hosted WFMS (read access for experiments and assertions).
    pub fn wf(&self) -> &WfEngine {
        &self.wf
    }

    /// Inert: the execute stage always settles on the calling thread.
    /// Kept because the hub benchmark still calls it.
    pub fn set_shards(&mut self, _: usize) {}

    /// Inert: always zeros, since there is no worker pool. Kept because
    /// the hub benchmark still reads it.
    pub fn pool_stats(&self) -> crate::metrics::PoolStats {
        crate::metrics::PoolStats::default()
    }

    /// Settle-cost counters of the workflow engine: instances resident,
    /// rounds, and touched sets (also embedded in
    /// [`stage_profile`](Self::stage_profile) after each pump).
    pub fn settle_metrics(&self) -> b2b_wfms::SettleMetrics {
        self.wf.settle_metrics()
    }

    /// Measured retained memory of the session table — the
    /// bytes-per-open-session figure the compact layout is accountable
    /// to.
    pub fn session_memory(&self) -> crate::metrics::SessionMemory {
        self.table.memory_footprint()
    }

    /// Mutable business-rule registry — the *only* thing that changes when
    /// the trading-partner population changes (Section 4.3).
    pub fn rules_mut(&mut self) -> &mut RuleRegistry {
        self.wf.rules_mut()
    }

    /// Counters for the edge's payload decodes and encode buffers.
    pub fn codec_cache_stats(&self) -> &crate::metrics::CodecCacheStats {
        self.edge.cache_stats()
    }

    /// Per-pump-stage counters and timers: what the edge, route, execute,
    /// and emit stages processed and where wall-clock went. The counters
    /// are deterministic; the timers are measurement only.
    pub fn stage_profile(&self) -> &StageProfile {
        &self.profile
    }

    /// Registers a trading partner.
    pub fn add_partner(&mut self, partner: TradingPartner) {
        self.partners.add(partner);
    }

    /// Installs the partner containment policy (circuit breaker, queue
    /// caps, poison escalation, pump send budget). The default policy is
    /// fully permissive — identical to the engine before the health
    /// subsystem existed.
    pub fn set_partner_policy(&mut self, policy: PartnerPolicy) {
        self.health.set_policy(policy);
    }

    /// The active partner containment policy.
    pub fn partner_policy(&self) -> &PartnerPolicy {
        self.health.policy()
    }

    /// Partner-health counters: breaker trips, sheds, poison quarantines.
    pub fn health_stats(&self) -> &HealthStats {
        self.health.stats()
    }

    /// Circuit-breaker state for one partner (`Closed` if never tripped).
    pub fn breaker_state(&self, partner: &str) -> BreakerState {
        self.health.breaker_state(partner)
    }

    /// Every partner with breaker history, with state and trip count —
    /// sorted, for determinism fingerprints.
    pub fn breaker_states(&self) -> Vec<(String, BreakerState, u64)> {
        self.health.breaker_states()
    }

    /// Whether outbound payloads are still waiting in the bounded send
    /// queue (only possible under a finite pump send budget). Quiescence
    /// checks must include this: the network can be idle while the engine
    /// still owes sends.
    pub fn has_pending_wire(&self) -> bool {
        !self.pending_sends.is_empty()
    }

    /// Wire sends neither acknowledged nor failed yet. Like
    /// [`has_pending_wire`](Self::has_pending_wire), this can be non-zero
    /// while the network is idle: retransmission timers live in the
    /// reliable layer, not the network queue.
    pub fn wire_outstanding(&self) -> usize {
        self.edge.reliable.outstanding_count()
    }

    /// Registers a back-end application and deploys its binding types —
    /// a purely local change (Section 4.6).
    pub fn add_backend(&mut self, app: ApplicationProcess) -> Result<()> {
        let native = app.native_format();
        let name = app.name().to_string();
        let responder = compile_backend_binding(&name, &native, BindingRole::Responder)?;
        let initiator = compile_backend_binding(&name, &native, BindingRole::Initiator)?;
        let types =
            BindingTypes { responder: responder.id().clone(), initiator: initiator.id().clone() };
        self.wf.deploy(responder);
        self.wf.deploy(initiator);
        self.backend_bindings.insert(name.clone(), types);
        self.backends.insert(name, app);
        Ok(())
    }

    /// Installs an agreement: compiles and deploys *our* role's public
    /// process and the wire bindings for the agreement's format. Adding a
    /// protocol touches exactly this — no private process, no back end.
    pub fn install_agreement(
        &mut self,
        agreement: TradingPartnerAgreement,
        initiator_def: &PublicProcessDef,
        responder_def: &PublicProcessDef,
    ) -> Result<()> {
        let ours = agreement.process_for(&self.name)?;
        let def = if ours == initiator_def.id {
            initiator_def
        } else if ours == responder_def.id {
            responder_def
        } else {
            return Err(IntegrationError::Config(format!(
                "agreement `{}` names process `{ours}` which matches neither definition",
                agreement.id
            )));
        };
        self.wf.deploy(compile_public(def)?);
        if !self.wire_bindings.contains_key(&agreement.format) {
            let responder = compile_wire_binding(&agreement.format, BindingRole::Responder)?;
            let initiator = compile_wire_binding(&agreement.format, BindingRole::Initiator)?;
            let types = BindingTypes {
                responder: responder.id().clone(),
                initiator: initiator.id().clone(),
            };
            self.wf.deploy(responder);
            self.wf.deploy(initiator);
            self.wire_bindings.insert(agreement.format.clone(), types);
        }
        self.public_types.insert(agreement.id.clone(), public_type_id(&def.id));
        // A WaitReceipt step bounds how long this side is willing to wait
        // for transport acknowledgment: map the tightest one onto a
        // per-message deadline in the reliable layer.
        let receipt_deadline = def
            .steps
            .iter()
            .filter_map(|s| match &s.action {
                PublicAction::WaitReceipt { timeout_ms } => Some(*timeout_ms),
                _ => None,
            })
            .min();
        if let Some(ms) = receipt_deadline {
            self.receipt_deadlines.insert(agreement.id.clone(), ms);
        }
        self.agreements.insert(agreement.id.clone(), agreement);
        Ok(())
    }

    /// Replaces the responder private process (the Section 4.5 audit-step
    /// change enters through here).
    pub fn replace_responder_private(&mut self, wf: WorkflowType) -> Result<()> {
        if wf.id() != responder_private_id() {
            return Err(IntegrationError::Config(format!(
                "expected type `{}`, got `{}`",
                responder_private_id(),
                wf.id()
            )));
        }
        self.wf.deploy(wf);
        Ok(())
    }

    /// Hash of the deployed responder private process — the change
    /// experiments compare this across configuration changes.
    pub fn responder_private_hash(&self) -> Result<u64> {
        Ok(self.wf.db().get_type(responder_private_id())?.definition_hash())
    }

    /// Read access to a back end (assertions).
    pub fn backend(&self, name: &str) -> Result<&ApplicationProcess> {
        self.backends
            .get(name)
            .ok_or_else(|| IntegrationError::Config(format!("no backend `{name}`")))
    }

    /// Starts an outbound interaction (buyer side): the normalized PO is
    /// handed to the initiator private process, which pushes it through
    /// the binding and public process onto the wire.
    pub fn initiate(
        &mut self,
        net: &mut SimNetwork,
        agreement_id: &str,
        po: Document,
    ) -> Result<CorrelationId> {
        let correlation = self.initiate_deferred(agreement_id, po)?;
        self.settle_and_route(net)?;
        Ok(correlation)
    }

    /// [`initiate`](Self::initiate) without the immediate settle pass:
    /// the session's instances are created and scheduled but nothing
    /// moves until the next [`pump`](Self::pump) (or another initiate)
    /// settles. Initiating a whole wave this way lets one settle pass run
    /// the first leg of every session in the wave.
    pub fn initiate_deferred(&mut self, agreement_id: &str, po: Document) -> Result<CorrelationId> {
        let not_installed =
            || IntegrationError::Config(format!("agreement `{agreement_id}` not installed"));
        let agreement = self
            .agreements
            .get(agreement_id)
            .ok_or_else(|| IntegrationError::Config(format!("no agreement `{agreement_id}`")))?;
        let partner = agreement.counterparty(&self.name)?;
        let public_type = self.public_types.get(agreement_id).ok_or_else(not_installed)?;
        let binding_type = self
            .wire_bindings
            .get(&agreement.format)
            .ok_or_else(not_installed)?
            .for_role(BindingRole::Initiator);
        let correlation = po.correlation().clone();
        let backend = self.select_backend(partner, &po)?;
        let private_type = Self::initiator_private_for(po.kind())?;

        let public = self.wf.create_instance(public_type, BTreeMap::new(), partner, &self.name)?;
        let binding =
            self.wf.create_instance(binding_type, BTreeMap::new(), partner, &self.name)?;
        let mut vars = BTreeMap::new();
        vars.insert("po".to_string(), Variable::Document(po.into()));
        let target = backend.as_deref().unwrap_or(&self.name);
        let private = self.wf.create_instance(private_type, vars, partner, target)?;

        self.table.insert(NewSession {
            correlation: correlation.as_str(),
            agreement_id,
            role: BindingRole::Initiator,
            partner,
            public,
            binding,
            private: Some(private),
            backend: backend.as_deref(),
        });
        self.stats.sessions_started += 1;

        self.wf.schedule(public);
        self.wf.schedule(binding);
        self.wf.schedule(private);
        Ok(correlation)
    }

    /// State of the session(s) for a correlation id. With several
    /// sessions under one correlation (broadcast), the aggregate is
    /// Completed only when all are, and Failed when any is. O(1) in the
    /// number of sessions (cached in the session table).
    pub fn session_state(&self, correlation: &CorrelationId) -> SessionState {
        self.table.aggregate_state(correlation)
    }

    /// State of the session with a specific counterparty (broadcasts).
    pub fn session_state_with(&self, correlation: &CorrelationId, partner: &str) -> SessionState {
        match self.table.index_of(correlation, partner) {
            Some(index) => self.table.state(index).clone(),
            None => SessionState::InProgress,
        }
    }

    /// Correlations of all sessions this engine has seen.
    pub fn correlations(&self) -> Vec<CorrelationId> {
        self.table.correlations()
    }

    /// Number of completed sessions. O(1): maintained incrementally by
    /// the session table.
    pub fn completed_sessions(&self) -> usize {
        self.table.completed_sessions()
    }

    /// The dead-letter queue: every message this engine rejected or gave
    /// up on, kept for inspection and replay.
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.edge.dead_letters
    }

    /// Replays a quarantined message. Inbound letters (decode failures,
    /// unroutable documents) re-enter edge routing exactly as if they had
    /// just arrived — useful after registering the missing partner or
    /// agreement. Outbound letters (delivery failures) are re-sent
    /// reliably: a business document is re-armed against its session,
    /// clearing its failure marker; a failure notice has no session and
    /// is only sent again. A replay that fails again re-quarantines the
    /// original letter with its replay count bumped. `replays` counts a
    /// replay once it has been re-routed or re-sent.
    pub fn replay_dead_letter(&mut self, net: &mut SimNetwork, seq: u64) -> Result<()> {
        let letter = self
            .edge
            .dead_letters
            .take(seq)
            .ok_or_else(|| IntegrationError::Config(format!("no dead letter #{seq}")))?;
        // If the re-send fails again, the relapse letter links back to the
        // *first* quarantine (chains collapse to the root).
        let origin = (letter.origin_seq.unwrap_or(letter.seq), letter.replays + 1);
        match &letter.reason {
            DeadLetterReason::DecodeFailure(_) | DeadLetterReason::Unroutable(_) => {
                // A rejected replay quarantines its own letter first; a
                // breaker trip it causes dead-letters the abandoned sends
                // after it. Collapse exactly that first letter back into
                // the original so its identity and history survive.
                let fresh = self.edge.dead_letters.next_seq();
                self.route_inbound(net, letter.envelope.clone())?;
                self.stats.replays += 1;
                if self.edge.dead_letters.take(fresh).is_some() {
                    self.edge.dead_letters.requeue(letter);
                }
                self.settle_and_route(net)?;
            }
            DeadLetterReason::DeliveryFailure { .. }
                if letter.envelope.class == WireClass::Notify =>
            {
                let envelope = &letter.envelope;
                let msg = self.edge.send_notice(net, &envelope.to, envelope.payload.clone())?;
                self.replay_origins.insert(msg, origin);
                self.stats.notifications_sent += 1;
                self.stats.replays += 1;
            }
            DeadLetterReason::DeliveryFailure { .. } => {
                let envelope = letter.envelope.clone();
                let doc = match self.edge.decode(&envelope) {
                    Ok(doc) => doc,
                    Err(e) => {
                        self.edge.dead_letters.requeue(letter);
                        return Err(IntegrationError::Config(format!(
                            "dead letter #{seq} no longer decodes: {e}"
                        )));
                    }
                };
                let Ok(partner) = self.partners.name_of(&envelope.to).map(str::to_string) else {
                    self.edge.dead_letters.requeue(letter);
                    return Err(IntegrationError::Config(format!(
                        "dead letter #{seq} addresses unknown endpoint {}",
                        envelope.to
                    )));
                };
                let Some(index) = self.table.index_of(doc.correlation(), &partner) else {
                    self.edge.dead_letters.requeue(letter);
                    return Err(IntegrationError::Config(format!(
                        "dead letter #{seq} belongs to no session"
                    )));
                };
                let msg = self.edge.send_payload(
                    net,
                    &envelope.to,
                    envelope.format.clone(),
                    envelope.payload.clone(),
                    None,
                )?;
                self.outstanding_wire.insert(msg.clone(), index);
                self.replay_origins.insert(msg, origin);
                // The session gets another chance: in flight again.
                self.table.clear_failure(index, &self.wf);
                self.stats.wire_sent += 1;
                self.stats.replays += 1;
            }
        }
        Ok(())
    }

    /// Reliable-messaging counters (retries, NACK retransmits, …).
    pub fn reliable_stats(&self) -> &b2b_network::ReliableStats {
        self.edge.reliable.stats()
    }
}
