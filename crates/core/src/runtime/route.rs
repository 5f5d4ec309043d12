//! Stage 2 of the pump: routing.
//!
//! Routing owns the session table and the instance-id allocator (session
//! creation), and visits documents in canonical order, so a run is a
//! function of its inputs. Routing never *steps* an instance — it only
//! queues documents ([`b2b_wfms::Engine::enqueue_to`]) and marks
//! instances runnable ([`b2b_wfms::Engine::schedule`]); the execute stage
//! settles them afterwards.

use crate::binding::BindingRole;
use crate::channels;
use crate::deadletter::DeadLetterReason;
use crate::engine::{IntegrationEngine, PendingSend, SELECT_BACKEND_RULE};
use crate::error::{IntegrationError, Result};
use crate::private_process::{
    initiator_private_id, quote_generation_id, responder_private_id, rfq_submission_id,
};
use crate::runtime::edge::Edge;
use crate::session::NewSession;
use b2b_document::{CorrelationId, DocKind, Document};
use b2b_network::{Envelope, SimNetwork};
use b2b_wfms::{ChannelId, InstanceId, InstanceStatus, WorkflowTypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// What routing can reject: emissions from unknown instances or on
/// unknown channels, and sessions missing the layer a document targets.
#[derive(Debug)]
pub enum RouteError {
    /// An instance emitted a document but belongs to no session.
    NoSession { instance: InstanceId },
    /// An instance emitted on a channel the router does not know.
    UnknownChannel { instance: InstanceId, channel: String },
    /// A document targets the back end of a session that has none.
    NoBackendTarget { correlation: String },
    /// `to-app` emitted by a session without a back end.
    MissingBackend,
    /// `backend-out` emitted by a session without a private process.
    MissingPrivate,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSession { instance } => {
                write!(f, "instance {instance} belongs to no session")
            }
            Self::UnknownChannel { instance, channel } => {
                write!(f, "instance {instance} emitted on unknown channel `{channel}`")
            }
            Self::NoBackendTarget { correlation } => {
                write!(f, "session {correlation} has no backend to route to")
            }
            Self::MissingBackend => f.write_str("to-app without a backend"),
            Self::MissingPrivate => f.write_str("backend-out without a private"),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<RouteError> for IntegrationError {
    fn from(e: RouteError) -> Self {
        IntegrationError::Config(e.to_string())
    }
}

impl IntegrationEngine {
    /// Quarantines an envelope in the dead-letter queue.
    pub(crate) fn quarantine(
        &mut self,
        reason: DeadLetterReason,
        envelope: Envelope,
        now: b2b_network::SimTime,
    ) {
        self.stats.dead_lettered += 1;
        self.edge.dead_letters.push(reason, envelope, now);
    }

    /// Quarantines a permanently failed wire message. A message that was
    /// itself a dead-letter replay produces a *linked* letter carrying the
    /// original letter's sequence number and the accumulated replay
    /// count, so the failure history survives the round trip through the
    /// operator.
    pub(crate) fn quarantine_delivery_failure(
        &mut self,
        envelope: Envelope,
        attempts: u32,
        now: b2b_network::SimTime,
    ) {
        self.stats.dead_lettered += 1;
        let reason = DeadLetterReason::DeliveryFailure { attempts };
        match self.replay_origins.remove(&envelope.id) {
            Some((origin_seq, replays)) => {
                self.edge.dead_letters.push_linked(reason, envelope, now, origin_seq, replays);
            }
            None => {
                self.edge.dead_letters.push(reason, envelope, now);
            }
        }
    }

    /// Runs the consequences of a breaker trip for `partner`: every
    /// outstanding retransmission toward its endpoint is abandoned
    /// *now* — sessions fail fast and the envelopes are quarantined —
    /// instead of burning the remaining retry budget on a link already
    /// declared dead.
    pub(crate) fn trip_partner(&mut self, net: &mut SimNetwork, partner: &str) -> Result<()> {
        let Ok(p) = self.partners.by_name(partner) else {
            return Ok(());
        };
        let endpoint = p.endpoint.clone();
        for (envelope, attempts) in self.edge.reliable.abandon_to(&endpoint) {
            if let Some(index) = self.outstanding_wire.remove(&envelope.id) {
                self.stats.delivery_failures += 1;
                self.health.stats_mut().fast_failed_sessions += 1;
                self.table.mark_failure(
                    index,
                    format!(
                        "circuit breaker tripped for `{partner}`: {} abandoned after \
                         {attempts} attempts",
                        envelope.id
                    ),
                    true,
                );
            }
            self.quarantine_delivery_failure(envelope, attempts, net.now());
        }
        Ok(())
    }

    /// Rejects an inbound payload or failure notice that did not decode.
    /// Malformed content is rejected at the edge — but kept: the raw
    /// bytes go to the dead-letter queue for inspection and replay, never
    /// silently dropped. The failure counts against the (authenticated)
    /// sending partner's breaker, and the same checksum failing
    /// repeatedly climbs the poison ladder up to partner quarantine
    /// instead of being re-parsed forever.
    fn reject_undecodable(
        &mut self,
        net: &mut SimNetwork,
        envelope: Envelope,
        reason: String,
    ) -> Result<()> {
        self.stats.decode_failures += 1;
        let from = envelope.from.clone();
        let checksum = envelope.checksum;
        let now = net.now();
        self.quarantine(DeadLetterReason::DecodeFailure(reason), envelope, now);
        if let Ok(partner) = self.partners.name_of(&from).map(str::to_string) {
            let tripped = self.health.record_failure(&partner, now);
            let poisoned = self.health.record_poison(&partner, checksum, now);
            if tripped || poisoned {
                self.trip_partner(net, &partner)?;
            }
        }
        Ok(())
    }

    /// Routes an inbound failure notification: the counterparty's half of
    /// the interaction failed, so ours terminates deterministically.
    pub(crate) fn handle_notify(&mut self, net: &mut SimNetwork, envelope: Envelope) -> Result<()> {
        let notice = match Edge::parse_notice(&envelope) {
            Ok(notice) => notice,
            Err(e) => return self.reject_undecodable(net, envelope, e.to_string()),
        };
        self.stats.notifications_received += 1;
        // Correlations starting with `*` are partner-level signals (e.g.
        // `*overload:<name>` shed notices), not session-bound failures:
        // they are counted but never quarantined and kill no session.
        if notice.correlation.starts_with('*') {
            return Ok(());
        }
        // Route by the *authenticated* sender endpoint, not the claimed
        // reporter name.
        let Ok(partner) = self.partners.name_of(&envelope.from).map(str::to_string) else {
            self.stats.unroutable += 1;
            self.quarantine(
                DeadLetterReason::Unroutable(format!(
                    "failure notice from unknown endpoint {}",
                    envelope.from
                )),
                envelope,
                net.now(),
            );
            return Ok(());
        };
        let correlation = CorrelationId::new(notice.correlation.clone());
        let Some(index) = self.table.index_of(&correlation, &partner) else {
            self.stats.unroutable += 1;
            self.quarantine(
                DeadLetterReason::Unroutable(format!(
                    "failure notice for unknown session {} with `{partner}`",
                    notice.correlation
                )),
                envelope,
                net.now(),
            );
            return Ok(());
        };
        self.table.mark_failure(
            index,
            format!("partner `{partner}` reported failure: {}", notice.reason),
            false,
        );
        // Never echo a notification back for a failure the partner told
        // us about.
        self.table.set_notified(index);
        Ok(())
    }

    /// Routes one inbound payload: decode at the edge, then hand the
    /// document to the session's public process (creating the session
    /// when the document starts a new interaction). Only queues and
    /// schedules — the execute stage does the stepping.
    pub(crate) fn route_inbound(&mut self, net: &mut SimNetwork, envelope: Envelope) -> Result<()> {
        let doc = match self.edge.decode(&envelope) {
            Ok(doc) => doc,
            Err(e) => return self.reject_undecodable(net, envelope, e.to_string()),
        };
        self.stats.wire_received += 1;
        let correlation = doc.correlation().clone();
        let Ok(partner) = self.partners.name_of(&envelope.from) else {
            self.stats.unroutable += 1;
            let from = envelope.from.clone();
            self.quarantine(
                DeadLetterReason::Unroutable(format!("unknown partner endpoint {from}")),
                envelope,
                net.now(),
            );
            return Ok(());
        };
        let partner = partner.to_string();
        // A cleanly decoded payload is evidence the partner works: it
        // resets the breaker's failure streak (and walks a half-open
        // breaker toward closed).
        self.health.record_success(&partner);
        if let Some(index) = self.table.index_of(&correlation, &partner) {
            let public = self.table.session(index).public;
            if !matches!(self.wf.status(public), Ok(InstanceStatus::Running)) {
                // A late or repeated document for a finished session has
                // nowhere to go. It is dead-lettered like a document for
                // an unknown session, and the rest of the batch, already
                // acknowledged, routes on.
                self.stats.unroutable += 1;
                self.quarantine(
                    DeadLetterReason::Unroutable(format!(
                        "{} from `{partner}` for finished session {correlation}",
                        doc.kind()
                    )),
                    envelope,
                    net.now(),
                );
                return Ok(());
            }
            self.wf.enqueue_to(public, channels::wire_in(), doc)?;
            self.profile.counters.routed_documents += 1;
            return Ok(());
        }
        // New inbound interaction: find the agreement for (partner, format)
        // where we respond.
        let agreement = self.agreements.values().find(|a| {
            a.format == envelope.format && a.responder == self.name && a.initiator == partner
        });
        let Some(agreement) = agreement else {
            self.stats.unroutable += 1;
            self.quarantine(
                DeadLetterReason::Unroutable(format!(
                    "no agreement with `{partner}` for format {}",
                    envelope.format
                )),
                envelope,
                net.now(),
            );
            return Ok(());
        };
        if doc.kind().reply_kind().is_none() {
            // Not an interaction-initiating document.
            self.stats.unroutable += 1;
            self.quarantine(
                DeadLetterReason::Unroutable(format!(
                    "{} from `{partner}` starts no known interaction",
                    doc.kind()
                )),
                envelope,
                net.now(),
            );
            return Ok(());
        }
        let public_type = &self.public_types[&agreement.id];
        let binding_type = self.wire_bindings[&agreement.format].for_role(BindingRole::Responder);
        let public = self.wf.create_instance(public_type, BTreeMap::new(), &partner, &self.name)?;
        let binding =
            self.wf.create_instance(binding_type, BTreeMap::new(), &partner, &self.name)?;
        self.table.insert(NewSession {
            correlation: correlation.as_str(),
            agreement_id: &agreement.id,
            role: BindingRole::Responder,
            partner: &partner,
            public,
            binding,
            private: None,
            backend: None,
        });
        self.stats.sessions_started += 1;
        self.wf.schedule(public);
        self.wf.schedule(binding);
        self.wf.enqueue_to(public, channels::wire_in(), doc)?;
        self.profile.counters.routed_documents += 1;
        Ok(())
    }

    /// Queues back-end output documents against their sessions' back-end
    /// bindings.
    pub(crate) fn poll_backends(&mut self) -> Result<()> {
        for app in self.backends.values_mut() {
            for poa in app.poll()? {
                let bb = self
                    .table
                    .indices_of_correlation(poa.correlation())
                    .find_map(|i| self.table.session(i).backend_binding);
                let Some(bb) = bb else {
                    self.stats.unroutable += 1;
                    continue;
                };
                self.wf.enqueue_to(bb, channels::from_app(), poa)?;
                self.profile.counters.routed_documents += 1;
            }
        }
        Ok(())
    }

    /// Routes one emitted document to its peer — queueing, never stepping.
    /// Wire sends happen here, in the canonical order of the sorted
    /// outbox, so the network's fault-decision stream is a function of
    /// what ran.
    ///
    /// Takes the outbox's `Arc<Document>` as-is: queueing into the next
    /// instance or handing it to a back end passes that same `Arc`, so a
    /// document crossing the process layers is never copied in transit.
    /// A wire-bound document is encoded here, only once no shed can
    /// discard it.
    pub(crate) fn route_one(
        &mut self,
        net: &mut SimNetwork,
        from: InstanceId,
        channel: &ChannelId,
        doc: Arc<Document>,
    ) -> Result<()> {
        let index =
            self.table.index_of_instance(from).ok_or(RouteError::NoSession { instance: from })?;
        match channel.as_str() {
            // Public process → binding.
            "to-binding" => {
                let binding = self.table.session(index).binding;
                self.wf.enqueue_to(binding, channels::from_public(), doc)?;
            }
            // Public process → wire.
            "wire:out" => {
                let session = self.table.session(index);
                let partner_name = session.partner.clone();
                let agreement = &self.agreements[&*session.agreement_id];
                let format = agreement.format.clone();
                let partner_endpoint = self.partners.by_name(&partner_name)?.endpoint.clone();
                // A protocol-level WaitReceipt bounds this send's lifetime.
                let deadline = self.receipt_deadlines.get(&*session.agreement_id).copied();
                // An open breaker sheds the send and fails the session
                // fast: no retry budget is spent on a partner already
                // declared dead.
                if !self.health.allows_send(&partner_name) {
                    self.stats.shed += 1;
                    self.health.stats_mut().shed_outbound += 1;
                    self.health.stats_mut().fast_failed_sessions += 1;
                    self.table.mark_failure(
                        index,
                        format!("circuit breaker open for `{partner_name}`: send shed"),
                        false,
                    );
                    return Ok(());
                }
                if self.health.policy().pump_send_budget == usize::MAX
                    && self.pending_sends.is_empty()
                {
                    // Unbounded budget: send directly, exactly as before
                    // the health subsystem existed.
                    let bytes = self.edge.encode(&doc)?;
                    let msg =
                        self.edge.send_payload(net, &partner_endpoint, format, bytes, deadline)?;
                    self.outstanding_wire.insert(msg, index);
                    self.stats.wire_sent += 1;
                    return Ok(());
                }
                // Finite budget: the send joins the bounded FIFO queue
                // (flushed each pump with whatever budget retransmissions
                // leave over); overflow is shed-with-failure, not OOM.
                let queued =
                    self.pending_sends.iter().filter(|p| p.partner == partner_name).count();
                if queued >= self.health.policy().outbound_queue_cap {
                    self.stats.shed += 1;
                    self.health.stats_mut().shed_outbound += 1;
                    self.table.mark_failure(
                        index,
                        format!("outbound queue to `{partner_name}` full: send shed"),
                        false,
                    );
                    return Ok(());
                }
                let bytes = self.edge.encode(&doc)?;
                self.pending_sends.push_back(PendingSend {
                    session: index,
                    partner: partner_name,
                    endpoint: partner_endpoint,
                    format,
                    bytes,
                    deadline_ms: deadline,
                });
            }
            // Binding → private process.
            "to-private" => {
                let private = match self.table.session(index).private {
                    Some(id) => id,
                    None => {
                        // Responder side: create the private process now,
                        // selected by the document kind.
                        let partner = self.table.session(index).partner.clone();
                        let backend = self.select_backend(&partner, &doc)?;
                        let target = backend.clone().unwrap_or_else(|| self.name.clone());
                        let private_type = Self::responder_private_for(doc.kind())?;
                        let id = self.wf.create_instance(
                            private_type,
                            BTreeMap::new(),
                            &partner,
                            &target,
                        )?;
                        self.table.set_private(index, id, backend);
                        self.wf.schedule(id);
                        id
                    }
                };
                self.wf.enqueue_to(private, channels::private_in(), doc)?;
            }
            // Binding → public process.
            "to-public" => {
                let public = self.table.session(index).public;
                self.wf.enqueue_to(public, channels::from_binding(), doc)?;
            }
            // Private process → binding.
            "out" => {
                let binding = self.table.session(index).binding;
                self.wf.enqueue_to(binding, channels::from_private(), doc)?;
            }
            // Private process → back-end binding.
            "to-backend" => {
                let bb = match self.table.session(index).backend_binding {
                    Some(id) => id,
                    None => {
                        let Some(backend) = self.table.session(index).backend.clone() else {
                            return Err(RouteError::NoBackendTarget {
                                correlation: self.table.session(index).correlation.to_string(),
                            }
                            .into());
                        };
                        let session = self.table.session(index);
                        let binding_type = self
                            .backend_bindings
                            .get(&*backend)
                            .expect("session backend validated at selection")
                            .for_role(session.role);
                        let id = self.wf.create_instance(
                            binding_type,
                            BTreeMap::new(),
                            &session.partner,
                            &backend,
                        )?;
                        self.table.set_backend_binding(index, id);
                        self.wf.schedule(id);
                        id
                    }
                };
                self.wf.enqueue_to(bb, channels::from_private(), doc)?;
            }
            // Back-end binding → application process.
            "to-app" => {
                let Some(backend) = self.table.session(index).backend.clone() else {
                    return Err(RouteError::MissingBackend.into());
                };
                self.backends
                    .get_mut(&*backend)
                    .expect("session backend validated at selection")
                    .handle(&doc)?;
            }
            // Back-end binding → private process.
            "backend-out" => {
                let Some(private) = self.table.session(index).private else {
                    return Err(RouteError::MissingPrivate.into());
                };
                self.wf.enqueue_to(private, channels::from_backend(), doc)?;
            }
            other => {
                return Err(RouteError::UnknownChannel {
                    instance: from,
                    channel: other.to_string(),
                }
                .into())
            }
        }
        Ok(())
    }

    pub(crate) fn initiator_private_for(kind: DocKind) -> Result<&'static WorkflowTypeId> {
        match kind {
            DocKind::PurchaseOrder => Ok(initiator_private_id()),
            DocKind::RequestForQuote => Ok(rfq_submission_id()),
            other => {
                Err(IntegrationError::Config(format!("no initiator private process for {other}")))
            }
        }
    }

    pub(crate) fn responder_private_for(kind: DocKind) -> Result<&'static WorkflowTypeId> {
        match kind {
            DocKind::PurchaseOrder => Ok(responder_private_id()),
            DocKind::RequestForQuote => Ok(quote_generation_id()),
            other => {
                Err(IntegrationError::Config(format!("no responder private process for {other}")))
            }
        }
    }

    pub(crate) fn select_backend(&self, partner: &str, doc: &Document) -> Result<Option<String>> {
        // Back ends only participate in order flows; quotes are computed
        // by rules alone.
        if doc.kind() != DocKind::PurchaseOrder {
            return Ok(None);
        }
        if self.backends.is_empty() {
            return Ok(None);
        }
        if self.wf.rules().function_exists(SELECT_BACKEND_RULE) {
            let value = self.wf.rules().invoke(SELECT_BACKEND_RULE, partner, "", doc)?;
            let name =
                value.as_text("select-backend result").map_err(IntegrationError::from)?.to_string();
            if !self.backends.contains_key(&name) {
                return Err(IntegrationError::Config(format!(
                    "select-backend chose unknown backend `{name}`"
                )));
            }
            return Ok(Some(name));
        }
        if self.backends.len() == 1 {
            return Ok(self.backends.keys().next().cloned());
        }
        Err(IntegrationError::Config("multiple backends but no `select-backend` rule".to_string()))
    }
}
