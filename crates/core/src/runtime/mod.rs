//! The layered session runtime.
//!
//! One [`IntegrationEngine::pump`] is a fixed pipeline of stages:
//!
//! 1. **edge** — drain the reliable endpoint; decode/verify bytes;
//!    quarantine rejects ([`edge`]).
//! 2. **route** — map documents to sessions; create responder sessions;
//!    queue documents into instances ([`route`]). Owns session creation
//!    and the instance-id allocator.
//! 3. **execute** — settle all runnable instances to quiescence on the
//!    calling thread ([`b2b_wfms::Engine::settle`]).
//! 4. **emit** — drain the canonically sorted outbox; wire sends and
//!    cross-instance hand-offs happen here, in deterministic order.
//!
//! Stages 3 and 4 alternate until the outbox stays empty, then failure
//! containment runs (retransmission deadlines, dead-lettering, failure
//! notifications). Every stage visits its work in a canonical order, so
//! two runs with the same inputs are byte-identical.

pub mod edge;
pub mod route;

pub use edge::EdgeError;
pub use route::RouteError;

use crate::engine::IntegrationEngine;
use crate::error::Result;
use crate::session::SessionState;
use b2b_network::{EndpointId, Envelope, MessageId, SimNetwork};
use b2b_protocol::FailureNotice;
use std::collections::BTreeMap;
use std::time::Instant;

impl IntegrationEngine {
    /// Runs one pipeline pass: edge → route → (execute ⇄ emit) →
    /// failure containment. Call repeatedly, advancing the network
    /// in between, to drive interactions to completion.
    ///
    /// Each pass feeds the per-stage [`crate::metrics::StageProfile`]:
    /// deterministic counters (what each stage processed) and wall-clock
    /// timers (where the time went).
    pub fn pump(&mut self, net: &mut SimNetwork) -> Result<()> {
        self.profile.counters.pumps += 1;
        // Stage 0: let protocol timers (receipt deadlines, timeouts) fall
        // due — their instances only become runnable here and execute in
        // the settle of stage 3, together with any deferred initiation
        // wave — and promote expired `Open` breakers to `HalfOpen` at a
        // fixed point in the pipeline (never lazily mid-stage) so breaker
        // state is a pure function of the trace.
        self.wf.advance_clock(net.now())?;
        self.health.advance(net.now());

        // Stage 1: the edge drains the wire and classifies traffic.
        let edge_started = Instant::now();
        let batch = self.edge.reliable.receive_classified(net)?;
        self.profile.timers.edge_ns += edge_started.elapsed().as_nanos() as u64;
        self.profile.counters.edge_notices += batch.notices.len() as u64;
        self.profile.counters.edge_payloads += batch.payloads.len() as u64;
        self.profile.counters.edge_duplicates += batch.duplicates;

        // Stage 2: routing, in canonical order. A flooding partner is
        // capped here: beyond `inbound_queue_cap` payloads per pump its
        // excess is shed (with one overload notice), not queued to OOM.
        let route_started = Instant::now();
        for envelope in batch.notices {
            self.handle_notify(net, envelope)?;
        }
        // Each fresh payload is decoded once, in arrival order, and routed
        // right away; suppressed duplicates never reach this stage.
        for envelope in self.cap_inbound(net, batch.payloads)? {
            self.route_inbound(net, envelope)?;
        }
        self.poll_backends()?;
        self.profile.timers.route_ns += route_started.elapsed().as_nanos() as u64;

        // Stages 3+4: execute and emit, alternating to a fixpoint.
        self.settle_and_route(net)?;

        // Stage 5: wire health. Retransmissions run under the pump send
        // budget; permanent failures fail their sessions, feed the
        // breaker, and are dead-lettered; then the acks drained in stage 1
        // close breaker streaks and release their sends; the bounded send
        // queue flushes with the leftover budget.
        let budget = self.health.policy().pump_send_budget;
        let retries_before = self.edge.reliable.stats().retries;
        let failed = self.edge.reliable.tick_budgeted(net, budget)?;
        let retransmitted = (self.edge.reliable.stats().retries - retries_before) as usize;
        for (envelope, attempts) in failed {
            self.fail_wire_delivery(net, envelope, attempts)?;
        }
        self.apply_acks(batch.acked);
        self.flush_pending_sends(net, budget.saturating_sub(retransmitted))?;

        // Stage 6: failure containment — tell counterparties about
        // sessions that died on our side.
        self.notify_failed_sessions(net)?;

        self.profile.settle = self.wf.settle_metrics();
        Ok(())
    }

    /// Handles one permanently failed wire envelope: its owning session
    /// fails, the envelope is quarantined (linked to its origin letter if
    /// it was a replay), and the failure feeds the partner's breaker —
    /// tripping it abandons every other outstanding send on that link.
    fn fail_wire_delivery(
        &mut self,
        net: &mut SimNetwork,
        envelope: Envelope,
        attempts: u32,
    ) -> Result<()> {
        if let Some(index) = self.outstanding_wire.remove(&envelope.id) {
            self.stats.delivery_failures += 1;
            self.table.mark_failure(
                index,
                format!(
                    "wire delivery of {} failed permanently after {attempts} attempts",
                    envelope.id
                ),
                true,
            );
        }
        let partner = self.partners.name_of(&envelope.to).ok().map(str::to_string);
        self.quarantine_delivery_failure(envelope, attempts, net.now());
        if let Some(partner) = partner {
            if self.health.record_failure(&partner, net.now()) {
                self.trip_partner(net, &partner)?;
            }
        }
        Ok(())
    }

    /// Applies one pump's acknowledgments: each acknowledged payload is
    /// an observed delivery success for its partner's breaker and leaves
    /// the outstanding-wire map; an acknowledged replay, notices
    /// included, drops its provenance entry.
    fn apply_acks(&mut self, acked: Vec<MessageId>) {
        for id in acked {
            if let Some(index) = self.outstanding_wire.remove(&id) {
                let partner = self.table.session(index).partner.clone();
                self.health.record_success(&partner);
            }
            self.replay_origins.remove(&id);
        }
    }

    /// Applies the per-partner inbound cap to one pump's payload batch:
    /// the first `inbound_queue_cap` payloads per source endpoint pass,
    /// the excess is shed and each overloading partner is told once (an
    /// `*overload:` notice — partner-level, so it kills no session on the
    /// other side). Unbounded caps return the batch untouched.
    fn cap_inbound(
        &mut self,
        net: &mut SimNetwork,
        payloads: Vec<Envelope>,
    ) -> Result<Vec<Envelope>> {
        let cap = self.health.policy().inbound_queue_cap;
        if cap == usize::MAX || payloads.is_empty() {
            return Ok(payloads);
        }
        let mut counts: BTreeMap<EndpointId, usize> = BTreeMap::new();
        let mut kept = Vec::with_capacity(payloads.len());
        let mut overloaded: Vec<EndpointId> = Vec::new();
        for envelope in payloads {
            let seen = counts.entry(envelope.from.clone()).or_insert(0);
            *seen += 1;
            if *seen <= cap {
                kept.push(envelope);
            } else {
                if *seen == cap + 1 {
                    overloaded.push(envelope.from.clone());
                }
                self.health.stats_mut().shed_inbound += 1;
            }
        }
        for endpoint in overloaded {
            let Ok(partner) = self.partners.name_of(&endpoint).map(str::to_string) else {
                continue; // unknown flooder: shed silently, nothing to notify
            };
            if !self.health.allows_send(&partner) {
                self.health.stats_mut().shed_notices += 1;
                continue;
            }
            let notice = FailureNotice::new(
                format!("*overload:{partner}"),
                String::new(),
                self.name.clone(),
                format!("inbound cap of {cap} payloads per pump exceeded; excess shed"),
            );
            let payload = self.edge.encode_notice(&notice).map_err(|e| {
                crate::error::IntegrationError::Config(format!("encoding notice: {e}"))
            })?;
            self.edge.send_notice(net, &endpoint, payload)?;
            self.stats.notifications_sent += 1;
        }
        Ok(kept)
    }

    /// Flushes the bounded outbound queue, oldest first, up to `budget`
    /// sends. Entries whose partner's breaker opened while they waited
    /// are shed (failing their sessions fast) without consuming budget.
    /// Under an unbounded budget the queue is always empty and this is a
    /// no-op.
    fn flush_pending_sends(&mut self, net: &mut SimNetwork, mut budget: usize) -> Result<()> {
        while budget > 0 {
            let Some(pending) = self.pending_sends.pop_front() else {
                break;
            };
            if !self.health.allows_send(&pending.partner) {
                self.stats.shed += 1;
                self.health.stats_mut().shed_outbound += 1;
                self.health.stats_mut().fast_failed_sessions += 1;
                self.table.mark_failure(
                    pending.session,
                    format!("circuit breaker open for `{}`: queued send shed", pending.partner),
                    false,
                );
                continue;
            }
            let msg = self.edge.send_payload(
                net,
                &pending.endpoint,
                pending.format,
                pending.bytes,
                pending.deadline_ms,
            )?;
            self.outstanding_wire.insert(msg, pending.session);
            self.stats.wire_sent += 1;
            budget -= 1;
        }
        Ok(())
    }

    /// Alternates the execute and emit stages until quiescent, then
    /// refreshes the session table from the instances that ran.
    pub(crate) fn settle_and_route(&mut self, net: &mut SimNetwork) -> Result<()> {
        loop {
            let execute_started = Instant::now();
            self.wf.settle()?;
            self.profile.timers.execute_ns += execute_started.elapsed().as_nanos() as u64;
            self.profile.counters.settle_passes += 1;
            // The outbox is sorted by (instance, channel): emission order
            // is a function of what ran, not of the order it ran in.
            let outputs = self.wf.drain_outbox();
            if outputs.is_empty() {
                break;
            }
            let emit_started = Instant::now();
            self.profile.counters.emitted_documents += outputs.len() as u64;
            for (from, channel, doc) in outputs {
                self.route_one(net, from, &channel, doc)?;
            }
            self.profile.timers.emit_ns += emit_started.elapsed().as_nanos() as u64;
        }
        let touched = self.wf.drain_touched();
        self.table.refresh_instances(&self.wf, &touched);
        Ok(())
    }

    /// Sends a failure notification for every failed, not-yet-notified
    /// session, so counterparties can terminate their half deterministically
    /// instead of waiting forever.
    ///
    /// Visits only the [`SessionTable`]'s pending-failed index — healthy
    /// pumps pay nothing here, where this used to scan (and clone the
    /// state of) every session on every pass.
    pub(crate) fn notify_failed_sessions(&mut self, net: &mut SimNetwork) -> Result<()> {
        if self.table.pending_failed().next().is_none() {
            return Ok(());
        }
        // Snapshot the indices: `set_notified` edits the index while we
        // walk. The set is ascending, matching the historical scan order.
        let pending: Vec<usize> = self.table.pending_failed().collect();
        for index in pending {
            // The index invariant guarantees Failed-and-unnotified; keep
            // the checks as a cheap guard against future drift.
            if self.table.session(index).notified {
                continue;
            }
            let SessionState::Failed(reason) = self.table.state(index) else {
                continue;
            };
            let reason = reason.clone();
            self.table.set_notified(index);
            let session = self.table.session(index);
            let Ok(partner) = self.partners.by_name(&session.partner) else {
                continue;
            };
            // A notice to a partner whose breaker is open would just feed
            // the retry storm the breaker exists to stop; shed it. The
            // session stays notified — the notice is best-effort anyway.
            if !self.health.allows_send(&session.partner) {
                self.health.stats_mut().shed_notices += 1;
                continue;
            }
            let endpoint = partner.endpoint.clone();
            let notice = FailureNotice::new(
                session.correlation.to_string(),
                session.agreement_id.to_string(),
                self.name.clone(),
                reason,
            );
            let payload = self.edge.encode_notice(&notice).map_err(|e| {
                crate::error::IntegrationError::Config(format!("encoding notice: {e}"))
            })?;
            self.edge.send_notice(net, &endpoint, payload)?;
            self.stats.notifications_sent += 1;
        }
        Ok(())
    }
}
