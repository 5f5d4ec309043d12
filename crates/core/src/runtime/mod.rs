//! The layered session runtime.
//!
//! One [`IntegrationEngine::pump`] is a fixed pipeline of stages:
//!
//! 1. **edge** — drain the reliable endpoint; decode/verify bytes;
//!    quarantine rejects ([`edge`]).
//! 2. **route** — map documents to sessions; create responder sessions;
//!    queue documents into instances ([`route`]). Single-threaded: owns
//!    session creation and the instance-id allocator.
//! 3. **execute** — settle all runnable instances to quiescence,
//!    sharded across workers by session identity
//!    ([`b2b_wfms::Engine::settle`]).
//! 4. **emit** — drain the canonically sorted outbox; wire sends and
//!    cross-instance hand-offs happen here, in deterministic order.
//!
//! Stages 3 and 4 alternate until the outbox stays empty, then failure
//! containment runs (retransmission deadlines, dead-lettering, failure
//! notifications). Because routing is sequential, the outbox order is
//! canonical, and shard assignment is a pure function of session
//! identity, a run with `shards = N` is byte-identical to `shards = 1`.

pub mod edge;
pub mod route;

pub use edge::EdgeError;
pub use route::RouteError;

use crate::engine::{IntegrationEngine, WireOwners};
use crate::error::Result;
use crate::session::SessionState;
use b2b_document::Document;
use b2b_network::{
    decode_batch_frame, DeliveryStatus, EndpointId, Envelope, MessageId, SimNetwork, WireClass,
};
use b2b_protocol::FailureNotice;
use b2b_wfms::{ChannelId, InstanceId};
use std::collections::BTreeMap;
use std::sync::Arc;
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
        // the sharded settle of stage 3, together with any deferred
        // initiation wave — and promote expired `Open` breakers to
        // `HalfOpen` at a fixed point in the pipeline (never lazily
        // mid-stage) so breaker state is a pure function of the trace.
        self.wf.advance_clock(net.now())?;
        self.health.advance(net.now());

        // Stage 1: the edge drains the wire and classifies traffic.
        let edge_started = Instant::now();
        let batch = self.edge.receive(net)?;
        self.profile.timers.edge_ns += edge_started.elapsed().as_nanos() as u64;
        self.profile.counters.edge_notices += batch.notices.len() as u64;
        self.profile.counters.edge_payloads += batch.payloads.len() as u64;
        self.profile.counters.edge_duplicates += batch.duplicates.len() as u64;

        // Stage 2: routing — sequential, canonical. A flooding partner is
        // capped here: beyond `inbound_queue_cap` payloads per pump its
        // excess is shed (with one overload notice), not queued to OOM.
        let route_started = Instant::now();
        for envelope in batch.notices {
            self.handle_notify(net, envelope)?;
        }
        let payloads = self.cap_inbound(net, batch.payloads)?;
        // Decode the whole batch up front — predicted memo misses parse
        // on the worker pool — then route sequentially in arrival order.
        // The replay inside `decode_batch` keeps results, counters, and
        // memo state byte-identical to envelope-at-a-time decoding.
        let chunk = self.wf.steal_chunk_or(8);
        let decoded = self.edge.decode_batch(&payloads, self.wf.pool(), chunk);
        for (envelope, result) in payloads.into_iter().zip(decoded) {
            self.route_inbound_decoded(net, envelope, result)?;
        }
        // Suppressed duplicates are never routed; they only tell the
        // decode memo how many re-parses it saved.
        for envelope in &batch.duplicates {
            self.edge.note_duplicate(envelope);
        }
        self.poll_backends()?;
        self.profile.timers.route_ns += route_started.elapsed().as_nanos() as u64;

        // Stages 3+4: execute (sharded) and emit, alternating to a
        // fixpoint.
        self.settle_and_route(net)?;

        // Stage 5: wire health. Retransmissions run under the pump send
        // budget; permanent failures fail their sessions, feed the
        // breaker, and are dead-lettered; acknowledged sends are swept
        // (closing breaker streaks and reclaiming their ledger entries);
        // the bounded send queue flushes with the leftover budget.
        let budget = self.health.policy().pump_send_budget;
        let retries_before = self.edge.stats().retries;
        let failed = self.edge.tick_budgeted(net, budget)?;
        let retransmitted = (self.edge.stats().retries - retries_before) as usize;
        for envelope in failed {
            self.fail_wire_delivery(net, envelope)?;
        }
        self.sweep_acknowledged();
        self.flush_pending_sends(net, budget.saturating_sub(retransmitted))?;

        // Stage 6: failure containment — tell counterparties about
        // sessions that died on our side.
        self.notify_failed_sessions(net)?;

        // Snapshot pool counters (wall-clock-ish diagnostics, never part
        // of the deterministic fingerprint) and settle-cost counters
        // (deterministic except for the shard-layout-dependent moves).
        self.profile.pool = self.wf.pool_stats();
        self.profile.settle = self.wf.settle_metrics();
        Ok(())
    }

    /// Handles one permanently failed wire envelope: every owning session
    /// fails, the envelope is quarantined (linked to its origin letter if
    /// it was a replay), and the failure feeds the partner's breaker —
    /// tripping it abandons every other outstanding send on that link.
    ///
    /// A failed coalesced frame is accounted per document: each owning
    /// session fails, the frame splits into per-document dead letters,
    /// and the breaker is fed one failure per document — the same ledger
    /// a sequential run of per-document sends would have produced.
    fn fail_wire_delivery(&mut self, net: &mut SimNetwork, envelope: Envelope) -> Result<()> {
        let attempts = self.edge.attempts(&envelope.id);
        if let Some(owners) = self.outstanding_wire.remove(&envelope.id) {
            for &index in owners.as_slice() {
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
        }
        let partner = self.partners.name_of(&envelope.to).ok().map(str::to_string);
        let letters = self.quarantine_split(net, envelope, attempts);
        if let Some(partner) = partner {
            for _ in 0..letters {
                // Once a failure trips the breaker open, further calls
                // are no-ops, so per-document accounting cannot
                // double-trip.
                if self.health.record_failure(&partner, net.now()) {
                    self.trip_partner(net, &partner)?;
                }
            }
        }
        Ok(())
    }

    /// Quarantines a permanently failed wire envelope, splitting a
    /// coalesced batch frame back into per-document dead letters (each a
    /// plain payload envelope an operator can inspect and replay
    /// individually) so the dead-letter queue never learns about frames.
    /// Returns how many letters were written.
    pub(crate) fn quarantine_split(
        &mut self,
        net: &mut SimNetwork,
        envelope: Envelope,
        attempts: u32,
    ) -> usize {
        if envelope.class == WireClass::Batch {
            if let Some(parts) = decode_batch_frame(&envelope.payload) {
                let count = parts.len();
                for part in parts {
                    let id = net.alloc_message_id();
                    let letter = Envelope::payload_with_id(
                        id,
                        envelope.from.clone(),
                        envelope.to.clone(),
                        envelope.format.clone(),
                        part,
                        envelope.sent_at,
                    );
                    self.quarantine_delivery_failure(letter, attempts, net.now());
                }
                return count;
            }
        }
        self.quarantine_delivery_failure(envelope, attempts, net.now());
        1
    }

    /// Sweeps the outstanding-wire ledger for acknowledged messages:
    /// each is an observed delivery success for its partner's breaker,
    /// and its ledger entry is reclaimed (acknowledged entries used to
    /// accumulate for the life of the engine).
    fn sweep_acknowledged(&mut self) {
        let acked: Vec<(MessageId, WireOwners)> = self
            .outstanding_wire
            .iter()
            .filter(|(id, _)| self.edge.delivery_status(id) == DeliveryStatus::Acknowledged)
            .map(|(id, owners)| (id.clone(), owners.clone()))
            .collect();
        for (id, owners) in acked {
            self.outstanding_wire.remove(&id);
            self.replay_origins.remove(&id);
            // An acked frame is a delivery success per document, mirroring
            // the per-document failures a failed frame books.
            for &index in owners.as_slice() {
                let partner = self.table.session(index).partner.clone();
                self.health.record_success(&partner);
            }
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
            self.outstanding_wire.insert(msg, WireOwners::One(pending.session));
            self.stats.wire_sent += 1;
            budget -= 1;
        }
        Ok(())
    }

    /// Alternates the execute and emit stages until quiescent, then
    /// refreshes the session table from the instances that ran.
    ///
    /// Execution is sharded: each session's instances are pinned to a
    /// worker chosen by a hash of `(correlation, partner)`, so every
    /// instance of one session always settles on the same worker
    /// regardless of the shard count.
    pub(crate) fn settle_and_route(&mut self, net: &mut SimNetwork) -> Result<()> {
        loop {
            let execute_started = Instant::now();
            {
                let table = &self.table;
                self.wf.settle(self.shards, &|id| table.shard_of_instance(id) as usize)?;
            }
            self.profile.timers.execute_ns += execute_started.elapsed().as_nanos() as u64;
            self.profile.counters.settle_passes += 1;
            // The outbox is sorted by (instance, channel): emission order
            // is a function of what ran, not of which worker ran it.
            let outputs = self.wf.drain_outbox();
            if outputs.is_empty() {
                break;
            }
            let emit_started = Instant::now();
            self.profile.counters.emitted_documents += outputs.len() as u64;
            self.emit_outputs(net, outputs)?;
            self.profile.timers.emit_ns += emit_started.elapsed().as_nanos() as u64;
        }
        let touched = self.wf.drain_touched();
        self.table.refresh_instances(&self.wf, &touched);
        Ok(())
    }

    /// Routes one emit pass's outbox, the outbound mirror of the decode
    /// batch (PR 10): wire-bound documents are pre-encoded as one batch
    /// on the worker pool into pooled buffers, then every output replays
    /// sequentially through [`route_one_pre`](Self::route_one_pre) in
    /// canonical outbox order, so outcomes are byte-identical to the
    /// per-document path — the parallel phase only pre-computes encodes
    /// the replay would have done inline. Coalesced frames accumulated
    /// during the replay are flushed at the end of the pass.
    fn emit_outputs(
        &mut self,
        net: &mut SimNetwork,
        outputs: Vec<(InstanceId, ChannelId, Arc<Document>)>,
    ) -> Result<()> {
        let mut pre: BTreeMap<
            usize,
            std::result::Result<b2b_network::Bytes, b2b_document::DocumentError>,
        > = BTreeMap::new();
        if self.emit_batch && outputs.len() > 1 {
            // Pre-encode every wire-bound document with a known session.
            // A document that the replay then sheds (breaker open, queue
            // full) wastes its encode but books nothing — the replay only
            // notes pre-computed encodes where the sequential path would
            // have encoded.
            let jobs: Vec<usize> = outputs
                .iter()
                .enumerate()
                .filter(|(_, (from, channel, _))| {
                    channel.as_str() == "wire:out" && self.table.index_of_instance(*from).is_some()
                })
                .map(|(i, _)| i)
                .collect();
            if jobs.len() > 1 {
                let docs: Vec<&Document> = jobs.iter().map(|&i| outputs[i].2.as_ref()).collect();
                let chunk = self.wf.steal_chunk_or(8);
                let (results, warm) = self.edge.encode_batch(&docs, self.wf.pool(), chunk);
                self.profile.counters.encode_batches += 1;
                self.profile.counters.emit_buffer_reuses += warm;
                pre = jobs.into_iter().zip(results).collect();
            }
        }
        for (i, (from, channel, doc)) in outputs.into_iter().enumerate() {
            let pre_bytes = pre.remove(&i);
            self.route_one_pre(net, from, &channel, doc, pre_bytes)?;
        }
        self.flush_emit_frames(net)
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
