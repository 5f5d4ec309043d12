//! RNIF-style reliable messaging.
//!
//! RosettaNet's RNIF "provides a specification how messages are exchanged
//! reliably over the Internet using techniques like message level
//! acknowledgments, time-outs and sending retries" (Section 5.1). Public
//! processes assume this layer exists; this module is it.
//!
//! One [`ReliableEndpoint`] per enterprise gateway. Sending buffers the
//! envelope for retransmission until an acknowledgment arrives, retries
//! are exhausted, or the per-message deadline passes; receiving verifies
//! the payload checksum *before* acknowledging (corrupt copies are NACKed
//! so a retransmission heals them), acknowledges, and suppresses
//! duplicates by message id. Only the endpoint a message was sent to can
//! acknowledge or NACK it. Retransmit intervals follow a configurable
//! [`BackoffPolicy`]; the exponential policy decorrelates retry storms
//! with jitter that is a pure function of (seed, message, attempt), so
//! runs stay deterministic and snapshots replay identically.
//!
//! Every send ends exactly once, and the call that ends it reports it:
//! an acknowledgment in [`InboundBatch::acked`] from
//! [`receive_classified`](ReliableEndpoint::receive_classified), a
//! failure (with its attempt count) in the return value of
//! [`tick`](ReliableEndpoint::tick),
//! [`tick_budgeted`](ReliableEndpoint::tick_budgeted) or
//! [`abandon_to`](ReliableEndpoint::abandon_to). The endpoint keeps no
//! record of a send once it has ended; what it remembers per message is
//! the outstanding sends and the ids already delivered upward.
//!
//! That state serializes to a [`ReliableSnapshot`], letting an
//! integration engine checkpoint in-flight conversations and resume them
//! after a crash without re-delivering or silently dropping anything.

use crate::clock::SimTime;
use crate::error::Result;
use crate::message::{EndpointId, Envelope, MessageId, WireClass};
use crate::sim::SimNetwork;
use b2b_document::FormatId;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How the retransmit interval evolves across attempts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BackoffPolicy {
    /// Constant interval between retransmissions (the classic RNIF
    /// behavior).
    Fixed,
    /// Interval doubles per attempt up to `max_interval_ms`, then a
    /// deterministic jitter of ±`jitter` (a fraction of the interval) is
    /// applied so simultaneous senders do not retransmit in lockstep.
    Exponential {
        /// Upper bound on the un-jittered interval.
        max_interval_ms: u64,
        /// Jitter fraction in `[0, 1)`; 0 disables jitter.
        jitter: f64,
    },
}

impl BackoffPolicy {
    /// Milliseconds to wait after send number `attempt` (1 = the initial
    /// send). Deterministic: jitter is derived by hashing
    /// `(seed, message id, attempt)`, never from ambient randomness.
    pub fn interval_ms(&self, base_ms: u64, seed: u64, id: &MessageId, attempt: u32) -> u64 {
        match self {
            Self::Fixed => base_ms.max(1),
            Self::Exponential { max_interval_ms, jitter } => {
                let doublings = attempt.saturating_sub(1).min(32);
                let raw = base_ms.saturating_mul(1u64 << doublings).min(*max_interval_ms);
                let jitter = jitter.clamp(0.0, 0.999);
                if jitter == 0.0 {
                    return raw.max(1);
                }
                // SplitMix64 finalizer over the (seed, id, attempt) triple.
                let mut z = seed
                    ^ id.value().wrapping_mul(0x9e3779b97f4a7c15)
                    ^ (attempt as u64).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                let frac = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
                let factor = 1.0 - jitter + 2.0 * jitter * frac;
                ((raw as f64 * factor) as u64).max(1)
            }
        }
    }
}

/// Retry policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliableConfig {
    /// Milliseconds to wait for an acknowledgment before the first
    /// retransmission (the backoff base).
    pub retry_timeout_ms: u64,
    /// Retransmissions after the initial send before giving up.
    pub max_retries: u32,
    /// Interval schedule between retransmissions.
    pub backoff: BackoffPolicy,
    /// Absolute per-message deadline in milliseconds from the initial
    /// send; once it passes, the message fails even with retries left.
    /// `None` bounds delivery by retries alone.
    pub deadline_ms: Option<u64>,
    /// Seed for the deterministic retransmit jitter.
    pub jitter_seed: u64,
}

impl ReliableConfig {
    /// The pre-backoff behavior: a constant retry interval, no deadline.
    pub fn fixed(retry_timeout_ms: u64, max_retries: u32) -> Self {
        Self {
            retry_timeout_ms,
            max_retries,
            backoff: BackoffPolicy::Fixed,
            deadline_ms: None,
            jitter_seed: 0,
        }
    }

    /// Caps every message's time-to-acknowledge.
    pub fn with_deadline(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            retry_timeout_ms: 250,
            max_retries: 5,
            backoff: BackoffPolicy::Exponential { max_interval_ms: 2_000, jitter: 0.1 },
            deadline_ms: None,
            jitter_seed: 0x5eed,
        }
    }
}

/// Counters for one endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReliableStats {
    /// Payloads handed to `send`.
    pub sends: u64,
    /// Retransmissions performed (timer- and NACK-triggered).
    pub retries: u64,
    /// Acknowledgments received for outstanding messages.
    pub acks: u64,
    /// Incoming duplicates suppressed.
    pub duplicates_suppressed: u64,
    /// Payloads delivered up to the application exactly once.
    pub delivered: u64,
    /// Sends that exhausted retries, passed their deadline, or were
    /// abandoned.
    pub failures: u64,
    /// Incoming payloads rejected (and NACKed) for checksum mismatch.
    pub corrupt_rejected: u64,
    /// Retransmissions triggered by a peer NACK rather than a timer.
    pub nack_retransmits: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Outstanding {
    envelope: Envelope,
    next_retry: SimTime,
    retries_left: u32,
    /// Wire sends so far, including the initial one.
    attempts: u32,
    /// Absolute give-up time, if the config set a deadline.
    deadline: Option<SimTime>,
}

/// Serializable image of a [`ReliableEndpoint`] for crash recovery: the
/// outstanding (unacknowledged) envelopes with their retry state and
/// attempt counts, the duplicate-suppression set, and the counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReliableSnapshot {
    id: EndpointId,
    outstanding: BTreeMap<MessageId, Outstanding>,
    seen: BTreeSet<MessageId>,
    stats: ReliableStats,
}

impl ReliableSnapshot {
    /// The endpoint this snapshot belongs to.
    pub fn endpoint(&self) -> &EndpointId {
        &self.id
    }

    /// Number of unacknowledged messages captured in the snapshot.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }
}

/// One poll's worth of inbound traffic: fresh envelopes classified by
/// wire class, so a staged runtime can hand each batch to the right
/// pipeline stage (payloads to session routing, notices to failure
/// handling) without re-inspecting every envelope, and the sends this
/// poll's acknowledgments settled. Order within each list is arrival
/// order.
#[derive(Debug, Default)]
pub struct InboundBatch {
    /// Fresh business payloads, exactly once, arrival order.
    pub payloads: Vec<Envelope>,
    /// Fresh failure notifications, exactly once, arrival order.
    pub notices: Vec<Envelope>,
    /// Our sends acknowledged by their addressee in this poll. Each id
    /// appears once, ever: the send is no longer outstanding.
    pub acked: Vec<MessageId>,
    /// Suppressed duplicate payload deliveries (already-seen message ids,
    /// payload class only). Counted, never surfaced: the exactly-once
    /// contract on `payloads` is unchanged.
    pub duplicates: u64,
}

/// Reliable-messaging endpoint layered over [`SimNetwork`].
pub struct ReliableEndpoint {
    id: EndpointId,
    config: ReliableConfig,
    outstanding: BTreeMap<MessageId, Outstanding>,
    seen: BTreeSet<MessageId>,
    stats: ReliableStats,
}

impl ReliableEndpoint {
    /// Creates and registers an endpoint on the network.
    pub fn new(id: EndpointId, config: ReliableConfig, net: &mut SimNetwork) -> Result<Self> {
        net.register(id.clone())?;
        Ok(Self {
            id,
            config,
            outstanding: BTreeMap::new(),
            seen: BTreeSet::new(),
            stats: ReliableStats::default(),
        })
    }

    /// This endpoint's id.
    pub fn id(&self) -> &EndpointId {
        &self.id
    }

    /// Messages sent but neither acknowledged nor failed yet. The network
    /// can be idle while this is non-zero: retransmission timers live
    /// here, not in the network queue, so quiescence checks must include
    /// it.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> &ReliableStats {
        &self.stats
    }

    /// Captures the full reliable-messaging state for persistence.
    pub fn snapshot(&self) -> ReliableSnapshot {
        ReliableSnapshot {
            id: self.id.clone(),
            outstanding: self.outstanding.clone(),
            seen: self.seen.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds an endpoint from a snapshot. The network registration is
    /// assumed to still exist (the transport outlives an engine crash);
    /// when the network was also rebuilt, register the id first. In-flight
    /// retransmissions resume from the snapshot's retry state on the next
    /// [`tick`](Self::tick).
    pub fn restore(config: ReliableConfig, snapshot: ReliableSnapshot) -> Self {
        Self {
            id: snapshot.id,
            config,
            outstanding: snapshot.outstanding,
            seen: snapshot.seen,
            stats: snapshot.stats,
        }
    }

    /// Sends payload bytes reliably; returns the message id to track.
    pub fn send(
        &mut self,
        net: &mut SimNetwork,
        to: &EndpointId,
        format: FormatId,
        payload: Bytes,
    ) -> Result<MessageId> {
        let deadline = self.config.deadline_ms;
        let id = net.alloc_message_id();
        let envelope =
            Envelope::payload_with_id(id, self.id.clone(), to.clone(), format, payload, net.now());
        self.send_envelope(net, envelope, deadline)
    }

    /// Like [`send`](Self::send) with an explicit per-message deadline
    /// (`None` = unbounded), overriding the config default. Protocols with
    /// `WaitReceipt` steps map their receipt time-outs through here.
    pub fn send_with_deadline(
        &mut self,
        net: &mut SimNetwork,
        to: &EndpointId,
        format: FormatId,
        payload: Bytes,
        deadline_ms: Option<u64>,
    ) -> Result<MessageId> {
        let id = net.alloc_message_id();
        let envelope =
            Envelope::payload_with_id(id, self.id.clone(), to.clone(), format, payload, net.now());
        self.send_envelope(net, envelope, deadline_ms)
    }

    /// Sends a failure-notification envelope reliably (acked, retried, and
    /// deduplicated like a payload); returns its message id.
    pub fn send_notify(
        &mut self,
        net: &mut SimNetwork,
        to: &EndpointId,
        format: FormatId,
        payload: Bytes,
    ) -> Result<MessageId> {
        let deadline = self.config.deadline_ms;
        let id = net.alloc_message_id();
        let envelope =
            Envelope::notify_with_id(id, self.id.clone(), to.clone(), format, payload, net.now());
        self.send_envelope(net, envelope, deadline)
    }

    fn send_envelope(
        &mut self,
        net: &mut SimNetwork,
        envelope: Envelope,
        deadline_ms: Option<u64>,
    ) -> Result<MessageId> {
        let id = envelope.id.clone();
        net.send(envelope.clone())?;
        self.stats.sends += 1;
        let first_interval = self.config.backoff.interval_ms(
            self.config.retry_timeout_ms,
            self.config.jitter_seed,
            &id,
            1,
        );
        self.outstanding.insert(
            id.clone(),
            Outstanding {
                envelope,
                next_retry: net.now() + first_interval,
                retries_left: self.config.max_retries,
                attempts: 1,
                deadline: deadline_ms.map(|d| net.now() + d),
            },
        );
        Ok(id)
    }

    /// Drives retransmissions; call after every `SimNetwork::advance`.
    /// Returns the sends that failed permanently on this tick (retries
    /// exhausted or deadline passed), each with its wire attempts
    /// (initial send included), so callers can quarantine them.
    pub fn tick(&mut self, net: &mut SimNetwork) -> Result<Vec<(Envelope, u32)>> {
        self.tick_budgeted(net, usize::MAX)
    }

    /// [`tick`](Self::tick) with a cap on retransmissions performed this
    /// call. Permanent failures (retries exhausted, deadline passed) are
    /// always processed regardless of the budget; retransmits beyond it
    /// are deferred — their `next_retry` is untouched, so they remain due
    /// and go out on a later tick. This is how a host applies per-pump
    /// backpressure: a sick partner's retry storm cannot monopolize the
    /// wire beyond the budget it is given.
    pub fn tick_budgeted(
        &mut self,
        net: &mut SimNetwork,
        budget: usize,
    ) -> Result<Vec<(Envelope, u32)>> {
        let now = net.now();
        let due: Vec<MessageId> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.next_retry <= now || o.deadline.is_some_and(|d| d <= now))
            .map(|(id, _)| id.clone())
            .collect();
        let mut failed = Vec::new();
        let mut retransmitted = 0usize;
        for id in due {
            let o = self.outstanding.get_mut(&id).expect("collected above");
            let expired = o.deadline.is_some_and(|d| d <= now);
            if o.retries_left == 0 || expired {
                let o = self.outstanding.remove(&id).expect("present");
                self.stats.failures += 1;
                failed.push((o.envelope, o.attempts));
                continue;
            }
            if retransmitted >= budget {
                continue; // deferred: next_retry unchanged, still due later
            }
            o.retries_left -= 1;
            o.attempts += 1;
            o.next_retry = now
                + self.config.backoff.interval_ms(
                    self.config.retry_timeout_ms,
                    self.config.jitter_seed,
                    &id,
                    o.attempts,
                );
            self.stats.retries += 1;
            retransmitted += 1;
            net.send(o.envelope.clone())?;
        }
        Ok(failed)
    }

    /// Fails every outstanding send addressed to `to` immediately —
    /// retries left or not — and returns the abandoned envelopes with
    /// their wire attempts. Used when the partner behind the endpoint is
    /// declared unhealthy (circuit breaker trip): keeping its
    /// retransmissions alive would only burn wire budget on a link
    /// already known to be dead.
    pub fn abandon_to(&mut self, to: &EndpointId) -> Vec<(Envelope, u32)> {
        let ids: Vec<MessageId> = self
            .outstanding
            .iter()
            .filter(|(_, o)| &o.envelope.to == to)
            .map(|(id, _)| id.clone())
            .collect();
        let mut abandoned = Vec::new();
        for id in ids {
            let o = self.outstanding.remove(&id).expect("collected above");
            self.stats.failures += 1;
            abandoned.push((o.envelope, o.attempts));
        }
        abandoned
    }

    /// Polls the network inbox: verifies payload integrity (NACKing
    /// corrupt copies *instead of* acknowledging them), acknowledges and
    /// deduplicates intact payloads, matches acks/NACKs to outstanding
    /// sends, and returns the fresh payload and notification envelopes in
    /// arrival order (exactly-once upward).
    pub fn receive(&mut self, net: &mut SimNetwork) -> Result<Vec<Envelope>> {
        let mut fresh = Vec::new();
        self.poll(net, |envelope| fresh.push(envelope))?;
        Ok(fresh)
    }

    /// Like [`receive`](Self::receive), but classifies the fresh
    /// envelopes by wire class on the way out and reports which of our
    /// sends the poll's acknowledgments settled. Staged hosts use this to
    /// hand payload batches to session routing and notices to edge
    /// failure handling in one pass.
    pub fn receive_classified(&mut self, net: &mut SimNetwork) -> Result<InboundBatch> {
        let (mut payloads, mut notices) = (Vec::new(), Vec::new());
        let (acked, duplicates) = self.poll(net, |envelope| match envelope.class {
            WireClass::Notify => notices.push(envelope),
            _ => payloads.push(envelope),
        })?;
        Ok(InboundBatch { payloads, notices, acked, duplicates })
    }

    /// The inbox walk behind both receive calls: hands each fresh
    /// envelope to `fresh` in arrival order and returns the ids settled
    /// by acknowledgments and how many suppressed duplicates were
    /// payload-class (never part of the exactly-once stream). An ack or
    /// NACK counts only from the endpoint its message was sent to.
    fn poll(
        &mut self,
        net: &mut SimNetwork,
        mut fresh: impl FnMut(Envelope),
    ) -> Result<(Vec<MessageId>, u64)> {
        let incoming = net.poll(&self.id)?;
        let mut acked = Vec::new();
        let mut duplicates = 0;
        for envelope in incoming {
            match envelope.class {
                WireClass::Ack | WireClass::Nack => {
                    let Some(ref_id) = envelope.ref_id else {
                        continue; // malformed ack or NACK: ignore
                    };
                    let Some(o) = self.outstanding.get_mut(&ref_id) else {
                        continue; // already acked or failed
                    };
                    if o.envelope.to != envelope.from {
                        continue; // not from the addressee: ignore
                    }
                    if envelope.class == WireClass::Ack {
                        self.outstanding.remove(&ref_id);
                        self.stats.acks += 1;
                        acked.push(ref_id);
                        continue;
                    }
                    if o.retries_left == 0 {
                        // Out of retries: let the next tick fail it so the
                        // caller observes the failure in one place.
                        o.next_retry = net.now();
                        continue;
                    }
                    // The peer holds a corrupted copy; retransmit now
                    // rather than waiting out the timer. This consumes a
                    // retry so pure-corruption links terminate in a
                    // failure instead of NACK-looping forever.
                    o.retries_left -= 1;
                    o.attempts += 1;
                    o.next_retry = net.now()
                        + self.config.backoff.interval_ms(
                            self.config.retry_timeout_ms,
                            self.config.jitter_seed,
                            &ref_id,
                            o.attempts,
                        );
                    self.stats.retries += 1;
                    self.stats.nack_retransmits += 1;
                    net.send(o.envelope.clone())?;
                }
                WireClass::Payload | WireClass::Notify => {
                    if !envelope.verify_integrity() {
                        // Do NOT acknowledge: a corrupt copy must not
                        // cancel retransmission. NACK to heal faster.
                        self.stats.corrupt_rejected += 1;
                        let id = net.alloc_message_id();
                        let nack = Envelope::nack_with_id(
                            id,
                            self.id.clone(),
                            envelope.from.clone(),
                            &envelope,
                            net.now(),
                        );
                        net.send(nack)?;
                        continue;
                    }
                    // Acknowledge even duplicates — the sender may have
                    // missed our previous ack.
                    let id = net.alloc_message_id();
                    let ack = Envelope::ack_with_id(
                        id,
                        self.id.clone(),
                        envelope.from.clone(),
                        &envelope,
                        net.now(),
                    );
                    net.send(ack)?;
                    if self.seen.insert(envelope.id.clone()) {
                        self.stats.delivered += 1;
                        fresh(envelope);
                    } else {
                        self.stats.duplicates_suppressed += 1;
                        duplicates += u64::from(envelope.class == WireClass::Payload);
                    }
                }
            }
        }
        Ok((acked, duplicates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn pair(net: &mut SimNetwork, config: ReliableConfig) -> (ReliableEndpoint, ReliableEndpoint) {
        let a = ReliableEndpoint::new(EndpointId::new("acme"), config.clone(), net).unwrap();
        let b = ReliableEndpoint::new(EndpointId::new("gadget"), config, net).unwrap();
        (a, b)
    }

    /// Runs the simulation for `max_ms`, collecting everything `b`
    /// receives and the ids of `a`'s sends that `b` acknowledged.
    fn pump(
        net: &mut SimNetwork,
        a: &mut ReliableEndpoint,
        b: &mut ReliableEndpoint,
        max_ms: u64,
    ) -> (Vec<Envelope>, Vec<MessageId>) {
        let mut got = Vec::new();
        let mut acked = Vec::new();
        let mut elapsed = 0;
        while elapsed < max_ms {
            net.advance(10);
            elapsed += 10;
            a.tick(net).unwrap();
            b.tick(net).unwrap();
            got.extend(b.receive(net).unwrap());
            acked.extend(a.receive_classified(net).unwrap().acked);
        }
        (got, acked)
    }

    /// The ids of failed sends with their attempt counts.
    fn id_attempts(failed: Vec<(Envelope, u32)>) -> Vec<(MessageId, u32)> {
        failed.into_iter().map(|(e, attempts)| (e.id, attempts)).collect()
    }

    #[test]
    fn clean_network_delivers_exactly_once() {
        let mut net = SimNetwork::new(FaultConfig::reliable(), 1);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::default());
        let to = b.id().clone();
        let id = a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        let (got, acked) = pump(&mut net, &mut a, &mut b, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!(acked, vec![id]);
        assert_eq!(a.stats().retries, 0);
        assert_eq!(a.outstanding_count(), 0);
    }

    #[test]
    fn retries_recover_from_heavy_loss() {
        // 60% loss: with 5 retries the survival probability per message is
        // 1 - 0.6^6 ≈ 0.95 for the data path alone; run enough messages to
        // see recovery, and assert every *acknowledged* one arrived.
        let mut net = SimNetwork::new(FaultConfig { loss: 0.6, ..FaultConfig::flaky(0.6) }, 42);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::fixed(200, 10));
        let to = b.id().clone();
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(
                a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("po-{i}"))).unwrap(),
            );
        }
        let (got, acked) = pump(&mut net, &mut a, &mut b, 30_000);
        assert!(acked.iter().all(|id| ids.contains(id)));
        let acked = acked.len();
        assert!(a.stats().retries > 0, "loss must force retries");
        assert!(acked >= 18, "only {acked}/20 acknowledged");
        assert!(got.len() >= acked, "every acked message was delivered");
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut net = SimNetwork::new(FaultConfig { duplicate: 1.0, ..FaultConfig::reliable() }, 7);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::default());
        let to = b.id().clone();
        a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        let (got, _) = pump(&mut net, &mut a, &mut b, 1000);
        assert_eq!(got.len(), 1, "application sees the payload once");
        assert!(b.stats().duplicates_suppressed >= 1);
    }

    #[test]
    fn total_loss_fails_after_retries() {
        let mut net = SimNetwork::new(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }, 7);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::fixed(50, 3));
        let to = b.id().clone();
        let id = a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        let mut failed = Vec::new();
        for _ in 0..100 {
            net.advance(10);
            failed.extend(id_attempts(a.tick(&mut net).unwrap()));
            b.receive(&mut net).unwrap();
            a.receive(&mut net).unwrap();
        }
        assert_eq!(failed, vec![(id, 4)], "initial send plus three retries");
        assert_eq!(a.stats().failures, 1);
        assert_eq!(a.outstanding_count(), 0);
    }

    #[test]
    fn lost_ack_causes_retry_but_single_delivery() {
        // Loss applies to acks too; seed chosen arbitrarily, the dedup
        // invariant must hold regardless.
        let mut net = SimNetwork::new(FaultConfig::flaky(0.4), 11);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::fixed(100, 20));
        let to = b.id().clone();
        for i in 0..10 {
            a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("po-{i}"))).unwrap();
        }
        let (got, _) = pump(&mut net, &mut a, &mut b, 30_000);
        // Exactly-once: ≤ 10 distinct payloads, no duplicates in `got`.
        let mut ids: Vec<_> = got.iter().map(|e| e.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), got.len(), "no duplicate reached the application");
        assert!(got.len() <= 10);
    }

    #[test]
    fn corruption_is_nacked_and_healed_by_retransmit() {
        // Every payload is corrupted in flight ~half the time; the
        // receiver must never surface corrupt bytes, and clean retransmits
        // must eventually get through.
        let mut net = SimNetwork::new(FaultConfig { corrupt: 0.5, ..FaultConfig::reliable() }, 13);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::fixed(100, 20));
        let to = b.id().clone();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(
                a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("po-{i}"))).unwrap(),
            );
        }
        let (got, mut acked) = pump(&mut net, &mut a, &mut b, 30_000);
        assert_eq!(got.len(), 10, "all payloads eventually delivered clean");
        assert!(got.iter().all(Envelope::verify_integrity), "no corrupt payload surfaced");
        assert!(b.stats().corrupt_rejected > 0, "seed produces at least one corruption");
        acked.sort();
        assert_eq!(acked, ids, "every send acknowledged once");
    }

    #[test]
    fn total_corruption_fails_rather_than_loops() {
        let mut net = SimNetwork::new(FaultConfig { corrupt: 1.0, ..FaultConfig::reliable() }, 13);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::fixed(50, 4));
        let to = b.id().clone();
        let id = a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        let mut failed = Vec::new();
        for _ in 0..200 {
            net.advance(10);
            failed.extend(a.tick(&mut net).unwrap().into_iter().map(|(e, _)| e.id));
            b.receive(&mut net).unwrap();
            a.receive(&mut net).unwrap();
        }
        assert_eq!(failed, vec![id]);
        assert_eq!(b.stats().delivered, 0, "nothing corrupt was delivered");
        assert!(b.stats().corrupt_rejected >= 1);
        assert!(a.stats().nack_retransmits >= 1, "NACKs drove retransmits");
    }

    #[test]
    fn exponential_backoff_spaces_out_retransmits() {
        let policy = BackoffPolicy::Exponential { max_interval_ms: 10_000, jitter: 0.0 };
        let id = MessageId::from_raw(1);
        assert_eq!(policy.interval_ms(100, 0, &id, 1), 100);
        assert_eq!(policy.interval_ms(100, 0, &id, 2), 200);
        assert_eq!(policy.interval_ms(100, 0, &id, 3), 400);
        assert_eq!(policy.interval_ms(100, 0, &id, 8), 10_000, "capped");
        // Jitter stays inside the band and is deterministic.
        let jittered = BackoffPolicy::Exponential { max_interval_ms: 10_000, jitter: 0.25 };
        for attempt in 1..10 {
            let v = jittered.interval_ms(100, 7, &id, attempt);
            let raw = policy.interval_ms(100, 7, &id, attempt);
            assert!(v as f64 >= raw as f64 * 0.74 && v as f64 <= raw as f64 * 1.26);
            assert_eq!(v, jittered.interval_ms(100, 7, &id, attempt), "deterministic");
        }
        assert_eq!(BackoffPolicy::Fixed.interval_ms(100, 7, &id, 5), 100);
    }

    #[test]
    fn deadline_bounds_delivery_time_even_with_retries_left() {
        let mut net = SimNetwork::new(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }, 7);
        let config = ReliableConfig::fixed(50, 1_000).with_deadline(300);
        let (mut a, mut b) = pair(&mut net, config);
        let to = b.id().clone();
        let id = a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        let mut failed = Vec::new();
        let mut failed_at = None;
        for _ in 0..100 {
            net.advance(10);
            let f = a.tick(&mut net).unwrap();
            if !f.is_empty() && failed_at.is_none() {
                failed_at = Some(net.now());
            }
            failed.extend(f.into_iter().map(|(e, _)| e.id));
            b.receive(&mut net).unwrap();
            a.receive(&mut net).unwrap();
        }
        assert_eq!(failed, vec![id]);
        let failed_at = failed_at.expect("failed");
        assert!(
            failed_at.as_millis() >= 300 && failed_at.as_millis() <= 320,
            "failed at {failed_at:?}, deadline was 300ms"
        );
    }

    #[test]
    fn snapshot_restore_preserves_reliable_state_mid_exchange() {
        let mut net = SimNetwork::new(FaultConfig { loss: 0.5, ..FaultConfig::flaky(0.5) }, 23);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::fixed(100, 30));
        let to = b.id().clone();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(
                a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("po-{i}"))).unwrap(),
            );
        }
        // Run briefly so some messages are acked and some still in flight.
        let (mut got, mut acked) = pump(&mut net, &mut a, &mut b, 300);
        assert!(!acked.is_empty() && acked.len() < ids.len(), "crash mid-exchange");

        // Crash both endpoints; persist and revive them from JSON.
        let a_json = serde_json::to_string(&a.snapshot()).unwrap();
        let b_json = serde_json::to_string(&b.snapshot()).unwrap();
        drop((a, b));
        let a_snap: ReliableSnapshot = serde_json::from_str(&a_json).unwrap();
        let b_snap: ReliableSnapshot = serde_json::from_str(&b_json).unwrap();
        assert_eq!(a_snap.endpoint(), &EndpointId::new("acme"));
        let mut a = ReliableEndpoint::restore(ReliableConfig::fixed(100, 30), a_snap);
        let mut b = ReliableEndpoint::restore(ReliableConfig::fixed(100, 30), b_snap);

        let (more, more_acked) = pump(&mut net, &mut a, &mut b, 30_000);
        got.extend(more);
        acked.extend(more_acked);
        // Exactly-once across the crash: every id acked once, delivered once.
        acked.sort();
        assert_eq!(acked, ids, "every send acknowledged exactly once");
        let mut delivered: Vec<_> = got.iter().map(|e| e.id.clone()).collect();
        delivered.sort();
        delivered.dedup();
        assert_eq!(delivered.len(), got.len(), "no duplicate crossed the crash");
        assert_eq!(got.len(), 10, "every payload delivered exactly once");
    }

    #[test]
    fn restore_mid_backoff_preserves_attempts_and_retry_deadline() {
        // E13's snapshots are taken at round boundaries; this pins the gap
        // in between: a snapshot taken *between* retry attempts must carry
        // the attempt count and the next-retry deadline, so the restored
        // endpoint neither re-runs spent attempts nor retransmits early.
        let mut net = SimNetwork::new(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }, 7);
        let (mut a, b) = pair(&mut net, ReliableConfig::fixed(100, 5));
        let to = b.id().clone();
        let id = a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        // t=100: the first retransmission fires (attempt 2, next retry 200).
        net.advance(100);
        a.tick(&mut net).unwrap();
        assert_eq!(a.stats().retries, 1);
        // t=150: crash mid-backoff, halfway to the next retry.
        net.advance(50);
        let json = serde_json::to_string(&a.snapshot()).unwrap();
        drop(a);
        let snap: ReliableSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap.outstanding_count(), 1);
        let mut a = ReliableEndpoint::restore(ReliableConfig::fixed(100, 5), snap);
        // t=190: still inside the preserved backoff window — no wire send.
        let sent_before = net.stats().sent;
        net.advance(40);
        a.tick(&mut net).unwrap();
        assert_eq!(net.stats().sent, sent_before, "restored endpoint must not retransmit early");
        // t=200: the preserved deadline arrives and exactly one copy goes out.
        net.advance(10);
        a.tick(&mut net).unwrap();
        assert_eq!(net.stats().sent, sent_before + 1, "retry fired exactly at the deadline");
        // The attempt count survived the crash: 1 + 5 attempts in all.
        let mut failed = Vec::new();
        while failed.is_empty() {
            net.advance(100);
            failed = id_attempts(a.tick(&mut net).unwrap());
        }
        assert_eq!(failed, vec![(id, 6)]);
    }

    #[test]
    fn tick_budget_defers_retransmits_without_dropping_them() {
        let mut net = SimNetwork::new(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }, 7);
        let (mut a, b) = pair(&mut net, ReliableConfig::fixed(100, 10));
        let to = b.id().clone();
        for i in 0..4 {
            a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("po-{i}"))).unwrap();
        }
        // All four are due at t=100, but the budget lets only two out.
        net.advance(100);
        let sent_before = net.stats().sent;
        a.tick_budgeted(&mut net, 2).unwrap();
        assert_eq!(net.stats().sent, sent_before + 2, "budget caps retransmissions");
        // The deferred two are still due: the next tick sends exactly them.
        a.tick_budgeted(&mut net, 10).unwrap();
        assert_eq!(net.stats().sent, sent_before + 4, "deferred retries stayed due");
        assert_eq!(a.stats().retries, 4, "every message retried exactly once in total");
    }

    #[test]
    fn budgeted_tick_still_processes_failures() {
        let mut net = SimNetwork::new(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }, 7);
        let (mut a, b) = pair(&mut net, ReliableConfig::fixed(50, 0));
        let to = b.id().clone();
        let id = a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        net.advance(50);
        // Budget zero: no retransmissions allowed, but the exhausted
        // message must still fail out rather than hang forever.
        let failed = a.tick_budgeted(&mut net, 0).unwrap();
        assert_eq!(id_attempts(failed), vec![(id, 1)]);
        assert_eq!(a.outstanding_count(), 0);
    }

    #[test]
    fn abandon_to_fails_only_that_destination() {
        let mut net = SimNetwork::new(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }, 7);
        let config = ReliableConfig::fixed(100, 10);
        let mut a =
            ReliableEndpoint::new(EndpointId::new("acme"), config.clone(), &mut net).unwrap();
        let b = ReliableEndpoint::new(EndpointId::new("gadget"), config.clone(), &mut net).unwrap();
        let c = ReliableEndpoint::new(EndpointId::new("widget"), config, &mut net).unwrap();
        let to_b = a.send(&mut net, b.id(), FormatId::EDI_X12, Bytes::from_static(b"pb")).unwrap();
        a.send(&mut net, c.id(), FormatId::EDI_X12, Bytes::from_static(b"pc")).unwrap();
        let abandoned = a.abandon_to(b.id());
        assert_eq!(id_attempts(abandoned), vec![(to_b, 1)]);
        assert_eq!(a.outstanding_count(), 1, "other links untouched");
        assert_eq!(a.stats().failures, 1);
        // Abandoned messages never retransmit again.
        let sent_before = net.stats().sent;
        net.advance(100);
        a.tick(&mut net).unwrap();
        assert_eq!(net.stats().sent, sent_before + 1, "only the healthy link retried");
    }

    /// `a` sends to `b` over a dead link, and a third endpoint `c` forges
    /// `b`'s ack or NACK (`class`) for that send. Returns once the forgery
    /// sits in `a`'s inbox.
    fn forge_reply(class: WireClass) -> (SimNetwork, ReliableEndpoint, MessageId) {
        use crate::fault::FaultSchedule;
        let mut net = SimNetwork::new(FaultConfig::reliable(), 7);
        let config = ReliableConfig::fixed(50, 3);
        let mut a =
            ReliableEndpoint::new(EndpointId::new("acme"), config.clone(), &mut net).unwrap();
        let b = ReliableEndpoint::new(EndpointId::new("gadget"), config.clone(), &mut net).unwrap();
        let c = ReliableEndpoint::new(EndpointId::new("widget"), config, &mut net).unwrap();
        let dead = FaultConfig { loss: 1.0, ..FaultConfig::reliable() };
        net.set_link_schedule(b.id().clone(), FaultSchedule::constant(dead));
        let id = a.send(&mut net, b.id(), FormatId::EDI_X12, Bytes::from_static(b"po")).unwrap();
        let sent = Envelope::payload_with_id(
            id.clone(),
            a.id().clone(),
            b.id().clone(),
            FormatId::EDI_X12,
            Bytes::from_static(b"po"),
            net.now(),
        );
        let (forged_id, from, to) = (net.alloc_message_id(), c.id().clone(), a.id().clone());
        let forged = match class {
            WireClass::Ack => Envelope::ack_with_id(forged_id, from, to, &sent, net.now()),
            _ => Envelope::nack_with_id(forged_id, from, to, &sent, net.now()),
        };
        net.send(forged).unwrap();
        net.advance(1);
        (net, a, id)
    }

    /// Ticks `a` for a simulated second, collecting its failed sends.
    fn failures_within_a_second(
        net: &mut SimNetwork,
        a: &mut ReliableEndpoint,
    ) -> Vec<(MessageId, u32)> {
        let mut failed = Vec::new();
        for _ in 0..100 {
            net.advance(10);
            failed.extend(id_attempts(a.tick(net).unwrap()));
        }
        failed
    }

    /// Only the addressee can settle a send: a forged ack from a third
    /// endpoint counts for nothing, and the send fails after its retries.
    #[test]
    fn an_ack_from_another_endpoint_settles_nothing() {
        let (mut net, mut a, id) = forge_reply(WireClass::Ack);
        let batch = a.receive_classified(&mut net).unwrap();
        assert!(batch.acked.is_empty(), "a forged ack settled {:?}", batch.acked);
        assert_eq!(a.stats().acks, 0);
        assert_eq!(a.outstanding_count(), 1);
        let failed = failures_within_a_second(&mut net, &mut a);
        assert_eq!(failed, vec![(id, 4)], "the send failed after its retries");
        assert_eq!(a.stats().failures, 1);
    }

    /// Only the addressee can report a corrupt copy: a forged NACK from a
    /// third endpoint triggers no retransmit and spends no retry.
    #[test]
    fn a_nack_from_another_endpoint_triggers_no_retransmit() {
        let (mut net, mut a, id) = forge_reply(WireClass::Nack);
        let sent_before = net.stats().sent;
        a.receive(&mut net).unwrap();
        assert_eq!(net.stats().sent, sent_before, "the forged NACK triggered a retransmit");
        assert_eq!(a.stats().nack_retransmits, 0);
        assert_eq!(a.stats().retries, 0);
        let failed = failures_within_a_second(&mut net, &mut a);
        assert_eq!(failed, vec![(id, 4)], "every retry was still there to spend");
    }

    #[test]
    fn notify_envelopes_travel_reliably() {
        let mut net = SimNetwork::new(FaultConfig::flaky(0.4), 5);
        let (mut a, mut b) = pair(&mut net, ReliableConfig::fixed(100, 20));
        let to = b.id().clone();
        let id = a
            .send_notify(
                &mut net,
                &to,
                FormatId::ROSETTANET,
                Bytes::from_static(b"{\"reason\":\"cancelled\"}"),
            )
            .unwrap();
        let (got, acked) = pump(&mut net, &mut a, &mut b, 20_000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].class, WireClass::Notify);
        assert_eq!(acked, vec![id]);
    }
}
