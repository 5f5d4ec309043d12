//! The discrete-event network simulator.

use crate::clock::SimTime;
use crate::error::{NetworkError, Result};
use crate::fault::{FaultConfig, FaultSchedule};
use crate::message::{EndpointId, Envelope, MessageId};
use crate::rng::SimRng;
use bytes::Bytes;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Counters describing what the network did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Envelopes handed to `send`.
    pub sent: u64,
    /// Envelopes delivered to inboxes (duplicates count).
    pub delivered: u64,
    /// Envelopes dropped by fault injection.
    pub lost: u64,
    /// Extra copies delivered by duplication.
    pub duplicated: u64,
    /// Payloads with a corrupted byte.
    pub corrupted: u64,
}

/// An in-flight envelope ordered by delivery time (min-heap via reversed
/// ordering; ties broken by sequence for determinism).
struct InFlight {
    deliver_at: SimTime,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.deliver_at.cmp(&self.deliver_at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic simulated network connecting named endpoints.
///
/// Single-threaded discrete-event design: `send` enqueues with a sampled
/// delay and fault decisions, `advance` moves logical time forward and
/// moves due envelopes into per-endpoint inboxes, `poll` drains an inbox.
pub struct SimNetwork {
    now: SimTime,
    rng: SimRng,
    config: FaultConfig,
    /// Time-varying fault overrides keyed by *destination* endpoint: a
    /// schedule here replaces `config` for every envelope addressed to
    /// that endpoint (the link "into" the partner).
    link_schedules: BTreeMap<EndpointId, FaultSchedule>,
    in_flight: BinaryHeap<InFlight>,
    inboxes: BTreeMap<EndpointId, VecDeque<Envelope>>,
    stats: NetworkStats,
    seq: u64,
    next_msg: u64,
}

/// Network-scoped message ids live in their own range so they can never
/// collide with ids from the process-global [`MessageId::fresh`] counter
/// (mixed usage within one test would otherwise confuse deduplication).
const MSG_ID_BASE: u64 = 1 << 32;

impl SimNetwork {
    /// Creates a network with the given fault profile and RNG seed.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        config.validate().expect("fault config must be valid");
        Self {
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            config,
            link_schedules: BTreeMap::new(),
            in_flight: BinaryHeap::new(),
            inboxes: BTreeMap::new(),
            stats: NetworkStats::default(),
            seq: 0,
            next_msg: MSG_ID_BASE,
        }
    }

    /// Allocates the next network-scoped message id. Unlike
    /// [`MessageId::fresh`], the result is a pure function of this
    /// network's traffic so far, so two runs with the same seed produce
    /// the same ids — the property the runtime's determinism checks rest
    /// on.
    pub fn alloc_message_id(&mut self) -> MessageId {
        let id = MessageId::from_raw(self.next_msg);
        self.next_msg += 1;
        id
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Installs a time-varying fault schedule on the link *into*
    /// `endpoint`: every envelope addressed there is subjected to the
    /// phase active at send time instead of the network-wide config.
    pub fn set_link_schedule(&mut self, endpoint: EndpointId, schedule: FaultSchedule) {
        self.link_schedules.insert(endpoint, schedule);
    }

    /// Removes a per-link schedule, reverting the link to the
    /// network-wide fault config.
    pub fn clear_link_schedule(&mut self, endpoint: &EndpointId) {
        self.link_schedules.remove(endpoint);
    }

    /// Registers an endpoint; ids must be unique.
    pub fn register(&mut self, endpoint: EndpointId) -> Result<()> {
        if self.inboxes.contains_key(&endpoint) {
            return Err(NetworkError::DuplicateEndpoint { endpoint: endpoint.to_string() });
        }
        self.inboxes.insert(endpoint, VecDeque::new());
        Ok(())
    }

    /// Hands an envelope to the network. Fault decisions (loss,
    /// duplication, corruption, latency) are made here, deterministically
    /// from the seed.
    pub fn send(&mut self, envelope: Envelope) -> Result<()> {
        if !self.inboxes.contains_key(&envelope.to) {
            return Err(NetworkError::UnknownEndpoint { endpoint: envelope.to.to_string() });
        }
        self.stats.sent += 1;
        // Per-link schedules override the network-wide profile; the clone
        // is alloc-free (FaultConfig is all scalars) and sidesteps the
        // borrow of `self` that `rng` needs below.
        let cfg = match self.link_schedules.get(&envelope.to) {
            Some(schedule) => schedule.at(self.now.as_millis()).clone(),
            None => self.config.clone(),
        };
        if self.rng.chance(cfg.loss) {
            self.stats.lost += 1;
            return Ok(());
        }
        let copies = if self.rng.chance(cfg.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let delay = self.rng.range(cfg.min_delay_ms, cfg.max_delay_ms);
            let mut env = envelope.clone();
            if !env.payload.is_empty() && self.rng.chance(cfg.corrupt) {
                self.stats.corrupted += 1;
                let mut bytes = env.payload.to_vec();
                let at = (self.rng.next_u64() as usize) % bytes.len();
                bytes[at] ^= 0x20;
                env.payload = Bytes::from(bytes);
            }
            self.seq += 1;
            self.in_flight.push(InFlight {
                deliver_at: self.now + delay,
                seq: self.seq,
                envelope: env,
            });
        }
        Ok(())
    }

    /// Advances logical time by `ms`, delivering everything due.
    pub fn advance(&mut self, ms: u64) {
        self.now = self.now + ms;
        while let Some(top) = self.in_flight.peek() {
            if top.deliver_at > self.now {
                break;
            }
            let item = self.in_flight.pop().expect("peeked");
            self.stats.delivered += 1;
            self.inboxes
                .get_mut(&item.envelope.to)
                .expect("validated at send")
                .push_back(item.envelope);
        }
    }

    /// Drains the inbox of an endpoint.
    pub fn poll(&mut self, endpoint: &EndpointId) -> Result<Vec<Envelope>> {
        let inbox = self
            .inboxes
            .get_mut(endpoint)
            .ok_or_else(|| NetworkError::UnknownEndpoint { endpoint: endpoint.to_string() })?;
        Ok(inbox.drain(..).collect())
    }

    /// Whether any envelope is still in flight or queued in an inbox.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.inboxes.values().all(VecDeque::is_empty)
    }
}

impl std::fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("now", &self.now)
            .field("in_flight", &self.in_flight.len())
            .field("endpoints", &self.inboxes.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::FormatId;

    fn endpoints(net: &mut SimNetwork) -> (EndpointId, EndpointId) {
        let a = EndpointId::new("acme");
        let b = EndpointId::new("gadget");
        net.register(a.clone()).unwrap();
        net.register(b.clone()).unwrap();
        (a, b)
    }

    fn msg(from: &EndpointId, to: &EndpointId, now: SimTime) -> Envelope {
        Envelope::payload(
            from.clone(),
            to.clone(),
            FormatId::EDI_X12,
            Bytes::from_static(b"hello"),
            now,
        )
    }

    #[test]
    fn reliable_network_delivers_in_order() {
        let mut net = SimNetwork::new(FaultConfig::reliable(), 1);
        let (a, b) = endpoints(&mut net);
        for _ in 0..5 {
            net.send(msg(&a, &b, net.now())).unwrap();
        }
        net.advance(10);
        let got = net.poll(&b).unwrap();
        assert_eq!(got.len(), 5);
        assert!(net.idle());
        assert_eq!(net.stats().delivered, 5);
    }

    #[test]
    fn nothing_delivered_before_latency() {
        let mut net = SimNetwork::new(
            FaultConfig { min_delay_ms: 100, max_delay_ms: 100, ..FaultConfig::reliable() },
            1,
        );
        let (a, b) = endpoints(&mut net);
        net.send(msg(&a, &b, net.now())).unwrap();
        net.advance(99);
        assert!(net.poll(&b).unwrap().is_empty());
        net.advance(1);
        assert_eq!(net.poll(&b).unwrap().len(), 1);
    }

    #[test]
    fn loss_drops_messages() {
        let mut net = SimNetwork::new(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }, 1);
        let (a, b) = endpoints(&mut net);
        net.send(msg(&a, &b, net.now())).unwrap();
        net.advance(10);
        assert!(net.poll(&b).unwrap().is_empty());
        assert_eq!(net.stats().lost, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut net = SimNetwork::new(FaultConfig { duplicate: 1.0, ..FaultConfig::reliable() }, 1);
        let (a, b) = endpoints(&mut net);
        net.send(msg(&a, &b, net.now())).unwrap();
        net.advance(10);
        let got = net.poll(&b).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].id, got[1].id, "duplicates share the message id");
    }

    #[test]
    fn corruption_flips_a_byte() {
        let mut net = SimNetwork::new(FaultConfig { corrupt: 1.0, ..FaultConfig::reliable() }, 1);
        let (a, b) = endpoints(&mut net);
        net.send(msg(&a, &b, net.now())).unwrap();
        net.advance(10);
        let got = net.poll(&b).unwrap();
        assert_ne!(got[0].payload.as_ref(), b"hello");
        assert_eq!(net.stats().corrupted, 1);
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = |seed| {
            let mut net = SimNetwork::new(FaultConfig::flaky(0.3), seed);
            let (a, b) = endpoints(&mut net);
            for _ in 0..50 {
                net.send(msg(&a, &b, net.now())).unwrap();
                net.advance(5);
            }
            net.advance(1000);
            net.poll(&b).unwrap().len()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8000), "different seeds almost surely differ");
    }

    #[test]
    fn link_schedule_overrides_only_that_destination() {
        use crate::fault::FaultSchedule;
        let mut net = SimNetwork::new(FaultConfig::reliable(), 1);
        let (a, b) = endpoints(&mut net);
        // Black-hole the link *into* b; the reverse direction stays clean.
        net.set_link_schedule(
            b.clone(),
            FaultSchedule::constant(FaultConfig { loss: 1.0, ..FaultConfig::reliable() }),
        );
        net.send(msg(&a, &b, net.now())).unwrap();
        net.send(msg(&b, &a, net.now())).unwrap();
        net.advance(10);
        assert!(net.poll(&b).unwrap().is_empty(), "a→b is black-holed");
        assert_eq!(net.poll(&a).unwrap().len(), 1, "b→a is unaffected");
        // Clearing the schedule restores the network-wide profile.
        net.clear_link_schedule(&b);
        net.send(msg(&a, &b, net.now())).unwrap();
        net.advance(10);
        assert_eq!(net.poll(&b).unwrap().len(), 1);
    }

    #[test]
    fn flapping_schedule_is_time_varying_on_the_wire() {
        use crate::fault::FaultSchedule;
        let mut net = SimNetwork::new(FaultConfig::reliable(), 1);
        let (a, b) = endpoints(&mut net);
        // Up 100 ms, down 100 ms, repeating.
        net.set_link_schedule(
            b.clone(),
            FaultSchedule::flapping(FaultConfig::reliable(), 100, 100).unwrap(),
        );
        let mut delivered = 0;
        for _ in 0..40 {
            net.send(msg(&a, &b, net.now())).unwrap();
            net.advance(10);
            delivered += net.poll(&b).unwrap().len();
        }
        net.advance(1_000);
        delivered += net.poll(&b).unwrap().len();
        assert_eq!(delivered, 20, "exactly the up-phase sends arrive");
        assert_eq!(net.stats().lost, 20, "exactly the down-phase sends are lost");
    }

    #[test]
    fn unknown_endpoints_are_errors() {
        let mut net = SimNetwork::new(FaultConfig::reliable(), 1);
        let a = EndpointId::new("acme");
        net.register(a.clone()).unwrap();
        assert!(net.register(a.clone()).is_err());
        assert!(net.poll(&EndpointId::new("ghost")).is_err());
        assert!(net.send(msg(&a, &EndpointId::new("ghost"), net.now())).is_err());
    }

    #[test]
    fn variable_latency_reorders() {
        let mut net = SimNetwork::new(
            FaultConfig { min_delay_ms: 1, max_delay_ms: 500, ..FaultConfig::reliable() },
            3,
        );
        let (a, b) = endpoints(&mut net);
        let mut sent_ids = Vec::new();
        for _ in 0..20 {
            let m = msg(&a, &b, net.now());
            sent_ids.push(m.id.clone());
            net.send(m).unwrap();
        }
        net.advance(1000);
        let got: Vec<_> = net.poll(&b).unwrap().into_iter().map(|e| e.id).collect();
        assert_eq!(got.len(), 20);
        assert_ne!(got, sent_ids, "wide latency spread should reorder");
    }
}
