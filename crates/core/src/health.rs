//! Partner failure domains: per-partner circuit breakers, shed policy,
//! and poison-message escalation.
//!
//! The paper's premise is that trading partners are autonomous — you
//! cannot fix the other side, only contain it. PR 1 made *messages*
//! reliable; this module makes *partners* a failure domain: a partner
//! that black-holes, corrupts, or floods is detected from observed
//! delivery and decode outcomes and cut off deterministically, so one
//! sick counterparty cannot consume unbounded retry budget or queue
//! memory that healthy sessions need.
//!
//! Everything here is a pure function of the interaction trace and
//! simulated time: the breaker state machine is driven by explicit
//! [`PartnerHealth::advance`] calls at pump boundaries (never by
//! wall-clock), so breaker states can join the determinism fingerprint.

use crate::metrics::HealthStats;
use b2b_network::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Per-partner containment policy: when to trip the circuit breaker, how
/// long to keep it open, how much to queue, and when repeated poison
/// escalates to quarantine.
///
/// The default policy is **fully permissive** — breaker disabled,
/// unbounded queues, no poison escalation — so an engine that never
/// configures a policy behaves exactly as before this subsystem existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartnerPolicy {
    /// Consecutive observed failures (permanent delivery failures,
    /// decode failures) that trip the breaker `Closed → Open`.
    /// `0` disables the breaker entirely.
    pub trip_threshold: u32,
    /// How long (simulated ms) the breaker stays `Open` before probing
    /// (`Open → HalfOpen`).
    pub open_ms: u64,
    /// Consecutive successes in `HalfOpen` that close the breaker.
    pub close_threshold: u32,
    /// Inbound payloads accepted from one partner per pump; the excess is
    /// shed with an overload notice. `usize::MAX` = unbounded.
    pub inbound_queue_cap: usize,
    /// Outbound payloads queued toward one partner; the excess is shed
    /// and fails its session fast. `usize::MAX` = unbounded.
    pub outbound_queue_cap: usize,
    /// Decode failures of the *same checksum* from one partner that
    /// escalate from dead-lettering to partner quarantine (forced open
    /// breaker). `0` disables escalation.
    pub poison_threshold: u32,
    /// Wire sends (retransmissions + queued new sends) one pump may
    /// perform. `usize::MAX` = unbounded (the pre-subsystem behavior:
    /// every due retransmission and every emitted send goes out at once).
    pub pump_send_budget: usize,
}

impl Default for PartnerPolicy {
    fn default() -> Self {
        Self::permissive()
    }
}

impl PartnerPolicy {
    /// No containment at all: breaker off, queues unbounded, no poison
    /// escalation. Byte-identical to the engine before this subsystem.
    pub fn permissive() -> Self {
        Self {
            trip_threshold: 0,
            open_ms: 0,
            close_threshold: 1,
            inbound_queue_cap: usize::MAX,
            outbound_queue_cap: usize::MAX,
            poison_threshold: 0,
            pump_send_budget: usize::MAX,
        }
    }

    /// A guarded profile for hostile-partner environments: trip after 3
    /// consecutive failures, hold open 5 s, close after 2 good probes,
    /// bounded queues, poison quarantine after 3 identical decode
    /// failures. The send budget stays unbounded — bound it explicitly
    /// when modeling shared-wire contention.
    pub fn guarded() -> Self {
        Self {
            trip_threshold: 3,
            open_ms: 5_000,
            close_threshold: 2,
            inbound_queue_cap: 64,
            outbound_queue_cap: 64,
            poison_threshold: 3,
            pump_send_budget: usize::MAX,
        }
    }

    /// Whether the circuit breaker is active under this policy.
    pub fn breaker_enabled(&self) -> bool {
        self.trip_threshold > 0
    }
}

/// Circuit-breaker state for one partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerState {
    /// Healthy: traffic flows, failures are counted.
    Closed,
    /// Tripped: all sends to the partner are shed until `open_ms` passes.
    Open,
    /// Probing: sends flow again; a failure re-opens, `close_threshold`
    /// successes close.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        })
    }
}

/// One partner's breaker: the state plus the counters that drive its
/// transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    opened_at: SimTime,
    trips: u64,
}

impl CircuitBreaker {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            consecutive_successes: 0,
            opened_at: SimTime::ZERO,
            trips: 0,
        }
    }
}

/// The partner-health ledger of one engine: breakers, poison counts, and
/// shed counters, all keyed by partner name (deterministic `BTreeMap`
/// iteration order).
#[derive(Debug, Default)]
pub struct PartnerHealth {
    policy: PartnerPolicy,
    breakers: BTreeMap<String, CircuitBreaker>,
    /// Decode failures per (partner, payload checksum) — the poison
    /// escalation ladder.
    poison: BTreeMap<(String, u64), u32>,
    stats: HealthStats,
}

impl PartnerHealth {
    /// Replaces the containment policy. Existing breaker state is kept:
    /// operators tune thresholds without resetting history.
    pub fn set_policy(&mut self, policy: PartnerPolicy) {
        self.policy = policy;
    }

    /// The active policy.
    pub fn policy(&self) -> &PartnerPolicy {
        &self.policy
    }

    /// Shed and trip counters.
    pub fn stats(&self) -> &HealthStats {
        &self.stats
    }

    /// Mutable counters (the engine records sheds it performs itself).
    pub(crate) fn stats_mut(&mut self) -> &mut HealthStats {
        &mut self.stats
    }

    /// Promotes expired `Open` breakers to `HalfOpen`. Called once per
    /// pump (stage 0) so promotion happens at a deterministic point in
    /// the pipeline, never lazily mid-stage.
    pub fn advance(&mut self, now: SimTime) {
        for breaker in self.breakers.values_mut() {
            if breaker.state == BreakerState::Open
                && now.since(breaker.opened_at) >= self.policy.open_ms
            {
                breaker.state = BreakerState::HalfOpen;
                breaker.consecutive_successes = 0;
            }
        }
    }

    /// Whether sends toward `partner` may go on the wire right now
    /// (`Closed` and `HalfOpen` allow, `Open` sheds). Checked against the
    /// breaker ledger directly — not `breaker_enabled()` — because poison
    /// escalation can force a breaker open even when the failure-streak
    /// breaker is disabled by policy.
    pub fn allows_send(&self, partner: &str) -> bool {
        match self.breakers.get(partner) {
            Some(b) => b.state != BreakerState::Open,
            None => true,
        }
    }

    /// Records an observed failure (permanent delivery failure or decode
    /// failure) against `partner`. Returns `true` when this observation
    /// tripped the breaker open (the caller then abandons outstanding
    /// retransmissions toward the partner).
    pub fn record_failure(&mut self, partner: &str, now: SimTime) -> bool {
        if !self.policy.breaker_enabled() {
            return false;
        }
        let breaker = self.breakers.entry(partner.to_string()).or_insert_with(CircuitBreaker::new);
        match breaker.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // A failed probe re-opens immediately.
                breaker.state = BreakerState::Open;
                breaker.opened_at = now;
                breaker.consecutive_failures = 0;
                breaker.trips += 1;
                self.stats.breaker_trips += 1;
                true
            }
            BreakerState::Closed => {
                breaker.consecutive_failures += 1;
                if breaker.consecutive_failures >= self.policy.trip_threshold {
                    breaker.state = BreakerState::Open;
                    breaker.opened_at = now;
                    breaker.consecutive_failures = 0;
                    breaker.trips += 1;
                    self.stats.breaker_trips += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records an observed success (acknowledged delivery, cleanly decoded
    /// inbound payload) for `partner`: resets the failure streak and, in
    /// `HalfOpen`, walks the breaker back toward `Closed`.
    pub fn record_success(&mut self, partner: &str) {
        if !self.policy.breaker_enabled() {
            return;
        }
        let Some(breaker) = self.breakers.get_mut(partner) else {
            return; // never failed: nothing to repair
        };
        match breaker.state {
            BreakerState::Closed => breaker.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                breaker.consecutive_successes += 1;
                if breaker.consecutive_successes >= self.policy.close_threshold {
                    breaker.state = BreakerState::Closed;
                    breaker.consecutive_failures = 0;
                    breaker.consecutive_successes = 0;
                }
            }
            // Acks can arrive for sends made before the trip; they don't
            // reopen traffic early — the open window is time-driven.
            BreakerState::Open => {}
        }
    }

    /// Records a decode failure of `checksum` from `partner` on the
    /// poison ladder. Returns `true` when the same checksum has now
    /// failed `poison_threshold` times and the partner is quarantined
    /// (breaker forced open regardless of its failure streak).
    pub fn record_poison(&mut self, partner: &str, checksum: u64, now: SimTime) -> bool {
        if self.policy.poison_threshold == 0 {
            return false;
        }
        let count = self.poison.entry((partner.to_string(), checksum)).or_insert(0);
        *count += 1;
        if *count >= self.policy.poison_threshold {
            self.poison.remove(&(partner.to_string(), checksum));
            self.stats.poison_trips += 1;
            let breaker =
                self.breakers.entry(partner.to_string()).or_insert_with(CircuitBreaker::new);
            if breaker.state != BreakerState::Open {
                breaker.state = BreakerState::Open;
                breaker.opened_at = now;
                breaker.consecutive_failures = 0;
                breaker.trips += 1;
                self.stats.breaker_trips += 1;
            }
            return true;
        }
        false
    }

    /// The breaker state for one partner (`Closed` if it never tripped).
    pub fn breaker_state(&self, partner: &str) -> BreakerState {
        self.breakers.get(partner).map(|b| b.state).unwrap_or(BreakerState::Closed)
    }

    /// Every partner with breaker history, with its state and trip count
    /// — sorted by name, ready for determinism fingerprints.
    pub fn breaker_states(&self) -> Vec<(String, BreakerState, u64)> {
        self.breakers.iter().map(|(name, b)| (name.clone(), b.state, b.trips)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guarded() -> PartnerHealth {
        let mut h = PartnerHealth::default();
        h.set_policy(PartnerPolicy::guarded());
        h
    }

    #[test]
    fn permissive_policy_never_trips() {
        let mut h = PartnerHealth::default();
        for _ in 0..100 {
            assert!(!h.record_failure("TP1", SimTime::ZERO));
        }
        assert!(h.allows_send("TP1"));
        assert_eq!(h.breaker_state("TP1"), BreakerState::Closed);
        assert_eq!(h.stats().breaker_trips, 0);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut h = guarded();
        let t0 = SimTime::ZERO;
        assert!(!h.record_failure("TP1", t0));
        assert!(!h.record_failure("TP1", t0));
        assert!(h.record_failure("TP1", t0), "third consecutive failure trips");
        assert_eq!(h.breaker_state("TP1"), BreakerState::Open);
        assert!(!h.allows_send("TP1"));
        assert_eq!(h.stats().breaker_trips, 1);
        // Time passes: the open window expires and the breaker probes.
        h.advance(t0 + 4_999);
        assert_eq!(h.breaker_state("TP1"), BreakerState::Open, "window not yet over");
        h.advance(t0 + 5_000);
        assert_eq!(h.breaker_state("TP1"), BreakerState::HalfOpen);
        assert!(h.allows_send("TP1"), "half-open lets probes through");
        // Two good probes close it.
        h.record_success("TP1");
        assert_eq!(h.breaker_state("TP1"), BreakerState::HalfOpen);
        h.record_success("TP1");
        assert_eq!(h.breaker_state("TP1"), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut h = guarded();
        for _ in 0..3 {
            h.record_failure("TP1", SimTime::ZERO);
        }
        h.advance(SimTime::ZERO + 5_000);
        assert_eq!(h.breaker_state("TP1"), BreakerState::HalfOpen);
        assert!(h.record_failure("TP1", SimTime::ZERO + 5_000), "one failed probe re-trips");
        assert_eq!(h.breaker_state("TP1"), BreakerState::Open);
        assert_eq!(h.stats().breaker_trips, 2);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut h = guarded();
        h.record_failure("TP1", SimTime::ZERO);
        h.record_failure("TP1", SimTime::ZERO);
        h.record_success("TP1");
        assert!(!h.record_failure("TP1", SimTime::ZERO), "streak was reset");
        assert!(!h.record_failure("TP1", SimTime::ZERO));
        assert!(h.record_failure("TP1", SimTime::ZERO), "a fresh streak of 3 trips");
    }

    #[test]
    fn breakers_are_per_partner() {
        let mut h = guarded();
        for _ in 0..3 {
            h.record_failure("TP1", SimTime::ZERO);
        }
        assert!(!h.allows_send("TP1"));
        assert!(h.allows_send("TP2"), "another partner's breaker is independent");
        assert_eq!(h.breaker_states().len(), 1, "only partners with history appear");
    }

    #[test]
    fn poison_escalates_same_checksum_to_quarantine() {
        let mut h = guarded();
        assert!(!h.record_poison("TP1", 0xbad, SimTime::ZERO));
        assert!(!h.record_poison("TP1", 0xbad, SimTime::ZERO));
        // A *different* checksum has its own ladder.
        assert!(!h.record_poison("TP1", 0xfeed, SimTime::ZERO));
        assert!(h.record_poison("TP1", 0xbad, SimTime::ZERO), "third identical failure");
        assert_eq!(h.breaker_state("TP1"), BreakerState::Open);
        assert_eq!(h.stats().poison_trips, 1);
        assert_eq!(h.stats().breaker_trips, 1, "quarantine counts as a trip");
    }

    #[test]
    fn open_breaker_ignores_late_acks() {
        let mut h = guarded();
        for _ in 0..3 {
            h.record_failure("TP1", SimTime::ZERO);
        }
        h.record_success("TP1");
        assert_eq!(h.breaker_state("TP1"), BreakerState::Open, "open window is time-driven");
    }
}
