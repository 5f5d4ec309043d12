//! Value-added network (VAN) simulation.
//!
//! Before the Internet, EDI travelled over VANs: each organization had a
//! mailbox with the VAN operator, deposited interchanges addressed to a
//! partner, and picked up its own mailbox on a schedule (Section 1). The
//! VAN never loses messages but adds batching latency — a different
//! trade-off than the Internet profile in [`crate::sim`], which the
//! messaging experiment compares.

use crate::clock::SimTime;
use crate::error::{NetworkError, Result};
use crate::message::{EndpointId, Envelope};
use std::collections::BTreeMap;

/// A deposited interchange awaiting pickup.
#[derive(Debug, Clone, PartialEq)]
struct Deposit {
    available_at: SimTime,
    envelope: Envelope,
}

/// Store-and-forward VAN with per-partner mailboxes.
#[derive(Debug, Default)]
pub struct Van {
    mailboxes: BTreeMap<EndpointId, Vec<Deposit>>,
    /// Batch window: deposits become visible at the next multiple of this.
    batch_window_ms: u64,
    deposits: u64,
    pickups: u64,
}

impl Van {
    /// Creates a VAN whose deposits become visible at multiples of
    /// `batch_window_ms` (0 = immediately).
    pub fn new(batch_window_ms: u64) -> Self {
        Self { batch_window_ms, ..Self::default() }
    }

    /// Opens a mailbox for a subscriber.
    pub fn subscribe(&mut self, endpoint: EndpointId) -> Result<()> {
        if self.mailboxes.contains_key(&endpoint) {
            return Err(NetworkError::DuplicateEndpoint { endpoint: endpoint.to_string() });
        }
        self.mailboxes.insert(endpoint, Vec::new());
        Ok(())
    }

    /// Deposits an interchange for the addressee at time `now`.
    pub fn deposit(&mut self, envelope: Envelope, now: SimTime) -> Result<()> {
        let available_at = if self.batch_window_ms == 0 {
            now
        } else {
            let w = self.batch_window_ms;
            SimTime::from_millis(now.as_millis().div_ceil(w).max(1) * w)
        };
        let mailbox = self
            .mailboxes
            .get_mut(&envelope.to)
            .ok_or_else(|| NetworkError::UnknownEndpoint { endpoint: envelope.to.to_string() })?;
        self.deposits += 1;
        mailbox.push(Deposit { available_at, envelope });
        Ok(())
    }

    /// Picks up everything visible at time `now` (in deposit order).
    pub fn pickup(&mut self, endpoint: &EndpointId, now: SimTime) -> Result<Vec<Envelope>> {
        let mailbox = self
            .mailboxes
            .get_mut(endpoint)
            .ok_or_else(|| NetworkError::UnknownEndpoint { endpoint: endpoint.to_string() })?;
        let mut ready = Vec::new();
        let mut waiting = Vec::new();
        for deposit in mailbox.drain(..) {
            if deposit.available_at <= now {
                ready.push(deposit.envelope);
            } else {
                waiting.push(deposit);
            }
        }
        *mailbox = waiting;
        self.pickups += ready.len() as u64;
        Ok(ready)
    }

    /// Number of deposits so far.
    pub fn deposits(&self) -> u64 {
        self.deposits
    }

    /// Number of envelopes picked up so far.
    pub fn pickups(&self) -> u64 {
        self.pickups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use b2b_document::FormatId;
    use bytes::Bytes;

    fn env(to: &EndpointId, now: SimTime) -> Envelope {
        Envelope::payload_with_id(
            MessageId::from_raw(now.as_millis()),
            EndpointId::new("acme"),
            to.clone(),
            FormatId::EDI_X12,
            Bytes::from_static(b"ISA*"),
            now,
        )
    }

    #[test]
    fn immediate_van_delivers_on_next_pickup() {
        let mut van = Van::new(0);
        let b = EndpointId::new("gadget");
        van.subscribe(b.clone()).unwrap();
        van.deposit(env(&b, SimTime::ZERO), SimTime::ZERO).unwrap();
        assert_eq!(van.pickup(&b, SimTime::ZERO).unwrap().len(), 1);
        assert_eq!(van.pickup(&b, SimTime::ZERO).unwrap().len(), 0, "mailbox drained");
    }

    #[test]
    fn batch_window_delays_visibility() {
        let mut van = Van::new(1000);
        let b = EndpointId::new("gadget");
        van.subscribe(b.clone()).unwrap();
        let t = SimTime::from_millis(300);
        van.deposit(env(&b, t), t).unwrap();
        assert!(van.pickup(&b, SimTime::from_millis(999)).unwrap().is_empty());
        assert_eq!(van.pickup(&b, SimTime::from_millis(1000)).unwrap().len(), 1);
    }

    #[test]
    fn deposit_exactly_on_window_boundary() {
        let mut van = Van::new(1000);
        let b = EndpointId::new("gadget");
        van.subscribe(b.clone()).unwrap();
        let t = SimTime::from_millis(2000);
        van.deposit(env(&b, t), t).unwrap();
        assert_eq!(van.pickup(&b, t).unwrap().len(), 1, "boundary deposit visible at boundary");
    }

    #[test]
    fn van_never_loses_messages() {
        let mut van = Van::new(500);
        let b = EndpointId::new("gadget");
        van.subscribe(b.clone()).unwrap();
        for i in 0..100u64 {
            let t = SimTime::from_millis(i * 37);
            van.deposit(env(&b, t), t).unwrap();
        }
        let got = van.pickup(&b, SimTime::from_millis(1_000_000)).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(van.deposits(), 100);
        assert_eq!(van.pickups(), 100);
    }

    #[test]
    fn unknown_mailboxes_are_errors() {
        let mut van = Van::new(0);
        let ghost = EndpointId::new("ghost");
        assert!(van.pickup(&ghost, SimTime::ZERO).is_err());
        assert!(van.deposit(env(&ghost, SimTime::ZERO), SimTime::ZERO).is_err());
        van.subscribe(ghost.clone()).unwrap();
        assert!(van.subscribe(ghost).is_err());
    }
}
