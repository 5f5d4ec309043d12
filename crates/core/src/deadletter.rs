//! Dead-letter queue: quarantine instead of silent loss.
//!
//! The integration engine's edge used to *count* decode failures,
//! unroutable documents, and permanent delivery failures and then drop
//! them. That satisfies the statistics but loses the evidence: an operator
//! cannot inspect what arrived corrupted, and an interaction killed by an
//! expired retry budget leaves no replayable trace. The dead-letter queue
//! keeps the full envelope of every such message so failures are
//! *contained* — inspectable, attributable, and (once the cause is fixed)
//! replayable through [`IntegrationEngine::replay_dead_letter`].
//!
//! [`IntegrationEngine::replay_dead_letter`]: crate::engine::IntegrationEngine::replay_dead_letter

use b2b_network::{Envelope, SimTime};
use std::fmt;

/// Why a message was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadLetterReason {
    /// Inbound payload did not decode in its declared format.
    DecodeFailure(String),
    /// Inbound document decoded but matched no session or agreement.
    Unroutable(String),
    /// Outbound message exhausted its retries or passed its deadline.
    DeliveryFailure {
        /// Wire sends actually made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for DeadLetterReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DecodeFailure(detail) => write!(f, "decode failure: {detail}"),
            Self::Unroutable(detail) => write!(f, "unroutable: {detail}"),
            Self::DeliveryFailure { attempts } => {
                write!(f, "delivery failed after {attempts} attempts")
            }
        }
    }
}

/// One quarantined message: the envelope exactly as it crossed the edge,
/// plus why and when it was put aside.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Queue-unique sequence number (the replay handle).
    pub seq: u64,
    /// Why it was quarantined.
    pub reason: DeadLetterReason,
    /// The message itself — raw bytes preserved, never re-encoded.
    pub envelope: Envelope,
    /// Simulation time of quarantine.
    pub quarantined_at: SimTime,
    /// Times this letter has been replayed.
    pub replays: u32,
    /// For letters born from a failed *replay*: the sequence number of
    /// the original letter, so an operator can follow the chain back to
    /// the first quarantine instead of losing the history.
    pub origin_seq: Option<u64>,
}

/// FIFO queue of quarantined messages.
#[derive(Debug, Default)]
pub struct DeadLetterQueue {
    letters: Vec<DeadLetter>,
    next_seq: u64,
}

impl DeadLetterQueue {
    /// Quarantines an envelope; returns its sequence number.
    pub fn push(&mut self, reason: DeadLetterReason, envelope: Envelope, now: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.letters.push(DeadLetter {
            seq,
            reason,
            envelope,
            quarantined_at: now,
            replays: 0,
            origin_seq: None,
        });
        seq
    }

    /// Quarantines the failed outcome of a replay: a fresh letter that
    /// keeps its provenance — a link to the original letter's sequence
    /// number and the accumulated replay count.
    pub fn push_linked(
        &mut self,
        reason: DeadLetterReason,
        envelope: Envelope,
        now: SimTime,
        origin_seq: u64,
        replays: u32,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.letters.push(DeadLetter {
            seq,
            reason,
            envelope,
            quarantined_at: now,
            replays,
            origin_seq: Some(origin_seq),
        });
        seq
    }

    /// Number of letters currently quarantined.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// All quarantined letters, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &DeadLetter> {
        self.letters.iter()
    }

    /// A letter by sequence number.
    pub fn get(&self, seq: u64) -> Option<&DeadLetter> {
        self.letters.iter().find(|l| l.seq == seq)
    }

    /// Removes and returns a letter for replay; the caller re-quarantines
    /// it (with `replays` bumped) if the replay fails again.
    pub fn take(&mut self, seq: u64) -> Option<DeadLetter> {
        let index = self.letters.iter().position(|l| l.seq == seq)?;
        Some(self.letters.remove(index))
    }

    /// Re-inserts a letter whose replay failed again.
    pub fn requeue(&mut self, mut letter: DeadLetter) {
        letter.replays += 1;
        self.letters.push(letter);
    }

    /// The sequence number the next quarantined letter will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::FormatId;
    use b2b_network::{Bytes, EndpointId, MessageId};

    fn envelope() -> Envelope {
        Envelope::payload_with_id(
            MessageId::from_raw(1),
            EndpointId::new("ep:a"),
            EndpointId::new("ep:b"),
            FormatId::EDI_X12,
            Bytes::from_static(b"garbage"),
            SimTime::ZERO,
        )
    }

    #[test]
    fn push_take_requeue_roundtrip() {
        let mut q = DeadLetterQueue::default();
        assert!(q.is_empty());
        let seq = q.push(
            DeadLetterReason::DecodeFailure("bad header".into()),
            envelope(),
            SimTime::ZERO + 5,
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.get(seq).unwrap().quarantined_at, SimTime::ZERO + 5);
        let letter = q.take(seq).unwrap();
        assert!(q.is_empty());
        assert_eq!(letter.replays, 0);
        q.requeue(letter);
        assert_eq!(q.len(), 1);
        assert_eq!(q.get(seq).unwrap().replays, 1);
        assert!(q.take(99).is_none());
    }

    #[test]
    fn sequence_numbers_are_stable_and_unique() {
        let mut q = DeadLetterQueue::default();
        let a =
            q.push(DeadLetterReason::Unroutable("no agreement".into()), envelope(), SimTime::ZERO);
        let b =
            q.push(DeadLetterReason::DeliveryFailure { attempts: 6 }, envelope(), SimTime::ZERO);
        assert_ne!(a, b);
        q.take(a);
        let c =
            q.push(DeadLetterReason::Unroutable("still none".into()), envelope(), SimTime::ZERO);
        assert_ne!(c, a, "sequence numbers are never reused");
    }

    #[test]
    fn linked_push_preserves_provenance() {
        let mut q = DeadLetterQueue::default();
        let origin =
            q.push(DeadLetterReason::DeliveryFailure { attempts: 6 }, envelope(), SimTime::ZERO);
        assert_eq!(q.get(origin).unwrap().origin_seq, None, "first quarantine has no origin");
        // Operator replays; the replay fails again → fresh letter, linked.
        let letter = q.take(origin).unwrap();
        let relapse = q.push_linked(
            DeadLetterReason::DeliveryFailure { attempts: 6 },
            letter.envelope,
            SimTime::ZERO + 500,
            origin,
            letter.replays + 1,
        );
        let relapsed = q.get(relapse).unwrap();
        assert_eq!(relapsed.origin_seq, Some(origin));
        assert_eq!(relapsed.replays, 1);
        assert_ne!(relapse, origin, "the relapse is a new letter, history intact");
    }

    #[test]
    fn reasons_render_for_operators() {
        assert!(DeadLetterReason::DecodeFailure("x".into()).to_string().contains("decode"));
        assert!(DeadLetterReason::Unroutable("y".into()).to_string().contains("unroutable"));
        assert!(DeadLetterReason::DeliveryFailure { attempts: 4 }
            .to_string()
            .contains("4 attempts"));
    }
}
