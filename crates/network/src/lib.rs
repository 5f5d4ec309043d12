//! Simulated inter-enterprise network.
//!
//! The paper assumes messages travel between enterprises over the Internet
//! or a value-added network (VAN), and that the B2B layer must survive
//! "lost messages, incorrect message content or duplicate messages"
//! (Section 1). This crate is the substitute substrate (see DESIGN.md):
//!
//! * [`sim`] — a deterministic discrete-event network with configurable
//!   loss, duplication, reordering, corruption, and latency,
//! * [`van`] — a store-and-forward VAN mailbox layer (how EDI actually
//!   travelled before the Internet),
//! * [`reliable`] — an RNIF-style reliable-messaging endpoint: message ids,
//!   receipt acknowledgments, time-outs, retransmits, and duplicate
//!   suppression, exactly the services RosettaNet's RNIF provides under
//!   PIPs (Section 5.1),
//! * [`rng`] / [`clock`] — deterministic randomness and logical time, so
//!   every test and benchmark is reproducible from a seed.

#![forbid(unsafe_code)]

pub mod clock;
pub mod error;
pub mod fault;
pub mod fnv;
pub mod message;
pub mod reliable;
pub mod rng;
pub mod sim;
pub mod van;

pub use bytes::Bytes;
pub use clock::SimTime;
pub use error::{NetworkError, Result};
pub use fault::{FaultConfig, FaultPhase, FaultSchedule};
pub use fnv::{Fnv1a, FnvBuildHasher, FnvMap, FnvSet};
pub use message::{checksum_of, EndpointId, Envelope, MessageId, WireClass};
pub use reliable::{
    BackoffPolicy, InboundBatch, ReliableConfig, ReliableEndpoint, ReliableSnapshot, ReliableStats,
};
pub use rng::SimRng;
pub use sim::{NetworkStats, SimNetwork};
pub use van::Van;
