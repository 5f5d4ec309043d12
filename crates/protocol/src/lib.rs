//! B2B protocol library: public-process definitions.
//!
//! A *public process* (Section 4.1) is an organization-external message
//! exchange sequence: steps that send or receive messages from trading
//! partners, plus *connection steps* that hand messages and control to and
//! from bindings. This crate is the "standards library" of such
//! definitions — pure data, no execution (the integration engine in
//! `b2b-core` compiles them onto the WFMS):
//!
//! * [`model`] — the public-process definition language itself,
//! * [`patterns`] — message-exchange patterns (one-way, request/reply,
//!   broadcast, multi-step) and their generated role processes,
//! * [`pip3a4`] — RosettaNet PIP 3A4 with RNIF-style receipt
//!   acknowledgments and time-outs,
//! * [`edi_roundtrip`] — the classic EDI 850/855 round trip,
//! * [`binary_roundtrip`] — the same round trip on the compact binary
//!   wire format,
//! * [`oagis_bod`] — OAGIS PROCESS_PO / ACKNOWLEDGE_PO,
//! * [`bpss`] — an ebXML-BPSS-like textual language for *negotiated*
//!   public processes, with complementarity checking,
//! * [`agreement`] — trading-partner agreements binding two partners to a
//!   protocol (CPA-style),
//! * [`notification`] — the PIP-0A1-style failure notification exchanged
//!   when one side of a running interaction fails permanently.

#![forbid(unsafe_code)]

pub mod agreement;
pub mod binary_roundtrip;
pub mod bpss;
pub mod edi_roundtrip;
pub mod error;
pub mod model;
pub mod notification;
pub mod oagis_bod;
pub mod patterns;
pub mod pip3a4;

pub use agreement::TradingPartnerAgreement;
pub use error::{ProtocolError, Result};
pub use model::{PublicAction, PublicProcessDef, PublicStepDef, RoleId};
pub use notification::FailureNotice;
pub use patterns::MessageExchangePattern;
