//! Document model and wire formats for semantic B2B integration.
//!
//! This crate is the lowest layer of the system: everything that flows
//! between enterprises, through bindings, and into back-end applications is
//! a [`Document`] — a typed tree of [`Value`]s tagged with a business
//! [`DocKind`] (purchase order, purchase-order acknowledgment, …) and a
//! [`FormatId`] describing whose *shape* the tree has (the normalized
//! format, EDI X12, RosettaNet, OAGIS, SAP, Oracle).
//!
//! The crate also implements the wire syntaxes from scratch:
//!
//! * [`edi`] — an EDI X12-style segment syntax with ISA/GS/ST envelopes and
//!   850 (PO) / 855 (POA) transaction sets,
//! * [`xml`] — a minimal XML reader/writer used by the RosettaNet and OAGIS
//!   codecs,
//! * [`formats`] — per-standard codecs converting between wire bytes and
//!   format-shaped [`Document`]s, plus a [`formats::FormatRegistry`].
//!
//! Higher layers never parse wire syntax themselves; they speak documents.

pub mod date;
pub mod document;
pub mod edi;
pub mod error;
pub mod formats;
pub mod ids;
pub mod intern;
pub mod money;
pub mod normalized;
pub mod path;
pub mod schema;
pub mod text;
pub mod value;
pub mod xml;

pub use date::Date;
pub use document::{DocKind, Document};
pub use error::{DocumentError, Result};
pub use formats::{FormatCodec, FormatId, FormatRegistry};
pub use ids::{CorrelationId, DocumentId};
pub use intern::{intern, interned_count, Symbol};
pub use money::{Currency, Money};
pub use path::{FieldPath, PathSeg};
pub use schema::{FieldSpec, Schema, TypeSpec, Violation};
pub use text::Str;
pub use value::{ElementAt, FieldVec, Value};
