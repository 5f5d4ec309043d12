//! Document model and wire formats for semantic B2B integration.
//!
//! This crate is the lowest layer of the system: everything that flows
//! between enterprises, through bindings, and into back-end applications is
//! a [`Document`] — a typed tree of [`Value`]s tagged with a business
//! [`DocKind`] (purchase order, purchase-order acknowledgment, …) and a
//! [`FormatId`] describing whose *shape* the tree has (the normalized
//! format, EDI X12, RosettaNet, OAGIS, SAP, Oracle).
//!
//! The crate also implements the wire syntaxes from scratch. [`formats`]
//! holds one walker per syntax family (X12 segments, XML elements, keyed
//! lines), each driven by one field table per (format, kind), plus the
//! binary codec and the [`formats::FormatRegistry`].
//!
//! Higher layers never parse wire syntax themselves; they speak documents.
//!
//! `unsafe` is denied everywhere but [`Str::as_str`], the unchecked UTF-8
//! view of an inline or shared text.

#![deny(unsafe_code)]

pub mod date;
pub mod document;
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
