//! Document transformation engine (the binding's "Transform to …" steps).
//!
//! Section 4.2 of the paper places *all* format transformations inside
//! bindings, between public processes (partner formats) and private
//! processes (the normalized format). This crate provides:
//!
//! * [`mapping`] — a declarative mapping language (field moves, constants,
//!   code-value maps, per-line iteration, list construction, context
//!   injection, currency extraction, money aggregation),
//! * [`program`] — transformation programs: an ordered rule list between a
//!   (source format, target format, document kind) triple, applied by
//!   running each rule against the source document,
//! * [`registry`] — the transformation registry bindings resolve against:
//!   dispatch is a lookup plus [`TransformProgram::apply`],
//! * [`builtin`] — the thirty-two concrete programs mapping EDI,
//!   RosettaNet, OAGIS, SAP, Oracle and binary shapes to and from the
//!   normalized format.
//!
//! Transformations intentionally drop fields the target shape cannot
//! express (e.g. EDI 850 as modeled here has no note field); DESIGN.md
//! documents this as the paper's "domain expert defines the mapping"
//! reality. Round-trip tests pin down exactly which fields survive.

#![forbid(unsafe_code)]

pub mod builtin;
pub mod context;
pub mod error;
pub mod mapping;
pub mod program;
pub mod registry;

pub use context::{ContextKey, TransformContext};
pub use error::{Result, TransformError};
pub use mapping::MappingRule;
pub use program::{TransformId, TransformProgram};
pub use registry::TransformRegistry;
