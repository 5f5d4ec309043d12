//! Identifier newtypes used across the integration stack.
//!
//! Identifiers are plain strings on the wire (EDI control numbers,
//! RosettaNet `thisDocumentIdentifier`, …) but are kept as distinct Rust
//! types so a document id can never be confused with a correlation id.
//! Each holds a [`Str`], so an id of up to [`INLINE_CAP`] bytes lives
//! inside the value: minting, cloning and dropping one never calls the
//! allocator.
//!
//! [`INLINE_CAP`]: crate::text::INLINE_CAP

use crate::text::Str;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Globally unique identifier of a single document instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocumentId(Str);

impl DocumentId {
    /// Wraps an existing identifier (e.g. parsed from a wire message).
    pub fn new(id: impl Into<Str>) -> Self {
        Self(id.into())
    }

    /// Allocates a fresh process-unique identifier.
    ///
    /// The counter is process-global so two enterprises simulated in the
    /// same process never mint the same id.
    pub fn fresh(prefix: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Self(Str::from_fmt(format_args!("{prefix}-{n:08}")))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DocumentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Correlates the documents of one business interaction (a PO and the POA
/// answering it share a correlation id).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CorrelationId(Str);

impl CorrelationId {
    /// Wraps an existing correlation value.
    pub fn new(id: impl Into<Str>) -> Self {
        Self(id.into())
    }

    /// Derives the conventional correlation id for a purchase-order number.
    pub fn for_po_number(po_number: &str) -> Self {
        Self(Str::from_fmt(format_args!("po:{po_number}")))
    }

    /// Derives the conventional correlation id for an RFQ number (the
    /// RFQ and every quote answering it share it).
    pub fn for_rfq_number(rfq_number: &str) -> Self {
        Self(Str::from_fmt(format_args!("rfq:{rfq_number}")))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CorrelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique() {
        let a = DocumentId::fresh("doc");
        let b = DocumentId::fresh("doc");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("doc-"));
    }

    #[test]
    fn correlation_for_po_number_is_stable() {
        assert_eq!(CorrelationId::for_po_number("4711"), CorrelationId::for_po_number("4711"));
        assert_eq!(CorrelationId::for_po_number("4711").as_str(), "po:4711");
    }
}
