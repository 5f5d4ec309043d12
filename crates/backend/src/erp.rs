//! The back-end application abstraction.

use crate::error::Result;
use b2b_document::{Document, FormatId, Money};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How an ERP decides what to acknowledge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AckPolicy {
    /// Accept every order.
    AcceptAll,
    /// Reject orders strictly above the limit (credit check).
    RejectAbove(Money),
    /// Accept with changes above the limit (partial availability).
    ModifyAbove(Money),
}

impl AckPolicy {
    /// The normalized-status the policy yields for an order total.
    pub fn status_for(&self, amount: Money) -> &'static str {
        match self {
            Self::AcceptAll => "accepted",
            Self::RejectAbove(limit) => match amount.checked_cmp(*limit) {
                Ok(std::cmp::Ordering::Greater) => "rejected",
                _ => "accepted",
            },
            Self::ModifyAbove(limit) => match amount.checked_cmp(*limit) {
                Ok(std::cmp::Ordering::Greater) => "accepted-with-changes",
                _ => "accepted",
            },
        }
    }
}

/// A back-end application: stores purchase orders in its native format and
/// emits acknowledgments in its native format.
pub trait BackendApplication: Send {
    /// System name (the rule-context `target`, e.g. `SAP`).
    fn name(&self) -> &str;

    /// The native document format.
    fn native_format(&self) -> FormatId;

    /// Stores a purchase order (native format). The paper's "Store … PO"
    /// application-process step. The order book keeps the caller's `Arc`,
    /// so storing shares the document rather than copying it.
    fn store_po(&mut self, doc: &Arc<Document>) -> Result<()>;

    /// Processes pending orders, producing one acknowledgment document
    /// (native format) per order. The paper's "Extract … POA" step.
    fn extract_poas(&mut self) -> Result<Vec<Document>>;

    /// Files an inbound purchase-order acknowledgment (native format) —
    /// the buyer side of Figure 1 ("Store POA"). Like
    /// [`BackendApplication::store_po`], it keeps the caller's `Arc`.
    fn store_poa(&mut self, doc: &Arc<Document>) -> Result<()>;

    /// Number of acknowledgments filed via [`BackendApplication::store_poa`].
    fn poa_count(&self) -> usize;

    /// Number of orders stored.
    fn order_count(&self) -> usize;

    /// Acknowledgment status of an order, once processed (normalized
    /// vocabulary: `accepted` / `rejected` / `accepted-with-changes`).
    fn order_status(&self, po_number: &str) -> Option<String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::Currency;

    #[test]
    fn policies_map_amounts_to_statuses() {
        let m = |u| Money::from_units(u, Currency::Usd);
        assert_eq!(AckPolicy::AcceptAll.status_for(m(1_000_000)), "accepted");
        let reject = AckPolicy::RejectAbove(m(100_000));
        assert_eq!(reject.status_for(m(100_000)), "accepted", "limit is inclusive-accept");
        assert_eq!(reject.status_for(m(100_001)), "rejected");
        let modify = AckPolicy::ModifyAbove(m(50_000));
        assert_eq!(modify.status_for(m(60_000)), "accepted-with-changes");
        assert_eq!(modify.status_for(m(50_000)), "accepted");
    }
}
