//! Order bookkeeping shared by the ERP simulators.

use b2b_document::{Document, Money};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Lifecycle state of a stored order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderState {
    /// Stored, not yet processed.
    Pending,
    /// Processed; an acknowledgment was produced.
    Processed,
}

/// One order as the ERP sees it.
#[derive(Debug, Clone)]
pub struct OrderRecord {
    /// Order number (BELNR / SEGMENT1).
    pub po_number: String,
    /// Total amount.
    pub amount: Money,
    /// The stored native document, shared with the workflow variable it
    /// was stored from.
    pub document: Arc<Document>,
    /// Lifecycle state.
    pub state: OrderState,
    /// Status the acknowledgment carried (once processed).
    pub ack_status: Option<String>,
}

/// Keyed order store.
#[derive(Debug, Default)]
pub struct OrderBook {
    orders: BTreeMap<String, OrderRecord>,
}

impl OrderBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a new order; `false` when the number already exists.
    pub fn insert(&mut self, record: OrderRecord) -> bool {
        if self.orders.contains_key(&record.po_number) {
            return false;
        }
        self.orders.insert(record.po_number.clone(), record);
        true
    }

    /// Looks up an order.
    pub fn get(&self, po_number: &str) -> Option<&OrderRecord> {
        self.orders.get(po_number)
    }

    /// Order numbers currently pending, in order.
    pub fn pending(&self) -> Vec<String> {
        self.orders
            .values()
            .filter(|o| o.state == OrderState::Pending)
            .map(|o| o.po_number.clone())
            .collect()
    }

    /// Marks an order processed with the given acknowledgment status.
    pub fn mark_processed(&mut self, po_number: &str, ack_status: &str) -> bool {
        match self.orders.get_mut(po_number) {
            Some(o) => {
                o.state = OrderState::Processed;
                o.ack_status = Some(ack_status.to_string());
                true
            }
            None => false,
        }
    }

    /// Total number of orders.
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::normalized::sample_po;
    use b2b_document::Currency;

    fn record(n: &str) -> OrderRecord {
        OrderRecord {
            po_number: n.to_string(),
            amount: Money::from_units(100, Currency::Usd),
            document: Arc::new(sample_po(n, 100)),
            state: OrderState::Pending,
            ack_status: None,
        }
    }

    #[test]
    fn insert_and_process_lifecycle() {
        let mut book = OrderBook::new();
        assert!(book.insert(record("1")));
        assert!(!book.insert(record("1")), "duplicates rejected");
        assert_eq!(book.pending(), vec!["1"]);
        assert!(book.mark_processed("1", "accepted"));
        assert!(book.pending().is_empty());
        assert_eq!(book.get("1").unwrap().ack_status.as_deref(), Some("accepted"));
        assert!(!book.mark_processed("ghost", "x"));
        assert_eq!(book.len(), 1);
        assert!(!book.is_empty());
    }
}
