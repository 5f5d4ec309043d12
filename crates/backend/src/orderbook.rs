//! Order bookkeeping shared by the ERP simulators.

use b2b_document::{record, Document, DocumentError, ElementAt, Money, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
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
    /// Numbers of the orders still pending, in PO-number order: a poll
    /// visits these instead of every order ever stored.
    pending: BTreeSet<String>,
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
        if record.state == OrderState::Pending {
            self.pending.insert(record.po_number.clone());
        }
        self.orders.insert(record.po_number.clone(), record);
        true
    }

    /// Looks up an order.
    pub fn get(&self, po_number: &str) -> Option<&OrderRecord> {
        self.orders.get(po_number)
    }

    /// Order numbers currently pending, in order.
    pub fn pending(&self) -> impl Iterator<Item = &str> {
        self.pending.iter().map(String::as_str)
    }

    /// Marks an order processed with the given acknowledgment status.
    pub fn mark_processed(&mut self, po_number: &str, ack_status: &str) -> bool {
        match self.orders.get_mut(po_number) {
            Some(o) => {
                o.state = OrderState::Processed;
                o.ack_status = Some(ack_status.to_string());
                self.pending.remove(po_number);
                true
            }
            None => false,
        }
    }

    /// Acknowledges the pending orders in PO-number order: `ack` builds
    /// one order's acknowledgment and names its status, and the order is
    /// marked processed. An error stops the pass and leaves that order
    /// and the later ones pending.
    pub fn acknowledge_pending<T, E>(
        &mut self,
        mut ack: impl FnMut(&OrderRecord) -> Result<(T, &'static str), E>,
    ) -> Result<Vec<T>, E> {
        let mut acks = Vec::new();
        while let Some(po_number) = self.pending.pop_first() {
            let order = self.orders.get(&po_number).expect("the pending index names stored orders");
            match ack(order) {
                Ok((acked, status)) => {
                    self.mark_processed(&po_number, status);
                    acks.push(acked);
                }
                Err(e) => {
                    self.pending.insert(po_number);
                    return Err(e);
                }
            }
        }
        Ok(acks)
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

/// The value at `group.name` of an order's body, `None` when absent.
/// Reads the body records directly, as `Document::lookup` of
/// `"group.name"` would, without parsing a path on every order.
pub(crate) fn field<'d>(doc: &'d Document, group: &str, name: &str) -> Option<&'d Value> {
    match doc.body() {
        Value::Record(fields) => match fields.get(group)? {
            Value::Record(fields) => fields.get(name),
            _ => None,
        },
        _ => None,
    }
}

/// [`field`], failing where `Document::get` of `"group.name"` would, with
/// the same error.
pub(crate) fn required_field<'d>(
    doc: &'d Document,
    group: &str,
    name: &str,
) -> Result<&'d Value, DocumentError> {
    field(doc, group, name).ok_or_else(|| missing(format!("{group}.{name}")))
}

/// The list `lines` at the top of an order's body.
fn line_list<'d>(doc: &'d Document, lines: &str) -> Result<&'d [Value], DocumentError> {
    doc.body().as_record("$")?.get(lines).ok_or_else(|| missing(lines.into()))?.as_list(lines)
}

/// Checks what [`ack_lines`] copies from an order: its list `lines` holds
/// records that each have the fields `keep`. A back end stores only an
/// order that passes, so that acknowledging it cannot fail later.
pub(crate) fn check_lines(
    doc: &Document,
    lines: &str,
    keep: [&str; 2],
) -> Result<(), DocumentError> {
    for (i, line) in line_list(doc, lines)?.iter().enumerate() {
        let rec = line.as_record(ElementAt(lines, i))?;
        if let Some(field) = keep.iter().find(|field| !rec.contains_key(field)) {
            return Err(missing(format!("{lines}[{i}].{field}")));
        }
    }
    Ok(())
}

/// The acknowledgment lines of an order that passed [`check_lines`]: each
/// line's `keep` fields, and `status` under the key `status_key`.
pub(crate) fn ack_lines(
    doc: &Document,
    lines: &str,
    keep: [&str; 2],
    (status_key, status): (&str, &str),
) -> Result<Vec<Value>, DocumentError> {
    let list = line_list(doc, lines)?;
    let mut acks = Vec::with_capacity(list.len());
    for (i, line) in list.iter().enumerate() {
        let rec = line.as_record(ElementAt(lines, i))?;
        let field =
            |name| rec.get(name).cloned().ok_or_else(|| missing(format!("{lines}[{i}].{name}")));
        acks.push(record! {
            keep[0] => field(keep[0])?,
            keep[1] => field(keep[1])?,
            status_key => Value::text(status),
        });
    }
    Ok(acks)
}

fn missing(path: String) -> DocumentError {
    DocumentError::PathNotFound { path }
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
        assert_eq!(book.pending().collect::<Vec<_>>(), vec!["1"]);
        assert!(book.mark_processed("1", "accepted"));
        assert_eq!(book.pending().count(), 0);
        assert_eq!(book.get("1").unwrap().ack_status.as_deref(), Some("accepted"));
        assert!(!book.mark_processed("ghost", "x"));
        assert_eq!(book.len(), 1);
        assert!(!book.is_empty());
    }

    /// What `pending()` must list: a filter over every order.
    fn pending_by_scan(book: &OrderBook) -> Vec<&str> {
        book.orders
            .values()
            .filter(|o| o.state == OrderState::Pending)
            .map(|o| o.po_number.as_str())
            .collect()
    }

    #[test]
    fn the_pending_index_follows_inserts_and_processing() {
        let mut book = OrderBook::new();
        // Numbers arrive out of order; every third is processed at once,
        // every fifth (again), and numbers never stored are refused.
        for i in 0..60u32 {
            let n = format!("{}", (i * 37) % 61);
            assert!(book.insert(record(&n)));
            if i % 3 == 0 {
                assert!(book.mark_processed(&n, "accepted"));
            }
            if i % 5 == 0 {
                book.mark_processed(&n, "rejected");
            }
            assert!(!book.mark_processed(&format!("ghost-{i}"), "accepted"));
            assert_eq!(book.pending().collect::<Vec<_>>(), pending_by_scan(&book), "after {n}");
        }
        assert!(!book.insert(record("0")), "duplicates leave the index alone");
        assert_eq!(book.pending().collect::<Vec<_>>(), pending_by_scan(&book));
    }

    #[test]
    fn acknowledging_stops_at_an_error_and_keeps_the_rest_pending() {
        let mut book = OrderBook::new();
        for n in ["3", "1", "2"] {
            book.insert(record(n));
        }
        let failed = book.acknowledge_pending(|o| match o.po_number.as_str() {
            "2" => Err("bad order"),
            n => Ok((n.to_string(), "accepted")),
        });
        assert_eq!(failed, Err("bad order"));
        assert_eq!(book.pending().collect::<Vec<_>>(), vec!["2", "3"]);
        let acked = book.acknowledge_pending(|o| Ok::<_, ()>((o.po_number.clone(), "rejected")));
        assert_eq!(acked, Ok(vec!["2".to_string(), "3".to_string()]));
        assert_eq!(book.pending().count(), 0);
        assert_eq!(pending_by_scan(&book), Vec::<&str>::new());
        assert_eq!(book.get("1").unwrap().ack_status.as_deref(), Some("accepted"));
        assert_eq!(book.get("3").unwrap().ack_status.as_deref(), Some("rejected"));
    }
}
