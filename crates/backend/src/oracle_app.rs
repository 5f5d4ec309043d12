//! The Oracle-like ERP simulator (speaks interface-table rows). It
//! addresses rows by their own table and column names
//! (`PO_HEADERS.SEGMENT1`), as the codec keys them.

use crate::erp::{AckPolicy, BackendApplication};
use crate::error::{BackendError, Result};
use crate::orderbook::{
    ack_lines, check_lines, field, required_field, OrderBook, OrderRecord, OrderState,
};
use b2b_document::{record, Date, DocKind, Document, FormatId, Value};
use std::sync::Arc;

/// Oracle status codes (mirrors `b2b_document::formats` constants).
fn oracle_status(normalized_status: &str) -> &'static str {
    match normalized_status {
        "rejected" => "REJECTED",
        "accepted-with-changes" => "MODIFIED",
        _ => "ACCEPTED",
    }
}

/// Oracle-like back end: PO_HEADERS/PO_LINES in, PO_ACKNOWLEDGMENTS out.
pub struct OracleSystem {
    name: String,
    policy: AckPolicy,
    book: OrderBook,
    filed_acks: Vec<Arc<Document>>,
}

impl OracleSystem {
    /// Creates a system named `Oracle` with the given policy.
    pub fn new(policy: AckPolicy) -> Self {
        Self { name: "Oracle".to_string(), policy, book: OrderBook::new(), filed_acks: Vec::new() }
    }

    fn err(&self, reason: impl Into<String>) -> BackendError {
        BackendError::BadDocument { system: self.name.clone(), reason: reason.into() }
    }
}

impl BackendApplication for OracleSystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn native_format(&self) -> FormatId {
        FormatId::ORACLE_APPS
    }

    fn store_po(&mut self, doc: &Arc<Document>) -> Result<()> {
        if doc.format() != &FormatId::ORACLE_APPS {
            return Err(BackendError::WrongFormat {
                system: self.name.clone(),
                expected: FormatId::ORACLE_APPS.to_string(),
                found: doc.format().to_string(),
            });
        }
        if doc.kind() != DocKind::PurchaseOrder {
            return Err(self.err(format!("cannot store a {}", doc.kind())));
        }
        let po_number = required_field(doc, "PO_HEADERS", "SEGMENT1")
            .and_then(|v| v.as_text("PO_HEADERS.SEGMENT1"))
            .map_err(|e| self.err(e.to_string()))?
            .to_string();
        let amount = required_field(doc, "PO_HEADERS", "TOTAL_AMOUNT")
            .and_then(|v| v.as_money("PO_HEADERS.TOTAL_AMOUNT"))
            .map_err(|e| self.err(e.to_string()))?;
        check_lines(doc, "PO_LINES", ["LINE_NUM", "QUANTITY"])
            .map_err(|e| self.err(e.to_string()))?;
        let inserted = self.book.insert(OrderRecord {
            po_number: po_number.clone(),
            amount,
            document: Arc::clone(doc),
            state: OrderState::Pending,
            ack_status: None,
        });
        if !inserted {
            return Err(BackendError::DuplicateOrder { system: self.name.clone(), po_number });
        }
        Ok(())
    }

    fn extract_poas(&mut self) -> Result<Vec<Document>> {
        let (policy, name) = (&self.policy, &self.name);
        self.book.acknowledge_pending(|rec| {
            let stored = &rec.document;
            let status = policy.status_for(rec.amount);
            let code = oracle_status(status);
            let ack_date = field(stored, "PO_HEADERS", "CREATION_DATE")
                .and_then(|v| v.as_date("CREATION_DATE").ok())
                .map(|d| d.plus_days(1))
                .unwrap_or(Date::new(2001, 9, 18).expect("valid"));
            let lines =
                ack_lines(stored, "PO_LINES", ["LINE_NUM", "QUANTITY"], ("STATUS", code)).map_err(
                    |e| BackendError::BadDocument { system: name.clone(), reason: e.to_string() },
                )?;
            let body = record! {
                "PO_ACKNOWLEDGMENTS" => record! {
                    "PO_NUMBER" => Value::text(&rec.po_number),
                    "STATUS" => Value::text(code),
                    "ACK_DATE" => Value::Date(ack_date),
                },
                "PO_ACK_LINES" => Value::List(lines),
            };
            Ok((stored.reply(DocKind::PurchaseOrderAck, FormatId::ORACLE_APPS, body), status))
        })
    }

    fn store_poa(&mut self, doc: &Arc<Document>) -> Result<()> {
        if doc.format() != &FormatId::ORACLE_APPS {
            return Err(BackendError::WrongFormat {
                system: self.name.clone(),
                expected: FormatId::ORACLE_APPS.to_string(),
                found: doc.format().to_string(),
            });
        }
        if doc.kind() != DocKind::PurchaseOrderAck {
            return Err(self.err(format!("cannot file a {} as a POA", doc.kind())));
        }
        self.filed_acks.push(Arc::clone(doc));
        Ok(())
    }

    fn poa_count(&self) -> usize {
        self.filed_acks.len()
    }

    fn order_count(&self) -> usize {
        self.book.len()
    }

    fn order_status(&self, po_number: &str) -> Option<String> {
        self.book.get(po_number).and_then(|o| o.ack_status.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::formats::sample_oracle_po;
    use b2b_document::{Currency, Money};

    #[test]
    fn store_and_extract_round_trip() {
        let mut ora = OracleSystem::new(AckPolicy::AcceptAll);
        let po = Arc::new(sample_oracle_po("4711", 12));
        ora.store_po(&po).unwrap();
        let poas = ora.extract_poas().unwrap();
        assert_eq!(poas.len(), 1);
        assert_eq!(poas[0].get("PO_ACKNOWLEDGMENTS.STATUS").unwrap(), &Value::text("ACCEPTED"));
        assert_eq!(poas[0].correlation(), po.correlation());
        assert_eq!(ora.order_status("4711").as_deref(), Some("accepted"));
    }

    #[test]
    fn modify_policy_marks_lines_modified() {
        let mut ora =
            OracleSystem::new(AckPolicy::ModifyAbove(Money::from_units(10, Currency::Usd)));
        ora.store_po(&Arc::new(sample_oracle_po("big", 50))).unwrap();
        let poas = ora.extract_poas().unwrap();
        assert_eq!(poas[0].get("PO_ACK_LINES[0].STATUS").unwrap(), &Value::text("MODIFIED"));
        assert_eq!(ora.order_status("big").as_deref(), Some("accepted-with-changes"));
    }

    #[test]
    fn rejects_wrong_format_and_duplicates() {
        let mut ora = OracleSystem::new(AckPolicy::AcceptAll);
        assert!(ora.store_po(&Arc::new(b2b_document::formats::sample_sap_po("1", 10))).is_err());
        let po = Arc::new(sample_oracle_po("1", 10));
        ora.store_po(&po).unwrap();
        assert!(ora.store_po(&po).is_err());
    }

    #[test]
    fn refuses_an_order_whose_line_it_could_not_acknowledge() {
        let mut ora = OracleSystem::new(AckPolicy::AcceptAll);
        let mut po = sample_oracle_po("4711", 12);
        po.set("PO_LINES[0]", Value::Int(1)).unwrap();
        assert_eq!(
            ora.store_po(&Arc::new(po)).unwrap_err().to_string(),
            "Oracle: bad document: expected record at `PO_LINES[0]`, found int"
        );
        let mut po = sample_oracle_po("4712", 12);
        po.set("PO_LINES[0]", record! { "LINE_NUM" => Value::Int(1) }).unwrap();
        assert_eq!(
            ora.store_po(&Arc::new(po)).unwrap_err().to_string(),
            "Oracle: bad document: path `PO_LINES[0].QUANTITY` not found in document"
        );
        assert_eq!(ora.order_count(), 0);
        assert!(ora.extract_poas().unwrap().is_empty());
    }
}
