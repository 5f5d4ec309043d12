//! The SAP-like ERP simulator (speaks IDocs). It addresses IDocs by their
//! own segment and field names (`E1EDK01.BELNR`), as the codec keys them.

use crate::erp::{AckPolicy, BackendApplication};
use crate::error::{BackendError, Result};
use crate::orderbook::{
    ack_lines, check_lines, field, required_field, OrderBook, OrderRecord, OrderState,
};
use b2b_document::{record, Date, DocKind, Document, FormatId, Str, Value};
use std::sync::Arc;

/// SAP status codes (mirrors `b2b_document::formats` constants).
fn sap_action(normalized_status: &str) -> &'static str {
    match normalized_status {
        "rejected" => "003",
        "accepted-with-changes" => "002",
        _ => "001",
    }
}

/// SAP-like back end: ORDERS05 in, ORDRSP out.
pub struct SapSystem {
    name: String,
    policy: AckPolicy,
    book: OrderBook,
    docnum_counter: u64,
    filed_acks: Vec<Arc<Document>>,
}

impl SapSystem {
    /// Creates a system named `SAP` with the given acknowledgment policy.
    pub fn new(policy: AckPolicy) -> Self {
        Self {
            name: "SAP".to_string(),
            policy,
            book: OrderBook::new(),
            docnum_counter: 0,
            filed_acks: Vec::new(),
        }
    }

    fn err(&self, reason: impl Into<String>) -> BackendError {
        BackendError::BadDocument { system: self.name.clone(), reason: reason.into() }
    }
}

impl BackendApplication for SapSystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn native_format(&self) -> FormatId {
        FormatId::SAP_IDOC
    }

    fn store_po(&mut self, doc: &Arc<Document>) -> Result<()> {
        if doc.format() != &FormatId::SAP_IDOC {
            return Err(BackendError::WrongFormat {
                system: self.name.clone(),
                expected: FormatId::SAP_IDOC.to_string(),
                found: doc.format().to_string(),
            });
        }
        if doc.kind() != DocKind::PurchaseOrder {
            return Err(self.err(format!("cannot store a {}", doc.kind())));
        }
        let po_number = required_field(doc, "E1EDK01", "BELNR")
            .and_then(|v| v.as_text("E1EDK01.BELNR"))
            .map_err(|e| self.err(e.to_string()))?
            .to_string();
        let amount = required_field(doc, "E1EDS01", "SUMME")
            .and_then(|v| v.as_money("E1EDS01.SUMME"))
            .map_err(|e| self.err(e.to_string()))?;
        check_lines(doc, "E1EDP01", ["POSEX", "MENGE"]).map_err(|e| self.err(e.to_string()))?;
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
        let (policy, counter, name) = (&self.policy, &mut self.docnum_counter, &self.name);
        self.book.acknowledge_pending(|rec| {
            let stored = &rec.document;
            let status = policy.status_for(rec.amount);
            let action = sap_action(status);
            *counter += 1;
            let ack_date = field(stored, "E1EDK01", "AUDAT")
                .and_then(|v| v.as_date("AUDAT").ok())
                .map(|d| d.plus_days(1))
                .unwrap_or(Date::new(2001, 9, 18).expect("valid"));
            let lines =
                ack_lines(stored, "E1EDP01", ["POSEX", "MENGE"], ("ACTION", action)).map_err(
                    |e| BackendError::BadDocument { system: name.clone(), reason: e.to_string() },
                )?;
            let sndprn = field(stored, "EDI_DC40", "RCVPRN")
                .and_then(|v| v.as_text("RCVPRN").ok())
                .unwrap_or("SAPPRD");
            let rcvprn = field(stored, "EDI_DC40", "SNDPRN")
                .and_then(|v| v.as_text("SNDPRN").ok())
                .unwrap_or("PARTNER");
            let body = record! {
                "EDI_DC40" => record! {
                    "IDOCTYP" => Value::text("ORDRSP"),
                    "SNDPRN" => Value::text(sndprn),
                    "RCVPRN" => Value::text(rcvprn),
                    "DOCNUM" => Value::text(Str::from_fmt(format_args!("ordrsp-{:06}", *counter))),
                },
                "E1EDK01" => record! {
                    "BELNR" => Value::text(&rec.po_number),
                    "AUDAT" => Value::Date(ack_date),
                    "ACTION" => Value::text(action),
                },
                "E1EDP01" => Value::List(lines),
            };
            Ok((stored.reply(DocKind::PurchaseOrderAck, FormatId::SAP_IDOC, body), status))
        })
    }

    fn store_poa(&mut self, doc: &Arc<Document>) -> Result<()> {
        if doc.format() != &FormatId::SAP_IDOC {
            return Err(BackendError::WrongFormat {
                system: self.name.clone(),
                expected: FormatId::SAP_IDOC.to_string(),
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
    use b2b_document::formats::sample_sap_po;
    use b2b_document::{Currency, Money};

    #[test]
    fn store_and_extract_round_trip() {
        let mut sap = SapSystem::new(AckPolicy::AcceptAll);
        let po = Arc::new(sample_sap_po("4711", 12));
        sap.store_po(&po).unwrap();
        assert_eq!(sap.order_count(), 1);
        let poas = sap.extract_poas().unwrap();
        assert_eq!(poas.len(), 1);
        let poa = &poas[0];
        assert_eq!(poa.kind(), DocKind::PurchaseOrderAck);
        assert_eq!(poa.correlation(), po.correlation());
        assert_eq!(poa.get("E1EDK01.ACTION").unwrap(), &Value::text("001"));
        assert_eq!(sap.order_status("4711").as_deref(), Some("accepted"));
        assert!(sap.extract_poas().unwrap().is_empty(), "nothing pending twice");
    }

    #[test]
    fn policy_drives_the_idoc_action() {
        let mut sap = SapSystem::new(AckPolicy::RejectAbove(Money::from_units(100, Currency::Usd)));
        sap.store_po(&Arc::new(sample_sap_po("big", 200))).unwrap();
        let poas = sap.extract_poas().unwrap();
        assert_eq!(poas[0].get("E1EDK01.ACTION").unwrap(), &Value::text("003"));
        assert_eq!(sap.order_status("big").as_deref(), Some("rejected"));
    }

    #[test]
    fn rejects_wrong_format_kind_and_duplicates() {
        let mut sap = SapSystem::new(AckPolicy::AcceptAll);
        let normalized = Arc::new(b2b_document::normalized::sample_po("1", 10));
        assert!(matches!(sap.store_po(&normalized), Err(BackendError::WrongFormat { .. })));
        let po = Arc::new(sample_sap_po("1", 10));
        sap.store_po(&po).unwrap();
        assert!(matches!(sap.store_po(&po), Err(BackendError::DuplicateOrder { .. })));
        let ack = Arc::new(sap.extract_poas().unwrap().remove(0));
        assert!(sap.store_po(&ack).is_err(), "cannot store an ack as an order");
    }

    #[test]
    fn refuses_an_order_whose_line_it_could_not_acknowledge() {
        let mut sap = SapSystem::new(AckPolicy::AcceptAll);
        let mut po = sample_sap_po("4711", 12);
        po.set("E1EDP01[0]", record! { "MENGE" => Value::Int(12) }).unwrap();
        assert_eq!(
            sap.store_po(&Arc::new(po)).unwrap_err().to_string(),
            "SAP: bad document: path `E1EDP01[0].POSEX` not found in document"
        );
        let mut po = sample_sap_po("4712", 12);
        po.set("E1EDP01[0]", Value::Int(1)).unwrap();
        assert_eq!(
            sap.store_po(&Arc::new(po)).unwrap_err().to_string(),
            "SAP: bad document: expected record at `E1EDP01[0]`, found int"
        );
        assert_eq!(sap.order_count(), 0);
        assert!(sap.extract_poas().unwrap().is_empty());
    }
}
