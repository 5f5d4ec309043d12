//! The SAP-like ERP simulator (speaks IDocs).

use crate::erp::{AckPolicy, BackendApplication};
use crate::error::{BackendError, Result};
use crate::orderbook::{OrderBook, OrderRecord, OrderState};
use b2b_document::{record, Date, DocKind, Document, FormatId, Value};
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
        let po_number = doc
            .get("e1edk01.belnr")
            .and_then(|v| v.as_text("e1edk01.belnr"))
            .map_err(|e| self.err(e.to_string()))?
            .to_string();
        let amount = doc
            .get("e1eds01.summe")
            .and_then(|v| v.as_money("e1eds01.summe"))
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
        let (policy, counter, name) = (&self.policy, &mut self.docnum_counter, &self.name);
        self.book.acknowledge_pending(|rec| {
            let stored = &rec.document;
            let status = policy.status_for(rec.amount);
            let action = sap_action(status);
            *counter += 1;
            let ack_date = stored
                .lookup("e1edk01.audat")
                .and_then(|v| v.as_date("audat").ok())
                .map(|d| d.plus_days(1))
                .unwrap_or(Date::new(2001, 9, 18).expect("valid"));
            let lines: Vec<Value> = stored
                .get("e1edp01")
                .and_then(|v| v.as_list("e1edp01"))
                .map_err(|e| BackendError::BadDocument {
                    system: name.clone(),
                    reason: e.to_string(),
                })?
                .iter()
                .map(|line| {
                    let rec = line.as_record("e1edp01").expect("stored PO validated");
                    record! {
                        "posex" => rec["posex"].clone(),
                        "menge" => rec["menge"].clone(),
                        "action" => Value::text(action),
                    }
                })
                .collect();
            let sndprn = stored
                .lookup("control.rcvprn")
                .and_then(|v| v.as_text("rcvprn").ok())
                .unwrap_or("SAPPRD")
                .to_string();
            let rcvprn = stored
                .lookup("control.sndprn")
                .and_then(|v| v.as_text("sndprn").ok())
                .unwrap_or("PARTNER")
                .to_string();
            let body = record! {
                "control" => record! {
                    "idoctyp" => Value::text("ORDRSP"),
                    "sndprn" => Value::text(sndprn),
                    "rcvprn" => Value::text(rcvprn),
                    "docnum" => Value::text(format!("ordrsp-{:06}", *counter)),
                },
                "e1edk01" => record! {
                    "belnr" => Value::text(&rec.po_number),
                    "audat" => Value::Date(ack_date),
                    "action" => Value::text(action),
                },
                "e1edp01" => Value::List(lines),
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
        assert_eq!(poa.get("e1edk01.action").unwrap(), &Value::text("001"));
        assert_eq!(sap.order_status("4711").as_deref(), Some("accepted"));
        assert!(sap.extract_poas().unwrap().is_empty(), "nothing pending twice");
    }

    #[test]
    fn policy_drives_the_idoc_action() {
        let mut sap = SapSystem::new(AckPolicy::RejectAbove(Money::from_units(100, Currency::Usd)));
        sap.store_po(&Arc::new(sample_sap_po("big", 200))).unwrap();
        let poas = sap.extract_poas().unwrap();
        assert_eq!(poas[0].get("e1edk01.action").unwrap(), &Value::text("003"));
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
}
