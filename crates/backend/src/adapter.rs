//! Application processes: the paper's "Store … PO → … → Extract … POA"
//! boxes on the back-end side of Figure 14.

use crate::erp::BackendApplication;
use crate::error::Result;
use b2b_document::{DocKind, Document, FormatId};
use std::sync::Arc;

/// Wraps a back end as the application process a binding talks to: feed it
/// native purchase orders, poll it for native acknowledgments.
pub struct ApplicationProcess {
    backend: Box<dyn BackendApplication>,
    stored: u64,
    extracted: u64,
}

impl ApplicationProcess {
    /// Wraps a back end.
    pub fn new(backend: Box<dyn BackendApplication>) -> Self {
        Self { backend, stored: 0, extracted: 0 }
    }

    /// Back-end name (rule-context target).
    pub fn name(&self) -> &str {
        self.backend.name()
    }

    /// Native format of the wrapped back end.
    pub fn native_format(&self) -> FormatId {
        self.backend.native_format()
    }

    /// Handles one inbound document (must be native format): purchase
    /// orders are stored as new orders, acknowledgments are filed. The back
    /// end keeps the `Arc`, not a copy.
    pub fn handle(&mut self, doc: &Arc<Document>) -> Result<()> {
        match doc.kind() {
            DocKind::PurchaseOrderAck => self.backend.store_poa(doc)?,
            _ => self.backend.store_po(doc)?,
        }
        self.stored += 1;
        Ok(())
    }

    /// Runs the back end's processing cycle, returning native POAs.
    pub fn poll(&mut self) -> Result<Vec<Document>> {
        let poas = self.backend.extract_poas()?;
        self.extracted += poas.len() as u64;
        Ok(poas)
    }

    /// Access to the wrapped back end (assertions in tests/experiments).
    pub fn backend(&self) -> &dyn BackendApplication {
        self.backend.as_ref()
    }

    /// Orders stored so far.
    pub fn stored(&self) -> u64 {
        self.stored
    }

    /// Acknowledgments extracted so far.
    pub fn extracted(&self) -> u64 {
        self.extracted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erp::AckPolicy;
    use crate::sap::SapSystem;
    use b2b_document::formats::sample_sap_po;

    #[test]
    fn handle_then_poll_produces_acks() {
        let mut app = ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll)));
        assert_eq!(app.name(), "SAP");
        assert_eq!(app.native_format(), FormatId::SAP_IDOC);
        app.handle(&Arc::new(sample_sap_po("1", 5))).unwrap();
        app.handle(&Arc::new(sample_sap_po("2", 5))).unwrap();
        let poas = app.poll().unwrap();
        assert_eq!(poas.len(), 2);
        assert_eq!(app.stored(), 2);
        assert_eq!(app.extracted(), 2);
        assert_eq!(app.backend().order_count(), 2);
        assert!(app.poll().unwrap().is_empty());
    }
}
