//! The format registry: the single place where codecs are looked up.

use super::table::TableCodec;
use super::{
    edi_x12, oagis, oracle_apps, rosettanet, sap_idoc, BinaryCodec, FormatCodec, FormatId,
};
use crate::document::{DocKind, Document};
use crate::error::{DocumentError, Result};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;

/// Registry mapping [`FormatId`]s to codecs.
///
/// Adding a new B2B protocol or back-end format means registering one codec
/// here — no existing codec, binding, or process changes. This locality is
/// measured by the change-management experiments.
#[derive(Clone, Default)]
pub struct FormatRegistry {
    codecs: HashMap<FormatId, Arc<dyn FormatCodec>>,
}

impl FormatRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with all built-in codecs.
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        for format in [
            &edi_x12::FORMAT,
            &rosettanet::FORMAT,
            &oagis::FORMAT,
            &sap_idoc::FORMAT,
            &oracle_apps::FORMAT,
        ] {
            reg.register(Arc::new(TableCodec(format)));
        }
        reg.register(Arc::new(BinaryCodec));
        reg
    }

    /// Registers a codec, replacing any codec for the same format.
    pub fn register(&mut self, codec: Arc<dyn FormatCodec>) {
        self.codecs.insert(codec.format(), codec);
    }

    /// Looks up the codec for a format.
    pub fn codec(&self, format: &FormatId) -> Result<&Arc<dyn FormatCodec>> {
        self.codecs
            .get(format)
            .ok_or_else(|| DocumentError::UnknownFormat { format: format.to_string() })
    }

    /// Encodes a document using the codec its format tag names.
    pub fn encode(&self, doc: &Document) -> Result<Vec<u8>> {
        self.codec(doc.format())?.encode(doc)
    }

    /// Encodes a document by appending to a caller-owned buffer (same
    /// bytes as [`encode`](Self::encode), reusing the buffer's allocation).
    pub fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()> {
        self.codec(doc.format())?.encode_into(doc, out)
    }

    /// Decodes wire bytes claimed to be in `format`.
    pub fn decode(&self, format: &FormatId, bytes: &[u8]) -> Result<Document> {
        self.codec(format)?.decode(bytes)
    }

    /// Decodes a shared payload buffer claimed to be in `format`,
    /// borrowing text out of the buffer where the codec supports it.
    pub fn decode_bytes(&self, format: &FormatId, bytes: &Bytes) -> Result<Document> {
        self.codec(format)?.decode_bytes(bytes)
    }

    /// All registered formats, sorted for deterministic iteration.
    pub fn formats(&self) -> Vec<FormatId> {
        let mut out: Vec<_> = self.codecs.keys().cloned().collect();
        out.sort();
        out
    }

    /// Whether a format can carry a document kind.
    pub fn supports(&self, format: &FormatId, kind: DocKind) -> bool {
        self.codecs.get(format).map(|c| c.supported_kinds().contains(&kind)).unwrap_or(false)
    }
}

impl std::fmt::Debug for FormatRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FormatRegistry").field("formats", &self.formats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::edi_x12::sample_edi_po;
    use crate::value::Value;

    #[test]
    fn builtins_cover_all_wire_formats() {
        let reg = FormatRegistry::with_builtins();
        for format in [
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ] {
            assert!(reg.codec(&format).is_ok(), "{format} missing");
            assert!(reg.supports(&format, DocKind::PurchaseOrder));
        }
        assert!(reg.codec(&FormatId::NORMALIZED).is_err(), "normalized never hits the wire");
    }

    #[test]
    fn encode_decode_dispatches_by_format() {
        let reg = FormatRegistry::with_builtins();
        let doc = sample_edi_po("77", 3);
        let wire = reg.encode(&doc).unwrap();
        let back = reg.decode(&FormatId::EDI_X12, &wire).unwrap();
        assert_eq!(back.body(), doc.body());
    }

    #[test]
    fn encode_into_matches_encode_for_every_builtin() {
        let reg = FormatRegistry::with_builtins();
        let docs = [
            sample_edi_po("81", 2),
            crate::formats::sample_rn_po("82", 2),
            crate::formats::sample_oagis_po("83", 2),
            crate::formats::sample_sap_po("84", 2),
            crate::formats::sample_oracle_po("85", 2),
            crate::formats::sample_binary_po("86", 2),
        ];
        let mut buf = Vec::new();
        for doc in &docs {
            buf.clear();
            reg.encode_into(doc, &mut buf).unwrap();
            assert_eq!(buf, reg.encode(doc).unwrap(), "{}", doc.format());
        }
    }

    #[test]
    fn encode_into_reports_format_mismatch_like_encode() {
        let reg = FormatRegistry::with_builtins();
        let doc = sample_edi_po("86", 1).reformatted(FormatId::ROSETTANET, Value::Null);
        let mut buf = Vec::new();
        let by_ref = reg.encode_into(&doc, &mut buf).unwrap_err();
        let by_val = reg.encode(&doc).unwrap_err();
        assert_eq!(by_ref.to_string(), by_val.to_string());
    }

    #[test]
    fn unknown_format_is_reported() {
        let reg = FormatRegistry::with_builtins();
        let err = reg.decode(&FormatId::custom("edifact"), b"x").unwrap_err();
        assert!(err.to_string().contains("edifact"));
    }

    #[test]
    fn supports_is_false_for_unknown_format() {
        let reg = FormatRegistry::new();
        assert!(!reg.supports(&FormatId::EDI_X12, DocKind::PurchaseOrder));
    }
}
