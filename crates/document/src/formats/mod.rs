//! Format identities, codecs, and the format registry.
//!
//! A *format* is a document shape plus a wire syntax: EDI X12, RosettaNet,
//! OAGIS, the SAP and Oracle back-end formats, the binary format, and the
//! internal normalized format. The five text formats share one codec per
//! syntax family — X12 segments, XML elements, keyed lines — driven by one
//! field table per (format, kind) in the format's own module, which keys
//! a decoded document by the wire's own names (`BEG.BEG03`); the binary
//! format is generic over any document. New formats can be added by
//! implementing [`FormatCodec`] and registering it — without touching any
//! other layer, which is exactly the locality-of-change property the paper
//! claims for the advanced architecture.

mod binary;
mod edi_x12;
mod lines;
mod oagis;
mod oracle_apps;
mod registry;
mod rosettanet;
mod sap_idoc;
mod table;
mod x12;
mod xml;

pub use binary::{sample_binary_po, BinaryCodec};
pub use edi_x12::sample_edi_po;
pub use oagis::sample_oagis_po;
pub use oracle_apps::sample_oracle_po;
pub use registry::FormatRegistry;
pub use rosettanet::sample_rn_po;
pub use sap_idoc::sample_sap_po;

use crate::document::{DocKind, Document};
use crate::error::Result;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Identifies a document format.
///
/// Built-in formats are available as constants; partner- or application-
/// specific formats can be minted at runtime with [`FormatId::custom`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FormatId(Cow<'static, str>);

impl FormatId {
    /// The internal normalized format all private processes operate on.
    pub const NORMALIZED: FormatId = FormatId(Cow::Borrowed("normalized"));
    /// EDI X12 (850/855 style).
    pub const EDI_X12: FormatId = FormatId(Cow::Borrowed("edi-x12"));
    /// RosettaNet PIP documents.
    pub const ROSETTANET: FormatId = FormatId(Cow::Borrowed("rosettanet"));
    /// OAGIS business object documents.
    pub const OAGIS: FormatId = FormatId(Cow::Borrowed("oagis"));
    /// SAP IDoc-style back-end format.
    pub const SAP_IDOC: FormatId = FormatId(Cow::Borrowed("sap-idoc"));
    /// Oracle-applications-style back-end format.
    pub const ORACLE_APPS: FormatId = FormatId(Cow::Borrowed("oracle-apps"));
    /// Compact binary partner format (length-prefixed, self-describing).
    pub const BINARY: FormatId = FormatId(Cow::Borrowed("binary"));

    /// Mints a format id for a custom format.
    pub fn custom(name: impl Into<String>) -> Self {
        Self(Cow::Owned(name.into()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Encodes and decodes documents of one format to and from wire bytes.
pub trait FormatCodec: Send + Sync {
    /// The format this codec implements.
    fn format(&self) -> FormatId;

    /// Document kinds the codec can carry.
    fn supported_kinds(&self) -> Vec<DocKind>;

    /// Serializes a document (whose body must follow this format's shape).
    fn encode(&self, doc: &Document) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(256);
        self.encode_into(doc, &mut out)?;
        Ok(out)
    }

    /// Serializes a document by appending to a caller-owned buffer, so hot
    /// paths can reuse one allocation across documents. The buffer's prior
    /// contents are untouched on success; on error they are unspecified.
    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()>;

    /// Parses wire bytes into a format-shaped document.
    fn decode(&self, bytes: &[u8]) -> Result<Document>;

    /// Parses a shared payload buffer into a document. The default
    /// delegates to [`decode`](Self::decode). The binary and table codecs
    /// override it and read texts longer than
    /// [`INLINE_CAP`](crate::text::INLINE_CAP) bytes in place, as slices
    /// of `bytes` that keep the whole buffer alive ([`Bytes`] is
    /// reference-counted). Short texts are always inline.
    fn decode_bytes(&self, bytes: &Bytes) -> Result<Document> {
        self.decode(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_distinct() {
        let all = [
            FormatId::NORMALIZED,
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn custom_ids_compare_by_name() {
        assert_eq!(FormatId::custom("edifact"), FormatId::custom("edifact"));
        assert_ne!(FormatId::custom("edifact"), FormatId::EDI_X12);
        assert_eq!(FormatId::custom("normalized"), FormatId::NORMALIZED);
    }
}
