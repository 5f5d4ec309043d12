//! The compact binary wire format: length-prefixed, self-describing,
//! and decodable without copying string payloads.
//!
//! Unlike the five text codecs, the binary format carries the canonical
//! sorted-record layout directly — the body on the wire *is* the
//! normalized shape, one tagged node per value:
//!
//! ```text
//! payload  := 0xB2 0x42 version(u8) kind(u8) str(id) str(correlation) node
//! str      := len(u32 LE) utf8-bytes
//! node     := 0x00                          null
//!           | 0x01 | 0x02                   bool false / true
//!           | 0x03 i64-LE                   int
//!           | 0x04 cents(i64 LE) cur(u8)    money
//!           | 0x05 year(i32 LE) month day   date
//!           | 0x06 str                      text
//!           | 0x07 count(u32 LE) node*      list
//!           | 0x08 count(u32 LE) field*     record (canonical key order)
//! field    := str(key) node
//! ```
//!
//! `encode_into` writes this straight from the document tree — no
//! intermediate strings, no decimal formatting. `decode` is a single
//! forward pass with every length bounds-checked against the remaining
//! payload before it allocates, so truncated or corrupt payloads fail
//! with a [`DocumentError::Parse`] (and feed the poison ladder) instead
//! of panicking or over-allocating. Texts and ids are [`Str`]s: inline
//! when short, and when decoding from a shared [`Bytes`] payload, a long
//! one is a zero-copy slice of the payload itself.

use super::{FormatCodec, FormatId};
use crate::document::{DocKind, Document};
use crate::error::{DocumentError, Result};
use crate::ids::{CorrelationId, DocumentId};
use crate::intern::intern;
use crate::money::{Currency, Money};
use crate::normalized::PoBuilder;
use crate::text::Str;
use crate::value::{FieldVec, Value};
use crate::Date;
use bytes::Bytes;

const MAGIC: [u8; 2] = [0xB2, 0x42];
const VERSION: u8 = 1;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_MONEY: u8 = 0x04;
const TAG_DATE: u8 = 0x05;
const TAG_TEXT: u8 = 0x06;
const TAG_LIST: u8 = 0x07;
const TAG_RECORD: u8 = 0x08;

/// Nesting bound: a crafted payload of nothing but list headers could
/// otherwise recurse one stack frame per 5 payload bytes.
const MAX_DEPTH: u32 = 64;

fn kind_tag(kind: DocKind) -> u8 {
    match kind {
        DocKind::PurchaseOrder => 0,
        DocKind::PurchaseOrderAck => 1,
        DocKind::Invoice => 2,
        DocKind::ShipmentNotice => 3,
        DocKind::RequestForQuote => 4,
        DocKind::Quote => 5,
        DocKind::Receipt => 6,
        DocKind::Exception => 7,
    }
}

fn tag_kind(tag: u8) -> Option<DocKind> {
    Some(match tag {
        0 => DocKind::PurchaseOrder,
        1 => DocKind::PurchaseOrderAck,
        2 => DocKind::Invoice,
        3 => DocKind::ShipmentNotice,
        4 => DocKind::RequestForQuote,
        5 => DocKind::Quote,
        6 => DocKind::Receipt,
        7 => DocKind::Exception,
        _ => return None,
    })
}

fn currency_tag(cur: Currency) -> u8 {
    match cur {
        Currency::Usd => 0,
        Currency::Eur => 1,
        Currency::Gbp => 2,
        Currency::Jpy => 3,
    }
}

fn tag_currency(tag: u8) -> Option<Currency> {
    Some(match tag {
        0 => Currency::Usd,
        1 => Currency::Eur,
        2 => Currency::Gbp,
        3 => Currency::Jpy,
        _ => return None,
    })
}

/// Codec for [`FormatId::BINARY`]. Shape-agnostic: any value tree of any
/// business kind round-trips byte-identically.
#[derive(Debug, Default, Clone)]
pub struct BinaryCodec;

impl BinaryCodec {
    fn encode_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
        let len = u32::try_from(s.len()).map_err(|_| DocumentError::Encode {
            format: "binary".into(),
            reason: format!("text of {} bytes exceeds the u32 length prefix", s.len()),
        })?;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(s.as_bytes());
        Ok(())
    }

    fn encode_node(out: &mut Vec<u8>, value: &Value) -> Result<()> {
        match value {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(false) => out.push(TAG_FALSE),
            Value::Bool(true) => out.push(TAG_TRUE),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Money(m) => {
                out.push(TAG_MONEY);
                out.extend_from_slice(&m.cents().to_le_bytes());
                out.push(currency_tag(m.currency()));
            }
            Value::Date(d) => {
                out.push(TAG_DATE);
                out.extend_from_slice(&d.year().to_le_bytes());
                out.push(d.month());
                out.push(d.day());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                Self::encode_str(out, s)?;
            }
            Value::List(items) => {
                out.push(TAG_LIST);
                out.extend_from_slice(&count_prefix(items.len(), "list")?);
                for item in items {
                    Self::encode_node(out, item)?;
                }
            }
            Value::Record(fields) => {
                out.push(TAG_RECORD);
                out.extend_from_slice(&count_prefix(fields.len(), "record")?);
                // FieldVec iterates in canonical key order, so encoding is
                // deterministic and re-encoding a decoded payload is
                // byte-identical.
                for (key, value) in fields.iter() {
                    Self::encode_str(out, key.as_str())?;
                    Self::encode_node(out, value)?;
                }
            }
        }
        Ok(())
    }

    /// One decode body serving both entry points: `share` carries the
    /// payload buffer when the caller owns a [`Bytes`], making every long
    /// text a zero-copy slice; without it a long text is copied out.
    fn decode_impl(&self, data: &[u8], share: Option<&Bytes>) -> Result<Document> {
        let mut cur = Cursor { data, pos: 0, share };
        let magic = cur.take(2, "magic")?;
        if magic != MAGIC {
            return Err(cur.err_at(0, "bad magic (not a binary-format payload)"));
        }
        let version = cur.u8("version")?;
        if version != VERSION {
            return Err(cur.err_at(2, format!("unsupported version {version}")));
        }
        let kind_byte = cur.u8("kind")?;
        let kind = tag_kind(kind_byte)
            .ok_or_else(|| cur.err_at(3, format!("unknown document kind tag {kind_byte}")))?;
        let id = cur.str("document id")?;
        let correlation = cur.str("correlation id")?;
        let body = cur.node(0)?;
        if cur.pos != data.len() {
            return Err(cur.err(format!("{} trailing bytes after document", data.len() - cur.pos)));
        }
        Ok(Document::with_id(
            DocumentId::new(id),
            kind,
            FormatId::BINARY,
            CorrelationId::new(correlation),
            body,
        ))
    }
}

fn count_prefix(len: usize, what: &str) -> Result<[u8; 4]> {
    u32::try_from(len).map(u32::to_le_bytes).map_err(|_| DocumentError::Encode {
        format: "binary".into(),
        reason: format!("{what} of {len} entries exceeds the u32 count prefix"),
    })
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    share: Option<&'a Bytes>,
}

impl<'a> Cursor<'a> {
    fn err(&self, reason: impl Into<String>) -> DocumentError {
        self.err_at(self.pos, reason)
    }

    fn err_at(&self, offset: usize, reason: impl Into<String>) -> DocumentError {
        DocumentError::Parse { format: "binary".into(), offset, reason: reason.into() }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.err(format!(
                "truncated payload: {what} needs {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self, what: &str) -> Result<i32> {
        let b = self.take(4, what)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a length-prefixed string as a borrowed `&str` (no copy).
    fn str_ref(&mut self, what: &str) -> Result<&'a str> {
        let len = self.u32(what)? as usize;
        let start = self.pos;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map_err(|e| self.err_at(start + e.valid_up_to(), format!("{what} is not valid UTF-8")))
    }

    /// Reads a length-prefixed string as a [`Str`]: inline when short,
    /// else a slice of the shared buffer when decoding from one.
    fn str(&mut self, what: &str) -> Result<Str> {
        let text = self.str_ref(what)?;
        Ok(match self.share {
            Some(buf) => Str::in_payload(buf, text),
            None => Str::from(text),
        })
    }

    fn node(&mut self, depth: u32) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let tag = self.u8("node tag")?;
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(self.i64("int")?),
            TAG_MONEY => {
                let cents = self.i64("money")?;
                let cur_byte = self.u8("currency")?;
                let currency = tag_currency(cur_byte)
                    .ok_or_else(|| self.err(format!("unknown currency tag {cur_byte}")))?;
                Value::Money(Money::from_cents(cents, currency))
            }
            TAG_DATE => {
                let year = self.i32("date")?;
                let month = self.u8("date month")?;
                let day = self.u8("date day")?;
                Value::Date(
                    Date::new(year, month, day)
                        .map_err(|e| self.err(format!("invalid date: {e}")))?,
                )
            }
            TAG_TEXT => Value::Text(self.str("text")?),
            TAG_LIST => {
                let count = self.u32("list count")? as usize;
                // Each element is at least one tag byte, so a count larger
                // than the remaining payload is corrupt — reject before
                // trusting it as an allocation size.
                if count > self.remaining() {
                    return Err(self.err(format!(
                        "list count {count} exceeds remaining payload ({} bytes)",
                        self.remaining()
                    )));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.node(depth + 1)?);
                }
                Value::List(items)
            }
            TAG_RECORD => {
                let count = self.u32("record count")? as usize;
                // Minimum field: a 4-byte key length plus a 1-byte value tag.
                if count > self.remaining() / 5 {
                    return Err(self.err(format!(
                        "record count {count} exceeds remaining payload ({} bytes)",
                        self.remaining()
                    )));
                }
                let mut fields = FieldVec::with_capacity(count);
                for _ in 0..count {
                    let key = self.str_ref("record key")?;
                    let sym = intern(key);
                    let value = self.node(depth + 1)?;
                    fields.insert(sym, value);
                }
                Value::Record(fields)
            }
            other => {
                return Err(self.err_at(self.pos - 1, format!("unknown node tag {other:#04x}")))
            }
        })
    }
}

impl FormatCodec for BinaryCodec {
    fn format(&self) -> FormatId {
        FormatId::BINARY
    }

    fn supported_kinds(&self) -> Vec<DocKind> {
        DocKind::business_kinds().to_vec()
    }

    fn encode(&self, doc: &Document) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(128);
        self.encode_into(doc, &mut out)?;
        Ok(out)
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()> {
        if doc.format() != &FormatId::BINARY {
            return Err(DocumentError::Encode {
                format: "binary".into(),
                reason: format!("document is tagged {}, not binary", doc.format()),
            });
        }
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(kind_tag(doc.kind()));
        Self::encode_str(out, doc.id().as_str())?;
        Self::encode_str(out, doc.correlation().as_str())?;
        Self::encode_node(out, doc.body())
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document> {
        self.decode_impl(bytes, None)
    }

    fn decode_bytes(&self, bytes: &Bytes) -> Result<Document> {
        self.decode_impl(bytes, Some(bytes))
    }
}

/// A sample binary-format PO (normalized shape) for tests and benches.
pub fn sample_binary_po(control: &str, lines: usize) -> Document {
    let mut builder = PoBuilder::new(
        control,
        "Acme Manufacturing",
        "Apex Suppliers",
        Date::new(2001, 5, 21).expect("valid date"),
        Currency::Usd,
    );
    for i in 0..lines.max(1) {
        builder = builder
            .line(
                &format!("WIDGET-{i:03}"),
                (i as i64 % 7) + 1,
                Money::from_cents(995 + 10 * i as i64, Currency::Usd),
            )
            .expect("sample line is valid");
    }
    let doc = builder.build().expect("sample PO is valid");
    let body = doc.body().clone();
    Document::with_id(
        DocumentId::new(format!("bin-{control}")),
        DocKind::PurchaseOrder,
        FormatId::BINARY,
        CorrelationId::for_po_number(control),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    fn roundtrip(doc: &Document) -> (Vec<u8>, Document) {
        let codec = BinaryCodec;
        let wire = codec.encode(doc).unwrap();
        let back = codec.decode(&wire).unwrap();
        (wire, back)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let doc = sample_binary_po("4711", 3);
        let (wire, back) = roundtrip(&doc);
        assert_eq!(back.id(), doc.id());
        assert_eq!(back.correlation(), doc.correlation());
        assert_eq!(back.kind(), doc.kind());
        assert_eq!(back.format(), &FormatId::BINARY);
        assert_eq!(back.body(), doc.body());
        // Canonical field order makes re-encoding byte-identical.
        assert_eq!(BinaryCodec.encode(&back).unwrap(), wire);
    }

    #[test]
    fn shared_decode_borrows_long_text_from_the_payload() {
        let mut doc = sample_binary_po("4712", 2);
        let long = "Acme Manufacturing, Procurement Department";
        doc.set("header.seller", Value::text(long)).unwrap();
        let wire = Bytes::from(BinaryCodec.encode(&doc).unwrap());
        let back = BinaryCodec.decode_bytes(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        let text = |path: &str| match back.get(path).unwrap() {
            Value::Text(s) => s.clone(),
            other => panic!("expected text, got {other:?}"),
        };
        assert!(text("header.seller").is_borrowed(), "shared decode must not copy text");
        assert!(text("header.buyer").is_inline(), "a short text must not pin the payload");
    }

    #[test]
    fn every_value_shape_round_trips() {
        let body = record! {
            "b_false" => Value::Bool(false),
            "b_true" => Value::Bool(true),
            "date" => Value::Date(Date::new(1999, 12, 31).unwrap()),
            "empty_list" => Value::List(vec![]),
            "empty_rec" => Value::record(),
            "empty_text" => Value::text(""),
            "int_neg" => Value::Int(-42),
            "money" => Value::Money(Money::from_cents(-12_345, Currency::Jpy)),
            "nested" => Value::List(vec![
                Value::Null,
                record! { "inner" => Value::text("döc ümlauts — ok") },
            ]),
        };
        let doc = Document::with_id(
            DocumentId::new("bin-x"),
            DocKind::Quote,
            FormatId::BINARY,
            CorrelationId::new("rfq:9"),
            body,
        );
        let (_, back) = roundtrip(&doc);
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.kind(), DocKind::Quote);
    }

    #[test]
    fn truncations_and_corruptions_error_instead_of_panicking() {
        let wire = BinaryCodec.encode(&sample_binary_po("99", 2)).unwrap();
        // Every prefix of a valid payload is an error, never a panic.
        for cut in 0..wire.len() {
            assert!(BinaryCodec.decode(&wire[..cut]).is_err(), "prefix {cut} must fail");
        }
        // Bad magic.
        let mut bad = wire.clone();
        bad[0] = 0x00;
        assert!(BinaryCodec.decode(&bad).is_err());
        // Absurd record count must not allocate.
        let mut bad = wire.clone();
        let body_at = wire.iter().position(|&b| b == TAG_RECORD).unwrap();
        bad[body_at + 1..body_at + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BinaryCodec.decode(&bad).is_err());
        // Trailing garbage is rejected.
        let mut bad = wire.clone();
        bad.push(0xEE);
        assert!(BinaryCodec.decode(&bad).is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut wire = vec![MAGIC[0], MAGIC[1], VERSION, kind_tag(DocKind::PurchaseOrder)];
        wire.extend_from_slice(&0u32.to_le_bytes()); // empty id
        wire.extend_from_slice(&0u32.to_le_bytes()); // empty correlation
        for _ in 0..1000 {
            wire.push(TAG_LIST);
            wire.extend_from_slice(&1u32.to_le_bytes());
        }
        wire.push(TAG_NULL);
        let err = BinaryCodec.decode(&wire).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn encode_rejects_wrong_format_tag() {
        let doc = sample_binary_po("7", 1).reformatted(FormatId::EDI_X12, Value::record());
        assert!(BinaryCodec.encode(&doc).is_err());
    }
}
