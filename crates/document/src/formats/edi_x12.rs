//! EDI X12 codec: 850 purchase orders and 855 acknowledgments.
//!
//! The EDI-shaped document body mirrors the transaction-set structure
//! (`beg`, `n1`, `po1`, `ctt`, …) so that transformations between EDI and
//! the normalized format are real structural mappings, as in the paper's
//! Figure 9 ("Transform EDI to SAP PO").

use super::util::{decimal_to_money, field, money_to_decimal, parse_int, string_encode_into};
use super::{FormatCodec, FormatId};
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::edi::{
    parse_interchange, write_interchange, write_interchange_into, Interchange, Segment,
};
use crate::error::{DocumentError, Result};
use crate::ids::{CorrelationId, DocumentId};
use crate::intern::{intern, Symbol};
use crate::money::Currency;
use crate::value::{ElementAt, Value};
use crate::{record, record_sym};

const FORMAT: &str = "edi-x12";

/// X12 line-status codes carried in ACK01.
pub const ACK_ACCEPT: &str = "IA";
/// Rejected line.
pub const ACK_REJECT: &str = "IR";
/// Accepted with changes.
pub const ACK_CHANGED: &str = "IC";

/// Field symbols used by decoded EDI bodies, interned once at codec
/// construction so decoding allocates no key strings.
#[derive(Debug, Clone)]
struct Syms {
    envelope: Symbol,
    sender: Symbol,
    receiver: Symbol,
    control_number: Symbol,
    beg: Symbol,
    purpose_code: Symbol,
    type_code: Symbol,
    po_number: Symbol,
    order_date: Symbol,
    cur: Symbol,
    currency: Symbol,
    n1: Symbol,
    code: Symbol,
    name: Symbol,
    po1: Symbol,
    line_no: Symbol,
    quantity: Symbol,
    uom: Symbol,
    unit_price: Symbol,
    item: Symbol,
    amt: Symbol,
    bak: Symbol,
    ack_type: Symbol,
    ack_date: Symbol,
    ack: Symbol,
    status_code: Symbol,
}

impl Default for Syms {
    fn default() -> Self {
        Self {
            envelope: intern("envelope"),
            sender: intern("sender"),
            receiver: intern("receiver"),
            control_number: intern("control_number"),
            beg: intern("beg"),
            purpose_code: intern("purpose_code"),
            type_code: intern("type_code"),
            po_number: intern("po_number"),
            order_date: intern("order_date"),
            cur: intern("cur"),
            currency: intern("currency"),
            n1: intern("n1"),
            code: intern("code"),
            name: intern("name"),
            po1: intern("po1"),
            line_no: intern("line_no"),
            quantity: intern("quantity"),
            uom: intern("uom"),
            unit_price: intern("unit_price"),
            item: intern("item"),
            amt: intern("amt"),
            bak: intern("bak"),
            ack_type: intern("ack_type"),
            ack_date: intern("ack_date"),
            ack: intern("ack"),
            status_code: intern("status_code"),
        }
    }
}

/// Codec for the EDI X12 format.
#[derive(Debug, Default, Clone)]
pub struct EdiX12Codec {
    syms: Syms,
}

impl EdiX12Codec {
    /// Shared front half of `encode`/`encode_into`: format and kind checks
    /// plus building the interchange.
    fn interchange_of(&self, doc: &Document) -> Result<Interchange> {
        if doc.format() != &FormatId::EDI_X12 {
            return Err(DocumentError::Encode {
                format: FORMAT.into(),
                reason: format!("document is in format {}", doc.format()),
            });
        }
        match doc.kind() {
            DocKind::PurchaseOrder => self.encode_po(doc),
            DocKind::PurchaseOrderAck => self.encode_poa(doc),
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: other.to_string(),
            }),
        }
    }

    fn encode_po(&self, doc: &Document) -> Result<Interchange> {
        let body = doc.body().as_record("$")?;
        let envelope = field(body, "envelope", FORMAT)?.as_record("envelope")?;
        let beg = field(body, "beg", FORMAT)?.as_record("beg")?;
        let cur = field(body, "cur", FORMAT)?.as_record("cur")?;
        let currency = field(cur, "currency", FORMAT)?.as_text("cur.currency")?;

        let mut segments = vec![Segment::new(
            "BEG",
            &[
                field(beg, "purpose_code", FORMAT)?.as_text("beg.purpose_code")?,
                field(beg, "type_code", FORMAT)?.as_text("beg.type_code")?,
                field(beg, "po_number", FORMAT)?.as_text("beg.po_number")?,
                "",
                &field(beg, "order_date", FORMAT)?.as_date("beg.order_date")?.to_compact(),
            ],
        )];
        segments.push(Segment::new("CUR", &["BY", currency]));
        for (i, n1) in field(body, "n1", FORMAT)?.as_list("n1")?.iter().enumerate() {
            let at = ElementAt("n1", i);
            let rec = n1.as_record(at)?;
            segments.push(Segment::new(
                "N1",
                &[
                    field(rec, "code", FORMAT)?.as_text(at)?,
                    field(rec, "name", FORMAT)?.as_text(at)?,
                ],
            ));
        }
        let lines = field(body, "po1", FORMAT)?.as_list("po1")?;
        for (i, line) in lines.iter().enumerate() {
            let at = ElementAt("po1", i);
            let rec = line.as_record(at)?;
            segments.push(Segment::new(
                "PO1",
                &[
                    &field(rec, "line_no", FORMAT)?.as_int(at)?.to_string(),
                    &field(rec, "quantity", FORMAT)?.as_int(at)?.to_string(),
                    field(rec, "uom", FORMAT)?.as_text(at)?,
                    &money_to_decimal(field(rec, "unit_price", FORMAT)?.as_money(at)?),
                    "",
                    "VP",
                    field(rec, "item", FORMAT)?.as_text(at)?,
                ],
            ));
        }
        segments.push(Segment::new("CTT", &[&lines.len().to_string()]));
        segments.push(Segment::new(
            "AMT",
            &["TT", &money_to_decimal(field(body, "amt", FORMAT)?.as_money("amt")?)],
        ));
        Ok(Interchange::new(
            field(envelope, "sender", FORMAT)?.as_text("envelope.sender")?,
            field(envelope, "receiver", FORMAT)?.as_text("envelope.receiver")?,
            field(envelope, "control_number", FORMAT)?.as_text("envelope.control_number")?,
            "PO",
            "850",
            segments,
        ))
    }

    fn encode_poa(&self, doc: &Document) -> Result<Interchange> {
        let body = doc.body().as_record("$")?;
        let envelope = field(body, "envelope", FORMAT)?.as_record("envelope")?;
        let bak = field(body, "bak", FORMAT)?.as_record("bak")?;
        let mut segments = vec![Segment::new(
            "BAK",
            &[
                field(bak, "purpose_code", FORMAT)?.as_text("bak.purpose_code")?,
                field(bak, "ack_type", FORMAT)?.as_text("bak.ack_type")?,
                field(bak, "po_number", FORMAT)?.as_text("bak.po_number")?,
                &field(bak, "ack_date", FORMAT)?.as_date("bak.ack_date")?.to_compact(),
            ],
        )];
        for (i, ack) in field(body, "ack", FORMAT)?.as_list("ack")?.iter().enumerate() {
            let at = ElementAt("ack", i);
            let rec = ack.as_record(at)?;
            segments.push(Segment::new(
                "ACK",
                &[
                    field(rec, "status_code", FORMAT)?.as_text(at)?,
                    &field(rec, "quantity", FORMAT)?.as_int(at)?.to_string(),
                    "EA",
                ],
            ));
        }
        Ok(Interchange::new(
            field(envelope, "sender", FORMAT)?.as_text("envelope.sender")?,
            field(envelope, "receiver", FORMAT)?.as_text("envelope.receiver")?,
            field(envelope, "control_number", FORMAT)?.as_text("envelope.control_number")?,
            "PR",
            "855",
            segments,
        ))
    }

    fn decode_po(&self, ic: &Interchange) -> Result<Document> {
        let beg = ic.find("BEG").ok_or_else(|| parse_err("missing BEG"))?;
        let po_number = beg.require(3)?.to_string();
        let order_date = Date::parse_compact(beg.require(5)?)?;
        let currency = ic
            .find("CUR")
            .map(|seg| seg.require(2).map(str::to_string))
            .transpose()?
            .unwrap_or_else(|| "USD".to_string());
        let cur = Currency::parse(&currency)?;

        let s = &self.syms;
        let mut n1 = Vec::new();
        for seg in ic.find_all("N1") {
            n1.push(record_sym! {
                s.code => Value::text(seg.require(1)?),
                s.name => Value::text(seg.require(2)?),
            });
        }
        let mut po1 = Vec::new();
        for seg in ic.find_all("PO1") {
            po1.push(record_sym! {
                s.line_no => Value::Int(parse_int(seg.require(1)?, "PO101", FORMAT)?),
                s.quantity => Value::Int(parse_int(seg.require(2)?, "PO102", FORMAT)?),
                s.uom => Value::text(seg.require(3)?),
                s.unit_price => Value::Money(decimal_to_money(seg.require(4)?, cur, FORMAT)?),
                s.item => Value::text(seg.require(7)?),
            });
        }
        if let Some(ctt) = ic.find("CTT") {
            let declared = parse_int(ctt.require(1)?, "CTT01", FORMAT)?;
            if declared != po1.len() as i64 {
                return Err(parse_err(&format!(
                    "CTT declares {declared} lines, found {}",
                    po1.len()
                )));
            }
        }
        let amt = ic.find("AMT").ok_or_else(|| parse_err("missing AMT"))?;
        let total = decimal_to_money(amt.require(2)?, cur, FORMAT)?;

        let body = record_sym! {
            s.envelope => record_sym! {
                s.sender => Value::text(&ic.sender),
                s.receiver => Value::text(&ic.receiver),
                s.control_number => Value::text(&ic.control_number),
            },
            s.beg => record_sym! {
                s.purpose_code => Value::text(beg.require(1)?),
                s.type_code => Value::text(beg.require(2)?),
                s.po_number => Value::text(&po_number),
                s.order_date => Value::Date(order_date),
            },
            s.cur => record_sym! { s.currency => Value::text(&currency) },
            s.n1 => Value::List(n1),
            s.po1 => Value::List(po1),
            s.amt => Value::Money(total),
        };
        Ok(Document::with_id(
            DocumentId::new(format!("edi-{}", ic.control_number)),
            DocKind::PurchaseOrder,
            FormatId::EDI_X12,
            CorrelationId::for_po_number(&po_number),
            body,
        ))
    }

    fn decode_poa(&self, ic: &Interchange) -> Result<Document> {
        let bak = ic.find("BAK").ok_or_else(|| parse_err("missing BAK"))?;
        let po_number = bak.require(3)?.to_string();
        let s = &self.syms;
        let mut acks = Vec::new();
        for (i, seg) in ic.find_all("ACK").enumerate() {
            acks.push(record_sym! {
                s.line_no => Value::Int(i as i64 + 1),
                s.status_code => Value::text(seg.require(1)?),
                s.quantity => Value::Int(parse_int(seg.require(2)?, "ACK02", FORMAT)?),
            });
        }
        let body = record_sym! {
            s.envelope => record_sym! {
                s.sender => Value::text(&ic.sender),
                s.receiver => Value::text(&ic.receiver),
                s.control_number => Value::text(&ic.control_number),
            },
            s.bak => record_sym! {
                s.purpose_code => Value::text(bak.require(1)?),
                s.ack_type => Value::text(bak.require(2)?),
                s.po_number => Value::text(&po_number),
                s.ack_date => Value::Date(Date::parse_compact(bak.require(4)?)?),
            },
            s.ack => Value::List(acks),
        };
        Ok(Document::with_id(
            DocumentId::new(format!("edi-{}", ic.control_number)),
            DocKind::PurchaseOrderAck,
            FormatId::EDI_X12,
            CorrelationId::for_po_number(&po_number),
            body,
        ))
    }
}

fn parse_err(reason: &str) -> DocumentError {
    DocumentError::Parse { format: FORMAT.into(), offset: 0, reason: reason.into() }
}

impl FormatCodec for EdiX12Codec {
    fn format(&self) -> FormatId {
        FormatId::EDI_X12
    }

    fn supported_kinds(&self) -> Vec<DocKind> {
        vec![DocKind::PurchaseOrder, DocKind::PurchaseOrderAck]
    }

    fn encode(&self, doc: &Document) -> Result<Vec<u8>> {
        Ok(write_interchange(&self.interchange_of(doc)?).into_bytes())
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()> {
        let ic = self.interchange_of(doc)?;
        string_encode_into(out, |s| {
            write_interchange_into(&ic, s);
            Ok(())
        })
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document> {
        let text = std::str::from_utf8(bytes).map_err(|_| parse_err("not UTF-8"))?;
        let ic = parse_interchange(text)?;
        match ic.transaction_set.as_str() {
            "850" => self.decode_po(&ic),
            "855" => self.decode_poa(&ic),
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: format!("transaction set {other}"),
            }),
        }
    }
}

/// Builds an EDI-shaped PO body for tests and examples.
pub fn sample_edi_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "envelope" => record! {
            "sender" => Value::text("ACME"),
            "receiver" => Value::text("GADGET"),
            "control_number" => Value::text("000000001"),
        },
        "beg" => record! {
            "purpose_code" => Value::text("00"),
            "type_code" => Value::text("NE"),
            "po_number" => Value::text(po_number),
            "order_date" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
        },
        "cur" => record! { "currency" => Value::text("USD") },
        "n1" => Value::List(vec![
            record! { "code" => Value::text("BY"), "name" => Value::text("ACME Manufacturing") },
            record! { "code" => Value::text("SE"), "name" => Value::text("Gadget Supply Co") },
        ]),
        "po1" => Value::List(vec![record! {
            "line_no" => Value::Int(1),
            "quantity" => Value::Int(quantity),
            "uom" => Value::text("EA"),
            "unit_price" => Value::Money(price),
            "item" => Value::text("LAPTOP-T23"),
        }]),
        "amt" => Value::Money(total),
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::EDI_X12,
        CorrelationId::for_po_number(po_number),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn po_round_trips_through_wire() {
        let codec = EdiX12Codec::default();
        let doc = sample_edi_po("4711", 12);
        let wire = codec.encode(&doc).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("BEG*00*NE*4711"), "{text}");
        assert!(text.contains("PO1*1*12*EA*1.00"), "{text}");
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.kind(), DocKind::PurchaseOrder);
        assert_eq!(back.correlation(), doc.correlation());
        assert_eq!(back.body(), doc.body());
    }

    #[test]
    fn poa_round_trips_through_wire() {
        let codec = EdiX12Codec::default();
        let body = record! {
            "envelope" => record! {
                "sender" => Value::text("GADGET"),
                "receiver" => Value::text("ACME"),
                "control_number" => Value::text("000000002"),
            },
            "bak" => record! {
                "purpose_code" => Value::text("00"),
                "ack_type" => Value::text("AD"),
                "po_number" => Value::text("4711"),
                "ack_date" => Value::Date(Date::new(2001, 9, 18).unwrap()),
            },
            "ack" => Value::List(vec![record! {
                "line_no" => Value::Int(1),
                "status_code" => Value::text(ACK_ACCEPT),
                "quantity" => Value::Int(12),
            }]),
        };
        let doc = Document::new(
            DocKind::PurchaseOrderAck,
            FormatId::EDI_X12,
            CorrelationId::for_po_number("4711"),
            body,
        );
        let wire = codec.encode(&doc).unwrap();
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.kind(), DocKind::PurchaseOrderAck);
        assert_eq!(back.body(), doc.body());
    }

    #[test]
    fn decode_rejects_line_count_mismatch() {
        let codec = EdiX12Codec::default();
        let wire = String::from_utf8(codec.encode(&sample_edi_po("1", 5)).unwrap()).unwrap();
        let tampered = wire.replace("CTT*1~", "CTT*3~");
        assert!(codec.decode(tampered.as_bytes()).is_err());
    }

    #[test]
    fn encode_rejects_wrong_format_or_kind() {
        let codec = EdiX12Codec::default();
        let normalized = crate::normalized::sample_po("1", 10);
        assert!(codec.encode(&normalized).is_err());
        let invoice = Document::new(
            DocKind::Invoice,
            FormatId::EDI_X12,
            CorrelationId::new("c"),
            Value::record(),
        );
        assert!(codec.encode(&invoice).is_err());
    }

    #[test]
    fn decode_rejects_unknown_transaction_set() {
        let codec = EdiX12Codec::default();
        let wire = String::from_utf8(codec.encode(&sample_edi_po("1", 5)).unwrap()).unwrap();
        let tampered = wire.replace("ST*850*", "ST*997*");
        assert!(codec.decode(tampered.as_bytes()).is_err());
    }

    #[test]
    fn a_mistyped_line_field_names_its_line() {
        let codec = EdiX12Codec::default();
        let mut doc = sample_edi_po("4711", 12);
        doc.set("po1[0].quantity", Value::text("twelve")).unwrap();
        assert_eq!(
            codec.encode(&doc).unwrap_err().to_string(),
            "expected int at `po1[0]`, found text"
        );
        let mut doc = sample_edi_po("4711", 12);
        doc.set("n1[1]", Value::Int(3)).unwrap();
        assert_eq!(
            codec.encode(&doc).unwrap_err().to_string(),
            "expected record at `n1[1]`, found int"
        );
    }
}
