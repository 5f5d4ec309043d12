//! OAGIS codec: PROCESS_PO and ACKNOWLEDGE_PO business object documents.
//!
//! This is the third B2B protocol format; the paper's Figure 10/15 step
//! ("add one more trading partner with one more protocol") adds OAGIS.

use super::util::{decimal_to_money, field, money_to_decimal, parse_int, string_encode_into};
use super::{FormatCodec, FormatId};
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::error::{DocumentError, Result};
use crate::ids::{CorrelationId, DocumentId};
use crate::intern::{intern, Symbol};
use crate::money::Currency;
use crate::value::{ElementAt, Value};
use crate::xml::{parse_element, write_element_into, XmlElement};
use crate::{record, record_sym};

const FORMAT: &str = "oagis";

/// OAGIS acknowledgment codes.
pub const OAGIS_ACCEPT: &str = "ACCEPTED";
/// Rejected order.
pub const OAGIS_REJECT: &str = "REJECTED";
/// Accepted with modifications.
pub const OAGIS_MODIFIED: &str = "MODIFIED";

/// Field symbols used by decoded OAGIS bodies, interned once at codec
/// construction so decoding allocates no key strings.
#[derive(Debug, Clone)]
struct Syms {
    sender: Symbol,
    reference_id: Symbol,
    control_area: Symbol,
    data_area: Symbol,
    po_header: Symbol,
    po_id: Symbol,
    po_date: Symbol,
    currency: Symbol,
    buyer_party: Symbol,
    seller_party: Symbol,
    total: Symbol,
    po_lines: Symbol,
    line_num: Symbol,
    item: Symbol,
    quantity: Symbol,
    unit_price: Symbol,
    ack_header: Symbol,
    status: Symbol,
    ack_date: Symbol,
    ack_lines: Symbol,
}

impl Default for Syms {
    fn default() -> Self {
        Self {
            sender: intern("sender"),
            reference_id: intern("reference_id"),
            control_area: intern("control_area"),
            data_area: intern("data_area"),
            po_header: intern("po_header"),
            po_id: intern("po_id"),
            po_date: intern("po_date"),
            currency: intern("currency"),
            buyer_party: intern("buyer_party"),
            seller_party: intern("seller_party"),
            total: intern("total"),
            po_lines: intern("po_lines"),
            line_num: intern("line_num"),
            item: intern("item"),
            quantity: intern("quantity"),
            unit_price: intern("unit_price"),
            ack_header: intern("ack_header"),
            status: intern("status"),
            ack_date: intern("ack_date"),
            ack_lines: intern("ack_lines"),
        }
    }
}

/// Codec for OAGIS BODs.
#[derive(Debug, Default, Clone)]
pub struct OagisCodec {
    syms: Syms,
}

fn parse_err(reason: impl Into<String>) -> DocumentError {
    DocumentError::Parse { format: FORMAT.into(), offset: 0, reason: reason.into() }
}

fn control_area_xml(doc: &Document, verb: &str) -> Result<XmlElement> {
    let body = doc.body().as_record("$")?;
    let ctrl = field(body, "control_area", FORMAT)?.as_record("control_area")?;
    Ok(XmlElement::new("CNTROLAREA")
        .child(
            XmlElement::new("BSR")
                .child(XmlElement::with_text("VERB", verb))
                .child(XmlElement::with_text("NOUN", "PO")),
        )
        .child(XmlElement::with_text(
            "SENDER",
            field(ctrl, "sender", FORMAT)?.as_text("control_area.sender")?,
        ))
        .child(XmlElement::with_text(
            "REFERENCEID",
            field(ctrl, "reference_id", FORMAT)?.as_text("control_area.reference_id")?,
        )))
}

fn control_area_value(s: &Syms, root: &XmlElement, expect_verb: &str) -> Result<Value> {
    let ctrl = root.find("CNTROLAREA").ok_or_else(|| parse_err("missing CNTROLAREA"))?;
    let bsr = ctrl.find("BSR").ok_or_else(|| parse_err("missing BSR"))?;
    let verb = bsr.child_text("VERB").ok_or_else(|| parse_err("missing VERB"))?;
    if verb != expect_verb {
        return Err(parse_err(format!("expected verb {expect_verb}, found {verb}")));
    }
    Ok(record_sym! {
        s.sender => Value::text(ctrl.child_text("SENDER").ok_or_else(|| parse_err("missing SENDER"))?),
        s.reference_id => Value::text(
            ctrl.child_text("REFERENCEID").ok_or_else(|| parse_err("missing REFERENCEID"))?,
        ),
    })
}

impl OagisCodec {
    /// Shared front half of `encode`/`encode_into`: format and kind checks
    /// plus building the element tree.
    fn element_of(&self, doc: &Document) -> Result<XmlElement> {
        if doc.format() != &FormatId::OAGIS {
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

    fn encode_po(&self, doc: &Document) -> Result<XmlElement> {
        let body = doc.body().as_record("$")?;
        let da = field(body, "data_area", FORMAT)?.as_record("data_area")?;
        let hdr = field(da, "po_header", FORMAT)?.as_record("po_header")?;
        let header_el = XmlElement::new("POHEADER")
            .child(XmlElement::with_text("POID", field(hdr, "po_id", FORMAT)?.as_text("po_id")?))
            .child(XmlElement::with_text(
                "PODATE",
                field(hdr, "po_date", FORMAT)?.as_date("po_date")?.to_string(),
            ))
            .child(XmlElement::with_text(
                "CURRENCY",
                field(hdr, "currency", FORMAT)?.as_text("currency")?,
            ))
            .child(XmlElement::with_text(
                "BUYERPARTY",
                field(hdr, "buyer_party", FORMAT)?.as_text("buyer_party")?,
            ))
            .child(XmlElement::with_text(
                "SELLERPARTY",
                field(hdr, "seller_party", FORMAT)?.as_text("seller_party")?,
            ))
            .child(XmlElement::with_text(
                "POTOTAL",
                money_to_decimal(field(hdr, "total", FORMAT)?.as_money("total")?),
            ));
        let mut data_el = XmlElement::new("DATAAREA").child(header_el);
        for (i, line) in field(da, "po_lines", FORMAT)?.as_list("po_lines")?.iter().enumerate() {
            let at = ElementAt("po_lines", i);
            let rec = line.as_record(at)?;
            data_el = data_el.child(
                XmlElement::new("POLINE")
                    .child(XmlElement::with_text(
                        "LINENUM",
                        field(rec, "line_num", FORMAT)?.as_int(at)?.to_string(),
                    ))
                    .child(XmlElement::with_text("ITEM", field(rec, "item", FORMAT)?.as_text(at)?))
                    .child(XmlElement::with_text(
                        "QUANTITY",
                        field(rec, "quantity", FORMAT)?.as_int(at)?.to_string(),
                    ))
                    .child(XmlElement::with_text(
                        "UNITPRICE",
                        money_to_decimal(field(rec, "unit_price", FORMAT)?.as_money(at)?),
                    )),
            );
        }
        Ok(XmlElement::new("PROCESS_PO").child(control_area_xml(doc, "PROCESS")?).child(data_el))
    }

    fn encode_poa(&self, doc: &Document) -> Result<XmlElement> {
        let body = doc.body().as_record("$")?;
        let da = field(body, "data_area", FORMAT)?.as_record("data_area")?;
        let hdr = field(da, "ack_header", FORMAT)?.as_record("ack_header")?;
        let header_el = XmlElement::new("ACKHEADER")
            .child(XmlElement::with_text("POID", field(hdr, "po_id", FORMAT)?.as_text("po_id")?))
            .child(XmlElement::with_text(
                "ACKSTATUS",
                field(hdr, "status", FORMAT)?.as_text("status")?,
            ))
            .child(XmlElement::with_text(
                "ACKDATE",
                field(hdr, "ack_date", FORMAT)?.as_date("ack_date")?.to_string(),
            ));
        let mut data_el = XmlElement::new("DATAAREA").child(header_el);
        for (i, line) in field(da, "ack_lines", FORMAT)?.as_list("ack_lines")?.iter().enumerate() {
            let at = ElementAt("ack_lines", i);
            let rec = line.as_record(at)?;
            data_el = data_el.child(
                XmlElement::new("ACKLINE")
                    .child(XmlElement::with_text(
                        "LINENUM",
                        field(rec, "line_num", FORMAT)?.as_int(at)?.to_string(),
                    ))
                    .child(XmlElement::with_text(
                        "ACKSTATUS",
                        field(rec, "status", FORMAT)?.as_text(at)?,
                    ))
                    .child(XmlElement::with_text(
                        "QUANTITY",
                        field(rec, "quantity", FORMAT)?.as_int(at)?.to_string(),
                    )),
            );
        }
        Ok(XmlElement::new("ACKNOWLEDGE_PO")
            .child(control_area_xml(doc, "ACKNOWLEDGE")?)
            .child(data_el))
    }

    fn decode_po(&self, root: &XmlElement) -> Result<Document> {
        let s = &self.syms;
        let control = control_area_value(s, root, "PROCESS")?;
        let da = root.find("DATAAREA").ok_or_else(|| parse_err("missing DATAAREA"))?;
        let hdr = da.find("POHEADER").ok_or_else(|| parse_err("missing POHEADER"))?;
        let get = |name: &str| -> Result<String> {
            hdr.child_text(name).ok_or_else(|| parse_err(format!("missing POHEADER/{name}")))
        };
        let po_id = get("POID")?;
        let currency_code = get("CURRENCY")?;
        let currency = Currency::parse(&currency_code)?;
        let mut lines = Vec::new();
        for (i, line) in da.find_all("POLINE").enumerate() {
            let get = |name: &str| -> Result<String> {
                line.child_text(name).ok_or_else(|| parse_err(format!("line {i}: missing {name}")))
            };
            lines.push(record_sym! {
                s.line_num => Value::Int(parse_int(&get("LINENUM")?, "LINENUM", FORMAT)?),
                s.item => Value::text(get("ITEM")?),
                s.quantity => Value::Int(parse_int(&get("QUANTITY")?, "QUANTITY", FORMAT)?),
                s.unit_price => Value::Money(decimal_to_money(&get("UNITPRICE")?, currency, FORMAT)?),
            });
        }
        let reference =
            control.as_record("control_area")?["reference_id"].as_text("reference_id")?.to_string();
        let body = record_sym! {
            s.control_area => control,
            s.data_area => record_sym! {
                s.po_header => record_sym! {
                    s.po_id => Value::text(&po_id),
                    s.po_date => Value::Date(Date::parse_iso(&get("PODATE")?)?),
                    s.currency => Value::text(&currency_code),
                    s.buyer_party => Value::text(get("BUYERPARTY")?),
                    s.seller_party => Value::text(get("SELLERPARTY")?),
                    s.total => Value::Money(decimal_to_money(&get("POTOTAL")?, currency, FORMAT)?),
                },
                s.po_lines => Value::List(lines),
            },
        };
        Ok(Document::with_id(
            DocumentId::new(format!("oagis-{reference}")),
            DocKind::PurchaseOrder,
            FormatId::OAGIS,
            CorrelationId::for_po_number(&po_id),
            body,
        ))
    }

    fn decode_poa(&self, root: &XmlElement) -> Result<Document> {
        let s = &self.syms;
        let control = control_area_value(s, root, "ACKNOWLEDGE")?;
        let da = root.find("DATAAREA").ok_or_else(|| parse_err("missing DATAAREA"))?;
        let hdr = da.find("ACKHEADER").ok_or_else(|| parse_err("missing ACKHEADER"))?;
        let get = |name: &str| -> Result<String> {
            hdr.child_text(name).ok_or_else(|| parse_err(format!("missing ACKHEADER/{name}")))
        };
        let po_id = get("POID")?;
        let mut lines = Vec::new();
        for (i, line) in da.find_all("ACKLINE").enumerate() {
            let get = |name: &str| -> Result<String> {
                line.child_text(name).ok_or_else(|| parse_err(format!("line {i}: missing {name}")))
            };
            lines.push(record_sym! {
                s.line_num => Value::Int(parse_int(&get("LINENUM")?, "LINENUM", FORMAT)?),
                s.status => Value::text(get("ACKSTATUS")?),
                s.quantity => Value::Int(parse_int(&get("QUANTITY")?, "QUANTITY", FORMAT)?),
            });
        }
        let reference =
            control.as_record("control_area")?["reference_id"].as_text("reference_id")?.to_string();
        let body = record_sym! {
            s.control_area => control,
            s.data_area => record_sym! {
                s.ack_header => record_sym! {
                    s.po_id => Value::text(&po_id),
                    s.status => Value::text(get("ACKSTATUS")?),
                    s.ack_date => Value::Date(Date::parse_iso(&get("ACKDATE")?)?),
                },
                s.ack_lines => Value::List(lines),
            },
        };
        Ok(Document::with_id(
            DocumentId::new(format!("oagis-{reference}")),
            DocKind::PurchaseOrderAck,
            FormatId::OAGIS,
            CorrelationId::for_po_number(&po_id),
            body,
        ))
    }
}

impl FormatCodec for OagisCodec {
    fn format(&self) -> FormatId {
        FormatId::OAGIS
    }

    fn supported_kinds(&self) -> Vec<DocKind> {
        vec![DocKind::PurchaseOrder, DocKind::PurchaseOrderAck]
    }

    fn encode(&self, doc: &Document) -> Result<Vec<u8>> {
        Ok(self.element_of(doc)?.to_xml().into_bytes())
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()> {
        let el = self.element_of(doc)?;
        string_encode_into(out, |s| {
            write_element_into(&el, s);
            Ok(())
        })
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document> {
        let text = std::str::from_utf8(bytes).map_err(|_| parse_err("not UTF-8"))?;
        let root = parse_element(text)?;
        match root.name.as_str() {
            "PROCESS_PO" => self.decode_po(&root),
            "ACKNOWLEDGE_PO" => self.decode_poa(&root),
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: format!("root element {other}"),
            }),
        }
    }
}

/// Builds an OAGIS-shaped PO document for tests and examples.
pub fn sample_oagis_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "control_area" => record! {
            "sender" => Value::text("TP3-LOGISTICS"),
            "reference_id" => Value::text(format!("bod-{po_number}")),
        },
        "data_area" => record! {
            "po_header" => record! {
                "po_id" => Value::text(po_number),
                "po_date" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
                "currency" => Value::text("USD"),
                "buyer_party" => Value::text("TP3 Logistics"),
                "seller_party" => Value::text("Gadget Supply Co"),
                "total" => Value::Money(total),
            },
            "po_lines" => Value::List(vec![record! {
                "line_num" => Value::Int(1),
                "item" => Value::text("LAPTOP-T23"),
                "quantity" => Value::Int(quantity),
                "unit_price" => Value::Money(price),
            }]),
        },
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::OAGIS,
        CorrelationId::for_po_number(po_number),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn po_round_trips_through_xml() {
        let codec = OagisCodec::default();
        let doc = sample_oagis_po("9001", 25);
        let wire = codec.encode(&doc).unwrap();
        assert!(String::from_utf8_lossy(&wire).starts_with("<PROCESS_PO>"));
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_xml() {
        let codec = OagisCodec::default();
        let body = record! {
            "control_area" => record! {
                "sender" => Value::text("GADGET"),
                "reference_id" => Value::text("bod-9001-ack"),
            },
            "data_area" => record! {
                "ack_header" => record! {
                    "po_id" => Value::text("9001"),
                    "status" => Value::text(OAGIS_ACCEPT),
                    "ack_date" => Value::Date(Date::new(2001, 9, 18).unwrap()),
                },
                "ack_lines" => Value::List(vec![record! {
                    "line_num" => Value::Int(1),
                    "status" => Value::text(OAGIS_ACCEPT),
                    "quantity" => Value::Int(25),
                }]),
            },
        };
        let doc = Document::new(
            DocKind::PurchaseOrderAck,
            FormatId::OAGIS,
            CorrelationId::for_po_number("9001"),
            body,
        );
        let back = codec.decode(&codec.encode(&doc).unwrap()).unwrap();
        assert_eq!(back.body(), doc.body());
    }

    #[test]
    fn decode_rejects_verb_mismatch() {
        let codec = OagisCodec::default();
        let wire = String::from_utf8(codec.encode(&sample_oagis_po("1", 1)).unwrap()).unwrap();
        let tampered = wire.replace("<VERB>PROCESS</VERB>", "<VERB>CANCEL</VERB>");
        assert!(codec.decode(tampered.as_bytes()).is_err());
    }
}
