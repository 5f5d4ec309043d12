//! EDI X12 codec: 850 purchase orders and 855 acknowledgments.
//!
//! The EDI-shaped document body mirrors the transaction-set structure
//! (`beg`, `n1`, `po1`, `ctt`, …) so that transformations between EDI and
//! the normalized format are real structural mappings, as in the paper's
//! Figure 9 ("Transform EDI to SAP PO").

use super::table::{
    constant, element, many, node, one, optional, Format, Kind, Syntax, Ty, What::*,
};
use super::FormatId;
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::ids::CorrelationId;
use crate::money::Currency;
use crate::record;
use crate::value::Value;

const PO: Kind = Kind {
    kind: DocKind::PurchaseOrder,
    selector: "850",
    id: "edi-",
    correlation: "po:",
    body: &[
        // The interchange envelope: ISA06, ISA08, ISA13 and the GS01 code.
        one("ISA", Some("envelope")).of(&[
            element("sender", Ty::Text),
            element("receiver", Ty::Text),
            element("control_number", Ty::Id),
            constant("PO"),
        ]),
        one("BEG", Some("beg")).of(&[
            element("purpose_code", Ty::Text),
            element("type_code", Ty::Text),
            element("po_number", Ty::Key),
            constant(""),
            element("order_date", Ty::CompactDate),
        ]),
        optional("CUR", Some("cur")).of(&[constant("BY"), element("currency", Ty::Currency)]),
        many("N1", "n1").of(&[element("code", Ty::Text), element("name", Ty::Text)]),
        many("PO1", "po1").of(&[
            element("line_no", Ty::Int),
            element("quantity", Ty::Int),
            element("uom", Ty::Text),
            element("unit_price", Ty::Money),
            constant(""),
            constant("VP"),
            element("item", Ty::Text),
        ]),
        optional("CTT", None).of(&[node("", Count("po1"))]),
        one("AMT", None).of(&[constant("TT"), element("amt", Ty::Money)]),
    ],
};

const POA: Kind = Kind {
    kind: DocKind::PurchaseOrderAck,
    selector: "855",
    id: "edi-",
    correlation: "po:",
    body: &[
        // The interchange envelope: ISA06, ISA08, ISA13 and the GS01 code.
        one("ISA", Some("envelope")).of(&[
            element("sender", Ty::Text),
            element("receiver", Ty::Text),
            element("control_number", Ty::Id),
            constant("PR"),
        ]),
        one("BAK", Some("bak")).of(&[
            element("purpose_code", Ty::Text),
            element("ack_type", Ty::Text),
            element("po_number", Ty::Key),
            element("ack_date", Ty::CompactDate),
        ]),
        many("ACK", "ack").of(&[
            element("status_code", Ty::Text),
            element("quantity", Ty::Int),
            constant("EA"),
            node("", Position("line_no")),
        ]),
    ],
};

/// EDI X12 850 purchase orders and 855 acknowledgments.
pub(crate) static FORMAT: Format =
    Format { id: FormatId::EDI_X12, syntax: Syntax::X12, kinds: &[PO, POA] };

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
    use crate::formats::table::{round_trips, TableCodec};
    use crate::formats::FormatCodec;

    #[test]
    fn po_round_trips_through_wire() {
        let codec = TableCodec(&FORMAT);
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
        let wire = include_bytes!("../../../../tests/fixtures/wire/edi-x12.purchase-order-ack.txt");
        round_trips(&FORMAT, wire, DocKind::PurchaseOrderAck);
    }

    #[test]
    fn decode_rejects_line_count_mismatch() {
        let codec = TableCodec(&FORMAT);
        let wire = String::from_utf8(codec.encode(&sample_edi_po("1", 5)).unwrap()).unwrap();
        let tampered = wire.replace("CTT*1~", "CTT*3~");
        assert!(codec.decode(tampered.as_bytes()).is_err());
    }

    #[test]
    fn encode_rejects_wrong_format_or_kind() {
        let codec = TableCodec(&FORMAT);
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
        let codec = TableCodec(&FORMAT);
        let wire = String::from_utf8(codec.encode(&sample_edi_po("1", 5)).unwrap()).unwrap();
        let tampered = wire.replace("ST*850*", "ST*997*");
        assert!(codec.decode(tampered.as_bytes()).is_err());
    }

    #[test]
    fn a_mistyped_line_field_names_its_line() {
        let codec = TableCodec(&FORMAT);
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
