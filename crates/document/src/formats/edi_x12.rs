//! EDI X12 codec: 850 purchase orders and 855 acknowledgments.
//!
//! An EDI-shaped document body is keyed by the transaction set's own
//! names: a record per segment written once (`BEG`, `CUR`), a list per
//! repeated segment (`N1`, `PO1`), and each element by its designator
//! (`BEG03`), so that the binding's mapping programs, not the codec, say
//! what an element means — as in the paper's Figure 9 ("Transform EDI to
//! SAP PO").

use super::table::{
    field, many, node, one, optional, Fill::Flat, Format, Kind, Syntax, Ty, What::*,
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
        // The interchange envelope: sender, receiver, control number and
        // the GS01 functional identifier code.
        one("ISA").of(&[
            field("ISA06", Ty::Text),
            field("ISA08", Ty::Text),
            field("ISA13", Ty::Id),
            node("GS01", Const("PO")),
        ]),
        one("BEG").of(&[
            field("BEG01", Ty::Text),
            field("BEG02", Ty::Text),
            field("BEG03", Ty::Key),
            node("BEG04", Const("")),
            field("BEG05", Ty::CompactDate),
        ]),
        optional("CUR").of(&[node("CUR01", Const("BY")), field("CUR02", Ty::Currency)]),
        many("N1").of(&[field("N101", Ty::Text), field("N102", Ty::Text)]),
        many("PO1").of(&[
            field("PO101", Ty::Int),
            field("PO102", Ty::Int),
            field("PO103", Ty::Text),
            field("PO104", Ty::Money),
            node("PO105", Const("")),
            node("PO106", Const("VP")),
            field("PO107", Ty::Text),
        ]),
        node("CTT", Optional(Flat, &[node("CTT01", Count("PO1"))])),
        node("AMT", One(Flat, &[node("AMT01", Const("TT")), field("AMT02", Ty::Money)])),
    ],
};

const POA: Kind = Kind {
    kind: DocKind::PurchaseOrderAck,
    selector: "855",
    id: "edi-",
    correlation: "po:",
    body: &[
        // The interchange envelope, as in the 850.
        one("ISA").of(&[
            field("ISA06", Ty::Text),
            field("ISA08", Ty::Text),
            field("ISA13", Ty::Id),
            node("GS01", Const("PR")),
        ]),
        one("BAK").of(&[
            field("BAK01", Ty::Text),
            field("BAK02", Ty::Text),
            field("BAK03", Ty::Key),
            field("BAK04", Ty::CompactDate),
        ]),
        many("ACK").of(&[
            field("ACK01", Ty::Text),
            field("ACK02", Ty::Int),
            node("ACK03", Const("EA")),
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
        "ISA" => record! {
            "ISA06" => Value::text("ACME"),
            "ISA08" => Value::text("GADGET"),
            "ISA13" => Value::text("000000001"),
        },
        "BEG" => record! {
            "BEG01" => Value::text("00"),
            "BEG02" => Value::text("NE"),
            "BEG03" => Value::text(po_number),
            "BEG05" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
        },
        "CUR" => record! { "CUR02" => Value::text("USD") },
        "N1" => Value::List(vec![
            record! { "N101" => Value::text("BY"), "N102" => Value::text("ACME Manufacturing") },
            record! { "N101" => Value::text("SE"), "N102" => Value::text("Gadget Supply Co") },
        ]),
        "PO1" => Value::List(vec![record! {
            "PO101" => Value::Int(1),
            "PO102" => Value::Int(quantity),
            "PO103" => Value::text("EA"),
            "PO104" => Value::Money(price),
            "PO107" => Value::text("LAPTOP-T23"),
        }]),
        "AMT02" => Value::Money(total),
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
        doc.set("PO1[0].PO102", Value::text("twelve")).unwrap();
        assert_eq!(
            codec.encode(&doc).unwrap_err().to_string(),
            "expected int at `PO1[0]`, found text"
        );
        let mut doc = sample_edi_po("4711", 12);
        doc.set("N1[1]", Value::Int(3)).unwrap();
        assert_eq!(
            codec.encode(&doc).unwrap_err().to_string(),
            "expected record at `N1[1]`, found int"
        );
    }
}
