//! SAP IDoc-style back-end format.
//!
//! The SAP back-end simulator stores purchase orders as ORDERS05-style
//! IDocs and emits ORDRSP acknowledgments. The wire form is the classic
//! flat-file IDoc rendering: one segment per line, `SEGMENT|field=value|…`.

use super::table::{field, many, one, Format, Kind, Node, Syntax, Ty};
use super::FormatId;
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::ids::CorrelationId;
use crate::money::Currency;
use crate::record;
use crate::value::Value;

/// The IDoc control record.
const CONTROL: Node = one("EDI_DC40").of(&[
    field("IDOCTYP", Ty::Selector),
    field("SNDPRN", Ty::Text),
    field("RCVPRN", Ty::Text),
    field("DOCNUM", Ty::Id),
]);

const PO: Kind = Kind {
    kind: DocKind::PurchaseOrder,
    selector: "ORDERS05",
    id: "idoc-",
    correlation: "po:",
    body: &[
        CONTROL,
        one("E1EDK01").of(&[
            field("BELNR", Ty::Key),
            field("CURCY", Ty::Currency),
            field("AUDAT", Ty::CompactDate),
        ]),
        many("E1EDKA1").of(&[field("PARVW", Ty::Text), field("NAME1", Ty::Text)]),
        many("E1EDP01").of(&[
            field("POSEX", Ty::Int),
            field("MENGE", Ty::Int),
            field("VPREI", Ty::Money),
            field("MATNR", Ty::Text),
        ]),
        one("E1EDS01").of(&[field("SUMME", Ty::Money)]),
    ],
};

const POA: Kind = Kind {
    kind: DocKind::PurchaseOrderAck,
    selector: "ORDRSP",
    id: "idoc-",
    correlation: "po:",
    body: &[
        CONTROL,
        one("E1EDK01").of(&[
            field("BELNR", Ty::Key),
            field("AUDAT", Ty::CompactDate),
            field("ACTION", Ty::Text),
        ]),
        many("E1EDP01").of(&[
            field("POSEX", Ty::Int),
            field("MENGE", Ty::Int),
            field("ACTION", Ty::Text),
        ]),
    ],
};

/// SAP ORDERS05 and ORDRSP IDocs; the control record's IDoc type selects
/// the kind.
pub(crate) static FORMAT: Format = Format {
    id: FormatId::SAP_IDOC,
    syntax: Syntax::Idoc("EDI_DC40", "IDOCTYP"),
    kinds: &[PO, POA],
};

/// Builds a SAP-shaped PO document for tests and examples.
pub fn sample_sap_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "EDI_DC40" => record! {
            "IDOCTYP" => Value::text("ORDERS05"),
            "SNDPRN" => Value::text("ACME"),
            "RCVPRN" => Value::text("SAPPRD"),
            "DOCNUM" => Value::text(format!("idoc-{po_number}")),
        },
        "E1EDK01" => record! {
            "BELNR" => Value::text(po_number),
            "CURCY" => Value::text("USD"),
            "AUDAT" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
        },
        "E1EDKA1" => Value::List(vec![
            record! { "PARVW" => Value::text("AG"), "NAME1" => Value::text("ACME Manufacturing") },
            record! { "PARVW" => Value::text("LF"), "NAME1" => Value::text("Gadget Supply Co") },
        ]),
        "E1EDP01" => Value::List(vec![record! {
            "POSEX" => Value::Int(1),
            "MENGE" => Value::Int(quantity),
            "VPREI" => Value::Money(price),
            "MATNR" => Value::text("LAPTOP-T23"),
        }]),
        "E1EDS01" => record! { "SUMME" => Value::Money(total) },
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::SAP_IDOC,
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
    fn po_round_trips_through_flat_file() {
        let codec = TableCodec(&FORMAT);
        let doc = sample_sap_po("4711", 12);
        let wire = codec.encode(&doc).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("EDI_DC40|"), "{text}");
        assert!(text.contains("MATNR=LAPTOP-T23"), "{text}");
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_flat_file() {
        let wire =
            include_bytes!("../../../../tests/fixtures/wire/sap-idoc.purchase-order-ack.txt");
        round_trips(&FORMAT, wire, DocKind::PurchaseOrderAck);
    }

    #[test]
    fn decode_rejects_garbage() {
        let codec = TableCodec(&FORMAT);
        assert!(codec.decode(b"").is_err());
        assert!(codec.decode(b"E1EDK01|BELNR=1\n").is_err(), "missing control record");
        assert!(codec
            .decode(b"EDI_DC40|IDOCTYP=WHATEVER|SNDPRN=a|RCVPRN=b|DOCNUM=1\nE1EDK01|BELNR=1\n")
            .is_err());
        assert!(codec.decode(b"EDI_DC40|oops\n").is_err());
    }
}
