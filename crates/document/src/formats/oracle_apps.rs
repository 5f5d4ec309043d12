//! Oracle-applications-style back-end format.
//!
//! The Oracle back-end simulator exposes purchase orders the way an
//! interface table would: a `PO_HEADERS` row plus `PO_LINES` rows. The wire
//! form is a sectioned key/value text (one `[TABLE]` block per row).

use super::table::{field, many, one, Format, Kind, Syntax, Ty};
use super::FormatId;
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::ids::CorrelationId;
use crate::money::Currency;
use crate::record;
use crate::value::Value;

const PO: Kind = Kind {
    kind: DocKind::PurchaseOrder,
    selector: "PO_HEADERS",
    id: "ora-",
    correlation: "po:",
    body: &[
        one("PO_HEADERS").of(&[
            field("SEGMENT1", Ty::Key),
            field("ORG_ID", Ty::Int),
            field("VENDOR_NAME", Ty::Text),
            field("AGENT_NAME", Ty::Text),
            field("CURRENCY_CODE", Ty::Currency),
            field("CREATION_DATE", Ty::IsoDate),
            field("TOTAL_AMOUNT", Ty::Money),
        ]),
        many("PO_LINES").of(&[
            field("LINE_NUM", Ty::Int),
            field("ITEM_ID", Ty::Text),
            field("QUANTITY", Ty::Int),
            field("UNIT_PRICE", Ty::Money),
        ]),
    ],
};

const POA: Kind = Kind {
    kind: DocKind::PurchaseOrderAck,
    selector: "PO_ACKNOWLEDGMENTS",
    id: "ora-ack-",
    correlation: "po:",
    body: &[
        one("PO_ACKNOWLEDGMENTS").of(&[
            field("PO_NUMBER", Ty::Key),
            field("STATUS", Ty::Text),
            field("ACK_DATE", Ty::IsoDate),
        ]),
        many("PO_ACK_LINES").of(&[
            field("LINE_NUM", Ty::Int),
            field("STATUS", Ty::Text),
            field("QUANTITY", Ty::Int),
        ]),
    ],
};

/// Oracle-applications interface rows: a header row, then line rows.
pub(crate) static FORMAT: Format =
    Format { id: FormatId::ORACLE_APPS, syntax: Syntax::Rows, kinds: &[PO, POA] };

/// Builds an Oracle-shaped PO document for tests and examples.
pub fn sample_oracle_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "PO_HEADERS" => record! {
            "SEGMENT1" => Value::text(po_number),
            "ORG_ID" => Value::Int(204),
            "VENDOR_NAME" => Value::text("Gadget Supply Co"),
            "AGENT_NAME" => Value::text("ACME Manufacturing"),
            "CURRENCY_CODE" => Value::text("USD"),
            "CREATION_DATE" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
            "TOTAL_AMOUNT" => Value::Money(total),
        },
        "PO_LINES" => Value::List(vec![record! {
            "LINE_NUM" => Value::Int(1),
            "ITEM_ID" => Value::text("LAPTOP-T23"),
            "QUANTITY" => Value::Int(quantity),
            "UNIT_PRICE" => Value::Money(price),
        }]),
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::ORACLE_APPS,
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
    fn po_round_trips_through_rows() {
        let codec = TableCodec(&FORMAT);
        let doc = sample_oracle_po("4711", 12);
        let wire = codec.encode(&doc).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("[PO_HEADERS]"), "{text}");
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_rows() {
        let wire =
            include_bytes!("../../../../tests/fixtures/wire/oracle-apps.purchase-order-ack.txt");
        round_trips(&FORMAT, wire, DocKind::PurchaseOrderAck);
    }

    #[test]
    fn decode_rejects_malformed_sections() {
        let codec = TableCodec(&FORMAT);
        assert!(codec.decode(b"").is_err());
        assert!(codec.decode(b"LINE=1\n").is_err(), "column before section");
        assert!(codec.decode(b"[PO_HEADERS\nX=1\n").is_err(), "unterminated section");
        assert!(codec.decode(b"[UNKNOWN]\nX=1\n").is_err());
    }
}
