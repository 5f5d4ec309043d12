//! OAGIS codec: PROCESS_PO and ACKNOWLEDGE_PO business object documents.
//!
//! This is the third B2B protocol format; the paper's Figure 10/15 step
//! ("add one more trading partner with one more protocol") adds OAGIS.

use super::table::{field, many, node, one, Format, Kind, Syntax, Ty, What::*};
use super::FormatId;
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::ids::CorrelationId;
use crate::money::Currency;
use crate::record;
use crate::value::Value;

const PO: Kind = Kind {
    kind: DocKind::PurchaseOrder,
    selector: "PROCESS_PO",
    id: "oagis-",
    correlation: "po:",
    body: &[
        one("CNTROLAREA", Some("control_area")).of(&[
            one("BSR", None).of(&[node("VERB", Verb("PROCESS")), node("NOUN", Const("PO"))]),
            field("SENDER", "sender", Ty::Text),
            field("REFERENCEID", "reference_id", Ty::Id),
        ]),
        one("DATAAREA", Some("data_area")).of(&[
            one("POHEADER", Some("po_header")).of(&[
                field("POID", "po_id", Ty::Key),
                field("PODATE", "po_date", Ty::IsoDate),
                field("CURRENCY", "currency", Ty::Currency),
                field("BUYERPARTY", "buyer_party", Ty::Text),
                field("SELLERPARTY", "seller_party", Ty::Text),
                field("POTOTAL", "total", Ty::Money),
            ]),
            many("POLINE", "po_lines").of(&[
                field("LINENUM", "line_num", Ty::Int),
                field("ITEM", "item", Ty::Text),
                field("QUANTITY", "quantity", Ty::Int),
                field("UNITPRICE", "unit_price", Ty::Money),
            ]),
        ]),
    ],
};

const POA: Kind = Kind {
    kind: DocKind::PurchaseOrderAck,
    selector: "ACKNOWLEDGE_PO",
    id: "oagis-",
    correlation: "po:",
    body: &[
        one("CNTROLAREA", Some("control_area")).of(&[
            one("BSR", None).of(&[node("VERB", Verb("ACKNOWLEDGE")), node("NOUN", Const("PO"))]),
            field("SENDER", "sender", Ty::Text),
            field("REFERENCEID", "reference_id", Ty::Id),
        ]),
        one("DATAAREA", Some("data_area")).of(&[
            one("ACKHEADER", Some("ack_header")).of(&[
                field("POID", "po_id", Ty::Key),
                field("ACKSTATUS", "status", Ty::Text),
                field("ACKDATE", "ack_date", Ty::IsoDate),
            ]),
            many("ACKLINE", "ack_lines").of(&[
                field("LINENUM", "line_num", Ty::Int),
                field("ACKSTATUS", "status", Ty::Text),
                field("QUANTITY", "quantity", Ty::Int),
            ]),
        ]),
    ],
};

/// OAGIS PROCESS_PO and ACKNOWLEDGE_PO business object documents.
pub(crate) static FORMAT: Format =
    Format { id: FormatId::OAGIS, syntax: Syntax::Xml, kinds: &[PO, POA] };

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
    use crate::formats::table::{round_trips, TableCodec};
    use crate::formats::FormatCodec;

    #[test]
    fn po_round_trips_through_xml() {
        let codec = TableCodec(&FORMAT);
        let doc = sample_oagis_po("9001", 25);
        let wire = codec.encode(&doc).unwrap();
        assert!(String::from_utf8_lossy(&wire).starts_with("<PROCESS_PO>"));
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_xml() {
        let wire = include_bytes!("../../../../tests/fixtures/wire/oagis.purchase-order-ack.txt");
        round_trips(&FORMAT, wire, DocKind::PurchaseOrderAck);
    }

    #[test]
    fn decode_rejects_verb_mismatch() {
        let codec = TableCodec(&FORMAT);
        let wire = String::from_utf8(codec.encode(&sample_oagis_po("1", 1)).unwrap()).unwrap();
        let tampered = wire.replace("<VERB>PROCESS</VERB>", "<VERB>CANCEL</VERB>");
        assert!(codec.decode(tampered.as_bytes()).is_err());
    }
}
