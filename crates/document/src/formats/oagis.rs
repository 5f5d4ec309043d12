//! OAGIS codec: PROCESS_PO and ACKNOWLEDGE_PO business object documents.
//!
//! This is the third B2B protocol format; the paper's Figure 10/15 step
//! ("add one more trading partner with one more protocol") adds OAGIS.

use super::table::{field, many, node, one, Fill::Flat, Format, Kind, Syntax, Ty, What::*};
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
        one("CNTROLAREA").of(&[
            node("BSR", One(Flat, &[node("VERB", Verb("PROCESS")), node("NOUN", Const("PO"))])),
            field("SENDER", Ty::Text),
            field("REFERENCEID", Ty::Id),
        ]),
        one("DATAAREA").of(&[
            one("POHEADER").of(&[
                field("POID", Ty::Key),
                field("PODATE", Ty::IsoDate),
                field("CURRENCY", Ty::Currency),
                field("BUYERPARTY", Ty::Text),
                field("SELLERPARTY", Ty::Text),
                field("POTOTAL", Ty::Money),
            ]),
            many("POLINE").of(&[
                field("LINENUM", Ty::Int),
                field("ITEM", Ty::Text),
                field("QUANTITY", Ty::Int),
                field("UNITPRICE", Ty::Money),
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
        one("CNTROLAREA").of(&[
            node("BSR", One(Flat, &[node("VERB", Verb("ACKNOWLEDGE")), node("NOUN", Const("PO"))])),
            field("SENDER", Ty::Text),
            field("REFERENCEID", Ty::Id),
        ]),
        one("DATAAREA").of(&[
            one("ACKHEADER").of(&[
                field("POID", Ty::Key),
                field("ACKSTATUS", Ty::Text),
                field("ACKDATE", Ty::IsoDate),
            ]),
            many("ACKLINE").of(&[
                field("LINENUM", Ty::Int),
                field("ACKSTATUS", Ty::Text),
                field("QUANTITY", Ty::Int),
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
        "CNTROLAREA" => record! {
            "SENDER" => Value::text("TP3-LOGISTICS"),
            "REFERENCEID" => Value::text(format!("bod-{po_number}")),
        },
        "DATAAREA" => record! {
            "POHEADER" => record! {
                "POID" => Value::text(po_number),
                "PODATE" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
                "CURRENCY" => Value::text("USD"),
                "BUYERPARTY" => Value::text("TP3 Logistics"),
                "SELLERPARTY" => Value::text("Gadget Supply Co"),
                "POTOTAL" => Value::Money(total),
            },
            "POLINE" => Value::List(vec![record! {
                "LINENUM" => Value::Int(1),
                "ITEM" => Value::text("LAPTOP-T23"),
                "QUANTITY" => Value::Int(quantity),
                "UNITPRICE" => Value::Money(price),
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
