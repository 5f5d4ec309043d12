//! RosettaNet codec: PIP 3A4 purchase-order request/confirmation plus the
//! RNIF receipt-acknowledgment and exception signals.
//!
//! A RosettaNet-shaped body is keyed by the PIP's own element names: the
//! `ServiceHeader` (from/to partner, PIP code, instance id) sits apart
//! from the business payload, mirroring how PIPs layer on RNIF.

use super::table::{field, many, one, Format, Kind, Node, Syntax, Ty};
use super::FormatId;
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::ids::CorrelationId;
use crate::money::Currency;
use crate::record;
use crate::value::Value;

const HEADER: Node = one("ServiceHeader").of(&[
    field("FromPartner", Ty::Text),
    field("ToPartner", Ty::Text),
    field("PipCode", Ty::Text),
    field("PipInstanceId", Ty::Id),
]);

const PO: Kind = Kind {
    kind: DocKind::PurchaseOrder,
    selector: "Pip3A4PurchaseOrderRequest",
    id: "rn-",
    correlation: "po:",
    body: &[
        HEADER,
        one("PurchaseOrder").of(&[
            field("GlobalPurchaseOrderIdentifier", Ty::Key),
            field("OrderDate", Ty::IsoDate),
            field("GlobalCurrencyCode", Ty::Currency),
            field("BuyerPartner", Ty::Text),
            field("SellerPartner", Ty::Text),
            many("ProductLineItem").of(&[
                field("LineNumber", Ty::Int),
                field("GlobalProductIdentifier", Ty::Text),
                field("OrderQuantity", Ty::Int),
                field("UnitPrice", Ty::Money),
            ]),
            field("TotalAmount", Ty::Money),
        ]),
    ],
};

const POA: Kind = Kind {
    kind: DocKind::PurchaseOrderAck,
    selector: "Pip3A4PurchaseOrderConfirmation",
    id: "rn-",
    correlation: "po:",
    body: &[
        HEADER,
        one("PurchaseOrderConfirmation").of(&[
            field("GlobalPurchaseOrderIdentifier", Ty::Key),
            field("GlobalPurchaseOrderAcknowledgmentCode", Ty::Text),
            field("AcknowledgmentDate", Ty::IsoDate),
            many("ProductLineItem").of(&[
                field("LineNumber", Ty::Int),
                field("GlobalPurchaseOrderAcknowledgmentCode", Ty::Text),
                field("OrderQuantity", Ty::Int),
            ]),
        ]),
    ],
};

const RFQ: Kind = Kind {
    kind: DocKind::RequestForQuote,
    selector: "Pip3A1QuoteRequest",
    id: "rn-",
    correlation: "rfq:",
    body: &[
        HEADER,
        one("QuoteRequest").of(&[
            field("GlobalQuoteRequestIdentifier", Ty::Key),
            field("BuyerPartner", Ty::Text),
            field("GlobalProductIdentifier", Ty::Text),
            field("RequestedQuantity", Ty::Int),
            field("QuoteDeadline", Ty::IsoDate),
        ]),
    ],
};

const QUOTE: Kind = Kind {
    kind: DocKind::Quote,
    selector: "Pip3A1Quote",
    id: "rn-",
    correlation: "rfq:",
    body: &[
        HEADER,
        one("Quote").of(&[
            field("GlobalQuoteRequestIdentifier", Ty::Key),
            field("SellerPartner", Ty::Text),
            field("GlobalCurrencyCode", Ty::Currency),
            field("UnitPrice", Ty::Money),
            field("QuoteValidUntil", Ty::IsoDate),
        ]),
    ],
};

/// An RNIF signal: the header and the instance it answers, which is also
/// its correlation.
const fn signal(kind: DocKind, selector: &'static str) -> Kind {
    const BODY: &[Node] = &[HEADER, field("ReferencedInstanceId", Ty::Key)];
    Kind { kind, selector, id: "rn-", correlation: "", body: BODY }
}

/// RosettaNet PIP 3A4 and 3A1 documents and the RNIF signals.
pub(crate) static FORMAT: Format = Format {
    id: FormatId::ROSETTANET,
    syntax: Syntax::Xml,
    kinds: &[
        PO,
        POA,
        RFQ,
        QUOTE,
        signal(DocKind::Receipt, "ReceiptAcknowledgment"),
        signal(DocKind::Exception, "Exception"),
    ],
};

/// Builds a RosettaNet-shaped PO document for tests and examples.
pub fn sample_rn_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "ServiceHeader" => record! {
            "FromPartner" => Value::text("ACME"),
            "ToPartner" => Value::text("GADGET"),
            "PipCode" => Value::text("3A4"),
            "PipInstanceId" => Value::text(format!("pip-{po_number}")),
        },
        "PurchaseOrder" => record! {
            "GlobalPurchaseOrderIdentifier" => Value::text(po_number),
            "OrderDate" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
            "GlobalCurrencyCode" => Value::text("USD"),
            "BuyerPartner" => Value::text("ACME Manufacturing"),
            "SellerPartner" => Value::text("Gadget Supply Co"),
            "ProductLineItem" => Value::List(vec![record! {
                "LineNumber" => Value::Int(1),
                "GlobalProductIdentifier" => Value::text("LAPTOP-T23"),
                "OrderQuantity" => Value::Int(quantity),
                "UnitPrice" => Value::Money(price),
            }]),
            "TotalAmount" => Value::Money(total),
        },
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::ROSETTANET,
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
        let doc = sample_rn_po("4711", 12);
        let wire = codec.encode(&doc).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("<Pip3A4PurchaseOrderRequest>"), "{text}");
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_xml() {
        let wire =
            include_bytes!("../../../../tests/fixtures/wire/rosettanet.purchase-order-ack.txt");
        round_trips(&FORMAT, wire, DocKind::PurchaseOrderAck);
    }

    #[test]
    fn receipt_signal_round_trips() {
        let wire = include_bytes!("../../../../tests/fixtures/wire/rosettanet.receipt.txt");
        let doc = round_trips(&FORMAT, wire, DocKind::Receipt);
        assert_eq!(doc.correlation().as_str(), "pip-4712");
    }

    #[test]
    fn rfq_and_quote_round_trip_through_xml() {
        let wire =
            include_bytes!("../../../../tests/fixtures/wire/rosettanet.request-for-quote.txt");
        let rfq = round_trips(&FORMAT, wire, DocKind::RequestForQuote);
        assert_eq!(rfq.correlation(), &CorrelationId::for_rfq_number("9"));
        let wire = include_bytes!("../../../../tests/fixtures/wire/rosettanet.quote.txt");
        let quote = round_trips(&FORMAT, wire, DocKind::Quote);
        assert_eq!(quote.correlation(), rfq.correlation());
    }

    #[test]
    fn decode_rejects_unknown_root_and_missing_header() {
        let codec = TableCodec(&FORMAT);
        assert!(codec.decode(b"<Unknown/>").is_err());
        assert!(codec.decode(b"<Pip3A4PurchaseOrderRequest/>").is_err());
    }
}
