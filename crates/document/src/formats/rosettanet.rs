//! RosettaNet codec: PIP 3A4 purchase-order request/confirmation plus the
//! RNIF receipt-acknowledgment and exception signals.
//!
//! The RosettaNet-shaped body keeps a service header (from/to partner,
//! PIP code, instance id) separate from the business payload, mirroring
//! how PIPs layer on RNIF.

use super::table::{field, many, one, Format, Kind, Node, Syntax, Ty};
use super::FormatId;
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::ids::CorrelationId;
use crate::money::Currency;
use crate::record;
use crate::value::Value;

const HEADER: Node = one("ServiceHeader", Some("service_header")).of(&[
    field("FromPartner", "from", Ty::Text),
    field("ToPartner", "to", Ty::Text),
    field("PipCode", "pip_code", Ty::Text),
    field("PipInstanceId", "instance_id", Ty::Id),
]);

const PO: Kind = Kind {
    kind: DocKind::PurchaseOrder,
    selector: "Pip3A4PurchaseOrderRequest",
    id: "rn-",
    correlation: "po:",
    body: &[
        HEADER,
        one("PurchaseOrder", Some("purchase_order")).of(&[
            field("GlobalPurchaseOrderIdentifier", "po_number", Ty::Key),
            field("OrderDate", "order_date", Ty::IsoDate),
            field("GlobalCurrencyCode", "currency", Ty::Currency),
            field("BuyerPartner", "buyer", Ty::Text),
            field("SellerPartner", "seller", Ty::Text),
            many("ProductLineItem", "lines").of(&[
                field("LineNumber", "line_number", Ty::Int),
                field("GlobalProductIdentifier", "product_id", Ty::Text),
                field("OrderQuantity", "quantity", Ty::Int),
                field("UnitPrice", "unit_price", Ty::Money),
            ]),
            field("TotalAmount", "total_amount", Ty::Money),
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
        one("PurchaseOrderConfirmation", Some("confirmation")).of(&[
            field("GlobalPurchaseOrderIdentifier", "po_number", Ty::Key),
            field("GlobalPurchaseOrderAcknowledgmentCode", "response_code", Ty::Text),
            field("AcknowledgmentDate", "ack_date", Ty::IsoDate),
            many("ProductLineItem", "lines").of(&[
                field("LineNumber", "line_number", Ty::Int),
                field("GlobalPurchaseOrderAcknowledgmentCode", "response_code", Ty::Text),
                field("OrderQuantity", "quantity", Ty::Int),
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
        one("QuoteRequest", Some("quote_request")).of(&[
            field("GlobalQuoteRequestIdentifier", "rfq_number", Ty::Key),
            field("BuyerPartner", "buyer", Ty::Text),
            field("GlobalProductIdentifier", "item", Ty::Text),
            field("RequestedQuantity", "quantity", Ty::Int),
            field("QuoteDeadline", "respond_by", Ty::IsoDate),
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
        one("Quote", Some("quote")).of(&[
            field("GlobalQuoteRequestIdentifier", "rfq_number", Ty::Key),
            field("SellerPartner", "seller", Ty::Text),
            field("GlobalCurrencyCode", "currency", Ty::Currency),
            field("UnitPrice", "unit_price", Ty::Money),
            field("QuoteValidUntil", "valid_until", Ty::IsoDate),
        ]),
    ],
};

/// An RNIF signal: the header and the instance it answers, which is also
/// its correlation.
const fn signal(kind: DocKind, selector: &'static str) -> Kind {
    const BODY: &[Node] = &[HEADER, field("ReferencedInstanceId", "ref_instance_id", Ty::Key)];
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
        "service_header" => record! {
            "from" => Value::text("ACME"),
            "to" => Value::text("GADGET"),
            "pip_code" => Value::text("3A4"),
            "instance_id" => Value::text(format!("pip-{po_number}")),
        },
        "purchase_order" => record! {
            "po_number" => Value::text(po_number),
            "order_date" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
            "currency" => Value::text("USD"),
            "buyer" => Value::text("ACME Manufacturing"),
            "seller" => Value::text("Gadget Supply Co"),
            "lines" => Value::List(vec![record! {
                "line_number" => Value::Int(1),
                "product_id" => Value::text("LAPTOP-T23"),
                "quantity" => Value::Int(quantity),
                "unit_price" => Value::Money(price),
            }]),
            "total_amount" => Value::Money(total),
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
