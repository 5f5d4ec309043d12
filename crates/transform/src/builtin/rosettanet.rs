//! RosettaNet ↔ normalized programs.

use crate::context::ContextKey;
use crate::mapping::MappingRule as R;
use crate::program::TransformProgram;
use b2b_document::{DocKind, FormatId};

const STATUS: &[(&str, &str)] =
    &[("accepted", "Accept"), ("rejected", "Reject"), ("accepted-with-changes", "Modify")];

/// The eight RosettaNet programs (PO/POA plus the Section 2.3 RFQ/quote
/// exchange).
pub fn rosettanet_programs() -> Vec<TransformProgram> {
    vec![
        po_to_normalized(),
        po_from_normalized(),
        poa_to_normalized(),
        poa_from_normalized(),
        rfq_to_normalized(),
        rfq_from_normalized(),
        quote_to_normalized(),
        quote_from_normalized(),
    ]
}

fn rfq_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::RequestForQuote,
        FormatId::ROSETTANET,
        FormatId::NORMALIZED,
        vec![
            R::mv("QuoteRequest.GlobalQuoteRequestIdentifier", "header.rfq_number"),
            R::mv("QuoteRequest.BuyerPartner", "header.buyer"),
            R::mv("QuoteRequest.GlobalProductIdentifier", "header.item"),
            R::mv("QuoteRequest.RequestedQuantity", "header.quantity"),
            R::mv("QuoteRequest.QuoteDeadline", "header.respond_by"),
        ],
    )
}

fn rfq_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::RequestForQuote,
        FormatId::NORMALIZED,
        FormatId::ROSETTANET,
        vec![
            R::context("ServiceHeader.FromPartner", ContextKey::Sender),
            R::context("ServiceHeader.ToPartner", ContextKey::Receiver),
            R::const_text("ServiceHeader.PipCode", "3A1"),
            R::context("ServiceHeader.PipInstanceId", ContextKey::InstanceId),
            R::mv("header.rfq_number", "QuoteRequest.GlobalQuoteRequestIdentifier"),
            R::mv("header.buyer", "QuoteRequest.BuyerPartner"),
            R::mv("header.item", "QuoteRequest.GlobalProductIdentifier"),
            R::mv("header.quantity", "QuoteRequest.RequestedQuantity"),
            R::mv("header.respond_by", "QuoteRequest.QuoteDeadline"),
        ],
    )
}

fn quote_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::Quote,
        FormatId::ROSETTANET,
        FormatId::NORMALIZED,
        vec![
            R::mv("Quote.GlobalQuoteRequestIdentifier", "header.rfq_number"),
            R::mv("Quote.SellerPartner", "header.seller"),
            R::mv("Quote.UnitPrice", "header.unit_price"),
            R::mv("Quote.QuoteValidUntil", "header.valid_until"),
        ],
    )
}

fn quote_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::Quote,
        FormatId::NORMALIZED,
        FormatId::ROSETTANET,
        vec![
            R::context("ServiceHeader.FromPartner", ContextKey::Sender),
            R::context("ServiceHeader.ToPartner", ContextKey::Receiver),
            R::const_text("ServiceHeader.PipCode", "3A1"),
            R::context("ServiceHeader.PipInstanceId", ContextKey::InstanceId),
            R::mv("header.rfq_number", "Quote.GlobalQuoteRequestIdentifier"),
            R::mv("header.seller", "Quote.SellerPartner"),
            R::currency_of("header.unit_price", "Quote.GlobalCurrencyCode"),
            R::mv("header.unit_price", "Quote.UnitPrice"),
            R::mv("header.valid_until", "Quote.QuoteValidUntil"),
        ],
    )
}

fn po_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::ROSETTANET,
        FormatId::NORMALIZED,
        vec![
            R::mv("PurchaseOrder.GlobalPurchaseOrderIdentifier", "header.po_number"),
            R::mv("PurchaseOrder.BuyerPartner", "header.buyer"),
            R::mv("PurchaseOrder.SellerPartner", "header.seller"),
            R::mv("PurchaseOrder.OrderDate", "header.order_date"),
            R::for_each(
                "PurchaseOrder.ProductLineItem",
                "lines",
                vec![
                    R::mv("LineNumber", "line_no"),
                    R::mv("GlobalProductIdentifier", "item"),
                    R::mv("OrderQuantity", "quantity"),
                    R::mv("UnitPrice", "unit_price"),
                ],
            ),
            R::mv("PurchaseOrder.TotalAmount", "amount"),
        ],
    )
}

fn po_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::NORMALIZED,
        FormatId::ROSETTANET,
        vec![
            R::context("ServiceHeader.FromPartner", ContextKey::Sender),
            R::context("ServiceHeader.ToPartner", ContextKey::Receiver),
            R::const_text("ServiceHeader.PipCode", "3A4"),
            R::context("ServiceHeader.PipInstanceId", ContextKey::InstanceId),
            R::mv("header.po_number", "PurchaseOrder.GlobalPurchaseOrderIdentifier"),
            R::mv("header.order_date", "PurchaseOrder.OrderDate"),
            R::currency_of("amount", "PurchaseOrder.GlobalCurrencyCode"),
            R::mv("header.buyer", "PurchaseOrder.BuyerPartner"),
            R::mv("header.seller", "PurchaseOrder.SellerPartner"),
            R::for_each(
                "lines",
                "PurchaseOrder.ProductLineItem",
                vec![
                    R::mv("line_no", "LineNumber"),
                    R::mv("item", "GlobalProductIdentifier"),
                    R::mv("quantity", "OrderQuantity"),
                    R::mv("unit_price", "UnitPrice"),
                ],
            ),
            R::mv("amount", "PurchaseOrder.TotalAmount"),
        ],
    )
}

/// The acknowledgment code of the confirmation and of each of its lines.
const HEADER_CODE: &str = "PurchaseOrderConfirmation.GlobalPurchaseOrderAcknowledgmentCode";
const LINE_CODE: &str = "GlobalPurchaseOrderAcknowledgmentCode";

fn poa_to_normalized() -> TransformProgram {
    let (_, header_back) = super::status_maps("header.status", HEADER_CODE, STATUS);
    let (_, line_back) = super::status_maps("status", LINE_CODE, STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::ROSETTANET,
        FormatId::NORMALIZED,
        vec![
            R::mv("PurchaseOrderConfirmation.GlobalPurchaseOrderIdentifier", "header.po_number"),
            // The confirmation travels seller -> buyer.
            R::mv("ServiceHeader.ToPartner", "header.buyer"),
            R::mv("ServiceHeader.FromPartner", "header.seller"),
            R::mv("PurchaseOrderConfirmation.AcknowledgmentDate", "header.ack_date"),
            header_back,
            R::for_each(
                "PurchaseOrderConfirmation.ProductLineItem",
                "lines",
                vec![R::mv("LineNumber", "line_no"), line_back, R::mv("OrderQuantity", "quantity")],
            ),
        ],
    )
}

fn poa_from_normalized() -> TransformProgram {
    let (header_fwd, _) = super::status_maps("header.status", HEADER_CODE, STATUS);
    let (line_fwd, _) = super::status_maps("status", LINE_CODE, STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::NORMALIZED,
        FormatId::ROSETTANET,
        vec![
            R::context("ServiceHeader.FromPartner", ContextKey::Sender),
            R::context("ServiceHeader.ToPartner", ContextKey::Receiver),
            R::const_text("ServiceHeader.PipCode", "3A4"),
            R::context("ServiceHeader.PipInstanceId", ContextKey::InstanceId),
            R::mv("header.po_number", "PurchaseOrderConfirmation.GlobalPurchaseOrderIdentifier"),
            header_fwd,
            R::mv("header.ack_date", "PurchaseOrderConfirmation.AcknowledgmentDate"),
            R::for_each(
                "lines",
                "PurchaseOrderConfirmation.ProductLineItem",
                vec![R::mv("line_no", "LineNumber"), line_fwd, R::mv("quantity", "OrderQuantity")],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TransformContext;
    use b2b_document::formats::sample_rn_po;
    use b2b_document::normalized::{build_poa, po_schema, poa_schema, PoBuilder};
    use b2b_document::{Currency, Date, Money};

    fn po_ctx() -> TransformContext {
        TransformContext::new("ACME Manufacturing", "Gadget Supply Co", "1", "pip-1")
    }

    fn plain_po() -> b2b_document::Document {
        PoBuilder::new(
            "4711",
            "ACME Manufacturing",
            "Gadget Supply Co",
            Date::new(2001, 9, 17).unwrap(),
            Currency::Usd,
        )
        .line("LAPTOP-T23", 12, Money::from_units(1, Currency::Usd))
        .unwrap()
        .build()
        .unwrap()
    }

    #[test]
    fn rn_po_to_normalized_validates() {
        let normalized = po_to_normalized().apply(&sample_rn_po("4711", 12), &po_ctx()).unwrap();
        assert!(po_schema().accepts(&normalized), "{:?}", po_schema().validate(&normalized));
    }

    #[test]
    fn normalized_po_round_trips_through_rosettanet() {
        let po = plain_po();
        let rn = po_from_normalized().apply(&po, &po_ctx()).unwrap();
        assert_eq!(rn.get("ServiceHeader.PipCode").unwrap().as_text("p").unwrap(), "3A4");
        let back = po_to_normalized().apply(&rn, &po_ctx()).unwrap();
        assert_eq!(back.body(), po.body());
    }

    #[test]
    fn rfq_and_quote_round_trip_through_rosettanet() {
        use b2b_document::{record, CorrelationId, DocKind, Document, FormatId, Value};
        let rfq = Document::new(
            DocKind::RequestForQuote,
            FormatId::NORMALIZED,
            CorrelationId::for_rfq_number("9"),
            record! {
                "header" => record! {
                    "rfq_number" => Value::text("9"),
                    "buyer" => Value::text("ACME Manufacturing"),
                    "item" => Value::text("LAPTOP-T23"),
                    "quantity" => Value::Int(100),
                    "respond_by" => Value::Date(Date::new(2001, 10, 1).unwrap()),
                },
            },
        );
        assert!(b2b_document::normalized::rfq_schema().accepts(&rfq));
        let ctx = TransformContext::new("ACME Manufacturing", "Gadget Supply Co", "1", "pip-rfq");
        let wire = rfq_from_normalized().apply(&rfq, &ctx).unwrap();
        let back = rfq_to_normalized().apply(&wire, &ctx).unwrap();
        assert_eq!(back.body(), rfq.body());

        let quote = rfq.reply(
            DocKind::Quote,
            FormatId::NORMALIZED,
            record! {
                "header" => record! {
                    "rfq_number" => Value::text("9"),
                    "seller" => Value::text("Gadget Supply Co"),
                    "unit_price" => Value::Money(Money::from_cents(94_999, Currency::Usd)),
                    "valid_until" => Value::Date(Date::new(2001, 11, 1).unwrap()),
                },
            },
        );
        assert!(b2b_document::normalized::quote_schema().accepts(&quote));
        let qctx = TransformContext::new("Gadget Supply Co", "ACME Manufacturing", "2", "pip-q");
        let wire = quote_from_normalized().apply(&quote, &qctx).unwrap();
        let back = quote_to_normalized().apply(&wire, &qctx).unwrap();
        assert_eq!(back.body(), quote.body());
    }

    #[test]
    fn normalized_poa_round_trips_through_rosettanet() {
        let po = plain_po();
        let poa = build_poa(&po, "rejected", Date::new(2001, 9, 18).unwrap()).unwrap();
        let poa_ctx = TransformContext::new("Gadget Supply Co", "ACME Manufacturing", "2", "pip-2");
        let rn = poa_from_normalized().apply(&poa, &poa_ctx).unwrap();
        let code = rn.get("PurchaseOrderConfirmation.GlobalPurchaseOrderAcknowledgmentCode");
        assert_eq!(code.unwrap().as_text("c").unwrap(), "Reject");
        let back = poa_to_normalized().apply(&rn, &poa_ctx).unwrap();
        assert!(poa_schema().accepts(&back), "{:?}", poa_schema().validate(&back));
        assert_eq!(back.body(), poa.body());
    }
}
