//! Oracle applications ↔ normalized programs.

use crate::context::ContextKey;
use crate::mapping::MappingRule as R;
use crate::program::TransformProgram;
use b2b_document::{DocKind, FieldPath, FormatId, Value};

const STATUS: &[(&str, &str)] =
    &[("accepted", "ACCEPTED"), ("rejected", "REJECTED"), ("accepted-with-changes", "MODIFIED")];

/// Operating-unit id the simulator files everything under.
const DEFAULT_ORG_ID: i64 = 204;

/// The four Oracle programs.
pub fn oracle_programs() -> Vec<TransformProgram> {
    vec![po_to_normalized(), po_from_normalized(), poa_to_normalized(), poa_from_normalized()]
}

fn po_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::ORACLE_APPS,
        FormatId::NORMALIZED,
        vec![
            R::mv("PO_HEADERS.SEGMENT1", "header.po_number"),
            R::mv("PO_HEADERS.AGENT_NAME", "header.buyer"),
            R::mv("PO_HEADERS.VENDOR_NAME", "header.seller"),
            R::mv("PO_HEADERS.CREATION_DATE", "header.order_date"),
            R::for_each(
                "PO_LINES",
                "lines",
                vec![
                    R::mv("LINE_NUM", "line_no"),
                    R::mv("ITEM_ID", "item"),
                    R::mv("QUANTITY", "quantity"),
                    R::mv("UNIT_PRICE", "unit_price"),
                ],
            ),
            R::mv("PO_HEADERS.TOTAL_AMOUNT", "amount"),
        ],
    )
}

fn po_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::NORMALIZED,
        FormatId::ORACLE_APPS,
        vec![
            R::mv("header.po_number", "PO_HEADERS.SEGMENT1"),
            R::Const {
                to: FieldPath::parse("PO_HEADERS.ORG_ID").expect("static path"),
                value: Value::Int(DEFAULT_ORG_ID),
            },
            R::mv("header.seller", "PO_HEADERS.VENDOR_NAME"),
            R::mv("header.buyer", "PO_HEADERS.AGENT_NAME"),
            R::currency_of("amount", "PO_HEADERS.CURRENCY_CODE"),
            R::mv("header.order_date", "PO_HEADERS.CREATION_DATE"),
            R::mv("amount", "PO_HEADERS.TOTAL_AMOUNT"),
            R::for_each(
                "lines",
                "PO_LINES",
                vec![
                    R::mv("line_no", "LINE_NUM"),
                    R::mv("item", "ITEM_ID"),
                    R::mv("quantity", "QUANTITY"),
                    R::mv("unit_price", "UNIT_PRICE"),
                ],
            ),
        ],
    )
}

fn poa_to_normalized() -> TransformProgram {
    let (_, header_back) = super::status_maps("header.status", "PO_ACKNOWLEDGMENTS.STATUS", STATUS);
    let (_, line_back) = super::status_maps("status", "STATUS", STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::ORACLE_APPS,
        FormatId::NORMALIZED,
        vec![
            R::mv("PO_ACKNOWLEDGMENTS.PO_NUMBER", "header.po_number"),
            R::context("header.buyer", ContextKey::Receiver),
            R::context("header.seller", ContextKey::Sender),
            R::mv("PO_ACKNOWLEDGMENTS.ACK_DATE", "header.ack_date"),
            header_back,
            R::for_each(
                "PO_ACK_LINES",
                "lines",
                vec![R::mv("LINE_NUM", "line_no"), line_back, R::mv("QUANTITY", "quantity")],
            ),
        ],
    )
}

fn poa_from_normalized() -> TransformProgram {
    let (header_fwd, _) = super::status_maps("header.status", "PO_ACKNOWLEDGMENTS.STATUS", STATUS);
    let (line_fwd, _) = super::status_maps("status", "STATUS", STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::NORMALIZED,
        FormatId::ORACLE_APPS,
        vec![
            R::mv("header.po_number", "PO_ACKNOWLEDGMENTS.PO_NUMBER"),
            header_fwd,
            R::mv("header.ack_date", "PO_ACKNOWLEDGMENTS.ACK_DATE"),
            R::for_each(
                "lines",
                "PO_ACK_LINES",
                vec![R::mv("line_no", "LINE_NUM"), line_fwd, R::mv("quantity", "QUANTITY")],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TransformContext;
    use b2b_document::formats::sample_oracle_po;
    use b2b_document::normalized::{build_poa, po_schema, poa_schema, PoBuilder};
    use b2b_document::{Currency, Date, Money};

    fn ctx() -> TransformContext {
        TransformContext::new("ACME Manufacturing", "Gadget Supply Co", "1", "i-1")
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
    fn oracle_po_to_normalized_validates() {
        let normalized = po_to_normalized().apply(&sample_oracle_po("4711", 12), &ctx()).unwrap();
        assert!(po_schema().accepts(&normalized), "{:?}", po_schema().validate(&normalized));
    }

    #[test]
    fn normalized_po_round_trips_through_oracle() {
        let po = plain_po();
        let ora = po_from_normalized().apply(&po, &ctx()).unwrap();
        assert_eq!(ora.get("PO_HEADERS.ORG_ID").unwrap().as_int("o").unwrap(), DEFAULT_ORG_ID);
        let back = po_to_normalized().apply(&ora, &ctx()).unwrap();
        assert_eq!(back.body(), po.body());
    }

    #[test]
    fn normalized_poa_round_trips_through_oracle() {
        let po = plain_po();
        let poa = build_poa(&po, "accepted-with-changes", Date::new(2001, 9, 18).unwrap()).unwrap();
        let poa_ctx = TransformContext::new("Gadget Supply Co", "ACME Manufacturing", "2", "i-2");
        let ora = poa_from_normalized().apply(&poa, &poa_ctx).unwrap();
        assert_eq!(ora.get("PO_ACKNOWLEDGMENTS.STATUS").unwrap().as_text("s").unwrap(), "MODIFIED");
        let back = poa_to_normalized().apply(&ora, &poa_ctx).unwrap();
        assert!(poa_schema().accepts(&back), "{:?}", poa_schema().validate(&back));
        assert_eq!(back.body(), poa.body());
    }
}
