//! EDI X12 ↔ normalized programs.

use crate::context::ContextKey;
use crate::mapping::MappingRule as R;
use crate::program::TransformProgram;
use b2b_document::{DocKind, FormatId};

const LINE_STATUS: &[(&str, &str)] =
    &[("accepted", "IA"), ("rejected", "IR"), ("accepted-with-changes", "IC")];
const HEADER_STATUS: &[(&str, &str)] =
    &[("accepted", "AD"), ("rejected", "RD"), ("accepted-with-changes", "AC")];

/// The four EDI programs.
pub fn edi_programs() -> Vec<TransformProgram> {
    vec![po_to_normalized(), po_from_normalized(), poa_to_normalized(), poa_from_normalized()]
}

fn po_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::EDI_X12,
        FormatId::NORMALIZED,
        vec![
            R::mv("BEG.BEG03", "header.po_number"),
            R::pick("N1", "N101", "BY", "N102", "header.buyer"),
            R::pick("N1", "N101", "SE", "N102", "header.seller"),
            R::mv("BEG.BEG05", "header.order_date"),
            R::for_each(
                "PO1",
                "lines",
                vec![
                    R::mv("PO101", "line_no"),
                    R::mv("PO107", "item"),
                    R::mv("PO102", "quantity"),
                    R::mv("PO104", "unit_price"),
                ],
            ),
            R::mv("AMT02", "amount"),
        ],
    )
}

fn po_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::NORMALIZED,
        FormatId::EDI_X12,
        vec![
            R::context("ISA.ISA06", ContextKey::Sender),
            R::context("ISA.ISA08", ContextKey::Receiver),
            R::context("ISA.ISA13", ContextKey::ControlNumber),
            R::const_text("BEG.BEG01", "00"),
            R::const_text("BEG.BEG02", "NE"),
            R::mv("header.po_number", "BEG.BEG03"),
            R::mv("header.order_date", "BEG.BEG05"),
            R::currency_of("amount", "CUR.CUR02"),
            R::append("N1", vec![R::const_text("N101", "BY"), R::mv("header.buyer", "N102")]),
            R::append("N1", vec![R::const_text("N101", "SE"), R::mv("header.seller", "N102")]),
            R::for_each(
                "lines",
                "PO1",
                vec![
                    R::mv("line_no", "PO101"),
                    R::mv("quantity", "PO102"),
                    R::const_text("PO103", "EA"),
                    R::mv("unit_price", "PO104"),
                    R::mv("item", "PO107"),
                ],
            ),
            R::mv("amount", "AMT02"),
        ],
    )
}

fn poa_to_normalized() -> TransformProgram {
    let (_, line_back) = super::status_maps("status", "ACK01", LINE_STATUS);
    let (_, header_back) = super::status_maps("header.status", "BAK.BAK02", HEADER_STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::EDI_X12,
        FormatId::NORMALIZED,
        vec![
            R::mv("BAK.BAK03", "header.po_number"),
            // The 855 carries no party names; interchange ids stand in.
            R::mv("ISA.ISA08", "header.buyer"),
            R::mv("ISA.ISA06", "header.seller"),
            R::mv("BAK.BAK04", "header.ack_date"),
            header_back,
            R::for_each(
                "ACK",
                "lines",
                vec![R::mv("line_no", "line_no"), line_back, R::mv("ACK02", "quantity")],
            ),
        ],
    )
}

fn poa_from_normalized() -> TransformProgram {
    let (line_fwd, _) = super::status_maps("status", "ACK01", LINE_STATUS);
    let (header_fwd, _) = super::status_maps("header.status", "BAK.BAK02", HEADER_STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::NORMALIZED,
        FormatId::EDI_X12,
        vec![
            R::context("ISA.ISA06", ContextKey::Sender),
            R::context("ISA.ISA08", ContextKey::Receiver),
            R::context("ISA.ISA13", ContextKey::ControlNumber),
            R::const_text("BAK.BAK01", "00"),
            header_fwd,
            R::mv("header.po_number", "BAK.BAK03"),
            R::mv("header.ack_date", "BAK.BAK04"),
            R::for_each(
                "lines",
                "ACK",
                vec![R::mv("line_no", "line_no"), line_fwd, R::mv("quantity", "ACK02")],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TransformContext;
    use b2b_document::formats::sample_edi_po;
    use b2b_document::normalized::{build_poa, po_schema, poa_schema, PoBuilder};
    use b2b_document::{Currency, Date, Money};

    fn ctx() -> TransformContext {
        TransformContext::new("ACME", "GADGET", "000000001", "i-1")
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
    fn edi_po_to_normalized_validates() {
        let normalized = po_to_normalized().apply(&sample_edi_po("4711", 12), &ctx()).unwrap();
        assert!(po_schema().accepts(&normalized), "{:?}", po_schema().validate(&normalized));
        assert_eq!(
            normalized.get("header.buyer").unwrap().as_text("b").unwrap(),
            "ACME Manufacturing"
        );
    }

    #[test]
    fn normalized_po_round_trips_through_edi() {
        let po = plain_po();
        let edi = po_from_normalized().apply(&po, &ctx()).unwrap();
        assert_eq!(edi.format(), &FormatId::EDI_X12);
        let back = po_to_normalized().apply(&edi, &ctx()).unwrap();
        assert_eq!(back.body(), po.body());
    }

    #[test]
    fn normalized_poa_round_trips_through_edi() {
        let po = plain_po();
        let poa = build_poa(&po, "accepted-with-changes", Date::new(2001, 9, 18).unwrap()).unwrap();
        // POA travels seller -> buyer.
        let poa_ctx = TransformContext::new("Gadget Supply Co", "ACME Manufacturing", "2", "i-2");
        let edi = poa_from_normalized().apply(&poa, &poa_ctx).unwrap();
        assert_eq!(
            edi.get("BAK.BAK02").unwrap().as_text("t").unwrap(),
            "AC",
            "status mapped to the EDI code"
        );
        let back = poa_to_normalized().apply(&edi, &poa_ctx).unwrap();
        assert!(poa_schema().accepts(&back), "{:?}", poa_schema().validate(&back));
        assert_eq!(back.body(), poa.body());
    }

    #[test]
    fn unknown_status_code_is_rejected() {
        let po = plain_po();
        let mut poa = build_poa(&po, "accepted", Date::new(2001, 9, 18).unwrap()).unwrap();
        poa.set("header.status", b2b_document::Value::text("weird")).unwrap();
        assert!(poa_from_normalized().apply(&poa, &ctx()).is_err());
    }
}
