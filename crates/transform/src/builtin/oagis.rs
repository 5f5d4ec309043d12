//! OAGIS ↔ normalized programs.

use crate::context::ContextKey;
use crate::mapping::MappingRule as R;
use crate::program::TransformProgram;
use b2b_document::{DocKind, FormatId};

const STATUS: &[(&str, &str)] =
    &[("accepted", "ACCEPTED"), ("rejected", "REJECTED"), ("accepted-with-changes", "MODIFIED")];

/// The four OAGIS programs.
pub fn oagis_programs() -> Vec<TransformProgram> {
    vec![po_to_normalized(), po_from_normalized(), poa_to_normalized(), poa_from_normalized()]
}

fn po_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::OAGIS,
        FormatId::NORMALIZED,
        vec![
            R::mv("DATAAREA.POHEADER.POID", "header.po_number"),
            R::mv("DATAAREA.POHEADER.BUYERPARTY", "header.buyer"),
            R::mv("DATAAREA.POHEADER.SELLERPARTY", "header.seller"),
            R::mv("DATAAREA.POHEADER.PODATE", "header.order_date"),
            R::for_each(
                "DATAAREA.POLINE",
                "lines",
                vec![
                    R::mv("LINENUM", "line_no"),
                    R::mv("ITEM", "item"),
                    R::mv("QUANTITY", "quantity"),
                    R::mv("UNITPRICE", "unit_price"),
                ],
            ),
            R::mv("DATAAREA.POHEADER.POTOTAL", "amount"),
        ],
    )
}

fn po_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::NORMALIZED,
        FormatId::OAGIS,
        vec![
            R::context("CNTROLAREA.SENDER", ContextKey::Sender),
            R::context("CNTROLAREA.REFERENCEID", ContextKey::InstanceId),
            R::mv("header.po_number", "DATAAREA.POHEADER.POID"),
            R::mv("header.order_date", "DATAAREA.POHEADER.PODATE"),
            R::currency_of("amount", "DATAAREA.POHEADER.CURRENCY"),
            R::mv("header.buyer", "DATAAREA.POHEADER.BUYERPARTY"),
            R::mv("header.seller", "DATAAREA.POHEADER.SELLERPARTY"),
            R::mv("amount", "DATAAREA.POHEADER.POTOTAL"),
            R::for_each(
                "lines",
                "DATAAREA.POLINE",
                vec![
                    R::mv("line_no", "LINENUM"),
                    R::mv("item", "ITEM"),
                    R::mv("quantity", "QUANTITY"),
                    R::mv("unit_price", "UNITPRICE"),
                ],
            ),
        ],
    )
}

fn poa_to_normalized() -> TransformProgram {
    let (_, header_back) =
        super::status_maps("header.status", "DATAAREA.ACKHEADER.ACKSTATUS", STATUS);
    let (_, line_back) = super::status_maps("status", "ACKSTATUS", STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::OAGIS,
        FormatId::NORMALIZED,
        vec![
            R::mv("DATAAREA.ACKHEADER.POID", "header.po_number"),
            // BODs carry no party block here; the binding's context does.
            R::context("header.buyer", ContextKey::Receiver),
            R::context("header.seller", ContextKey::Sender),
            R::mv("DATAAREA.ACKHEADER.ACKDATE", "header.ack_date"),
            header_back,
            R::for_each(
                "DATAAREA.ACKLINE",
                "lines",
                vec![R::mv("LINENUM", "line_no"), line_back, R::mv("QUANTITY", "quantity")],
            ),
        ],
    )
}

fn poa_from_normalized() -> TransformProgram {
    let (header_fwd, _) =
        super::status_maps("header.status", "DATAAREA.ACKHEADER.ACKSTATUS", STATUS);
    let (line_fwd, _) = super::status_maps("status", "ACKSTATUS", STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::NORMALIZED,
        FormatId::OAGIS,
        vec![
            R::context("CNTROLAREA.SENDER", ContextKey::Sender),
            R::context("CNTROLAREA.REFERENCEID", ContextKey::InstanceId),
            R::mv("header.po_number", "DATAAREA.ACKHEADER.POID"),
            header_fwd,
            R::mv("header.ack_date", "DATAAREA.ACKHEADER.ACKDATE"),
            R::for_each(
                "lines",
                "DATAAREA.ACKLINE",
                vec![R::mv("line_no", "LINENUM"), line_fwd, R::mv("quantity", "QUANTITY")],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TransformContext;
    use b2b_document::formats::sample_oagis_po;
    use b2b_document::normalized::{build_poa, po_schema, poa_schema, PoBuilder};
    use b2b_document::{Currency, Date, Money};

    fn plain_po() -> b2b_document::Document {
        PoBuilder::new(
            "9001",
            "TP3 Logistics",
            "Gadget Supply Co",
            Date::new(2001, 9, 17).unwrap(),
            Currency::Usd,
        )
        .line("LAPTOP-T23", 25, Money::from_units(1, Currency::Usd))
        .unwrap()
        .build()
        .unwrap()
    }

    #[test]
    fn oagis_po_to_normalized_validates() {
        let ctx = TransformContext::new("TP3 Logistics", "Gadget Supply Co", "1", "bod-1");
        let normalized = po_to_normalized().apply(&sample_oagis_po("9001", 25), &ctx).unwrap();
        assert!(po_schema().accepts(&normalized), "{:?}", po_schema().validate(&normalized));
    }

    #[test]
    fn normalized_po_round_trips_through_oagis() {
        let ctx = TransformContext::new("TP3 Logistics", "Gadget Supply Co", "1", "bod-1");
        let po = plain_po();
        let bod = po_from_normalized().apply(&po, &ctx).unwrap();
        let back = po_to_normalized().apply(&bod, &ctx).unwrap();
        assert_eq!(back.body(), po.body());
    }

    #[test]
    fn normalized_poa_round_trips_through_oagis() {
        let po = plain_po();
        let poa = build_poa(&po, "accepted", Date::new(2001, 9, 18).unwrap()).unwrap();
        let ctx = TransformContext::new("Gadget Supply Co", "TP3 Logistics", "2", "bod-2");
        let bod = poa_from_normalized().apply(&poa, &ctx).unwrap();
        assert_eq!(
            bod.get("DATAAREA.ACKHEADER.ACKSTATUS").unwrap().as_text("s").unwrap(),
            "ACCEPTED"
        );
        let back = poa_to_normalized().apply(&bod, &ctx).unwrap();
        assert!(poa_schema().accepts(&back), "{:?}", poa_schema().validate(&back));
        assert_eq!(back.body(), poa.body());
    }
}
