//! SAP IDoc ↔ normalized programs (the paper's "Transform EDI to SAP PO"
//! path goes EDI → normalized → SAP through two of these).

use crate::context::ContextKey;
use crate::mapping::MappingRule as R;
use crate::program::TransformProgram;
use b2b_document::{DocKind, FormatId};

const STATUS: &[(&str, &str)] =
    &[("accepted", "001"), ("rejected", "003"), ("accepted-with-changes", "002")];

/// The four SAP programs.
pub fn sap_programs() -> Vec<TransformProgram> {
    vec![po_to_normalized(), po_from_normalized(), poa_to_normalized(), poa_from_normalized()]
}

fn po_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::SAP_IDOC,
        FormatId::NORMALIZED,
        vec![
            R::mv("E1EDK01.BELNR", "header.po_number"),
            R::pick("E1EDKA1", "PARVW", "AG", "NAME1", "header.buyer"),
            R::pick("E1EDKA1", "PARVW", "LF", "NAME1", "header.seller"),
            R::mv("E1EDK01.AUDAT", "header.order_date"),
            R::for_each(
                "E1EDP01",
                "lines",
                vec![
                    R::mv("POSEX", "line_no"),
                    R::mv("MATNR", "item"),
                    R::mv("MENGE", "quantity"),
                    R::mv("VPREI", "unit_price"),
                ],
            ),
            R::mv("E1EDS01.SUMME", "amount"),
        ],
    )
}

fn po_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::NORMALIZED,
        FormatId::SAP_IDOC,
        vec![
            R::const_text("EDI_DC40.IDOCTYP", "ORDERS05"),
            R::context("EDI_DC40.SNDPRN", ContextKey::Sender),
            R::context("EDI_DC40.RCVPRN", ContextKey::Receiver),
            R::context("EDI_DC40.DOCNUM", ContextKey::ControlNumber),
            R::mv("header.po_number", "E1EDK01.BELNR"),
            R::currency_of("amount", "E1EDK01.CURCY"),
            R::mv("header.order_date", "E1EDK01.AUDAT"),
            R::append(
                "E1EDKA1",
                vec![R::const_text("PARVW", "AG"), R::mv("header.buyer", "NAME1")],
            ),
            R::append(
                "E1EDKA1",
                vec![R::const_text("PARVW", "LF"), R::mv("header.seller", "NAME1")],
            ),
            R::for_each(
                "lines",
                "E1EDP01",
                vec![
                    R::mv("line_no", "POSEX"),
                    R::mv("quantity", "MENGE"),
                    R::mv("unit_price", "VPREI"),
                    R::mv("item", "MATNR"),
                ],
            ),
            R::mv("amount", "E1EDS01.SUMME"),
        ],
    )
}

fn poa_to_normalized() -> TransformProgram {
    let (_, header_back) = super::status_maps("header.status", "E1EDK01.ACTION", STATUS);
    let (_, line_back) = super::status_maps("status", "ACTION", STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::SAP_IDOC,
        FormatId::NORMALIZED,
        vec![
            R::mv("E1EDK01.BELNR", "header.po_number"),
            R::context("header.buyer", ContextKey::Receiver),
            R::context("header.seller", ContextKey::Sender),
            R::mv("E1EDK01.AUDAT", "header.ack_date"),
            header_back,
            R::for_each(
                "E1EDP01",
                "lines",
                vec![R::mv("POSEX", "line_no"), line_back, R::mv("MENGE", "quantity")],
            ),
        ],
    )
}

fn poa_from_normalized() -> TransformProgram {
    let (header_fwd, _) = super::status_maps("header.status", "E1EDK01.ACTION", STATUS);
    let (line_fwd, _) = super::status_maps("status", "ACTION", STATUS);
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::NORMALIZED,
        FormatId::SAP_IDOC,
        vec![
            R::const_text("EDI_DC40.IDOCTYP", "ORDRSP"),
            R::context("EDI_DC40.SNDPRN", ContextKey::Sender),
            R::context("EDI_DC40.RCVPRN", ContextKey::Receiver),
            R::context("EDI_DC40.DOCNUM", ContextKey::ControlNumber),
            R::mv("header.po_number", "E1EDK01.BELNR"),
            R::mv("header.ack_date", "E1EDK01.AUDAT"),
            header_fwd,
            R::for_each(
                "lines",
                "E1EDP01",
                vec![R::mv("line_no", "POSEX"), R::mv("quantity", "MENGE"), line_fwd],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TransformContext;
    use b2b_document::formats::sample_sap_po;
    use b2b_document::normalized::{build_poa, po_schema, poa_schema, PoBuilder};
    use b2b_document::{Currency, Date, Money};

    fn ctx() -> TransformContext {
        TransformContext::new("ACME Manufacturing", "Gadget Supply Co", "idoc-1", "i-1")
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
    fn sap_po_to_normalized_validates() {
        let normalized = po_to_normalized().apply(&sample_sap_po("4711", 12), &ctx()).unwrap();
        assert!(po_schema().accepts(&normalized), "{:?}", po_schema().validate(&normalized));
    }

    #[test]
    fn normalized_po_round_trips_through_sap() {
        let po = plain_po();
        let idoc = po_from_normalized().apply(&po, &ctx()).unwrap();
        assert_eq!(idoc.get("EDI_DC40.IDOCTYP").unwrap().as_text("t").unwrap(), "ORDERS05");
        let back = po_to_normalized().apply(&idoc, &ctx()).unwrap();
        assert_eq!(back.body(), po.body());
    }

    #[test]
    fn normalized_poa_round_trips_through_sap() {
        let po = plain_po();
        let poa = build_poa(&po, "accepted", Date::new(2001, 9, 18).unwrap()).unwrap();
        let poa_ctx =
            TransformContext::new("Gadget Supply Co", "ACME Manufacturing", "idoc-2", "i-2");
        let idoc = poa_from_normalized().apply(&poa, &poa_ctx).unwrap();
        assert_eq!(idoc.get("E1EDK01.ACTION").unwrap().as_text("a").unwrap(), "001");
        let back = poa_to_normalized().apply(&idoc, &poa_ctx).unwrap();
        assert!(poa_schema().accepts(&back), "{:?}", poa_schema().validate(&back));
        assert_eq!(back.body(), poa.body());
    }
}
