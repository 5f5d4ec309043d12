//! Binary ↔ normalized programs.
//!
//! The binary wire format carries the canonical (normalized) shape
//! directly, so its programs are whole-subtree moves — no field renames,
//! no status-code tables, no envelope scaffolding. That is the point of
//! the format: the binding round trip for a binary partner is a handful
//! of subtree clones instead of a full field-by-field mapping.

use crate::mapping::MappingRule as R;
use crate::program::TransformProgram;
use b2b_document::{DocKind, FormatId};

/// The eight binary programs (PO/POA plus the RFQ/quote exchange, so
/// binary partners can join the broadcast scenarios).
pub fn binary_programs() -> Vec<TransformProgram> {
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

fn po_rules() -> Vec<R> {
    vec![R::mv("header", "header"), R::mv("lines", "lines"), R::mv("amount", "amount")]
}

fn poa_rules() -> Vec<R> {
    vec![R::mv("header", "header"), R::mv("lines", "lines")]
}

fn header_only() -> Vec<R> {
    vec![R::mv("header", "header")]
}

fn po_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::BINARY,
        FormatId::NORMALIZED,
        po_rules(),
    )
}

fn po_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrder,
        FormatId::NORMALIZED,
        FormatId::BINARY,
        po_rules(),
    )
}

fn poa_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::BINARY,
        FormatId::NORMALIZED,
        poa_rules(),
    )
}

fn poa_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::PurchaseOrderAck,
        FormatId::NORMALIZED,
        FormatId::BINARY,
        poa_rules(),
    )
}

fn rfq_to_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::RequestForQuote,
        FormatId::BINARY,
        FormatId::NORMALIZED,
        header_only(),
    )
}

fn rfq_from_normalized() -> TransformProgram {
    TransformProgram::new(
        DocKind::RequestForQuote,
        FormatId::NORMALIZED,
        FormatId::BINARY,
        header_only(),
    )
}

fn quote_to_normalized() -> TransformProgram {
    TransformProgram::new(DocKind::Quote, FormatId::BINARY, FormatId::NORMALIZED, header_only())
}

fn quote_from_normalized() -> TransformProgram {
    TransformProgram::new(DocKind::Quote, FormatId::NORMALIZED, FormatId::BINARY, header_only())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TransformContext;
    use b2b_document::formats::sample_binary_po;
    use b2b_document::normalized::{build_poa, po_schema, poa_schema};
    use b2b_document::Date;

    fn ctx() -> TransformContext {
        TransformContext::new("Acme Manufacturing", "Apex Suppliers", "1", "bin-1")
    }

    #[test]
    fn binary_po_to_normalized_validates() {
        let normalized = po_to_normalized().apply(&sample_binary_po("4711", 3), &ctx()).unwrap();
        assert!(po_schema().accepts(&normalized), "{:?}", po_schema().validate(&normalized));
    }

    #[test]
    fn po_and_poa_round_trip_losslessly() {
        let po = sample_binary_po("4712", 2);
        let normalized = po_to_normalized().apply(&po, &ctx()).unwrap();
        let back = po_from_normalized().apply(&normalized, &ctx()).unwrap();
        assert_eq!(back.body(), po.body());
        assert_eq!(back.format(), &FormatId::BINARY);

        let poa = build_poa(&normalized, "accepted", Date::new(2001, 5, 23).unwrap()).unwrap();
        let wire = poa_from_normalized().apply(&poa, &ctx()).unwrap();
        let round = poa_to_normalized().apply(&wire, &ctx()).unwrap();
        assert!(poa_schema().accepts(&round), "{:?}", poa_schema().validate(&round));
        assert_eq!(round.body(), poa.body());
    }
}
