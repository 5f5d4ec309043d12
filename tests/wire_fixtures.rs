//! Recorded wire forms for every (format, kind) pair the text codecs
//! carry.
//!
//! `tests/fixtures/wire/<format>.<kind>.json` holds a fixed document (two
//! lines for every PO and POA) and `<format>.<kind>.txt` the recorded bytes
//! of its encoding. The tests pin both directions: encoding the document
//! yields exactly the recorded bytes, and decoding the bytes yields the
//! same document (id, kind, format, correlation and body). A codec change
//! that moves one byte of any wire form, or reads one field differently,
//! fails here.

use semantic_b2b::document::{Document, FormatId, FormatRegistry};
use semantic_b2b::transform::{TransformContext, TransformRegistry};
use std::path::PathBuf;

/// Every recorded pair: its name, document and wire bytes.
fn fixtures() -> Vec<(String, Document, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixture directory")
        .map(|entry| entry.expect("entry").file_name().into_string().expect("UTF-8 name"))
        .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let json = std::fs::read_to_string(dir.join(format!("{name}.json"))).expect("document");
            let doc = serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            let wire = std::fs::read(dir.join(format!("{name}.txt"))).expect("wire bytes");
            (name, doc, wire)
        })
        .collect()
}

#[test]
fn every_fixture_document_encodes_to_its_recorded_bytes() {
    let formats = FormatRegistry::with_builtins();
    for (name, doc, wire) in fixtures() {
        let bytes = formats.encode(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(String::from_utf8_lossy(&bytes), String::from_utf8_lossy(&wire), "{name}");
    }
}

#[test]
fn every_recorded_wire_decodes_to_its_fixture_document() {
    let formats = FormatRegistry::with_builtins();
    for (name, doc, wire) in fixtures() {
        let decoded = formats.decode(doc.format(), &wire).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, doc, "{name}");
    }
}

#[test]
fn the_fixtures_cover_every_format_and_kind_pair() {
    let formats = FormatRegistry::with_builtins();
    let mut expected = Vec::new();
    for format in formats.formats().into_iter().filter(|f| *f != FormatId::BINARY) {
        for kind in formats.codec(&format).expect("registered").supported_kinds() {
            expected.push(format!("{format}.{kind}"));
        }
    }
    expected.sort();
    let names: Vec<String> = fixtures().into_iter().map(|(name, ..)| name).collect();
    assert_eq!(names, expected);
    for (name, doc, _) in fixtures() {
        assert_eq!(name, format!("{}.{}", doc.format(), doc.kind()));
    }
}

/// The recorded pairs a builtin program binds: PO and POA of every text
/// format, and RosettaNet's RFQ and quote.
const BOUND: [&str; 12] = [
    "edi-x12.purchase-order",
    "edi-x12.purchase-order-ack",
    "oagis.purchase-order",
    "oagis.purchase-order-ack",
    "oracle-apps.purchase-order",
    "oracle-apps.purchase-order-ack",
    "rosettanet.purchase-order",
    "rosettanet.purchase-order-ack",
    "rosettanet.quote",
    "rosettanet.request-for-quote",
    "sap-idoc.purchase-order",
    "sap-idoc.purchase-order-ack",
];

/// What the bindings make of the recorded wire forms, pinned end to end.
///
/// Each recorded `.txt` is decoded and mapped to the normalized format,
/// which must equal `tests/fixtures/normalized/<format>.<kind>.json`; that
/// document is mapped back, and its encoding must equal the recorded
/// `.txt` or, where the programs write another wire form (the EDI 850's
/// second line has UOM `BX`, which the program writes as `EA`),
/// `tests/fixtures/normalized/<format>.<kind>.txt`.
#[test]
fn every_bound_wire_form_maps_to_its_recorded_normalized_document_and_back() {
    let formats = FormatRegistry::with_builtins();
    let transforms = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000101", "pip-4712");
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let read = |path: PathBuf| std::fs::read(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    for name in BOUND {
        let format = FormatId::custom(name.split('.').next().expect("named by format"));
        let wire = read(fixtures.join(format!("wire/{name}.txt")));
        let doc = formats.decode(&format, &wire).unwrap_or_else(|e| panic!("{name}: {e}"));
        let normalized = transforms
            .transform(&doc, &FormatId::NORMALIZED, &ctx)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let json = String::from_utf8(read(fixtures.join(format!("normalized/{name}.json"))));
        let pinned: Document = serde_json::from_str(&json.expect("UTF-8 document"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(normalized, pinned, "{name}");
        let back = transforms.transform(&normalized, &format, &ctx).expect("maps back");
        let bytes = formats.encode(&back).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rewritten = fixtures.join(format!("normalized/{name}.txt"));
        let expected = if rewritten.exists() { read(rewritten) } else { wire };
        assert_eq!(String::from_utf8_lossy(&bytes), String::from_utf8_lossy(&expected), "{name}");
    }
}
