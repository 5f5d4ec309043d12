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
