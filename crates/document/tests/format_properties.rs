//! Property tests for the X12 syntax: generated 850s read back field for
//! field and re-encode to the same bytes, and the reader does not panic
//! on garbage. The XML reader's properties are unit tests of its walker
//! (`formats/xml.rs`), which reads an index the crate does not export.

use b2b_document::{FormatId, FormatRegistry, Value};
use proptest::prelude::*;

fn x12_element() -> impl Strategy<Value = String> {
    // Any printable characters except the delimiters; never empty, as an
    // empty element reads as missing.
    "[A-Za-z0-9.,;:+/_-][A-Za-z0-9 .,;:+/_-]{0,11}"
}

/// One generated PO1 line: quantity, unit of measure, price in cents, item.
type Line = (i64, String, i64, String);

/// The wire text of an 850 with these values, written by hand.
fn x12_850(
    (sender, receiver, control): (&str, &str, &str),
    po_number: &str,
    parties: &[(String, String)],
    lines: &[Line],
) -> String {
    let decimal = |cents: i64| format!("{}.{:02}", cents / 100, cents % 100);
    let mut body = vec![format!("BEG*00*NE*{po_number}**20010917"), "CUR*BY*USD".to_string()];
    body.extend(parties.iter().map(|(code, name)| format!("N1*{code}*{name}")));
    body.extend(lines.iter().enumerate().map(|(i, (quantity, uom, cents, item))| {
        format!("PO1*{}*{quantity}*{uom}*{}**VP*{item}", i + 1, decimal(*cents))
    }));
    body.push(format!("CTT*{}", lines.len()));
    body.push(format!("AMT*TT*{}", decimal(lines.iter().map(|l| l.0 * l.2).sum())));
    format!(
        "ISA*00*          *00*          *ZZ*{sender}*ZZ*{receiver}*010917*1200*U*00401*{control}*0*P*>~\n\
         GS*PO*{sender}*{receiver}*20010917*1200*{control}*X*004010~\nST*850*0001~\n{}~\n\
         SE*{}*0001~\nGE*1*{control}~\nIEA*1*{control}~\n",
        body.join("~\n"),
        body.len() + 2
    )
}

proptest! {
    #[test]
    fn generated_850s_read_back_and_reencode_identically(
        envelope in ("[A-Z]{2,10}", "[A-Z]{2,10}", "[0-9]{9}"),
        po_number in x12_element(),
        parties in prop::collection::vec(("[A-Z]{2}", x12_element()), 0..3),
        lines in prop::collection::vec(
            (1i64..10_000, "[A-Z]{2}", 0i64..10_000_000, x12_element()),
            1..5,
        ),
    ) {
        let (sender, receiver, control) = &envelope;
        let wire = x12_850((sender, receiver, control), &po_number, &parties, &lines);
        let formats = FormatRegistry::with_builtins();
        let doc = formats.decode(&FormatId::EDI_X12, wire.as_bytes()).unwrap();
        let text = |path: &str| doc.get(path).unwrap().as_text(path).unwrap().to_string();
        prop_assert_eq!(doc.id().as_str(), format!("edi-{control}"));
        prop_assert_eq!(doc.correlation().as_str(), format!("po:{po_number}"));
        prop_assert_eq!(text("ISA.ISA06"), sender.clone());
        prop_assert_eq!(text("ISA.ISA08"), receiver.clone());
        prop_assert_eq!(text("BEG.BEG03"), po_number.clone());
        for (i, (quantity, _, _, item)) in lines.iter().enumerate() {
            prop_assert_eq!(doc.get(&format!("PO1[{i}].PO102")).unwrap(), &Value::Int(*quantity));
            prop_assert_eq!(text(&format!("PO1[{i}].PO107")), item.clone());
        }
        prop_assert_eq!(String::from_utf8(formats.encode(&doc).unwrap()).unwrap(), wire);
    }

    #[test]
    fn edi_parser_never_panics(input in ".{0,200}") {
        let formats = FormatRegistry::with_builtins();
        let _ = formats.decode(&FormatId::EDI_X12, input.as_bytes());
    }
}
