//! Property tests for the wire syntaxes: arbitrary XML trees survive the
//! reader, generated X12 850s read back field for field and re-encode to
//! the same bytes, and neither reader panics on garbage.

use b2b_document::xml::{parse_element, XmlElement, XmlNode};
use b2b_document::{FormatId, FormatRegistry, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// XML.

fn xml_text() -> impl Strategy<Value = String> {
    // Includes the characters that need escaping.
    "[ -~]{1,20}".prop_map(|s| s.replace('\r', " "))
}

fn xml_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_.-]{0,12}"
}

fn xml_tree() -> impl Strategy<Value = XmlElement> {
    let leaf = (xml_name(), prop::option::of(xml_text())).prop_map(|(name, text)| {
        let mut el = XmlElement::new(name);
        if let Some(t) = text {
            // The parser drops whitespace-only text nodes; keep them
            // meaningful.
            if !t.trim().is_empty() {
                el.children.push(XmlNode::Text(t));
            }
        }
        el
    });
    leaf.prop_recursive(3, 16, 4, |inner| {
        (
            xml_name(),
            prop::collection::btree_map(xml_name(), xml_text(), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut el = XmlElement::new(name);
                el.attrs = attrs;
                for child in children {
                    el.children.push(XmlNode::Element(child));
                }
                el
            })
    })
}

fn escape(text: &str, attr: bool) -> String {
    let text = text.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;");
    if attr {
        text.replace('"', "&quot;")
    } else {
        text
    }
}

/// Renders a tree as XML text, self-closing empty elements.
fn render(el: &XmlElement, out: &mut String) {
    out.push('<');
    out.push_str(&el.name);
    for (name, value) in &el.attrs {
        out.push_str(&format!(" {name}=\"{}\"", escape(value, true)));
    }
    if el.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for child in &el.children {
        match child {
            XmlNode::Element(e) => render(e, out),
            XmlNode::Text(t) => out.push_str(&escape(t, false)),
        }
    }
    out.push_str("</");
    out.push_str(&el.name);
    out.push('>');
}

proptest! {
    #[test]
    fn xml_write_parse_roundtrip(el in xml_tree()) {
        let mut text = String::new();
        render(&el, &mut text);
        let back = parse_element(&text).unwrap();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = parse_element(&input);
    }
}

// ---------------------------------------------------------------------
// X12.

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
