//! The XML walker: one element per table node, written straight into the
//! caller's buffer, and read from one flat index of the payload.
//!
//! The reader takes the subset the writer produces: elements, attributes,
//! character data and the five predefined entities, with comments and
//! processing instructions skipped. DTDs, CDATA and namespaces as
//! semantics are out of scope. It parses the whole payload in one loop
//! before the table reader looks at any field, so a payload is accepted
//! or rejected whatever the order of its elements.

use super::table::{self, check_text, unsupported, Format, Kind, Node, Sink, Source};
use crate::document::Document;
use crate::error::{DocumentError, Result};
use crate::value::FieldVec;
use bytes::Bytes;
use std::borrow::Cow;

pub(crate) fn decode(
    format: &'static Format,
    text: &str,
    payload: Option<&Bytes>,
) -> Result<Document> {
    let elements = parse(text)?;
    let root = elements[0].name;
    let kind = format
        .kinds
        .iter()
        .find(|k| k.selector == root)
        .ok_or_else(|| unsupported(format, format!("root element {root}")))?;
    table::read(format, kind, &At { elements: &elements, at: 0 }, payload)
}

/// One element of a parsed payload. The index holds the elements in
/// document order, the root first, so index 0 is never a child or a
/// sibling and stands for "none" in `first_child` and `next_sibling`.
struct Element<'a> {
    name: &'a str,
    /// The direct text: the pieces between the element's tags, children
    /// and comments that are not whitespace only, joined, not yet
    /// trimmed. Borrowed from the payload unless an entity or a second
    /// piece made it owned.
    text: Cow<'a, str>,
    parent: usize,
    first_child: usize,
    next_sibling: usize,
}

impl<'a> Element<'a> {
    fn new(name: &'a str, parent: usize) -> Self {
        Element { name, text: Cow::Borrowed(""), parent, first_child: 0, next_sibling: 0 }
    }
}

/// Parses a payload (whitespace, comments and processing instructions
/// around one root element) into its elements. One loop, no recursion:
/// the innermost open element is found again through the parent links,
/// so nesting costs no stack.
fn parse(input: &str) -> Result<Vec<Element<'_>>> {
    let mut r = Reader { input, pos: 0 };
    let mut elements = Vec::with_capacity(input.bytes().filter(|&b| b == b'<').count());
    r.skip_misc();
    r.expect(b'<')?;
    elements.push(Element::new(r.name()?, 0));
    let mut open = r.start_tag()?.then_some(0);
    // The last closed child of the innermost open element, 0 for none.
    let mut last = 0;
    while let Some(at) = open {
        if r.starts_with("</") {
            r.pos += 2;
            let name = r.name()?;
            if name != elements[at].name {
                let open = elements[at].name;
                return Err(r.err(&format!("mismatched end tag `</{name}>` for `<{open}>`")));
            }
            r.skip_ws();
            r.expect(b'>')?;
            open = (at != 0).then_some(elements[at].parent);
            last = at;
        } else if r.starts_with("<!--") {
            r.pos = r.find(r.pos + 4, "-->").ok_or_else(|| r.err("unterminated comment"))? + 3;
        } else if r.peek() == Some(b'<') {
            r.pos += 1;
            let child = elements.len();
            elements.push(Element::new(r.name()?, at));
            match last {
                0 => elements[at].first_child = child,
                sibling => elements[sibling].next_sibling = child,
            }
            (open, last) = if r.start_tag()? { (Some(child), 0) } else { (open, child) };
        } else if r.peek().is_some() {
            let start = r.pos;
            r.pos = r.find(start, "<").unwrap_or(input.len());
            let piece = &input[start..r.pos];
            let text = &mut elements[at].text;
            if piece.contains('&') {
                decode_entities(piece, start, text.to_mut())?;
            } else if piece.trim().is_empty() {
                // Whitespace between tags.
            } else if text.is_empty() {
                *text = Cow::Borrowed(piece);
            } else {
                text.to_mut().push_str(piece);
            }
        } else {
            return Err(r.err(&format!("unterminated element `<{}>`", elements[at].name)));
        }
    }
    r.skip_misc();
    if r.pos != input.len() {
        return Err(r.err("trailing content after root element"));
    }
    Ok(elements)
}

struct Reader<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, reason: &str) -> DocumentError {
        DocumentError::Parse { format: "xml".into(), offset: self.pos, reason: reason.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    /// The position of the first `needle` at or after `from`.
    fn find(&self, from: usize, needle: &str) -> Option<usize> {
        self.input[from..].find(needle).map(|i| from + i)
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected `{}`", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments and processing instructions; one left
    /// open runs to the end of the payload.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let (open, close) = if self.starts_with("<!--") {
                ("<!--", "-->")
            } else if self.starts_with("<?") {
                ("<?", "?>")
            } else {
                return;
            };
            let end = self.find(self.pos + open.len(), close);
            self.pos = end.map_or(self.input.len(), |end| end + close.len());
        }
    }

    fn name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Reads the rest of a start tag after its name. Attribute values are
    /// checked and then dropped, as no table reads one. True when the
    /// element stays open (`>`), false when it closes itself (`/>`).
    fn start_tag(&mut self) -> Result<bool> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(false);
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(true);
                }
                Some(_) => {
                    self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(b'"') => "\"",
                        Some(b'\'') => "'",
                        Some(_) => return Err(self.err("attribute value must be quoted")),
                        None => return Err(self.err("unterminated attribute")),
                    };
                    let start = self.pos + 1;
                    let Some(end) = self.find(start, quote) else {
                        self.pos = self.input.len();
                        return Err(self.err("unterminated attribute value"));
                    };
                    self.pos = end + 1;
                    decode_entities(&self.input[start..end], self.pos, &mut String::new())?;
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }
}

/// Appends `raw` to `out` with its entity references replaced; errors
/// name byte `offset`.
fn decode_entities(raw: &str, offset: usize, out: &mut String) -> Result<()> {
    let err = |reason: String| DocumentError::Parse { format: "xml".into(), offset, reason };
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or_else(|| err("unterminated entity".into()))?;
        out.push(match &after[..semi] {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            other => return Err(err(format!("unknown entity `&{other};`"))),
        });
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

/// An element of a parsed payload, as the table reader reads it.
struct At<'i, 'a> {
    elements: &'i [Element<'a>],
    at: usize,
}

impl<'i, 'a> At<'i, 'a> {
    /// The child elements named `name`, in document order.
    fn children(&self, name: &'i str) -> impl Iterator<Item = At<'i, 'a>> {
        let elements = self.elements;
        let mut next = elements[self.at].first_child;
        std::iter::from_fn(move || {
            while next != 0 {
                let at = next;
                next = elements[at].next_sibling;
                if elements[at].name == name {
                    return Some(At { elements, at });
                }
            }
            None
        })
    }
}

impl Source for At<'_, '_> {
    fn name(&self) -> &str {
        self.elements[self.at].name
    }

    fn group(&self, node: &Node) -> Option<Self> {
        self.children(node.name).next()
    }

    fn each(&self, node: &Node, f: &mut dyn FnMut(Self) -> Result<()>) -> Result<()> {
        self.children(node.name).try_for_each(f)
    }

    fn text(&self, node: &Node, _: usize) -> Option<Cow<'_, str>> {
        let el = self.group(node)?;
        Some(Cow::Borrowed(el.elements[el.at].text.trim()))
    }

    fn missing(&self, node: &Node, _: usize, line: Option<usize>) -> String {
        match line {
            Some(i) => format!("line {i}: missing {}", node.name),
            None if self.at == 0 => format!("missing {}", node.name),
            None => format!("missing {}/{}", self.name(), node.name),
        }
    }
}

pub(crate) fn encode(
    format: &Format,
    kind: &Kind,
    body: &FieldVec,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut sink = Writer { format, out };
    sink.tag("", kind.selector);
    table::write(format, kind, &mut sink, kind.body, body)?;
    sink.tag("/", kind.selector);
    Ok(())
}

struct Writer<'o> {
    format: &'o Format,
    out: &'o mut Vec<u8>,
}

impl Writer<'_> {
    fn tag(&mut self, slash: &str, name: &str) {
        for part in ["<", slash, name, ">"] {
            self.out.extend_from_slice(part.as_bytes());
        }
    }
}

impl Sink for Writer<'_> {
    fn out(&mut self) -> &mut Vec<u8> {
        self.out
    }

    fn open(&mut self, node: &Node) {
        self.tag("", node.name);
    }

    fn close(&mut self, node: &Node) {
        self.tag("/", node.name);
    }

    fn begin(&mut self, node: &Node) {
        self.tag("", node.name);
    }

    fn end(&mut self, node: &Node) {
        self.tag("/", node.name);
    }

    /// Escapes markup; text with surrounding whitespace is refused, as the
    /// reader trims it.
    fn text(&mut self, field: &str, text: &str, _: bool) -> Result<()> {
        check_text(self.format, field, text, &[], true, false)?;
        for b in text.bytes() {
            match b {
                b'<' => self.out.extend_from_slice(b"&lt;"),
                b'>' => self.out.extend_from_slice(b"&gt;"),
                b'&' => self.out.extend_from_slice(b"&amp;"),
                _ => self.out.push(b),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::rosettanet;
    use crate::formats::table::TableCodec;
    use crate::formats::FormatCodec;
    use proptest::prelude::*;

    /// An element as a test states it: its name, its direct text (joined,
    /// untrimmed) and its children.
    #[derive(Debug, PartialEq)]
    struct Tree {
        name: String,
        text: String,
        children: Vec<Tree>,
    }

    fn el(name: &str, text: &str, children: Vec<Tree>) -> Tree {
        Tree { name: name.into(), text: text.into(), children }
    }

    /// The tree the index holds under element `at`; every child links
    /// back to it as its parent.
    fn tree(elements: &[Element], at: usize) -> Tree {
        let mut children = Vec::new();
        let mut next = elements[at].first_child;
        while next != 0 {
            assert_eq!(elements[next].parent, at, "{} has the wrong parent", elements[next].name);
            children.push(tree(elements, next));
            next = elements[next].next_sibling;
        }
        el(elements[at].name, &elements[at].text, children)
    }

    fn parsed(input: &str) -> Tree {
        tree(&parse(input).unwrap(), 0)
    }

    fn error(input: &str) -> String {
        parse(input).err().expect("the payload is refused").to_string()
    }

    #[test]
    fn children_are_found_by_name_in_document_order() {
        let elements = parse(
            "<Pip3A4PurchaseOrderRequest version=\"2.0\"><Code>Request</Code>\
             <Line>a</Line><Line>b</Line></Pip3A4PurchaseOrderRequest>",
        )
        .unwrap();
        let root = At { elements: &elements, at: 0 };
        let texts = |name| root.children(name).map(|c| c.elements[c.at].text.to_string());
        assert_eq!(texts("Code").collect::<Vec<_>>(), ["Request"]);
        assert_eq!(texts("Line").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(texts("Missing").count(), 0);
    }

    #[test]
    fn parses_nested_elements_and_attrs() {
        let doc = parsed(
            r#"<?xml version="1.0"?>
            <!-- envelope -->
            <po id="4711">
              <line n='1'>laptop</line>
              <line n='2'>mouse</line>
              <empty/>
            </po>"#,
        );
        let leaf = |name, text| el(name, text, vec![]);
        let children = vec![leaf("line", "laptop"), leaf("line", "mouse"), leaf("empty", "")];
        assert_eq!(doc, el("po", "", children));
    }

    #[test]
    fn decodes_entities() {
        let doc = parsed("<a b=\"&lt;&amp;&gt;\">x &quot;y&quot; &apos;z&apos;</a>");
        assert_eq!(doc.text, "x \"y\" 'z'");
        assert_eq!(
            error("<a b=\"&bogus;\"/>"),
            "xml parse error at byte 14: unknown entity `&bogus;`"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for (input, refusal) in [
            ("<a><b></a></b>", "at byte 9: mismatched end tag `</a>` for `<b>`"),
            ("<a>", "at byte 3: unterminated element `<a>`"),
            ("<a></a><b></b>", "at byte 7: trailing content after root element"),
            ("<a x=unquoted></a>", "at byte 5: attribute value must be quoted"),
            ("<a>&bogus;</a>", "at byte 3: unknown entity `&bogus;`"),
            ("<a>x &amp y</a>", "at byte 3: unterminated entity"),
            ("<a><!-- open</a>", "at byte 3: unterminated comment"),
            ("<a x=\"1></a>", "at byte 12: unterminated attribute value"),
            ("<a><?pi?></a>", "at byte 4: expected a name"),
            ("", "at byte 0: expected `<`"),
        ] {
            assert_eq!(error(input), format!("xml parse error {refusal}"), "{input}");
        }
    }

    #[test]
    fn text_is_borrowed_unless_an_entity_or_a_comment_splits_it() {
        let elements = parse("<a><b> x </b><c>x<!-- hidden -->y</c><d>&lt;</d></a>").unwrap();
        let texts: Vec<_> = elements[1..].iter().map(|e| &e.text).collect();
        assert!(matches!(texts[0], Cow::Borrowed(" x ")), "{texts:?}");
        assert!(matches!(texts[1], Cow::Owned(t) if t == "xy"), "{texts:?}");
        assert!(matches!(texts[2], Cow::Owned(t) if t == "<"), "{texts:?}");
    }

    #[test]
    fn whitespace_only_pieces_between_comments_are_dropped() {
        assert_eq!(parsed("<a>x<!--1-->  \n\t<!--2-->y</a>").text, "xy");
        assert_eq!(parsed("<a>x<!--1--> - <!--2-->y</a>").text, "x - y");
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_crash() {
        // 100,000 levels: a reader that recursed per level would overflow
        // its stack and abort the process.
        let codec = TableCodec(&rosettanet::FORMAT);
        let depth = 100_000;
        let unclosed = format!("<Pip3A1Quote>{}", "<a>".repeat(depth));
        let closed = format!("{unclosed}{}</Pip3A1Quote>", "</a>".repeat(depth));
        for (payload, refusal) in [
            (unclosed, "xml parse error at byte 300013: unterminated element `<a>`"),
            (closed, "rosettanet parse error at byte 0: missing ServiceHeader"),
        ] {
            let e = codec.decode(payload.as_bytes()).unwrap_err();
            assert!(matches!(e, DocumentError::Parse { .. }));
            assert_eq!(e.to_string(), refusal);
        }
    }

    fn xml_text() -> impl Strategy<Value = String> {
        // Includes the characters that need escaping.
        "[ -~]{1,20}"
    }

    fn xml_name() -> impl Strategy<Value = String> {
        "[A-Za-z][A-Za-z0-9_.-]{0,12}"
    }

    fn escape(text: &str) -> String {
        text.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
    }

    /// A random element and its XML text. Inner elements carry attributes
    /// with escapes, which the reader checks and drops, so the tree holds
    /// none.
    fn xml_tree() -> impl Strategy<Value = (Tree, String)> {
        let leaf = (xml_name(), prop::option::of(xml_text())).prop_map(|(name, text)| {
            // The reader drops whitespace-only text.
            let text = text.filter(|t| !t.trim().is_empty()).unwrap_or_default();
            let xml = format!("<{name}>{}</{name}>", escape(&text));
            (el(&name, &text, vec![]), xml)
        });
        leaf.prop_recursive(3, 16, 4, |inner| {
            (
                xml_name(),
                prop::collection::btree_map(xml_name(), xml_text(), 0..3),
                prop::collection::vec(inner, 0..4),
            )
                .prop_map(|(name, attrs, children)| {
                    let attrs: String =
                        attrs.iter().map(|(k, v)| format!(" {k}=\"{}\"", escape(v))).collect();
                    let (children, inner): (Vec<Tree>, String) = children.into_iter().unzip();
                    let xml = match inner.is_empty() {
                        true => format!("<{name}{attrs}/>"),
                        false => format!("<{name}{attrs}>{inner}</{name}>"),
                    };
                    (el(&name, "", children), xml)
                })
        })
    }

    proptest! {
        #[test]
        fn xml_write_parse_roundtrip(case in xml_tree()) {
            let (expected, xml) = case;
            prop_assert_eq!(parsed(&xml), expected);
        }

        #[test]
        fn xml_parser_never_panics(input in ".{0,200}") {
            let _ = parse(&input);
        }
    }
}
