//! The XML walker: one element per table node, written straight into the
//! caller's buffer; reading goes through the element tree of
//! [`crate::xml`].

use super::table::{self, check_text, unsupported, Format, Kind, Node, Sink, Source};
use crate::document::Document;
use crate::error::Result;
use crate::value::FieldVec;
use crate::xml::{parse_element, XmlElement, XmlNode};
use std::borrow::Cow;

pub(crate) fn decode(format: &'static Format, text: &str) -> Result<Document> {
    let root = parse_element(text)?;
    let kind = format
        .kinds
        .iter()
        .find(|k| k.selector == root.name)
        .ok_or_else(|| unsupported(format, format!("root element {}", root.name)))?;
    table::read(format, kind, &Element { el: &root, root: true })
}

struct Element<'a> {
    el: &'a XmlElement,
    root: bool,
}

impl Source for Element<'_> {
    fn name(&self) -> &str {
        &self.el.name
    }

    fn group(&self, node: &Node) -> Option<Self> {
        self.el.find(node.name).map(|el| Element { el, root: false })
    }

    fn each(&self, node: &Node, f: &mut dyn FnMut(Self) -> Result<()>) -> Result<()> {
        for el in self.el.find_all(node.name) {
            f(Element { el, root: false })?;
        }
        Ok(())
    }

    fn text(&self, node: &Node, _: usize) -> Option<Cow<'_, str>> {
        let el = self.el.find(node.name)?;
        // The direct text, trimmed; borrowed unless comments split it.
        let mut texts = el.children.iter().filter_map(|n| match n {
            XmlNode::Text(t) => Some(t.as_str()),
            XmlNode::Element(_) => None,
        });
        Some(match (texts.next(), texts.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(t), None) => Cow::Borrowed(t.trim()),
            _ => Cow::Owned(el.text()),
        })
    }

    fn missing(&self, node: &Node, _: usize, line: Option<usize>) -> String {
        match line {
            Some(i) => format!("line {i}: missing {}", node.name),
            None if self.root => format!("missing {}", node.name),
            None => format!("missing {}/{}", self.el.name, node.name),
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
