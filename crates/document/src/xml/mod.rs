//! Minimal XML reader.
//!
//! RosettaNet and OAGIS messages are XML on the wire. We only need the
//! subset their writer produces: elements, attributes, character data,
//! and the five predefined entities. Comments and processing instructions
//! are skipped on input; DTDs, namespaces-as-semantics, and CDATA are out
//! of scope (the writer never emits them).

mod parse;

pub use parse::parse_element;

use std::collections::BTreeMap;

/// An XML element: name, attributes, children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in deterministic (sorted) order.
    pub attrs: BTreeMap<String, String>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

/// A node in an XML tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// Nested element.
    Element(XmlElement),
    /// Character data (entity-decoded).
    Text(String),
}

impl XmlElement {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), attrs: BTreeMap::new(), children: Vec::new() }
    }

    /// First child element with the given name.
    pub fn find(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find_map(|n| match n {
            XmlNode::Element(el) if el.name == name => Some(el),
            _ => None,
        })
    }

    /// All child elements with the given name, in order.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.children.iter().filter_map(move |n| match n {
            XmlNode::Element(el) if el.name == name => Some(el),
            _ => None,
        })
    }

    /// Concatenated direct text content, trimmed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let XmlNode::Text(t) = node {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_find_children_and_text() {
        let el = parse_element(
            "<Pip3A4PurchaseOrderRequest version=\"2.0\"><Code>Request</Code>\
             <Line>a</Line><Line>b</Line></Pip3A4PurchaseOrderRequest>",
        )
        .unwrap();
        assert_eq!(el.find("Code").map(XmlElement::text).as_deref(), Some("Request"));
        assert_eq!(el.find_all("Line").count(), 2);
        assert_eq!(el.attrs.get("version").map(String::as_str), Some("2.0"));
        assert!(el.find("Missing").is_none());
    }
}
