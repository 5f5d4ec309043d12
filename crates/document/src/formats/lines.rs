//! The keyed-lines walker: records of `KEY=value` fields, in two surface
//! forms. An IDoc writes one segment per line, `SEG|K=V|K=V`; Oracle rows
//! write a `[TABLE]` line and then one `K=V` line per column. Both read as
//! slices of the payload and write straight into the caller's buffer.

use super::table::{
    self, check_text, parse_err, unsupported, Format, Kind, Node, Sink, Source, Syntax, What,
};
use crate::document::Document;
use crate::error::Result;
use crate::value::FieldVec;
use bytes::Bytes;
use std::borrow::Cow;
use std::ops::Range;

struct Record<'a> {
    name: &'a str,
    fields: Range<usize>,
}

/// Every record of a payload, with all their fields in one list.
struct Lines<'a> {
    records: Vec<Record<'a>>,
    fields: Vec<(&'a str, &'a str)>,
    rows: bool,
}

impl<'a> Lines<'a> {
    fn parse(format: &Format, text: &'a str) -> Result<Self> {
        let rows = matches!(format.syntax, Syntax::Rows);
        let err = |reason: String| parse_err(format, reason);
        let lines = text.bytes().filter(|&b| b == b'\n').count() + 1;
        let mut records: Vec<Record<'a>> = Vec::with_capacity(if rows { lines / 2 } else { lines });
        let mut fields = Vec::with_capacity(text.bytes().filter(|&b| b == b'=').count());
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if !rows {
                let mut parts = line.split('|');
                let name = parts.next().expect("split yields at least one part");
                if name.is_empty() {
                    return Err(err("empty segment name".into()));
                }
                let start = fields.len();
                for part in parts.filter(|p| !p.is_empty()) {
                    let kv = part.split_once('=');
                    fields.push(kv.ok_or_else(|| err(format!("field `{part}` is not key=value")))?);
                }
                records.push(Record { name, fields: start..fields.len() });
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err(format!("unterminated section `{line}`")))?;
                records.push(Record { name, fields: fields.len()..fields.len() });
            } else {
                let (k, v) = line
                    .split_once('=')
                    .ok_or_else(|| err(format!("`{line}` is not key=value")))?;
                let record =
                    records.last_mut().ok_or_else(|| err("column before any section".into()))?;
                fields.push((k.trim(), v.trim()));
                record.fields.end = fields.len();
            }
        }
        if records.is_empty() {
            return Err(err(if rows { "empty document" } else { "empty IDoc" }.into()));
        }
        Ok(Lines { records, fields, rows })
    }

    /// The value of `key` in `record`; a repeated key reads as its last.
    fn get(&self, record: &Record<'a>, key: &str) -> Option<&'a str> {
        self.fields[record.fields.clone()].iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

pub(crate) fn decode(
    format: &'static Format,
    text: &str,
    payload: Option<&Bytes>,
) -> Result<Document> {
    let lines = Lines::parse(format, text)?;
    let root = Group { lines: &lines, record: None };
    let kind = match format.syntax {
        Syntax::Idoc(record, key) => {
            let control = lines
                .records
                .iter()
                .find(|r| r.name == record)
                .ok_or_else(|| parse_err(format, format!("missing {record}")))?;
            let found = lines
                .get(control, key)
                .ok_or_else(|| parse_err(format, format!("{record} is missing field {key}")))?;
            format
                .kinds
                .iter()
                .find(|k| k.selector == found)
                .ok_or_else(|| unsupported(format, format!("IDoc type {found}")))?
        }
        _ => {
            let first = lines.records[0].name;
            let kind = format
                .kinds
                .iter()
                .find(|k| k.selector == first)
                .ok_or_else(|| unsupported(format, format!("section {first}")))?;
            let is_line = |name: &str| {
                kind.body.iter().any(|n| n.name == name && matches!(n.what, What::Many(..)))
            };
            if let Some(r) = lines.records[1..].iter().find(|r| !is_line(r.name)) {
                return Err(parse_err(format, format!("unexpected section {}", r.name)));
            }
            kind
        }
    };
    table::read(format, kind, &root, payload)
}

/// The payload's records, or one of them.
struct Group<'l, 'a> {
    lines: &'l Lines<'a>,
    record: Option<&'l Record<'a>>,
}

impl Source for Group<'_, '_> {
    fn name(&self) -> &str {
        self.record.map_or("", |r| r.name)
    }

    fn group(&self, node: &Node) -> Option<Self> {
        let record = self.lines.records.iter().find(|r| r.name == node.name)?;
        Some(Group { lines: self.lines, record: Some(record) })
    }

    fn each(&self, node: &Node, f: &mut dyn FnMut(Self) -> Result<()>) -> Result<()> {
        for record in self.lines.records.iter().filter(|r| r.name == node.name) {
            f(Group { lines: self.lines, record: Some(record) })?;
        }
        Ok(())
    }

    fn text(&self, node: &Node, _: usize) -> Option<Cow<'_, str>> {
        self.lines.get(self.record?, node.name).map(Cow::Borrowed)
    }

    fn missing(&self, node: &Node, _: usize, _: Option<usize>) -> String {
        if self.lines.rows {
            format!("{} row is missing column {}", self.name(), node.name)
        } else {
            format!("{} is missing field {}", self.name(), node.name)
        }
    }
}

pub(crate) fn encode(
    format: &Format,
    kind: &Kind,
    body: &FieldVec,
    out: &mut Vec<u8>,
) -> Result<()> {
    let rows = matches!(format.syntax, Syntax::Rows);
    table::write(format, kind, &mut Writer { format, out, rows }, kind.body, body)
}

struct Writer<'o> {
    format: &'o Format,
    out: &'o mut Vec<u8>,
    rows: bool,
}

impl Writer<'_> {
    fn put(&mut self, parts: [&str; 3]) {
        for part in parts {
            self.out.extend_from_slice(part.as_bytes());
        }
    }
}

impl Sink for Writer<'_> {
    fn out(&mut self) -> &mut Vec<u8> {
        self.out
    }

    fn open(&mut self, node: &Node) {
        self.put(if self.rows { ["[", node.name, "]\n"] } else { ["", node.name, ""] });
    }

    fn close(&mut self, _: &Node) {
        if !self.rows {
            self.out.push(b'\n');
        }
    }

    fn begin(&mut self, node: &Node) {
        self.put(if self.rows { ["", node.name, "="] } else { ["|", node.name, "="] });
    }

    fn end(&mut self, _: &Node) {
        if self.rows {
            self.out.push(b'\n');
        }
    }

    /// Refuses line breaks and an IDoc's `|`; surrounding whitespace is
    /// refused where the reader trims it: every Oracle value, and the
    /// value that ends an IDoc line.
    fn text(&mut self, field: &str, text: &str, last: bool) -> Result<()> {
        let splits: &[char] = if self.rows { &['\r', '\n'] } else { &['|', '\r', '\n'] };
        check_text(self.format, field, text, splits, self.rows || last, false)?;
        self.out.extend_from_slice(text.as_bytes());
        Ok(())
    }
}
