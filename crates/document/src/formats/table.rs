//! Field tables and the one codec they drive.
//!
//! A text format is a wire syntax plus one const table per document kind.
//! The table states the wire structure and nothing else: every group and
//! field once, by its wire name (an X12 element by its designator such as
//! `BEG03`, an XML element by its tag, an IDoc field or Oracle column by
//! its key), and each field's type. A decoded document is keyed by those
//! same names; what a field means is the binding's business, in its
//! mapping programs. The walkers in `x12`, `xml` and `lines` know their
//! syntax and nothing else; [`read`] and [`write`] walk a kind's table
//! against a walker's [`Source`] or [`Sink`].

use super::{lines, x12, xml, FormatCodec, FormatId};
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::error::{DocumentError, Result};
use crate::ids::{CorrelationId, DocumentId};
use crate::intern::intern;
use crate::money::{Currency, Money};
use crate::text::Str;
use crate::value::{ElementAt, FieldVec, Value};
use bytes::Bytes;
use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

/// The wire syntax of a format, with the rule that selects a kind.
pub(crate) enum Syntax {
    /// ANSI X12 segments in an ISA/GS/ST envelope; ST01 selects the kind.
    /// A kind's first node is the envelope: three fields (sender,
    /// receiver, interchange control number) and the GS01 code.
    X12,
    /// XML elements; the root element selects the kind.
    Xml,
    /// Keyed lines, `SEG|K=V|…`, one segment per line; the field `.1` of
    /// the first record named `.0` selects the kind.
    Idoc(&'static str, &'static str),
    /// Keyed lines, a `[TABLE]` line and then `K=V` lines per row; the
    /// first row's table selects the kind and every later row must be a
    /// line row.
    Rows,
}

/// A text format: its syntax and one table per document kind.
pub(crate) struct Format {
    pub id: FormatId,
    pub syntax: Syntax,
    pub kinds: &'static [Kind],
}

/// The table of one (format, kind) pair.
pub(crate) struct Kind {
    pub kind: DocKind,
    /// The X12 transaction set, XML root element, IDoc type or header
    /// row table that selects this kind.
    pub selector: &'static str,
    /// Prefix of the document id (the text of the [`Ty::Id`] field, or of
    /// the [`Ty::Key`] field in a kind without one).
    pub id: &'static str,
    /// Prefix of the correlation id (the text of the [`Ty::Key`] field).
    pub correlation: &'static str,
    pub body: &'static [Node],
}

/// One table entry: a group or field and its wire name, which is also its
/// key in the document.
pub(crate) struct Node {
    pub name: &'static str,
    pub what: What,
}

pub(crate) enum What {
    /// A field of this type.
    Field(Ty),
    /// A constant, written as is and ignored on read.
    Const(&'static str),
    /// A constant that reading checks (OAGIS's verb).
    Verb(&'static str),
    /// The number of elements of the named group, a list of the enclosing
    /// record, checked on read (X12 CTT).
    Count(&'static str),
    /// The 1-based position of a repeated group, read into the named key
    /// but never written (855 ACK line numbers).
    Position(&'static str),
    /// A group written once. Reading requires it.
    One(Fill, &'static [Node]),
    /// Like `One`, but reading may miss it: a missing group's currency
    /// reads as USD, as X12's CUR does.
    Optional(Fill, &'static [Node]),
    /// A group written once per element of the list it names.
    Many(&'static [Node]),
}

/// Where the fields of a group written once go.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// A record the group names.
    Record,
    /// The enclosing record (X12 CTT and AMT, OAGIS BSR).
    Flat,
}

/// How a field's value is written and read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Text,
    /// Text that keys the correlation id.
    Key,
    /// Text that makes the document id.
    Id,
    /// Text naming the currency of every money field of the kind; a kind
    /// states it before its money fields.
    Currency,
    /// Text that must name the kind (an IDoc's type).
    Selector,
    Int,
    /// `YYYYMMDD`.
    CompactDate,
    /// `YYYY-MM-DD`.
    IsoDate,
    /// A bare decimal amount in the kind's currency.
    Money,
}

pub(crate) const fn node(name: &'static str, what: What) -> Node {
    Node { name, what }
}

/// A field of type `ty`.
pub(crate) const fn field(name: &'static str, ty: Ty) -> Node {
    node(name, What::Field(ty))
}

/// A group written once, filling a record it names. Every table writes
/// such a group as `one("BEG").of(&[…])`, so that its nodes read as one
/// indented list; the few that fill the enclosing record are written
/// `node("AMT", One(Flat, &[…]))`.
pub(crate) const fn one(name: &'static str) -> Node {
    node(name, What::One(Fill::Record, &[]))
}

/// Like [`one`], but reading may miss it.
pub(crate) const fn optional(name: &'static str) -> Node {
    node(name, What::Optional(Fill::Record, &[]))
}

/// A group written once per element of the list it names.
pub(crate) const fn many(name: &'static str) -> Node {
    node(name, What::Many(&[]))
}

impl Node {
    /// The group `self` holding `nodes`.
    pub(crate) const fn of(self, nodes: &'static [Node]) -> Node {
        let what = match self.what {
            What::One(fill, _) => What::One(fill, nodes),
            What::Optional(fill, _) => What::Optional(fill, nodes),
            What::Many(_) => What::Many(nodes),
            _ => panic!("only groups hold nodes"),
        };
        node(self.name, what)
    }
}

/// The codec of every text format: the format's walker driven by its
/// tables.
pub(crate) struct TableCodec(pub &'static Format);

impl TableCodec {
    fn kind(&self, doc: &Document) -> Result<&'static Kind> {
        if doc.format() != &self.0.id {
            return Err(encode_err(self.0, format!("document is in format {}", doc.format())));
        }
        let kind = self.0.kinds.iter().find(|k| k.kind == doc.kind());
        kind.ok_or_else(|| unsupported(self.0, doc.kind().to_string()))
    }
}

impl FormatCodec for TableCodec {
    fn format(&self) -> FormatId {
        self.0.id.clone()
    }

    fn supported_kinds(&self) -> Vec<DocKind> {
        self.0.kinds.iter().map(|k| k.kind).collect()
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()> {
        let kind = self.kind(doc)?;
        let body = doc.body().as_record("$")?;
        match self.0.syntax {
            Syntax::X12 => x12::encode(self.0, kind, body, out),
            Syntax::Xml => xml::encode(self.0, kind, body, out),
            Syntax::Idoc(..) | Syntax::Rows => lines::encode(self.0, kind, body, out),
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document> {
        self.read(bytes, None)
    }

    /// Reads texts longer than [`INLINE_CAP`](crate::text::INLINE_CAP)
    /// bytes in place, as slices of `bytes`.
    fn decode_bytes(&self, bytes: &Bytes) -> Result<Document> {
        self.read(bytes, Some(bytes))
    }
}

impl TableCodec {
    fn read(&self, bytes: &[u8], payload: Option<&Bytes>) -> Result<Document> {
        let text = std::str::from_utf8(bytes).map_err(|_| parse_err(self.0, "not UTF-8"))?;
        match self.0.syntax {
            Syntax::X12 => x12::decode(self.0, text, payload),
            Syntax::Xml => xml::decode(self.0, text, payload),
            Syntax::Idoc(..) | Syntax::Rows => lines::decode(self.0, text, payload),
        }
    }
}

pub(crate) fn parse_err(format: &Format, reason: impl Into<String>) -> DocumentError {
    DocumentError::Parse { format: format.id.to_string(), offset: 0, reason: reason.into() }
}

pub(crate) fn encode_err(format: &Format, reason: impl Into<String>) -> DocumentError {
    DocumentError::Encode { format: format.id.to_string(), reason: reason.into() }
}

pub(crate) fn unsupported(format: &Format, kind: String) -> DocumentError {
    DocumentError::UnsupportedKind { format: format.id.to_string(), kind }
}

// ---------------------------------------------------------------------
// Reading.

/// One group of a parsed payload, as a walker reads it.
pub(crate) trait Source: Sized {
    /// The group's wire name, for errors.
    fn name(&self) -> &str;
    /// The first group `node` names inside this one.
    fn group(&self, node: &Node) -> Option<Self>;
    /// Calls `f` on every group `node` names inside this one, in wire
    /// order.
    fn each(&self, node: &Node, f: &mut dyn FnMut(Self) -> Result<()>) -> Result<()>;
    /// The text of field `node`, the `position`th (1-based) node of this
    /// group; `None` when the wire lacks it.
    fn text(&self, node: &Node, position: usize) -> Option<Cow<'_, str>>;
    /// Why field `node` is missing (`line` is the 0-based index of the
    /// repeated group being read).
    fn missing(&self, node: &Node, position: usize, line: Option<usize>) -> String;
}

struct Reader<'p> {
    format: &'static Format,
    kind: &'static Kind,
    /// The payload the walker parsed, when texts may borrow from it.
    payload: Option<&'p Bytes>,
    currency: Option<Currency>,
    line: Option<usize>,
    id: Option<Str>,
    correlation: Option<Str>,
}

/// Reads a document of `kind` from the root group of a parsed payload,
/// in table order. With `payload`, the buffer the walker parsed, a long
/// text the walker read in place becomes a slice of it.
pub(crate) fn read<S: Source>(
    format: &'static Format,
    kind: &'static Kind,
    root: &S,
    payload: Option<&Bytes>,
) -> Result<Document> {
    let (currency, line, id, correlation) = (None, None, None, None);
    let mut r = Reader { format, kind, payload, currency, line, id, correlation };
    let mut body = FieldVec::with_capacity(kind.body.len());
    r.fill(root, kind.body, &mut body)?;
    Ok(Document::with_id(
        DocumentId::new(r.id.expect("every kind has a key")),
        kind.kind,
        format.id.clone(),
        CorrelationId::new(r.correlation.expect("every kind has a key")),
        Value::Record(body),
    ))
}

impl Reader<'_> {
    fn err(&self, reason: impl Into<String>) -> DocumentError {
        parse_err(self.format, reason)
    }

    fn fill<S: Source>(
        &mut self,
        src: &S,
        nodes: &'static [Node],
        out: &mut FieldVec,
    ) -> Result<()> {
        for (i, node) in nodes.iter().enumerate() {
            self.fill_at(src, node, i + 1, out)?;
        }
        Ok(())
    }

    fn fill_at<S: Source>(
        &mut self,
        src: &S,
        node: &'static Node,
        position: usize,
        out: &mut FieldVec,
    ) -> Result<()> {
        match node.what {
            What::Const(_) => {}
            What::Field(ty) => {
                let text = self.text(src, node, position)?;
                let value = self.value(&text, ty, node.name)?;
                out.insert(intern(node.name), value);
            }
            What::Verb(verb) => {
                let text = self.text(src, node, position)?;
                if text != verb {
                    return Err(self.err(format!("expected verb {verb}, found {text}")));
                }
            }
            What::Count(list) => {
                let text = self.text(src, node, position)?;
                let declared = parse_int(&text, node.name, self.format)?;
                let found = out.get(list).and_then(|v| v.as_list(list).ok()).map_or(0, <[_]>::len);
                if declared != found as i64 {
                    return Err(self
                        .err(format!("{} declares {declared} lines, found {found}", src.name())));
                }
            }
            What::Position(name) => {
                let line = self.line.expect("positions sit in repeated groups");
                out.insert(intern(name), Value::Int(line as i64 + 1));
            }
            What::One(fill, nodes) | What::Optional(fill, nodes) => {
                let record = fill == Fill::Record;
                let mut fields = FieldVec::with_capacity(if record { nodes.len() } else { 0 });
                let into = if record { &mut fields } else { &mut *out };
                match src.group(node) {
                    Some(g) => self.fill(&g, nodes, into)?,
                    None if matches!(node.what, What::Optional(..)) => {
                        for n in nodes {
                            if let What::Field(Ty::Currency) = n.what {
                                self.currency = Some(Currency::Usd);
                                into.insert(intern(n.name), Value::text(Currency::Usd.code()));
                            }
                        }
                    }
                    None => return Err(self.err(format!("missing {}", node.name))),
                }
                if record {
                    out.insert(intern(node.name), Value::Record(fields));
                }
            }
            What::Many(nodes) => {
                let mut items = Vec::new();
                src.each(node, &mut |g| {
                    self.line = Some(items.len());
                    let mut fields = FieldVec::with_capacity(nodes.len());
                    self.fill(&g, nodes, &mut fields)?;
                    items.push(Value::Record(fields));
                    Ok(())
                })?;
                self.line = None;
                out.insert(intern(node.name), Value::List(items));
            }
        }
        Ok(())
    }

    fn text<'s, S: Source>(
        &self,
        src: &'s S,
        node: &Node,
        position: usize,
    ) -> Result<Cow<'s, str>> {
        src.text(node, position).ok_or_else(|| self.err(src.missing(node, position, self.line)))
    }

    /// A text field's value: borrowed from the payload when it lies
    /// there and is too long to keep inline.
    fn text_value(&self, text: &str) -> Value {
        Value::Text(match self.payload {
            Some(payload) => Str::in_payload(payload, text),
            None => Str::from(text),
        })
    }

    fn value(&mut self, text: &str, ty: Ty, name: &str) -> Result<Value> {
        let format = self.format;
        Ok(match ty {
            Ty::Text | Ty::Selector => self.text_value(text),
            Ty::Currency => {
                self.currency = Some(Currency::parse(text)?);
                self.text_value(text)
            }
            Ty::Id => {
                self.id = Some(Str::from_fmt(format_args!("{}{text}", self.kind.id)));
                self.text_value(text)
            }
            Ty::Key => {
                // A kind's `Id` field, where it has one, makes the id.
                if self.id.is_none() {
                    self.id = Some(Str::from_fmt(format_args!("{}{text}", self.kind.id)));
                }
                let correlation = Str::from_fmt(format_args!("{}{text}", self.kind.correlation));
                self.correlation = Some(correlation);
                self.text_value(text)
            }
            Ty::Int => Value::Int(parse_int(text, name, format)?),
            Ty::CompactDate => Value::Date(Date::parse_compact(text)?),
            Ty::IsoDate => Value::Date(Date::parse_iso(text)?),
            Ty::Money => {
                let currency = self.currency.expect("a kind states its currency first");
                let money = Money::parse_decimal(text, currency);
                Value::Money(money.map_err(|e| parse_err(format, e.to_string()))?)
            }
        })
    }
}

/// Parses the integer field `name`.
fn parse_int(text: &str, name: &str, format: &Format) -> Result<i64> {
    text.parse().map_err(|_| parse_err(format, format!("{name} `{text}` is not an integer")))
}

// ---------------------------------------------------------------------
// Writing.

/// A walker's writer: it frames groups and fields in its syntax and
/// refuses text its reader would not read back as written.
pub(crate) trait Sink {
    fn out(&mut self) -> &mut Vec<u8>;
    /// Opens group `node`.
    fn open(&mut self, node: &Node);
    /// Closes group `node`.
    fn close(&mut self, node: &Node);
    /// Frames the start of field `node`'s value.
    fn begin(&mut self, node: &Node);
    /// Frames the end of field `node`'s value.
    fn end(&mut self, node: &Node);
    /// Writes the text of field `field`; `last` says the field ends its
    /// group.
    fn text(&mut self, field: &str, text: &str, last: bool) -> Result<()>;
}

/// Writes the groups and fields of `nodes`, part of `kind`'s table, from
/// the body record `rec`.
pub(crate) fn write<K: Sink>(
    format: &Format,
    kind: &Kind,
    sink: &mut K,
    nodes: &[Node],
    rec: &FieldVec,
) -> Result<()> {
    Writer { format, kind, sink, currency: None }.write(nodes, rec, None)
}

struct Writer<'w, K> {
    format: &'w Format,
    kind: &'w Kind,
    sink: &'w mut K,
    /// The kind's currency, once written, and the field that names it.
    currency: Option<(Currency, &'static str)>,
}

impl<K: Sink> Writer<'_, K> {
    /// Writes `nodes` from `rec`; inside a repeated group, type-mismatch
    /// errors name its list element (`PO1[0]`) rather than the field.
    fn write(
        &mut self,
        nodes: &[Node],
        rec: &FieldVec,
        line: Option<ElementAt<&'static str>>,
    ) -> Result<()> {
        let format = self.format;
        for (i, node) in nodes.iter().enumerate() {
            match node.what {
                What::Field(ty) => {
                    let name = node.name;
                    let value = lookup(format, rec, name)?;
                    self.check(name, ty, value)?;
                    let at: &dyn fmt::Display = match &line {
                        Some(element) => element,
                        None => &name,
                    };
                    self.sink.begin(node);
                    match ty {
                        Ty::Text | Ty::Key | Ty::Id | Ty::Currency | Ty::Selector => {
                            self.sink.text(name, value.as_text(at)?, i + 1 == nodes.len())?
                        }
                        Ty::Int => put(self.sink.out(), format_args!("{}", value.as_int(at)?)),
                        Ty::CompactDate => {
                            let d = value.as_date(at)?;
                            let (y, m, d) = (d.year(), d.month(), d.day());
                            put(self.sink.out(), format_args!("{y:04}{m:02}{d:02}"))
                        }
                        Ty::IsoDate => put(self.sink.out(), format_args!("{}", value.as_date(at)?)),
                        Ty::Money => {
                            let cents = value.as_money(at)?.cents();
                            let sign = if cents < 0 { "-" } else { "" };
                            let abs = cents.unsigned_abs();
                            let (units, cents) = (abs / 100, abs % 100);
                            put(self.sink.out(), format_args!("{sign}{units}.{cents:02}"))
                        }
                    }
                    self.sink.end(node);
                }
                What::Const(text) | What::Verb(text) => {
                    self.sink.begin(node);
                    self.sink.out().extend_from_slice(text.as_bytes());
                    self.sink.end(node);
                }
                What::Count(list) => {
                    let count = lookup(format, rec, list)?.as_list(list)?.len();
                    self.sink.begin(node);
                    put(self.sink.out(), format_args!("{count}"));
                    self.sink.end(node);
                }
                What::Position(_) => {}
                What::One(fill, nodes) | What::Optional(fill, nodes) => {
                    let rec = match fill {
                        Fill::Record => lookup(format, rec, node.name)?.as_record(node.name)?,
                        Fill::Flat => rec,
                    };
                    self.sink.open(node);
                    self.write(nodes, rec, line)?;
                    self.sink.close(node);
                }
                What::Many(nodes) => {
                    let list = node.name;
                    for (i, item) in lookup(format, rec, list)?.as_list(list)?.iter().enumerate() {
                        let rec = item.as_record(ElementAt(list, i))?;
                        self.sink.open(node);
                        self.write(nodes, rec, Some(ElementAt(list, i)))?;
                        self.sink.close(node);
                    }
                }
            }
        }
        Ok(())
    }

    /// Refuses what would read back as something else: a currency code
    /// the reader does not know, an amount in another currency than the
    /// one the document names (the wire holds only the amount), and an
    /// IDoc type that selects another kind.
    fn check(&mut self, name: &'static str, ty: Ty, value: &Value) -> Result<()> {
        let why = match (ty, value) {
            (Ty::Currency, Value::Text(code)) => match Currency::parse(code) {
                Ok(currency) => {
                    self.currency = Some((currency, name));
                    return Ok(());
                }
                Err(_) => format!("holds {code:?}, which is not a currency code"),
            },
            (Ty::Money, Value::Money(money)) => {
                let (currency, source) = self.currency.expect("a kind states its currency first");
                if money.currency() == currency {
                    return Ok(());
                }
                format!("is in {}, but `{source}` names {currency}", money.currency())
            }
            (Ty::Selector, Value::Text(text)) if **text != *self.kind.selector => {
                format!("holds {text:?}, but this document kind is {}", self.kind.selector)
            }
            _ => return Ok(()),
        };
        Err(encode_err(self.format, format!("field `{name}` {why}")))
    }
}

/// A required field of a record.
pub(crate) fn lookup<'v>(format: &Format, rec: &'v FieldVec, name: &str) -> Result<&'v Value> {
    rec.get(name).ok_or_else(|| encode_err(format, format!("missing field `{name}`")))
}

/// Formats into a byte buffer; writing to a `Vec` cannot fail.
pub(crate) fn put(out: &mut Vec<u8>, args: fmt::Arguments<'_>) {
    out.write_fmt(args).expect("writing to a Vec cannot fail");
}

/// Refuses text a syntax's reader would split (it holds one of
/// `delimiters`), trim (`trimmed` and it has surrounding whitespace) or
/// drop (`nonempty` and it is empty).
pub(crate) fn check_text(
    format: &Format,
    field: &str,
    text: &str,
    delimiters: &[char],
    trimmed: bool,
    nonempty: bool,
) -> Result<()> {
    let split = text.contains(delimiters);
    if split || (trimmed && text.trim() != text) || (nonempty && text.is_empty()) {
        let reason =
            format!("field `{field}` holds {text:?}, which its reader would not read back");
        return Err(encode_err(format, reason));
    }
    Ok(())
}

/// Decodes a recorded wire form, checks its kind, and re-encodes it to
/// the same bytes.
#[cfg(test)]
pub(crate) fn round_trips(format: &'static Format, wire: &[u8], kind: DocKind) -> Document {
    let codec = TableCodec(format);
    let doc = codec.decode(wire).expect("the recorded wire decodes");
    assert_eq!(doc.kind(), kind);
    assert_eq!(codec.encode(&doc).expect("re-encodes"), wire);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{
        edi_x12, oagis, oracle_apps, rosettanet, sample_edi_po, sample_sap_po, sap_idoc,
    };
    use std::collections::BTreeSet;

    const F: Format = Format { id: FormatId::EDI_X12, syntax: Syntax::X12, kinds: &[] };

    const FORMATS: [&Format; 5] = [
        &edi_x12::FORMAT,
        &rosettanet::FORMAT,
        &oagis::FORMAT,
        &sap_idoc::FORMAT,
        &oracle_apps::FORMAT,
    ];

    /// The keys a record filled by `nodes` may hold: its fields and groups,
    /// the fields of the groups that fill it, and the 855 position's key.
    fn keys(nodes: &[Node], out: &mut Vec<&'static str>) {
        for n in nodes {
            match n.what {
                What::One(Fill::Flat, inner) | What::Optional(Fill::Flat, inner) => {
                    keys(inner, out)
                }
                What::Position(key) => out.push(key),
                What::Const(_) | What::Verb(_) | What::Count(_) => {}
                What::Field(_) | What::One(..) | What::Optional(..) | What::Many(_) => {
                    out.push(n.name)
                }
            }
        }
    }

    /// Asserts that group `name`'s node names, and the keys of each record
    /// it or a group inside it fills, are unique.
    fn assert_named_once(name: &str, nodes: &[Node]) {
        let names: BTreeSet<_> = nodes.iter().map(|n| n.name).collect();
        assert_eq!(names.len(), nodes.len(), "a name repeats in group {name}");
        let mut all = Vec::new();
        keys(nodes, &mut all);
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "{name}: {all:?}");
        for n in nodes {
            if let What::One(_, inner) | What::Optional(_, inner) | What::Many(inner) = n.what {
                assert_named_once(n.name, inner);
            }
        }
    }

    /// Asserts that every key of `value`, a record filled by `nodes`, is
    /// one of [`keys`], at any depth.
    fn assert_keyed_by(value: &Value, nodes: &[Node]) {
        let mut allowed = Vec::new();
        keys(nodes, &mut allowed);
        for (key, v) in value.as_record("$").unwrap().iter() {
            assert!(allowed.contains(&key.as_str()), "{key} is no node of its table");
            match (v, nodes.iter().find(|n| n.name == key.as_str()).map(|n| &n.what)) {
                (Value::Record(_), Some(What::One(_, inner) | What::Optional(_, inner))) => {
                    assert_keyed_by(v, inner)
                }
                (Value::List(items), Some(What::Many(inner))) => {
                    items.iter().for_each(|item| assert_keyed_by(item, inner))
                }
                _ => {}
            }
        }
    }

    #[test]
    fn every_node_has_one_name_its_wire_name() {
        for format in FORMATS {
            for kind in format.kinds {
                assert_named_once(kind.selector, kind.body);
            }
        }
        // An X12 element is named by its designator and sits at that
        // position; the envelope names the three ISA elements it reads and
        // the GS01 code.
        for kind in edi_x12::FORMAT.kinds {
            let (envelope, segments) = kind.body.split_first().unwrap();
            let What::One(_, fields) = envelope.what else { panic!("the envelope is a group") };
            let names: Vec<_> = fields.iter().map(|n| n.name).collect();
            assert_eq!((envelope.name, names), ("ISA", vec!["ISA06", "ISA08", "ISA13", "GS01"]));
            for segment in segments {
                let (What::One(_, nodes) | What::Optional(_, nodes) | What::Many(nodes)) =
                    segment.what
                else {
                    panic!("{} is not a segment", segment.name)
                };
                for (i, n) in nodes.iter().enumerate() {
                    if !matches!(n.what, What::Position(_)) {
                        assert_eq!(n.name, format!("{}{:02}", segment.name, i + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn decode_bytes_reads_long_texts_in_place_and_matches_decode() {
        use crate::formats::{
            sample_edi_po, sample_oagis_po, sample_oracle_po, sample_rn_po, sample_sap_po,
        };
        use crate::text::INLINE_CAP;

        /// (texts longer than `INLINE_CAP` bytes, how many of them borrow).
        fn long_texts(v: &Value) -> (usize, usize) {
            match v {
                Value::Text(s) if s.len() > INLINE_CAP => (1, usize::from(s.is_borrowed())),
                Value::List(items) => items.iter().map(long_texts).fold((0, 0), add),
                Value::Record(fields) => fields.values().map(long_texts).fold((0, 0), add),
                _ => (0, 0),
            }
        }
        fn add(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
            (a.0 + b.0, a.1 + b.1)
        }
        let number = "4711-".repeat(10);
        for doc in [
            sample_edi_po(&number, 3),
            sample_rn_po(&number, 3),
            sample_oagis_po(&number, 3),
            sample_sap_po(&number, 3),
            sample_oracle_po(&number, 3),
        ] {
            let codec = TableCodec(FORMATS.iter().find(|f| &f.id == doc.format()).unwrap());
            let wire = Bytes::from(codec.encode(&doc).unwrap());
            let owned = codec.decode(&wire).unwrap();
            let borrowed = codec.decode_bytes(&wire).unwrap();
            assert_eq!(borrowed, owned, "{}", doc.format());
            let (long, shared) = long_texts(borrowed.body());
            assert!(long > 0 && shared == long, "{}: {shared} of {long} borrowed", doc.format());
            assert_eq!(long_texts(owned.body()), (long, 0), "{}", doc.format());
        }
    }

    #[test]
    fn decoded_wire_fixtures_are_keyed_by_node_names() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/wire");
        for format in FORMATS {
            for kind in format.kinds {
                let wire = std::fs::read(format!("{dir}/{}.{}.txt", format.id, kind.kind)).unwrap();
                let doc = TableCodec(format).decode(&wire).unwrap();
                assert_keyed_by(doc.body(), kind.body);
            }
        }
    }

    #[test]
    fn money_round_trips_with_its_sign_and_two_decimals() {
        let codec = TableCodec(&edi_x12::FORMAT);
        let eur = |cents| Value::Money(Money::from_cents(cents, Currency::Eur));
        let mut doc = sample_edi_po("4711", 2);
        doc.set("CUR.CUR02", Value::text("EUR")).unwrap();
        doc.set("PO1[0].PO104", eur(-7)).unwrap();
        for (total, amt) in [(-101, "AMT*TT*-1.01~"), (5_500_000, "AMT*TT*55000.00~")] {
            doc.set("AMT02", eur(total)).unwrap();
            let wire = String::from_utf8(codec.encode(&doc).unwrap()).unwrap();
            assert!(wire.contains(amt) && wire.contains("*EA*-0.07**VP*"), "{wire}");
            assert_eq!(codec.decode(wire.as_bytes()).unwrap().body(), doc.body());
        }
    }

    #[test]
    fn encode_refuses_what_would_read_back_as_something_else() {
        let refusal = |format, doc: &Document| {
            TableCodec(format).encode(doc).unwrap_err().to_string().replace('"', "'")
        };
        let mut doc = sample_edi_po("4711", 2);
        doc.set("CUR.CUR02", Value::text("XYZ")).unwrap();
        assert_eq!(
            refusal(&edi_x12::FORMAT, &doc),
            "edi-x12 encode error: field `CUR02` holds 'XYZ', which is not a currency code"
        );
        doc.set("CUR.CUR02", Value::text("EUR")).unwrap();
        assert_eq!(
            refusal(&edi_x12::FORMAT, &doc),
            "edi-x12 encode error: field `PO104` is in USD, but `CUR02` names EUR"
        );
        let mut doc = sample_sap_po("4711", 2);
        doc.set("EDI_DC40.IDOCTYP", Value::text("ORDRSP")).unwrap();
        assert_eq!(
            refusal(&sap_idoc::FORMAT, &doc),
            "sap-idoc encode error: field `IDOCTYP` holds 'ORDRSP', but this document kind is ORDERS05"
        );
    }

    #[test]
    fn parse_int_reports_context() {
        let e = parse_int("x", "PO102", &F).unwrap_err();
        assert_eq!(e.to_string(), "edi-x12 parse error at byte 0: PO102 `x` is not an integer");
    }

    #[test]
    fn check_text_names_the_field() {
        assert!(check_text(&F, "item", "A B", &['*'], false, true).is_ok());
        let e = check_text(&F, "item", "A*B", &['*'], false, true).unwrap_err();
        assert_eq!(
            e.to_string(),
            "edi-x12 encode error: field `item` holds \"A*B\", which its reader would not read back"
        );
        assert!(check_text(&F, "item", "", &['*'], false, true).is_err());
        assert!(check_text(&F, "item", " A", &[], true, false).is_err());
        assert!(check_text(&F, "item", "", &[], true, false).is_ok());
    }
}
