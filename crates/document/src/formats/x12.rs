//! The X12 walker: `ID*e1*e2~` segments in an ISA/GS/ST…SE/GE/IEA
//! envelope, read as slices of the payload and written straight into the
//! caller's buffer.
//!
//! Simplifications against real X12: the ISA segment is read positionally
//! like any other (not by fixed column widths), and an interchange holds
//! exactly one functional group with one transaction set.

use super::table::{
    self, check_text, lookup, parse_err, put, unsupported, Format, Kind, Node, Sink, Source, What,
};
use crate::document::Document;
use crate::error::{DocumentError, Result};
use crate::value::FieldVec;
use bytes::Bytes;
use std::borrow::Cow;

/// What an element may not hold: its reader splits segments and elements
/// at the delimiters and trims line ends at segment edges.
const SPLITS: [char; 4] = ['*', '~', '\r', '\n'];

/// One segment: its id, and the text after the id's `*`.
struct Segment<'a> {
    id: &'a str,
    elements: Option<&'a str>,
}

impl<'a> Segment<'a> {
    /// The element at 1-based X12 position `pos` (`BEG03` is 3).
    fn element(&self, pos: usize) -> Option<&'a str> {
        self.elements?.split('*').nth(pos - 1)
    }

    /// The element at `pos`; absent and empty elements are missing.
    fn require(&self, format: &Format, pos: usize) -> Result<&'a str> {
        match self.element(pos) {
            Some(v) if !v.is_empty() => Ok(v),
            _ => Err(parse_err(format, format!("segment {} is missing element {pos:02}", self.id))),
        }
    }
}

/// A validated interchange's one transaction set: the envelope's values
/// and the segments between ST and SE.
struct Message<'s, 'a> {
    sender: &'a str,
    receiver: &'a str,
    control: &'a str,
    set: &'a str,
    body: &'s [Segment<'a>],
}

fn segments<'a>(format: &Format, input: &'a str) -> Result<Vec<Segment<'a>>> {
    let mut segments = Vec::with_capacity(input.bytes().filter(|&b| b == b'~').count() + 1);
    let mut offset = 0;
    for raw in input.split('~') {
        // Only line terminators between segments are insignificant;
        // spaces inside elements are data.
        let trimmed = raw.trim_matches(|c| c == '\n' || c == '\r');
        if !trimmed.is_empty() {
            let (id, elements) = match trimmed.split_once('*') {
                Some((id, rest)) => (id, Some(rest)),
                None => (trimmed, None),
            };
            if id.is_empty() || !id.chars().all(|c| c.is_ascii_alphanumeric()) {
                return Err(DocumentError::Parse {
                    format: format.id.to_string(),
                    offset,
                    reason: format!("bad segment id `{id}`"),
                });
            }
            segments.push(Segment { id, elements });
        }
        offset += raw.len() + 1;
    }
    if segments.is_empty() {
        return Err(parse_err(format, "no segments"));
    }
    Ok(segments)
}

/// Validates the envelope: ids, control-number agreement, and the
/// segment and transaction-set counts.
fn message<'s, 'a>(format: &Format, segs: &'s [Segment<'a>]) -> Result<Message<'s, 'a>> {
    let err = |reason: String| parse_err(format, reason);
    let at = |i: usize, id: &str| segs.get(i).filter(|s| s.id == id);
    let isa = at(0, "ISA").ok_or_else(|| err("expected ISA".into()))?;
    let sender = isa.require(format, 6)?.trim();
    let receiver = isa.require(format, 8)?.trim();
    let control = isa.require(format, 13)?;
    let gs = at(1, "GS").ok_or_else(|| err("expected GS".into()))?;
    gs.require(format, 1)?;
    let group_control = gs.require(format, 6)?;
    let st = at(2, "ST").ok_or_else(|| err("expected ST".into()))?;
    let set = st.require(format, 1)?;
    let st_control = st.require(format, 2)?;
    let se_at =
        segs[3..].iter().position(|s| s.id == "SE").ok_or_else(|| err("missing SE".into()))? + 3;
    let (body, se) = (&segs[3..se_at], &segs[se_at]);
    // SE01 counts every segment in the set including ST and SE.
    let declared: usize =
        se.require(format, 1)?.parse().map_err(|_| err("SE01 must be a segment count".into()))?;
    if declared != body.len() + 2 {
        return Err(err(format!("SE01 declares {declared} segments, found {}", body.len() + 2)));
    }
    if se.require(format, 2)? != st_control {
        return Err(err("SE02 does not match ST02".into()));
    }
    let ge = at(se_at + 1, "GE").ok_or_else(|| err("expected GE".into()))?;
    if ge.require(format, 1)? != "1" {
        return Err(err("GE01 must declare exactly one transaction set".into()));
    }
    if ge.require(format, 2)? != group_control {
        return Err(err("GE02 does not match GS06".into()));
    }
    let iea = at(se_at + 2, "IEA").ok_or_else(|| err("expected IEA".into()))?;
    if iea.require(format, 2)? != control {
        return Err(err("IEA02 does not match ISA13".into()));
    }
    if segs.len() > se_at + 3 {
        return Err(err("content after IEA".into()));
    }
    Ok(Message { sender, receiver, control, set, body })
}

pub(crate) fn decode(
    format: &'static Format,
    text: &str,
    payload: Option<&Bytes>,
) -> Result<Document> {
    let segs = segments(format, text)?;
    let ic = message(format, &segs)?;
    let kind = format
        .kinds
        .iter()
        .find(|k| k.selector == ic.set)
        .ok_or_else(|| unsupported(format, format!("transaction set {}", ic.set)))?;
    table::read(format, kind, &Group::Body(&ic), payload)
}

/// A group as the table reads it: the transaction set's body, the
/// envelope (the node named `ISA`), or one segment.
enum Group<'i, 's, 'a> {
    Body(&'i Message<'s, 'a>),
    Envelope(&'i Message<'s, 'a>),
    Segment(&'s Segment<'a>),
}

impl Source for Group<'_, '_, '_> {
    fn name(&self) -> &str {
        match self {
            Group::Segment(s) => s.id,
            Group::Envelope(_) => "ISA",
            Group::Body(_) => "",
        }
    }

    fn group(&self, node: &Node) -> Option<Self> {
        match self {
            Group::Body(ic) if node.name == "ISA" => Some(Group::Envelope(ic)),
            Group::Body(ic) => ic.body.iter().find(|s| s.id == node.name).map(Group::Segment),
            _ => None,
        }
    }

    fn each(&self, node: &Node, f: &mut dyn FnMut(Self) -> Result<()>) -> Result<()> {
        if let Group::Body(ic) = self {
            for s in ic.body.iter().filter(|s| s.id == node.name) {
                f(Group::Segment(s))?;
            }
        }
        Ok(())
    }

    fn text(&self, _: &Node, position: usize) -> Option<Cow<'_, str>> {
        match self {
            Group::Segment(s) => s.element(position).filter(|e| !e.is_empty()).map(Cow::Borrowed),
            // ISA06, ISA08 and ISA13, in that order.
            Group::Envelope(ic) => {
                [ic.sender, ic.receiver, ic.control].get(position - 1).map(|t| Cow::Borrowed(*t))
            }
            Group::Body(_) => None,
        }
    }

    fn missing(&self, _: &Node, position: usize, _: Option<usize>) -> String {
        format!("segment {} is missing element {position:02}", self.name())
    }
}

pub(crate) fn encode(
    format: &Format,
    kind: &Kind,
    body: &FieldVec,
    out: &mut Vec<u8>,
) -> Result<()> {
    let (envelope, segments) = kind.body.split_first().expect("an X12 kind starts with ISA");
    let What::One(_, fields) = envelope.what else { unreachable!("the ISA node is a group") };
    let rec = lookup(format, body, envelope.name)?.as_record(envelope.name)?;
    // ISA06 and ISA08 are read trimmed; the control number is not.
    let text = |i: usize, trimmed: bool| -> Result<&str> {
        let name = fields[i].name;
        let text = lookup(format, rec, name)?.as_text(name)?;
        check_text(format, name, text, &SPLITS, trimmed, true)?;
        Ok(text)
    };
    let (sender, receiver, control) = (text(0, true)?, text(1, true)?, text(2, false)?);
    let What::Const(group) = fields[3].what else {
        unreachable!("the envelope's fourth node is the GS01 code")
    };
    put(
        out,
        format_args!(
            "ISA*00*          *00*          *ZZ*{sender}*ZZ*{receiver}*010917*1200*U*00401*{control}*0*P*>~\n\
             GS*{group}*{sender}*{receiver}*20010917*1200*{control}*X*004010~\nST*{}*0001~\n",
            kind.selector
        ),
    );
    let mut sink = Writer { format, out, segments: 0 };
    table::write(format, kind, &mut sink, segments, body)?;
    let count = sink.segments + 2;
    put(out, format_args!("SE*{count}*0001~\nGE*1*{control}~\nIEA*1*{control}~\n"));
    Ok(())
}

struct Writer<'o> {
    format: &'o Format,
    out: &'o mut Vec<u8>,
    segments: usize,
}

impl Sink for Writer<'_> {
    fn out(&mut self) -> &mut Vec<u8> {
        self.out
    }

    fn open(&mut self, node: &Node) {
        self.out.extend_from_slice(node.name.as_bytes());
        self.segments += 1;
    }

    fn close(&mut self, _: &Node) {
        self.out.extend_from_slice(b"~\n");
    }

    fn begin(&mut self, _: &Node) {
        self.out.push(b'*');
    }

    fn end(&mut self, _: &Node) {}

    fn text(&mut self, field: &str, text: &str, _: bool) -> Result<()> {
        check_text(self.format, field, text, &SPLITS, false, true)?;
        self.out.extend_from_slice(text.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::edi_x12::FORMAT;
    use crate::formats::table::TableCodec;
    use crate::formats::{sample_edi_po, FormatCodec};

    fn wire() -> String {
        String::from_utf8(TableCodec(&FORMAT).encode(&sample_edi_po("4711", 3)).unwrap()).unwrap()
    }

    fn decode_err(wire: &str) -> String {
        TableCodec(&FORMAT).decode(wire.as_bytes()).unwrap_err().to_string()
    }

    #[test]
    fn elements_use_x12_positions() {
        let seg = Segment { id: "BEG", elements: Some("00*NE*4711**20010917") };
        assert_eq!(seg.element(1), Some("00"));
        assert_eq!(seg.element(3), Some("4711"));
        assert_eq!(seg.element(9), None);
        assert!(seg.require(&FORMAT, 3).is_ok());
        assert_eq!(
            seg.require(&FORMAT, 4).unwrap_err().to_string(),
            "edi-x12 parse error at byte 0: segment BEG is missing element 04"
        );
        assert!(seg.require(&FORMAT, 9).is_err());
    }

    #[test]
    fn envelope_counts_are_consistent() {
        let wire = wire();
        assert!(wire.starts_with("ISA*"));
        assert!(wire.contains("SE*9*0001~"), "{wire}");
        assert!(wire.ends_with("GE*1*000000001~\nIEA*1*000000001~\n"), "{wire}");
    }

    #[test]
    fn rejects_a_wrong_segment_count_or_control_number() {
        assert!(decode_err(&wire().replace("SE*9*", "SE*12*")).contains("declares 12"));
        assert!(decode_err(&wire().replace("IEA*1*000000001", "IEA*1*000000099"))
            .contains("IEA02 does not match ISA13"));
    }

    #[test]
    fn rejects_missing_envelope_parts() {
        assert!(decode_err("BEG*00*NE*1~").contains("expected ISA"));
        assert!(decode_err("").contains("no segments"));
        let no_se: String = wire()
            .split('~')
            .filter(|s| !s.trim_start().starts_with("SE"))
            .collect::<Vec<_>>()
            .join("~");
        assert!(decode_err(&no_se).contains("missing SE"));
    }

    #[test]
    fn segment_split_ignores_blank_lines() {
        assert_eq!(segments(&FORMAT, "A*1~\n\nB*2~\n").unwrap().len(), 2);
        assert!(segments(&FORMAT, "*oops~").is_err());
    }
}
