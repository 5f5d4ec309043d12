//! SAP IDoc-style back-end format.
//!
//! The SAP back-end simulator stores purchase orders as ORDERS05-style
//! IDocs and emits ORDRSP acknowledgments. The wire form is the classic
//! flat-file IDoc rendering: one segment per line, `SEGMENT|field=value|…`.

use super::util::{decimal_to_money, field, money_to_decimal, parse_int, string_encode_into};
use super::{FormatCodec, FormatId};
use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::error::{DocumentError, Result};
use crate::ids::{CorrelationId, DocumentId};
use crate::intern::{intern, Symbol};
use crate::money::Currency;
use crate::value::{ElementAt, Value};
use crate::{record, record_sym};
use std::collections::BTreeMap;

const FORMAT: &str = "sap-idoc";

/// SAP action codes used per order line in ORDRSP.
pub const SAP_ACCEPT: &str = "001";
/// Changed.
pub const SAP_CHANGED: &str = "002";
/// Rejected.
pub const SAP_REJECT: &str = "003";

/// Field symbols used by decoded IDoc bodies, interned once at codec
/// construction so decoding allocates no key strings.
#[derive(Debug, Clone)]
struct Syms {
    control: Symbol,
    idoctyp: Symbol,
    sndprn: Symbol,
    rcvprn: Symbol,
    docnum: Symbol,
    e1edk01: Symbol,
    belnr: Symbol,
    curcy: Symbol,
    audat: Symbol,
    action: Symbol,
    e1edka1: Symbol,
    parvw: Symbol,
    name: Symbol,
    e1edp01: Symbol,
    posex: Symbol,
    menge: Symbol,
    vprei: Symbol,
    matnr: Symbol,
    e1eds01: Symbol,
    summe: Symbol,
}

impl Default for Syms {
    fn default() -> Self {
        Self {
            control: intern("control"),
            idoctyp: intern("idoctyp"),
            sndprn: intern("sndprn"),
            rcvprn: intern("rcvprn"),
            docnum: intern("docnum"),
            e1edk01: intern("e1edk01"),
            belnr: intern("belnr"),
            curcy: intern("curcy"),
            audat: intern("audat"),
            action: intern("action"),
            e1edka1: intern("e1edka1"),
            parvw: intern("parvw"),
            name: intern("name"),
            e1edp01: intern("e1edp01"),
            posex: intern("posex"),
            menge: intern("menge"),
            vprei: intern("vprei"),
            matnr: intern("matnr"),
            e1eds01: intern("e1eds01"),
            summe: intern("summe"),
        }
    }
}

/// Codec for the SAP IDoc format.
#[derive(Debug, Default, Clone)]
pub struct SapIdocCodec {
    syms: Syms,
}

fn parse_err(reason: impl Into<String>) -> DocumentError {
    DocumentError::Parse { format: FORMAT.into(), offset: 0, reason: reason.into() }
}

/// One flat-file line: segment name plus fields.
struct FlatSegment {
    name: String,
    fields: BTreeMap<String, String>,
}

fn parse_flat(text: &str) -> Result<Vec<FlatSegment>> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('|');
        let name = parts.next().expect("split yields at least one part").to_string();
        if name.is_empty() {
            return Err(parse_err("empty segment name"));
        }
        let mut fields = BTreeMap::new();
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| parse_err(format!("field `{part}` is not key=value")))?;
            fields.insert(k.to_string(), v.to_string());
        }
        out.push(FlatSegment { name, fields });
    }
    if out.is_empty() {
        return Err(parse_err("empty IDoc"));
    }
    Ok(out)
}

fn flat_line(name: &str, fields: &[(&str, String)], out: &mut String) {
    out.push_str(name);
    for (k, v) in fields {
        out.push('|');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('\n');
}

fn seg_field<'a>(seg: &'a FlatSegment, key: &str) -> Result<&'a str> {
    seg.fields
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| parse_err(format!("{} is missing field {key}", seg.name)))
}

impl SapIdocCodec {
    /// Shared front half of `encode`/`encode_into`: format and kind checks
    /// plus dispatch to the flat-file writers.
    fn encode_text_into(&self, doc: &Document, out: &mut String) -> Result<()> {
        if doc.format() != &FormatId::SAP_IDOC {
            return Err(DocumentError::Encode {
                format: FORMAT.into(),
                reason: format!("document is in format {}", doc.format()),
            });
        }
        match doc.kind() {
            DocKind::PurchaseOrder => self.encode_po(doc, out),
            DocKind::PurchaseOrderAck => self.encode_poa(doc, out),
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: other.to_string(),
            }),
        }
    }

    fn encode_po(&self, doc: &Document, out: &mut String) -> Result<()> {
        let body = doc.body().as_record("$")?;
        let control = field(body, "control", FORMAT)?.as_record("control")?;
        let k01 = field(body, "e1edk01", FORMAT)?.as_record("e1edk01")?;
        out.reserve(256);
        flat_line(
            "EDI_DC40",
            &[
                ("IDOCTYP", field(control, "idoctyp", FORMAT)?.as_text("idoctyp")?.to_string()),
                ("SNDPRN", field(control, "sndprn", FORMAT)?.as_text("sndprn")?.to_string()),
                ("RCVPRN", field(control, "rcvprn", FORMAT)?.as_text("rcvprn")?.to_string()),
                ("DOCNUM", field(control, "docnum", FORMAT)?.as_text("docnum")?.to_string()),
            ],
            out,
        );
        flat_line(
            "E1EDK01",
            &[
                ("BELNR", field(k01, "belnr", FORMAT)?.as_text("belnr")?.to_string()),
                ("CURCY", field(k01, "curcy", FORMAT)?.as_text("curcy")?.to_string()),
                ("AUDAT", field(k01, "audat", FORMAT)?.as_date("audat")?.to_compact()),
            ],
            out,
        );
        for (i, partner) in field(body, "e1edka1", FORMAT)?.as_list("e1edka1")?.iter().enumerate() {
            let at = ElementAt("e1edka1", i);
            let rec = partner.as_record(at)?;
            flat_line(
                "E1EDKA1",
                &[
                    ("PARVW", field(rec, "parvw", FORMAT)?.as_text(at)?.to_string()),
                    ("NAME1", field(rec, "name", FORMAT)?.as_text(at)?.to_string()),
                ],
                out,
            );
        }
        for (i, line) in field(body, "e1edp01", FORMAT)?.as_list("e1edp01")?.iter().enumerate() {
            let at = ElementAt("e1edp01", i);
            let rec = line.as_record(at)?;
            flat_line(
                "E1EDP01",
                &[
                    ("POSEX", field(rec, "posex", FORMAT)?.as_int(at)?.to_string()),
                    ("MENGE", field(rec, "menge", FORMAT)?.as_int(at)?.to_string()),
                    ("VPREI", money_to_decimal(field(rec, "vprei", FORMAT)?.as_money(at)?)),
                    ("MATNR", field(rec, "matnr", FORMAT)?.as_text(at)?.to_string()),
                ],
                out,
            );
        }
        let s01 = field(body, "e1eds01", FORMAT)?.as_record("e1eds01")?;
        flat_line(
            "E1EDS01",
            &[("SUMME", money_to_decimal(field(s01, "summe", FORMAT)?.as_money("summe")?))],
            out,
        );
        Ok(())
    }

    fn encode_poa(&self, doc: &Document, out: &mut String) -> Result<()> {
        let body = doc.body().as_record("$")?;
        let control = field(body, "control", FORMAT)?.as_record("control")?;
        let k01 = field(body, "e1edk01", FORMAT)?.as_record("e1edk01")?;
        out.reserve(256);
        flat_line(
            "EDI_DC40",
            &[
                ("IDOCTYP", field(control, "idoctyp", FORMAT)?.as_text("idoctyp")?.to_string()),
                ("SNDPRN", field(control, "sndprn", FORMAT)?.as_text("sndprn")?.to_string()),
                ("RCVPRN", field(control, "rcvprn", FORMAT)?.as_text("rcvprn")?.to_string()),
                ("DOCNUM", field(control, "docnum", FORMAT)?.as_text("docnum")?.to_string()),
            ],
            out,
        );
        flat_line(
            "E1EDK01",
            &[
                ("BELNR", field(k01, "belnr", FORMAT)?.as_text("belnr")?.to_string()),
                ("AUDAT", field(k01, "audat", FORMAT)?.as_date("audat")?.to_compact()),
                ("ACTION", field(k01, "action", FORMAT)?.as_text("action")?.to_string()),
            ],
            out,
        );
        for (i, line) in field(body, "e1edp01", FORMAT)?.as_list("e1edp01")?.iter().enumerate() {
            let at = ElementAt("e1edp01", i);
            let rec = line.as_record(at)?;
            flat_line(
                "E1EDP01",
                &[
                    ("POSEX", field(rec, "posex", FORMAT)?.as_int(at)?.to_string()),
                    ("MENGE", field(rec, "menge", FORMAT)?.as_int(at)?.to_string()),
                    ("ACTION", field(rec, "action", FORMAT)?.as_text(at)?.to_string()),
                ],
                out,
            );
        }
        Ok(())
    }

    fn decode_flat(&self, segments: &[FlatSegment]) -> Result<Document> {
        let dc = segments
            .iter()
            .find(|s| s.name == "EDI_DC40")
            .ok_or_else(|| parse_err("missing EDI_DC40 control record"))?;
        let s = &self.syms;
        let idoctyp = seg_field(dc, "IDOCTYP")?.to_string();
        let control = record_sym! {
            s.idoctyp => Value::text(&idoctyp),
            s.sndprn => Value::text(seg_field(dc, "SNDPRN")?),
            s.rcvprn => Value::text(seg_field(dc, "RCVPRN")?),
            s.docnum => Value::text(seg_field(dc, "DOCNUM")?),
        };
        let k01 = segments
            .iter()
            .find(|s| s.name == "E1EDK01")
            .ok_or_else(|| parse_err("missing E1EDK01"))?;
        let belnr = seg_field(k01, "BELNR")?.to_string();
        let docnum = seg_field(dc, "DOCNUM")?.to_string();
        match idoctyp.as_str() {
            "ORDERS05" => {
                let curcy = seg_field(k01, "CURCY")?.to_string();
                let currency = Currency::parse(&curcy)?;
                let mut partners = Vec::new();
                let mut lines = Vec::new();
                let mut total = None;
                for seg in segments {
                    match seg.name.as_str() {
                        "E1EDKA1" => partners.push(record_sym! {
                            s.parvw => Value::text(seg_field(seg, "PARVW")?),
                            s.name => Value::text(seg_field(seg, "NAME1")?),
                        }),
                        "E1EDP01" => lines.push(record_sym! {
                            s.posex => Value::Int(parse_int(seg_field(seg, "POSEX")?, "POSEX", FORMAT)?),
                            s.menge => Value::Int(parse_int(seg_field(seg, "MENGE")?, "MENGE", FORMAT)?),
                            s.vprei => Value::Money(decimal_to_money(seg_field(seg, "VPREI")?, currency, FORMAT)?),
                            s.matnr => Value::text(seg_field(seg, "MATNR")?),
                        }),
                        "E1EDS01" => {
                            total = Some(decimal_to_money(seg_field(seg, "SUMME")?, currency, FORMAT)?)
                        }
                        _ => {}
                    }
                }
                let total = total.ok_or_else(|| parse_err("missing E1EDS01"))?;
                let body = record_sym! {
                    s.control => control,
                    s.e1edk01 => record_sym! {
                        s.belnr => Value::text(&belnr),
                        s.curcy => Value::text(&curcy),
                        s.audat => Value::Date(Date::parse_compact(seg_field(k01, "AUDAT")?)?),
                    },
                    s.e1edka1 => Value::List(partners),
                    s.e1edp01 => Value::List(lines),
                    s.e1eds01 => record_sym! { s.summe => Value::Money(total) },
                };
                Ok(Document::with_id(
                    DocumentId::new(format!("idoc-{docnum}")),
                    DocKind::PurchaseOrder,
                    FormatId::SAP_IDOC,
                    CorrelationId::for_po_number(&belnr),
                    body,
                ))
            }
            "ORDRSP" => {
                let mut lines = Vec::new();
                for seg in segments {
                    if seg.name == "E1EDP01" {
                        lines.push(record_sym! {
                            s.posex => Value::Int(parse_int(seg_field(seg, "POSEX")?, "POSEX", FORMAT)?),
                            s.menge => Value::Int(parse_int(seg_field(seg, "MENGE")?, "MENGE", FORMAT)?),
                            s.action => Value::text(seg_field(seg, "ACTION")?),
                        });
                    }
                }
                let body = record_sym! {
                    s.control => control,
                    s.e1edk01 => record_sym! {
                        s.belnr => Value::text(&belnr),
                        s.audat => Value::Date(Date::parse_compact(seg_field(k01, "AUDAT")?)?),
                        s.action => Value::text(seg_field(k01, "ACTION")?),
                    },
                    s.e1edp01 => Value::List(lines),
                };
                Ok(Document::with_id(
                    DocumentId::new(format!("idoc-{docnum}")),
                    DocKind::PurchaseOrderAck,
                    FormatId::SAP_IDOC,
                    CorrelationId::for_po_number(&belnr),
                    body,
                ))
            }
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: format!("IDoc type {other}"),
            }),
        }
    }
}

impl FormatCodec for SapIdocCodec {
    fn format(&self) -> FormatId {
        FormatId::SAP_IDOC
    }

    fn supported_kinds(&self) -> Vec<DocKind> {
        vec![DocKind::PurchaseOrder, DocKind::PurchaseOrderAck]
    }

    fn encode(&self, doc: &Document) -> Result<Vec<u8>> {
        let mut text = String::with_capacity(256);
        self.encode_text_into(doc, &mut text)?;
        Ok(text.into_bytes())
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> Result<()> {
        string_encode_into(out, |s| self.encode_text_into(doc, s))
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document> {
        let text = std::str::from_utf8(bytes).map_err(|_| parse_err("not UTF-8"))?;
        let segments = parse_flat(text)?;
        self.decode_flat(&segments)
    }
}

/// Builds a SAP-shaped PO document for tests and examples.
pub fn sample_sap_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "control" => record! {
            "idoctyp" => Value::text("ORDERS05"),
            "sndprn" => Value::text("ACME"),
            "rcvprn" => Value::text("SAPPRD"),
            "docnum" => Value::text(format!("idoc-{po_number}")),
        },
        "e1edk01" => record! {
            "belnr" => Value::text(po_number),
            "curcy" => Value::text("USD"),
            "audat" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
        },
        "e1edka1" => Value::List(vec![
            record! { "parvw" => Value::text("AG"), "name" => Value::text("ACME Manufacturing") },
            record! { "parvw" => Value::text("LF"), "name" => Value::text("Gadget Supply Co") },
        ]),
        "e1edp01" => Value::List(vec![record! {
            "posex" => Value::Int(1),
            "menge" => Value::Int(quantity),
            "vprei" => Value::Money(price),
            "matnr" => Value::text("LAPTOP-T23"),
        }]),
        "e1eds01" => record! { "summe" => Value::Money(total) },
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::SAP_IDOC,
        CorrelationId::for_po_number(po_number),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn po_round_trips_through_flat_file() {
        let codec = SapIdocCodec::default();
        let doc = sample_sap_po("4711", 12);
        let wire = codec.encode(&doc).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("EDI_DC40|"), "{text}");
        assert!(text.contains("MATNR=LAPTOP-T23"), "{text}");
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_flat_file() {
        let codec = SapIdocCodec::default();
        let body = record! {
            "control" => record! {
                "idoctyp" => Value::text("ORDRSP"),
                "sndprn" => Value::text("SAPPRD"),
                "rcvprn" => Value::text("ACME"),
                "docnum" => Value::text("idoc-ack-4711"),
            },
            "e1edk01" => record! {
                "belnr" => Value::text("4711"),
                "audat" => Value::Date(Date::new(2001, 9, 18).unwrap()),
                "action" => Value::text(SAP_ACCEPT),
            },
            "e1edp01" => Value::List(vec![record! {
                "posex" => Value::Int(1),
                "menge" => Value::Int(12),
                "action" => Value::text(SAP_ACCEPT),
            }]),
        };
        let doc = Document::new(
            DocKind::PurchaseOrderAck,
            FormatId::SAP_IDOC,
            CorrelationId::for_po_number("4711"),
            body,
        );
        let back = codec.decode(&codec.encode(&doc).unwrap()).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.kind(), DocKind::PurchaseOrderAck);
    }

    #[test]
    fn decode_rejects_garbage() {
        let codec = SapIdocCodec::default();
        assert!(codec.decode(b"").is_err());
        assert!(codec.decode(b"E1EDK01|BELNR=1\n").is_err(), "missing control record");
        assert!(codec
            .decode(b"EDI_DC40|IDOCTYP=WHATEVER|SNDPRN=a|RCVPRN=b|DOCNUM=1\nE1EDK01|BELNR=1\n")
            .is_err());
        assert!(codec.decode(b"EDI_DC40|oops\n").is_err());
    }
}
