//! Oracle-applications-style back-end format.
//!
//! The Oracle back-end simulator exposes purchase orders the way an
//! interface table would: a `PO_HEADERS` row plus `PO_LINES` rows. The wire
//! form is a sectioned key/value text (one `[TABLE]` block per row).

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

const FORMAT: &str = "oracle-apps";

/// Oracle acknowledgment statuses.
pub const ORA_ACCEPT: &str = "ACCEPTED";
/// Rejected.
pub const ORA_REJECT: &str = "REJECTED";
/// Accepted with changes.
pub const ORA_MODIFIED: &str = "MODIFIED";

/// Field symbols used by decoded Oracle bodies, interned once at codec
/// construction so decoding allocates no key strings.
#[derive(Debug, Clone)]
struct Syms {
    po_header: Symbol,
    segment1: Symbol,
    org_id: Symbol,
    vendor_name: Symbol,
    agent_name: Symbol,
    currency_code: Symbol,
    creation_date: Symbol,
    total_amount: Symbol,
    po_lines: Symbol,
    line_num: Symbol,
    item_id: Symbol,
    quantity: Symbol,
    unit_price: Symbol,
    ack_header: Symbol,
    po_number: Symbol,
    status: Symbol,
    ack_date: Symbol,
    ack_lines: Symbol,
}

impl Default for Syms {
    fn default() -> Self {
        Self {
            po_header: intern("po_header"),
            segment1: intern("segment1"),
            org_id: intern("org_id"),
            vendor_name: intern("vendor_name"),
            agent_name: intern("agent_name"),
            currency_code: intern("currency_code"),
            creation_date: intern("creation_date"),
            total_amount: intern("total_amount"),
            po_lines: intern("po_lines"),
            line_num: intern("line_num"),
            item_id: intern("item_id"),
            quantity: intern("quantity"),
            unit_price: intern("unit_price"),
            ack_header: intern("ack_header"),
            po_number: intern("po_number"),
            status: intern("status"),
            ack_date: intern("ack_date"),
            ack_lines: intern("ack_lines"),
        }
    }
}

/// Codec for the Oracle applications format.
#[derive(Debug, Default, Clone)]
pub struct OracleAppsCodec {
    syms: Syms,
}

fn parse_err(reason: impl Into<String>) -> DocumentError {
    DocumentError::Parse { format: FORMAT.into(), offset: 0, reason: reason.into() }
}

struct Row {
    table: String,
    columns: BTreeMap<String, String>,
}

fn parse_rows(text: &str) -> Result<Vec<Row>> {
    let mut rows: Vec<Row> = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let table = rest
                .strip_suffix(']')
                .ok_or_else(|| parse_err(format!("unterminated section `{line}`")))?;
            rows.push(Row { table: table.to_string(), columns: BTreeMap::new() });
        } else {
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| parse_err(format!("`{line}` is not key=value")))?;
            let row = rows.last_mut().ok_or_else(|| parse_err("column before any section"))?;
            row.columns.insert(k.trim().to_string(), v.trim().to_string());
        }
    }
    if rows.is_empty() {
        return Err(parse_err("empty document"));
    }
    Ok(rows)
}

fn write_row(table: &str, columns: &[(&str, String)], out: &mut String) {
    out.push('[');
    out.push_str(table);
    out.push_str("]\n");
    for (k, v) in columns {
        out.push_str(k);
        out.push('=');
        out.push_str(v);
        out.push('\n');
    }
}

fn col<'a>(row: &'a Row, name: &str) -> Result<&'a str> {
    row.columns
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| parse_err(format!("{} row is missing column {name}", row.table)))
}

impl OracleAppsCodec {
    /// Shared front half of `encode`/`encode_into`: format and kind checks
    /// plus dispatch to the row writers.
    fn encode_text_into(&self, doc: &Document, out: &mut String) -> Result<()> {
        if doc.format() != &FormatId::ORACLE_APPS {
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
        let hdr = field(body, "po_header", FORMAT)?.as_record("po_header")?;
        out.reserve(256);
        write_row(
            "PO_HEADERS",
            &[
                ("SEGMENT1", field(hdr, "segment1", FORMAT)?.as_text("segment1")?.to_string()),
                ("ORG_ID", field(hdr, "org_id", FORMAT)?.as_int("org_id")?.to_string()),
                (
                    "VENDOR_NAME",
                    field(hdr, "vendor_name", FORMAT)?.as_text("vendor_name")?.to_string(),
                ),
                (
                    "AGENT_NAME",
                    field(hdr, "agent_name", FORMAT)?.as_text("agent_name")?.to_string(),
                ),
                (
                    "CURRENCY_CODE",
                    field(hdr, "currency_code", FORMAT)?.as_text("currency_code")?.to_string(),
                ),
                (
                    "CREATION_DATE",
                    field(hdr, "creation_date", FORMAT)?.as_date("creation_date")?.to_string(),
                ),
                (
                    "TOTAL_AMOUNT",
                    money_to_decimal(field(hdr, "total_amount", FORMAT)?.as_money("total_amount")?),
                ),
            ],
            out,
        );
        for (i, line) in field(body, "po_lines", FORMAT)?.as_list("po_lines")?.iter().enumerate() {
            let at = ElementAt("po_lines", i);
            let rec = line.as_record(at)?;
            write_row(
                "PO_LINES",
                &[
                    ("LINE_NUM", field(rec, "line_num", FORMAT)?.as_int(at)?.to_string()),
                    ("ITEM_ID", field(rec, "item_id", FORMAT)?.as_text(at)?.to_string()),
                    ("QUANTITY", field(rec, "quantity", FORMAT)?.as_int(at)?.to_string()),
                    (
                        "UNIT_PRICE",
                        money_to_decimal(field(rec, "unit_price", FORMAT)?.as_money(at)?),
                    ),
                ],
                out,
            );
        }
        Ok(())
    }

    fn encode_poa(&self, doc: &Document, out: &mut String) -> Result<()> {
        let body = doc.body().as_record("$")?;
        let hdr = field(body, "ack_header", FORMAT)?.as_record("ack_header")?;
        out.reserve(128);
        write_row(
            "PO_ACKNOWLEDGMENTS",
            &[
                ("PO_NUMBER", field(hdr, "po_number", FORMAT)?.as_text("po_number")?.to_string()),
                ("STATUS", field(hdr, "status", FORMAT)?.as_text("status")?.to_string()),
                ("ACK_DATE", field(hdr, "ack_date", FORMAT)?.as_date("ack_date")?.to_string()),
            ],
            out,
        );
        for (i, line) in field(body, "ack_lines", FORMAT)?.as_list("ack_lines")?.iter().enumerate()
        {
            let at = ElementAt("ack_lines", i);
            let rec = line.as_record(at)?;
            write_row(
                "PO_ACK_LINES",
                &[
                    ("LINE_NUM", field(rec, "line_num", FORMAT)?.as_int(at)?.to_string()),
                    ("STATUS", field(rec, "status", FORMAT)?.as_text(at)?.to_string()),
                    ("QUANTITY", field(rec, "quantity", FORMAT)?.as_int(at)?.to_string()),
                ],
                out,
            );
        }
        Ok(())
    }

    fn decode_rows(&self, rows: &[Row]) -> Result<Document> {
        let s = &self.syms;
        match rows[0].table.as_str() {
            "PO_HEADERS" => {
                let hdr = &rows[0];
                let po_number = col(hdr, "SEGMENT1")?.to_string();
                let currency_code = col(hdr, "CURRENCY_CODE")?.to_string();
                let currency = Currency::parse(&currency_code)?;
                let mut lines = Vec::new();
                for row in &rows[1..] {
                    if row.table != "PO_LINES" {
                        return Err(parse_err(format!("unexpected section {}", row.table)));
                    }
                    lines.push(record_sym! {
                        s.line_num => Value::Int(parse_int(col(row, "LINE_NUM")?, "LINE_NUM", FORMAT)?),
                        s.item_id => Value::text(col(row, "ITEM_ID")?),
                        s.quantity => Value::Int(parse_int(col(row, "QUANTITY")?, "QUANTITY", FORMAT)?),
                        s.unit_price => Value::Money(decimal_to_money(col(row, "UNIT_PRICE")?, currency, FORMAT)?),
                    });
                }
                let body = record_sym! {
                    s.po_header => record_sym! {
                        s.segment1 => Value::text(&po_number),
                        s.org_id => Value::Int(parse_int(col(hdr, "ORG_ID")?, "ORG_ID", FORMAT)?),
                        s.vendor_name => Value::text(col(hdr, "VENDOR_NAME")?),
                        s.agent_name => Value::text(col(hdr, "AGENT_NAME")?),
                        s.currency_code => Value::text(&currency_code),
                        s.creation_date => Value::Date(Date::parse_iso(col(hdr, "CREATION_DATE")?)?),
                        s.total_amount => Value::Money(decimal_to_money(col(hdr, "TOTAL_AMOUNT")?, currency, FORMAT)?),
                    },
                    s.po_lines => Value::List(lines),
                };
                Ok(Document::with_id(
                    DocumentId::new(format!("ora-{po_number}")),
                    DocKind::PurchaseOrder,
                    FormatId::ORACLE_APPS,
                    CorrelationId::for_po_number(&po_number),
                    body,
                ))
            }
            "PO_ACKNOWLEDGMENTS" => {
                let hdr = &rows[0];
                let po_number = col(hdr, "PO_NUMBER")?.to_string();
                let mut lines = Vec::new();
                for row in &rows[1..] {
                    if row.table != "PO_ACK_LINES" {
                        return Err(parse_err(format!("unexpected section {}", row.table)));
                    }
                    lines.push(record_sym! {
                        s.line_num => Value::Int(parse_int(col(row, "LINE_NUM")?, "LINE_NUM", FORMAT)?),
                        s.status => Value::text(col(row, "STATUS")?),
                        s.quantity => Value::Int(parse_int(col(row, "QUANTITY")?, "QUANTITY", FORMAT)?),
                    });
                }
                let body = record_sym! {
                    s.ack_header => record_sym! {
                        s.po_number => Value::text(&po_number),
                        s.status => Value::text(col(hdr, "STATUS")?),
                        s.ack_date => Value::Date(Date::parse_iso(col(hdr, "ACK_DATE")?)?),
                    },
                    s.ack_lines => Value::List(lines),
                };
                Ok(Document::with_id(
                    DocumentId::new(format!("ora-ack-{po_number}")),
                    DocKind::PurchaseOrderAck,
                    FormatId::ORACLE_APPS,
                    CorrelationId::for_po_number(&po_number),
                    body,
                ))
            }
            other => Err(DocumentError::UnsupportedKind {
                format: FORMAT.into(),
                kind: format!("section {other}"),
            }),
        }
    }
}

impl FormatCodec for OracleAppsCodec {
    fn format(&self) -> FormatId {
        FormatId::ORACLE_APPS
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
        let rows = parse_rows(text)?;
        self.decode_rows(&rows)
    }
}

/// Builds an Oracle-shaped PO document for tests and examples.
pub fn sample_oracle_po(po_number: &str, quantity: i64) -> Document {
    let price = crate::money::Money::from_units(1, Currency::Usd);
    let total = price.checked_mul(quantity).expect("no overflow in sample");
    let body = record! {
        "po_header" => record! {
            "segment1" => Value::text(po_number),
            "org_id" => Value::Int(204),
            "vendor_name" => Value::text("Gadget Supply Co"),
            "agent_name" => Value::text("ACME Manufacturing"),
            "currency_code" => Value::text("USD"),
            "creation_date" => Value::Date(Date::new(2001, 9, 17).expect("valid")),
            "total_amount" => Value::Money(total),
        },
        "po_lines" => Value::List(vec![record! {
            "line_num" => Value::Int(1),
            "item_id" => Value::text("LAPTOP-T23"),
            "quantity" => Value::Int(quantity),
            "unit_price" => Value::Money(price),
        }]),
    };
    Document::new(
        DocKind::PurchaseOrder,
        FormatId::ORACLE_APPS,
        CorrelationId::for_po_number(po_number),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn po_round_trips_through_rows() {
        let codec = OracleAppsCodec::default();
        let doc = sample_oracle_po("4711", 12);
        let wire = codec.encode(&doc).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("[PO_HEADERS]"), "{text}");
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.correlation(), doc.correlation());
    }

    #[test]
    fn poa_round_trips_through_rows() {
        let codec = OracleAppsCodec::default();
        let body = record! {
            "ack_header" => record! {
                "po_number" => Value::text("4711"),
                "status" => Value::text(ORA_ACCEPT),
                "ack_date" => Value::Date(Date::new(2001, 9, 18).unwrap()),
            },
            "ack_lines" => Value::List(vec![record! {
                "line_num" => Value::Int(1),
                "status" => Value::text(ORA_ACCEPT),
                "quantity" => Value::Int(12),
            }]),
        };
        let doc = Document::new(
            DocKind::PurchaseOrderAck,
            FormatId::ORACLE_APPS,
            CorrelationId::for_po_number("4711"),
            body,
        );
        let back = codec.decode(&codec.encode(&doc).unwrap()).unwrap();
        assert_eq!(back.body(), doc.body());
    }

    #[test]
    fn decode_rejects_malformed_sections() {
        let codec = OracleAppsCodec::default();
        assert!(codec.decode(b"").is_err());
        assert!(codec.decode(b"LINE=1\n").is_err(), "column before section");
        assert!(codec.decode(b"[PO_HEADERS\nX=1\n").is_err(), "unterminated section");
        assert!(codec.decode(b"[UNKNOWN]\nX=1\n").is_err());
    }
}
