//! The normalized document format.
//!
//! Section 4.2 of the paper: bindings transform every partner- or
//! application-specific format into one *normalized* format so that private
//! processes and business rules see a single shape regardless of how many
//! B2B protocols and back ends exist. This module defines that shape for
//! the document kinds used in the running example, plus builders.

use crate::date::Date;
use crate::document::{DocKind, Document};
use crate::error::{DocumentError, Result};
use crate::formats::FormatId;
use crate::ids::CorrelationId;
use crate::money::{Currency, Money};
use crate::record;
use crate::schema::{FieldSpec, Schema, TypeSpec};
use crate::value::{ElementAt, Value};

/// Status codes a normalized POA may carry.
pub const POA_STATUSES: &[&str] = &["accepted", "rejected", "accepted-with-changes"];

/// Schema of the normalized purchase order.
pub fn po_schema() -> Schema {
    Schema::new(
        FormatId::NORMALIZED,
        DocKind::PurchaseOrder,
        vec![
            FieldSpec::required(
                "header",
                TypeSpec::Record(vec![
                    FieldSpec::required("po_number", TypeSpec::text()),
                    FieldSpec::required("buyer", TypeSpec::text()),
                    FieldSpec::required("seller", TypeSpec::text()),
                    FieldSpec::required("order_date", TypeSpec::Date),
                    FieldSpec::optional("requested_delivery", TypeSpec::Date),
                    FieldSpec::optional("note", TypeSpec::text()),
                ]),
            ),
            FieldSpec::required(
                "lines",
                TypeSpec::list(
                    TypeSpec::Record(vec![
                        FieldSpec::required("line_no", TypeSpec::Int),
                        FieldSpec::required("item", TypeSpec::text()),
                        FieldSpec::optional("description", TypeSpec::text()),
                        FieldSpec::required("quantity", TypeSpec::Int),
                        FieldSpec::required("unit_price", TypeSpec::Money),
                    ]),
                    1,
                ),
            ),
            FieldSpec::required("amount", TypeSpec::Money),
        ],
        false,
    )
}

/// Schema of the normalized purchase-order acknowledgment.
pub fn poa_schema() -> Schema {
    Schema::new(
        FormatId::NORMALIZED,
        DocKind::PurchaseOrderAck,
        vec![
            FieldSpec::required(
                "header",
                TypeSpec::Record(vec![
                    FieldSpec::required("po_number", TypeSpec::text()),
                    FieldSpec::required("buyer", TypeSpec::text()),
                    FieldSpec::required("seller", TypeSpec::text()),
                    FieldSpec::required("ack_date", TypeSpec::Date),
                    FieldSpec::required("status", TypeSpec::code(POA_STATUSES)),
                    FieldSpec::optional("promised_delivery", TypeSpec::Date),
                    FieldSpec::optional("note", TypeSpec::text()),
                ]),
            ),
            FieldSpec::required(
                "lines",
                TypeSpec::list(
                    TypeSpec::Record(vec![
                        FieldSpec::required("line_no", TypeSpec::Int),
                        FieldSpec::required("status", TypeSpec::code(POA_STATUSES)),
                        FieldSpec::required("quantity", TypeSpec::Int),
                    ]),
                    0,
                ),
            ),
        ],
        false,
    )
}

/// Schema of the normalized request for quote (Section 2.3 example).
pub fn rfq_schema() -> Schema {
    Schema::new(
        FormatId::NORMALIZED,
        DocKind::RequestForQuote,
        vec![FieldSpec::required(
            "header",
            TypeSpec::Record(vec![
                FieldSpec::required("rfq_number", TypeSpec::text()),
                FieldSpec::required("buyer", TypeSpec::text()),
                FieldSpec::required("item", TypeSpec::text()),
                FieldSpec::required("quantity", TypeSpec::Int),
                FieldSpec::required("respond_by", TypeSpec::Date),
            ]),
        )],
        false,
    )
}

/// Schema of the normalized quote.
pub fn quote_schema() -> Schema {
    Schema::new(
        FormatId::NORMALIZED,
        DocKind::Quote,
        vec![FieldSpec::required(
            "header",
            TypeSpec::Record(vec![
                FieldSpec::required("rfq_number", TypeSpec::text()),
                FieldSpec::required("seller", TypeSpec::text()),
                FieldSpec::required("unit_price", TypeSpec::Money),
                FieldSpec::required("valid_until", TypeSpec::Date),
            ]),
        )],
        false,
    )
}

/// Builder for a normalized purchase order.
#[derive(Debug, Clone)]
pub struct PoBuilder {
    po_number: String,
    buyer: String,
    seller: String,
    order_date: Date,
    requested_delivery: Option<Date>,
    note: Option<String>,
    currency: Currency,
    lines: Vec<Value>,
    total: Money,
}

impl PoBuilder {
    /// Starts a purchase order; all monetary values use `currency`.
    pub fn new(
        po_number: impl Into<String>,
        buyer: impl Into<String>,
        seller: impl Into<String>,
        order_date: Date,
        currency: Currency,
    ) -> Self {
        Self {
            po_number: po_number.into(),
            buyer: buyer.into(),
            seller: seller.into(),
            order_date,
            requested_delivery: None,
            note: None,
            currency,
            lines: Vec::new(),
            total: Money::zero(currency),
        }
    }

    /// Sets the requested delivery date.
    pub fn requested_delivery(mut self, date: Date) -> Self {
        self.requested_delivery = Some(date);
        self
    }

    /// Attaches a free-text note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// Adds an order line; the total is maintained automatically.
    pub fn line(mut self, item: &str, quantity: i64, unit_price: Money) -> Result<Self> {
        if unit_price.currency() != self.currency {
            return Err(DocumentError::Money {
                reason: format!(
                    "line currency {} differs from order currency {}",
                    unit_price.currency(),
                    self.currency
                ),
            });
        }
        let line_no = self.lines.len() as i64 + 1;
        let extended = unit_price.checked_mul(quantity)?;
        self.total = self.total.checked_add(extended)?;
        self.lines.push(record! {
            "line_no" => Value::Int(line_no),
            "item" => Value::text(item),
            "quantity" => Value::Int(quantity),
            "unit_price" => Value::Money(unit_price),
        });
        Ok(self)
    }

    /// Finishes the document; fails when it would not validate.
    pub fn build(self) -> Result<Document> {
        if self.lines.is_empty() {
            return Err(DocumentError::Invalid {
                kind: "purchase-order".into(),
                detail: "at least one line is required".into(),
            });
        }
        let mut header = record! {
            "po_number" => Value::text(&self.po_number),
            "buyer" => Value::text(&self.buyer),
            "seller" => Value::text(&self.seller),
            "order_date" => Value::Date(self.order_date),
        };
        if let Some(d) = self.requested_delivery {
            header.as_record_mut("header")?.insert("requested_delivery".into(), Value::Date(d));
        }
        if let Some(n) = &self.note {
            header.as_record_mut("header")?.insert("note".into(), Value::text(n));
        }
        let body = record! {
            "header" => header,
            "lines" => Value::List(self.lines),
            "amount" => Value::Money(self.total),
        };
        let doc = Document::new(
            DocKind::PurchaseOrder,
            FormatId::NORMALIZED,
            CorrelationId::for_po_number(&self.po_number),
            body,
        );
        let violations = po_schema().validate(&doc);
        if let Some(first) = violations.first() {
            return Err(DocumentError::Invalid {
                kind: "purchase-order".into(),
                detail: first.to_string(),
            });
        }
        Ok(doc)
    }
}

/// Builds a normalized POA answering `po`, acknowledging every line with
/// `status`.
pub fn build_poa(po: &Document, status: &str, ack_date: Date) -> Result<Document> {
    if po.kind() != DocKind::PurchaseOrder {
        return Err(DocumentError::Invalid {
            kind: "purchase-order-ack".into(),
            detail: format!("cannot acknowledge a {}", po.kind()),
        });
    }
    if !POA_STATUSES.contains(&status) {
        return Err(DocumentError::Invalid {
            kind: "purchase-order-ack".into(),
            detail: format!("unknown status `{status}`"),
        });
    }
    let po_number = po.get("header.po_number")?.as_text("header.po_number")?.to_string();
    let buyer = po.get("header.buyer")?.as_text("header.buyer")?.to_string();
    let seller = po.get("header.seller")?.as_text("header.seller")?.to_string();
    let mut lines = Vec::new();
    for (i, line) in po.get("lines")?.as_list("lines")?.iter().enumerate() {
        let at = ElementAt("lines", i);
        let rec = line.as_record(at)?;
        let line_no = rec
            .get("line_no")
            .ok_or_else(|| DocumentError::PathNotFound { path: format!("{at}.line_no") })?
            .as_int(at)?;
        let quantity = rec
            .get("quantity")
            .ok_or_else(|| DocumentError::PathNotFound { path: format!("{at}.quantity") })?
            .as_int(at)?;
        lines.push(record! {
            "line_no" => Value::Int(line_no),
            "status" => Value::text(status),
            "quantity" => Value::Int(quantity),
        });
    }
    let body = record! {
        "header" => record! {
            "po_number" => Value::text(&po_number),
            "buyer" => Value::text(&buyer),
            "seller" => Value::text(&seller),
            "ack_date" => Value::Date(ack_date),
            "status" => Value::text(status),
        },
        "lines" => Value::List(lines),
    };
    let doc = po.reply(DocKind::PurchaseOrderAck, FormatId::NORMALIZED, body);
    let violations = poa_schema().validate(&doc);
    if let Some(first) = violations.first() {
        return Err(DocumentError::Invalid {
            kind: "purchase-order-ack".into(),
            detail: first.to_string(),
        });
    }
    Ok(doc)
}

/// Recomputes the order total from the lines and compares it to `amount`.
pub fn check_total_consistency(po: &Document) -> Result<()> {
    let amount = po.get("amount")?.as_money("amount")?;
    let mut sum = Money::zero(amount.currency());
    for (i, line) in po.get("lines")?.as_list("lines")?.iter().enumerate() {
        let at = ElementAt("lines", i);
        let rec = line.as_record(at)?;
        let qty = rec
            .get("quantity")
            .ok_or_else(|| DocumentError::PathNotFound { path: format!("{at}.quantity") })?
            .as_int(at)?;
        let price = rec
            .get("unit_price")
            .ok_or_else(|| DocumentError::PathNotFound { path: format!("{at}.unit_price") })?
            .as_money(at)?;
        sum = sum.checked_add(price.checked_mul(qty)?)?;
    }
    if sum == amount {
        Ok(())
    } else {
        Err(DocumentError::Invalid {
            kind: "purchase-order".into(),
            detail: format!("amount {amount} does not match line total {sum}"),
        })
    }
}

/// A ready-made sample PO used widely in tests, examples, and benches.
pub fn sample_po(po_number: &str, amount_units: i64) -> Document {
    PoBuilder::new(
        po_number,
        "ACME Manufacturing",
        "Gadget Supply Co",
        Date::new(2001, 9, 17).expect("valid date"),
        Currency::Usd,
    )
    .requested_delivery(Date::new(2001, 10, 1).expect("valid date"))
    .line("LAPTOP-T23", amount_units, Money::from_units(1, Currency::Usd))
    .expect("same currency")
    .build()
    .expect("sample PO is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_po() {
        let po = PoBuilder::new(
            "4711",
            "buyer",
            "seller",
            Date::new(2001, 9, 17).unwrap(),
            Currency::Usd,
        )
        .line("WIDGET", 3, Money::from_units(100, Currency::Usd))
        .unwrap()
        .line("GADGET", 1, Money::from_units(50, Currency::Usd))
        .unwrap()
        .build()
        .unwrap();
        assert!(po_schema().accepts(&po));
        assert_eq!(
            po.get("amount").unwrap().as_money("amount").unwrap(),
            Money::from_units(350, Currency::Usd)
        );
        check_total_consistency(&po).unwrap();
    }

    #[test]
    fn builder_rejects_empty_order_and_mixed_currency() {
        let b = PoBuilder::new("1", "b", "s", Date::new(2001, 1, 1).unwrap(), Currency::Usd);
        assert!(b.clone().build().is_err());
        assert!(b.line("X", 1, Money::from_units(1, Currency::Eur)).is_err());
    }

    #[test]
    fn poa_answers_po_line_by_line() {
        let po = sample_po("4711", 12_000);
        let poa = build_poa(&po, "accepted", Date::new(2001, 9, 18).unwrap()).unwrap();
        assert!(poa_schema().accepts(&poa));
        assert_eq!(poa.correlation(), po.correlation());
        assert_eq!(poa.get("lines[0].quantity").unwrap().as_int("q").unwrap(), 12_000);
    }

    #[test]
    fn poa_rejects_bad_inputs() {
        let po = sample_po("4711", 10);
        assert!(build_poa(&po, "maybe", Date::new(2001, 1, 1).unwrap()).is_err());
        let poa = build_poa(&po, "accepted", Date::new(2001, 1, 1).unwrap()).unwrap();
        assert!(build_poa(&poa, "accepted", Date::new(2001, 1, 1).unwrap()).is_err());
    }

    #[test]
    fn total_consistency_detects_tampering() {
        let mut po = sample_po("4711", 10);
        po.set("amount", Value::Money(Money::from_units(999, Currency::Usd))).unwrap();
        assert!(check_total_consistency(&po).is_err());
    }

    #[test]
    fn rfq_and_quote_schemas_validate_their_builders() {
        let rfq = Document::new(
            DocKind::RequestForQuote,
            FormatId::NORMALIZED,
            CorrelationId::new("rfq:9"),
            record! {
                "header" => record! {
                    "rfq_number" => Value::text("9"),
                    "buyer" => Value::text("b"),
                    "item" => Value::text("LAPTOP"),
                    "quantity" => Value::Int(10),
                    "respond_by" => Value::Date(Date::new(2001, 10, 1).unwrap()),
                },
            },
        );
        assert!(rfq_schema().accepts(&rfq));
        let quote = rfq.reply(
            DocKind::Quote,
            FormatId::NORMALIZED,
            record! {
                "header" => record! {
                    "rfq_number" => Value::text("9"),
                    "seller" => Value::text("s"),
                    "unit_price" => Value::Money(Money::from_units(950, Currency::Usd)),
                    "valid_until" => Value::Date(Date::new(2001, 11, 1).unwrap()),
                },
            },
        );
        assert!(quote_schema().accepts(&quote));
    }

    #[test]
    fn a_mistyped_line_field_names_its_line() {
        let mut po = sample_po("4711", 10);
        po.set("lines[0].quantity", Value::text("ten")).unwrap();
        let expected = "expected int at `lines[0]`, found text";
        assert_eq!(check_total_consistency(&po).unwrap_err().to_string(), expected);
        let ack_date = Date::new(2001, 1, 1).unwrap();
        assert_eq!(build_poa(&po, "accepted", ack_date).unwrap_err().to_string(), expected);
    }
}
