//! Document schemas and validation.
//!
//! Only the normalized format has schemas (`normalized::po_schema` and
//! `normalized::poa_schema`), and nothing validates at a boundary: the
//! callers of [`Schema::validate`] are `normalized::PoBuilder::build`
//! and `normalized::build_poa`, which check what they build, and tests,
//! which check what the mapping programs produce. A malformed partner
//! message is rejected by its codec or by a mapping rule, not by a
//! schema.

use crate::document::{DocKind, Document};
use crate::formats::FormatId;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The type a field must have.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TypeSpec {
    /// Boolean.
    Bool,
    /// Integer.
    Int,
    /// Money amount.
    Money,
    /// Text; optionally restricted to an enumeration of codes.
    Text { one_of: Option<Vec<String>> },
    /// Calendar date.
    Date,
    /// Homogeneous list with element type and an optional minimum length.
    List { element: Box<TypeSpec>, min_len: usize },
    /// Nested record.
    Record(Vec<FieldSpec>),
}

impl TypeSpec {
    /// Unrestricted text.
    pub fn text() -> Self {
        Self::Text { one_of: None }
    }

    /// Text restricted to one of the given codes.
    pub fn code(values: &[&str]) -> Self {
        Self::Text { one_of: Some(values.iter().map(|s| s.to_string()).collect()) }
    }

    /// List of `element` requiring at least `min_len` entries.
    pub fn list(element: TypeSpec, min_len: usize) -> Self {
        Self::List { element: Box::new(element), min_len }
    }
}

/// A named field inside a record schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Field name.
    pub name: String,
    /// Required type.
    pub ty: TypeSpec,
    /// Whether the field must be present.
    pub required: bool,
}

impl FieldSpec {
    /// A required field.
    pub fn required(name: &str, ty: TypeSpec) -> Self {
        Self { name: name.to_string(), ty, required: true }
    }

    /// An optional field.
    pub fn optional(name: &str, ty: TypeSpec) -> Self {
        Self { name: name.to_string(), ty, required: false }
    }
}

/// A schema for one (format, kind) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    format: FormatId,
    kind: DocKind,
    root: Vec<FieldSpec>,
    allow_extra: bool,
}

/// One validation problem, with the path where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Dotted path of the offending location.
    pub at: String,
    /// Human-readable description.
    pub problem: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.at, self.problem)
    }
}

impl Schema {
    /// Creates a schema; `allow_extra` permits fields beyond those listed
    /// (back-end formats are open, the normalized format is closed).
    pub fn new(format: FormatId, kind: DocKind, root: Vec<FieldSpec>, allow_extra: bool) -> Self {
        Self { format, kind, root, allow_extra }
    }

    /// Format this schema belongs to.
    pub fn format(&self) -> &FormatId {
        &self.format
    }

    /// Document kind this schema describes.
    pub fn kind(&self) -> DocKind {
        self.kind
    }

    /// Top-level fields.
    pub fn fields(&self) -> &[FieldSpec] {
        &self.root
    }

    /// Validates a document; the result lists *all* violations found.
    pub fn validate(&self, doc: &Document) -> Vec<Violation> {
        let mut out = Vec::new();
        if doc.kind() != self.kind {
            out.push(Violation {
                at: "$".into(),
                problem: format!("kind is {}, schema expects {}", doc.kind(), self.kind),
            });
        }
        if doc.format() != &self.format {
            out.push(Violation {
                at: "$".into(),
                problem: format!("format is {}, schema expects {}", doc.format(), self.format),
            });
        }
        check_record(&self.root, self.allow_extra, doc.body(), "$", &mut out);
        out
    }

    /// `true` when the document has no violations.
    pub fn accepts(&self, doc: &Document) -> bool {
        self.validate(doc).is_empty()
    }
}

fn check_record(
    specs: &[FieldSpec],
    allow_extra: bool,
    value: &Value,
    at: &str,
    out: &mut Vec<Violation>,
) {
    let Value::Record(fields) = value else {
        out.push(Violation {
            at: at.to_string(),
            problem: format!("expected record, found {}", value.type_name()),
        });
        return;
    };
    for spec in specs {
        let child_at = format!("{at}.{}", spec.name);
        match fields.get(&spec.name) {
            Some(v) => check_type(&spec.ty, v, &child_at, out),
            None if spec.required => {
                out.push(Violation { at: child_at, problem: "required field missing".into() })
            }
            None => {}
        }
    }
    if !allow_extra {
        for name in fields.keys() {
            if !specs.iter().any(|s| s.name == name.as_str()) {
                out.push(Violation {
                    at: format!("{at}.{name}"),
                    problem: "field not allowed by schema".into(),
                });
            }
        }
    }
}

fn check_type(ty: &TypeSpec, value: &Value, at: &str, out: &mut Vec<Violation>) {
    match (ty, value) {
        (TypeSpec::Bool, Value::Bool(_))
        | (TypeSpec::Int, Value::Int(_))
        | (TypeSpec::Money, Value::Money(_))
        | (TypeSpec::Date, Value::Date(_)) => {}
        (TypeSpec::Text { one_of }, Value::Text(s)) => {
            if let Some(allowed) = one_of {
                if !allowed.iter().any(|a| a == s) {
                    out.push(Violation {
                        at: at.to_string(),
                        problem: format!("`{s}` is not one of {allowed:?}"),
                    });
                }
            }
        }
        (TypeSpec::List { element, min_len }, Value::List(items)) => {
            if items.len() < *min_len {
                out.push(Violation {
                    at: at.to_string(),
                    problem: format!("list has {} entries, minimum is {min_len}", items.len()),
                });
            }
            for (i, item) in items.iter().enumerate() {
                check_type(element, item, &format!("{at}[{i}]"), out);
            }
        }
        (TypeSpec::Record(specs), v) => check_record(specs, false, v, at, out),
        (expected, found) => out.push(Violation {
            at: at.to_string(),
            problem: format!("expected {}, found {}", type_spec_name(expected), found.type_name()),
        }),
    }
}

fn type_spec_name(ty: &TypeSpec) -> &'static str {
    match ty {
        TypeSpec::Bool => "bool",
        TypeSpec::Int => "int",
        TypeSpec::Money => "money",
        TypeSpec::Text { .. } => "text",
        TypeSpec::Date => "date",
        TypeSpec::List { .. } => "list",
        TypeSpec::Record(_) => "record",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CorrelationId;
    use crate::record;

    fn schema() -> Schema {
        Schema::new(
            FormatId::NORMALIZED,
            DocKind::PurchaseOrder,
            vec![
                FieldSpec::required(
                    "header",
                    TypeSpec::Record(vec![
                        FieldSpec::required("po_number", TypeSpec::text()),
                        FieldSpec::optional("note", TypeSpec::text()),
                    ]),
                ),
                FieldSpec::required(
                    "lines",
                    TypeSpec::list(
                        TypeSpec::Record(vec![FieldSpec::required("qty", TypeSpec::Int)]),
                        1,
                    ),
                ),
                FieldSpec::optional("status", TypeSpec::code(&["open", "closed"])),
            ],
            false,
        )
    }

    fn doc(body: Value) -> Document {
        Document::new(DocKind::PurchaseOrder, FormatId::NORMALIZED, CorrelationId::new("c"), body)
    }

    #[test]
    fn valid_document_passes() {
        let d = doc(record! {
            "header" => record! { "po_number" => Value::text("1") },
            "lines" => Value::List(vec![record! { "qty" => Value::Int(1) }]),
        });
        assert!(schema().accepts(&d), "{:?}", schema().validate(&d));
    }

    #[test]
    fn missing_required_field_reported_with_path() {
        let d = doc(record! {
            "header" => Value::record(),
            "lines" => Value::List(vec![record! { "qty" => Value::Int(1) }]),
        });
        let violations = schema().validate(&d);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].at, "$.header.po_number");
    }

    #[test]
    fn wrong_types_and_short_lists_reported() {
        let d = doc(record! {
            "header" => record! { "po_number" => Value::Int(1) },
            "lines" => Value::List(vec![]),
        });
        let violations = schema().validate(&d);
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn code_enumeration_enforced() {
        let d = doc(record! {
            "header" => record! { "po_number" => Value::text("1") },
            "lines" => Value::List(vec![record! { "qty" => Value::Int(1) }]),
            "status" => Value::text("weird"),
        });
        let violations = schema().validate(&d);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].problem.contains("weird"));
    }

    #[test]
    fn extra_fields_rejected_when_closed() {
        let d = doc(record! {
            "header" => record! { "po_number" => Value::text("1") },
            "lines" => Value::List(vec![record! { "qty" => Value::Int(1) }]),
            "surprise" => Value::Bool(true),
        });
        let violations = schema().validate(&d);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].at, "$.surprise");
    }

    #[test]
    fn kind_and_format_mismatch_reported() {
        let d = Document::new(
            DocKind::Invoice,
            FormatId::EDI_X12,
            CorrelationId::new("c"),
            Value::record(),
        );
        let violations = schema().validate(&d);
        assert!(violations.iter().any(|v| v.problem.contains("kind")));
        assert!(violations.iter().any(|v| v.problem.contains("format")));
    }
}
