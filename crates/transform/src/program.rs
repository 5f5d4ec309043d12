//! Transformation programs.

use crate::context::TransformContext;
use crate::error::{Result, TransformError};
use crate::mapping::MappingRule;
use b2b_document::{DocKind, Document, FieldVec, FormatId, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a transformation program.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TransformId(String);

impl TransformId {
    /// Conventional id: `<kind>:<source>-><target>`.
    pub fn conventional(kind: DocKind, source: &FormatId, target: &FormatId) -> Self {
        Self(format!("{kind}:{source}->{target}"))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TransformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An ordered list of mapping rules converting documents of one kind
/// between two formats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformProgram {
    id: TransformId,
    kind: DocKind,
    source_format: FormatId,
    target_format: FormatId,
    rules: Vec<MappingRule>,
}

impl TransformProgram {
    /// Builds a program with the conventional id.
    pub fn new(
        kind: DocKind,
        source_format: FormatId,
        target_format: FormatId,
        rules: Vec<MappingRule>,
    ) -> Self {
        Self {
            id: TransformId::conventional(kind, &source_format, &target_format),
            kind,
            source_format,
            target_format,
            rules,
        }
    }

    /// Program id.
    pub fn id(&self) -> &TransformId {
        &self.id
    }

    /// Document kind handled.
    pub fn kind(&self) -> DocKind {
        self.kind
    }

    /// Source format.
    pub fn source_format(&self) -> &FormatId {
        &self.source_format
    }

    /// Target format.
    pub fn target_format(&self) -> &FormatId {
        &self.target_format
    }

    /// The mapping rules.
    pub fn rules(&self) -> &[MappingRule] {
        &self.rules
    }

    /// Number of rules (model-size metrics).
    pub fn rule_count(&self) -> usize {
        fn count(rules: &[MappingRule]) -> usize {
            rules
                .iter()
                .map(|r| match r {
                    MappingRule::ForEach { rules, .. } | MappingRule::Append { rules, .. } => {
                        1 + count(rules)
                    }
                    _ => 1,
                })
                .sum()
        }
        count(&self.rules)
    }

    /// Applies the program: builds a fresh body in the target shape and
    /// returns the document re-tagged with the target format. Identity,
    /// correlation, and kind are preserved.
    pub fn apply(&self, doc: &Document, ctx: &TransformContext) -> Result<Document> {
        if doc.format() != &self.source_format {
            return Err(TransformError::WrongInput {
                program: self.id.to_string(),
                reason: format!("expected format {}, got {}", self.source_format, doc.format()),
            });
        }
        if doc.kind() != self.kind {
            return Err(TransformError::WrongInput {
                program: self.id.to_string(),
                reason: format!("expected kind {}, got {}", self.kind, doc.kind()),
            });
        }
        // Each top-level rule sets at most one root field.
        let mut target = Value::Record(FieldVec::with_capacity(self.rules.len()));
        for rule in &self.rules {
            rule.apply(self.id.as_str(), doc.body(), &mut target, ctx)?;
        }
        Ok(doc.reformatted(self.target_format.clone(), target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextKey;
    use b2b_document::normalized::sample_po;
    use b2b_document::{record, CorrelationId, FieldPath};

    #[test]
    fn apply_checks_input_format_and_kind() {
        let program = TransformProgram::new(
            DocKind::PurchaseOrder,
            FormatId::EDI_X12,
            FormatId::NORMALIZED,
            vec![],
        );
        let doc = sample_po("1", 10);
        match program.apply(&doc, &TransformContext::default()) {
            Err(TransformError::WrongInput { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn apply_retags_and_preserves_identity() {
        let program = TransformProgram::new(
            DocKind::PurchaseOrder,
            FormatId::NORMALIZED,
            FormatId::custom("flat"),
            vec![MappingRule::mv("header.po_number", "po")],
        );
        let doc = sample_po("4711", 10);
        let out = program.apply(&doc, &TransformContext::default()).unwrap();
        assert_eq!(out.format(), &FormatId::custom("flat"));
        assert_eq!(out.id(), doc.id());
        assert_eq!(out.correlation(), doc.correlation());
        assert_eq!(out.get("po").unwrap(), doc.get("header.po_number").unwrap());
    }

    fn to_flat(rules: Vec<MappingRule>) -> TransformProgram {
        TransformProgram::new(
            DocKind::PurchaseOrder,
            FormatId::NORMALIZED,
            FormatId::custom("flat"),
            rules,
        )
    }

    #[test]
    fn a_later_write_lands_in_what_an_optional_move_left() {
        let po = sample_po("1", 5);
        let ctx = TransformContext::default();
        // Source present: `x` becomes the header record, then gains `y.z`.
        let overwrites = to_flat(vec![
            MappingRule::const_text("x.y.z", "first"),
            MappingRule::mv_opt("header", "x"),
            MappingRule::const_text("x.y.z", "second"),
        ]);
        let mut x = po.get("header").unwrap().clone();
        FieldPath::parse("y.z").unwrap().set(&mut x, Value::text("second")).unwrap();
        assert_eq!(overwrites.apply(&po, &ctx).unwrap().body(), &record! { "x" => x });
        // Source missing: the move writes nothing.
        let skips = to_flat(vec![
            MappingRule::const_text("x.y.z", "first"),
            MappingRule::mv_opt("header.missing", "x"),
            MappingRule::const_text("x.y.z", "second"),
        ]);
        assert_eq!(
            skips.apply(&po, &ctx).unwrap().body(),
            &record! { "x" => record! { "y" => record! { "z" => Value::text("second") } } }
        );
    }

    #[test]
    fn appends_and_for_each_build_their_lists() {
        let source = record! {
            "buyer" => Value::text("B"),
            "seller" => Value::text("S"),
            "lines" => Value::List(vec![
                record! { "q" => Value::Int(1) },
                record! { "q" => Value::Int(2) },
            ]),
        };
        let doc = Document::new(
            DocKind::PurchaseOrder,
            FormatId::NORMALIZED,
            CorrelationId::new("c-1"),
            source,
        );
        let program = to_flat(vec![
            MappingRule::append(
                "n1",
                vec![MappingRule::const_text("code", "BY"), MappingRule::mv("buyer", "name")],
            ),
            MappingRule::append(
                "n1",
                vec![MappingRule::const_text("code", "SE"), MappingRule::mv("seller", "name")],
            ),
            MappingRule::for_each("lines", "items", vec![MappingRule::mv("q", "qty")]),
            MappingRule::context("env.sender", ContextKey::Sender),
        ]);
        let ctx = TransformContext::new("ACME", "GADGET", "000000007", "i-7");
        let party = |code: &str, name: &str| {
            record! { "code" => Value::text(code), "name" => Value::text(name) }
        };
        assert_eq!(
            program.apply(&doc, &ctx).unwrap().body(),
            &record! {
                "env" => record! { "sender" => Value::text("ACME") },
                "items" => Value::List(vec![
                    record! { "qty" => Value::Int(1) },
                    record! { "qty" => Value::Int(2) },
                ]),
                "n1" => Value::List(vec![party("BY", "B"), party("SE", "S")]),
            }
        );
    }

    #[test]
    fn rule_count_descends_into_nesting() {
        let program = TransformProgram::new(
            DocKind::PurchaseOrder,
            FormatId::NORMALIZED,
            FormatId::custom("x"),
            vec![
                MappingRule::mv("a", "b"),
                MappingRule::for_each("lines", "items", vec![MappingRule::mv("q", "qty")]),
            ],
        );
        assert_eq!(program.rule_count(), 3);
    }

    #[test]
    fn conventional_ids_are_stable() {
        let id = TransformId::conventional(
            DocKind::PurchaseOrder,
            &FormatId::EDI_X12,
            &FormatId::NORMALIZED,
        );
        assert_eq!(id.as_str(), "purchase-order:edi-x12->normalized");
    }
}
