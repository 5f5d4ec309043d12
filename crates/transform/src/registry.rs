//! The transformation registry bindings resolve against.

use crate::context::TransformContext;
use crate::error::{Result, TransformError};
use crate::program::TransformProgram;
use b2b_document::{DocKind, Document, FormatId};

/// Registry of transformation programs keyed by
/// (source format, target format, document kind).
///
/// Dispatch looks the program up and runs its rules
/// ([`TransformProgram::apply`]); nothing is derived from a program, so
/// re-registering one replaces what dispatch runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransformRegistry {
    /// Sorted by (kind, source, target): the one-byte kind decides most
    /// probes before a format string is compared, and a lookup borrows
    /// its key, so it never allocates.
    programs: Vec<TransformProgram>,
}

impl TransformRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with all built-in programs (every wire and
    /// back-end format to and from the normalized format).
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        for program in crate::builtin::all_builtins() {
            reg.register(program);
        }
        reg
    }

    /// Registers a program, replacing any registered for the same
    /// conversion.
    pub fn register(&mut self, program: TransformProgram) {
        match self.position(program.source_format(), program.target_format(), program.kind()) {
            Ok(i) => self.programs[i] = program,
            Err(i) => self.programs.insert(i, program),
        }
    }

    /// Looks up the program for a conversion.
    pub fn program(
        &self,
        source: &FormatId,
        target: &FormatId,
        kind: DocKind,
    ) -> Result<&TransformProgram> {
        match self.position(source, target, kind) {
            Ok(i) => Ok(&self.programs[i]),
            Err(_) => Err(TransformError::NoProgram {
                source: source.to_string(),
                target: target.to_string(),
                kind: kind.to_string(),
            }),
        }
    }

    /// Transforms a document into `target` format, dispatching on the
    /// document's own format and kind.
    pub fn transform(
        &self,
        doc: &Document,
        target: &FormatId,
        ctx: &TransformContext,
    ) -> Result<Document> {
        self.program(doc.format(), target, doc.kind())?.apply(doc, ctx)
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Total rule count across programs (model-size metrics).
    pub fn total_rule_count(&self) -> usize {
        self.programs.iter().map(TransformProgram::rule_count).sum()
    }

    fn position(
        &self,
        source: &FormatId,
        target: &FormatId,
        kind: DocKind,
    ) -> std::result::Result<usize, usize> {
        self.programs.binary_search_by(|p| {
            p.kind()
                .cmp(&kind)
                .then_with(|| p.source_format().as_str().cmp(source.as_str()))
                .then_with(|| p.target_format().as_str().cmp(target.as_str()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingRule;
    use b2b_document::formats::sample_edi_po;
    use b2b_document::{record, Value};

    #[test]
    fn builtins_cover_all_format_pairs() {
        let reg = TransformRegistry::with_builtins();
        let wire_formats = [
            FormatId::EDI_X12,
            FormatId::ROSETTANET,
            FormatId::OAGIS,
            FormatId::SAP_IDOC,
            FormatId::ORACLE_APPS,
            FormatId::BINARY,
        ];
        for f in &wire_formats {
            for kind in [DocKind::PurchaseOrder, DocKind::PurchaseOrderAck] {
                assert!(reg.program(f, &FormatId::NORMALIZED, kind).is_ok(), "{f} -> norm {kind}");
                assert!(reg.program(&FormatId::NORMALIZED, f, kind).is_ok(), "norm -> {f} {kind}");
            }
        }
        for f in [FormatId::ROSETTANET, FormatId::BINARY] {
            for kind in [DocKind::RequestForQuote, DocKind::Quote] {
                assert!(reg.program(&f, &FormatId::NORMALIZED, kind).is_ok(), "{f} -> norm {kind}");
                assert!(reg.program(&FormatId::NORMALIZED, &f, kind).is_ok(), "norm -> {f} {kind}");
            }
        }
        assert_eq!(reg.len(), 32);
    }

    #[test]
    fn missing_program_is_reported() {
        let reg = TransformRegistry::new();
        let doc = sample_edi_po("1", 5);
        match reg.transform(&doc, &FormatId::NORMALIZED, &TransformContext::default()) {
            Err(TransformError::NoProgram { source, .. }) => assert_eq!(source, "edi-x12"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn re_registering_a_program_replaces_what_dispatch_runs() {
        let mut reg = TransformRegistry::with_builtins();
        let doc = sample_edi_po("3", 1);
        let ctx = TransformContext::default();
        assert!(reg.transform(&doc, &FormatId::NORMALIZED, &ctx).unwrap().get("po").is_err());
        reg.register(TransformProgram::new(
            DocKind::PurchaseOrder,
            FormatId::EDI_X12,
            FormatId::NORMALIZED,
            vec![MappingRule::mv("BEG.BEG03", "po")],
        ));
        assert_eq!(reg.len(), 32, "replaced, not added");
        let out = reg.transform(&doc, &FormatId::NORMALIZED, &ctx).unwrap();
        assert_eq!(out.body(), &record! { "po" => Value::text("3") });
    }
}
