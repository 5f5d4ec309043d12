//! The transformation registry bindings resolve against.

use crate::compiled::CompiledProgram;
use crate::context::TransformContext;
use crate::error::{Result, TransformError};
use crate::program::TransformProgram;
use b2b_document::{DocKind, Document, FormatId};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Registry key: (source format, target format, document kind).
type Key = (FormatId, FormatId, DocKind);

/// Registry of transformation programs keyed by
/// (source format, target format, document kind).
///
/// Dispatch runs compiled programs ([`CompiledProgram`]), lowering each
/// program lazily on first use and caching the result. The rule-tree
/// interpreter ([`TransformProgram::apply`]) stays the reference the
/// compiled form is tested against; reach it through
/// [`program`](Self::program).
#[derive(Debug, Default)]
pub struct TransformRegistry {
    programs: BTreeMap<Key, TransformProgram>,
    /// Lazily compiled programs, kept as a flat slice sorted by
    /// (kind, source, target) — the cheap `DocKind` discriminant decides
    /// most probes before any format string is compared, and dispatch is
    /// one binary search with no per-comparison indirection. Interior
    /// mutability keeps compilation an implementation detail of `&self`
    /// dispatch; a `RwLock` (not a `RefCell`) keeps the registry `Sync`,
    /// so threads can share it. Compilation is deterministic, so which
    /// thread compiles first never changes the result.
    compiled: RwLock<Vec<(Key, Arc<CompiledProgram>)>>,
}

/// Dispatch order of the compiled slice: kind first (one byte decides),
/// then the two format ids by content.
fn dispatch_cmp(key: &Key, source: &FormatId, target: &FormatId, kind: DocKind) -> Ordering {
    key.2
        .cmp(&kind)
        .then_with(|| key.0.as_str().cmp(source.as_str()))
        .then_with(|| key.1.as_str().cmp(target.as_str()))
}

impl Clone for TransformRegistry {
    fn clone(&self) -> Self {
        Self {
            programs: self.programs.clone(),
            compiled: RwLock::new(self.compiled_cache().clone()),
        }
    }
}

impl PartialEq for TransformRegistry {
    fn eq(&self, other: &Self) -> bool {
        // The compile cache is derived state; two registries with the same
        // programs are the same registry.
        self.programs == other.programs
    }
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

    /// Registers (or replaces) a program, invalidating its compiled form.
    pub fn register(&mut self, program: TransformProgram) {
        let key =
            (program.source_format().clone(), program.target_format().clone(), program.kind());
        let mut cache = self.compiled_cache_mut();
        if let Ok(i) = cache.binary_search_by(|(k, _)| dispatch_cmp(k, &key.0, &key.1, key.2)) {
            cache.remove(i);
        }
        drop(cache);
        self.programs.insert(key, program);
    }

    /// Looks up the program for a conversion. Runs on a first-use
    /// compile, not per document; a builtin `FormatId` clones without
    /// allocating.
    pub fn program(
        &self,
        source: &FormatId,
        target: &FormatId,
        kind: DocKind,
    ) -> Result<&TransformProgram> {
        self.programs.get(&(source.clone(), target.clone(), kind)).ok_or_else(|| {
            TransformError::NoProgram {
                source: source.to_string(),
                target: target.to_string(),
                kind: kind.to_string(),
            }
        })
    }

    /// The compiled form of a program, lowering it on first use.
    pub fn compiled(
        &self,
        source: &FormatId,
        target: &FormatId,
        kind: DocKind,
    ) -> Result<Arc<CompiledProgram>> {
        {
            let cache = self.compiled_cache();
            if let Ok(i) = cache.binary_search_by(|(k, _)| dispatch_cmp(k, source, target, kind)) {
                return Ok(cache[i].1.clone());
            }
        }
        let lowered = Arc::new(CompiledProgram::compile(self.program(source, target, kind)?));
        let mut cache = self.compiled_cache_mut();
        // Another thread may have compiled meanwhile; keep the first entry
        // (both are identical — compilation is deterministic).
        match cache.binary_search_by(|(k, _)| dispatch_cmp(k, source, target, kind)) {
            Ok(i) => Ok(cache[i].1.clone()),
            Err(i) => {
                cache.insert(i, ((source.clone(), target.clone(), kind), lowered.clone()));
                Ok(lowered)
            }
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
        // Steady-state dispatch: run the program while holding the read
        // guard — no `Arc` refcount traffic, no key clones. Writers only
        // appear on first-use compilation and re-registration.
        {
            let cache = self.compiled_cache();
            if let Ok(i) =
                cache.binary_search_by(|(k, _)| dispatch_cmp(k, doc.format(), target, doc.kind()))
            {
                return cache[i].1.apply(doc, ctx);
            }
        }
        self.compiled(doc.format(), target, doc.kind())?.apply(doc, ctx)
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Number of programs compiled so far (lazily populated).
    pub fn compiled_count(&self) -> usize {
        self.compiled_cache().len()
    }

    /// Total rule count across programs (model-size metrics).
    pub fn total_rule_count(&self) -> usize {
        self.programs.values().map(TransformProgram::rule_count).sum()
    }

    fn compiled_cache(&self) -> std::sync::RwLockReadGuard<'_, Vec<(Key, Arc<CompiledProgram>)>> {
        self.compiled.read().expect("transform compile cache poisoned")
    }

    fn compiled_cache_mut(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, Vec<(Key, Arc<CompiledProgram>)>> {
        self.compiled.write().expect("transform compile cache poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::formats::sample_edi_po;

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
    fn compilation_is_lazy_and_cached() {
        let reg = TransformRegistry::with_builtins();
        assert_eq!(reg.compiled_count(), 0, "nothing compiled before first use");
        let doc = sample_edi_po("2", 1);
        let ctx = TransformContext::default();
        reg.transform(&doc, &FormatId::NORMALIZED, &ctx).unwrap();
        assert_eq!(reg.compiled_count(), 1);
        reg.transform(&doc, &FormatId::NORMALIZED, &ctx).unwrap();
        assert_eq!(reg.compiled_count(), 1, "second dispatch reuses the cache");
        let a = reg
            .compiled(&FormatId::EDI_X12, &FormatId::NORMALIZED, DocKind::PurchaseOrder)
            .unwrap();
        let b = reg
            .compiled(&FormatId::EDI_X12, &FormatId::NORMALIZED, DocKind::PurchaseOrder)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache returns the same compiled program");
    }

    #[test]
    fn register_invalidates_the_compiled_form() {
        let mut reg = TransformRegistry::with_builtins();
        let doc = sample_edi_po("3", 1);
        let ctx = TransformContext::default();
        reg.transform(&doc, &FormatId::NORMALIZED, &ctx).unwrap();
        assert_eq!(reg.compiled_count(), 1);
        let program = reg
            .program(&FormatId::EDI_X12, &FormatId::NORMALIZED, DocKind::PurchaseOrder)
            .unwrap()
            .clone();
        reg.register(program);
        assert_eq!(reg.compiled_count(), 0, "re-registering drops the stale compilation");
    }

    #[test]
    fn interpreted_and_compiled_dispatch_agree() {
        let reg = TransformRegistry::with_builtins();
        let doc = sample_edi_po("4", 7);
        let ctx = TransformContext::new("A", "B", "000000001", "i-1");
        let compiled = reg.transform(&doc, &FormatId::NORMALIZED, &ctx).unwrap();
        let interpreted = reg
            .program(&FormatId::EDI_X12, &FormatId::NORMALIZED, DocKind::PurchaseOrder)
            .unwrap()
            .apply(&doc, &ctx)
            .unwrap();
        assert_eq!(compiled, interpreted);
    }
}
