//! Per-enterprise rule registry.
//!
//! Generic workflow steps name a rule function; the registry is the level
//! of indirection that keeps workflow types free of trading-partner
//! specifics (Section 4.3).
//!
//! Dispatch runs compiled programs ([`CompiledFunction`]), lowering each
//! function lazily on first invocation and caching the result. The tree
//! interpreter ([`RuleFunction::invoke`]) stays the reference the compiled
//! form is tested against; reach it through
//! [`function`](RuleRegistry::function). Lookups borrow the name end to
//! end: the miss path is the only place a `String` is
//! allocated, and callers that merely probe should use
//! [`function_exists`](RuleRegistry::function_exists) instead.

use crate::compiled::CompiledFunction;
use crate::error::{Result, RuleError};
use crate::expr::RuleContext;
use crate::rule::RuleFunction;
use b2b_document::{Document, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Registry of rule functions, keyed by name.
#[derive(Debug, Default)]
pub struct RuleRegistry {
    functions: BTreeMap<String, RuleFunction>,
    /// Lazily compiled functions. Interior mutability keeps compilation an
    /// implementation detail of `&self` dispatch; a `RwLock` (not a
    /// `RefCell`) because the sharded execute stage shares the registry
    /// across worker threads. Compilation is deterministic, so which
    /// thread compiles first never changes the result.
    compiled: RwLock<BTreeMap<String, Arc<CompiledFunction>>>,
}

impl Clone for RuleRegistry {
    fn clone(&self) -> Self {
        Self {
            functions: self.functions.clone(),
            compiled: RwLock::new(self.compiled_cache().clone()),
        }
    }
}

impl PartialEq for RuleRegistry {
    fn eq(&self, other: &Self) -> bool {
        // The compile cache is derived state; two registries with the same
        // functions are the same registry.
        self.functions == other.functions
    }
}

impl RuleRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a rule function, invalidating its compiled
    /// form.
    pub fn register(&mut self, function: RuleFunction) {
        self.compiled_cache_mut().remove(function.name.as_str());
        self.functions.insert(function.name.clone(), function);
    }

    /// Whether a function is registered — the allocation-free probe for
    /// callers that only branch on presence.
    pub fn function_exists(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Result<&RuleFunction> {
        self.functions
            .get(name)
            .ok_or_else(|| RuleError::UnknownFunction { function: name.to_string() })
    }

    /// Mutable lookup — used when business rules change (e.g. a new trading
    /// partner) without touching anything else. Drops the function's
    /// compiled form, since the caller may mutate its rules.
    pub fn function_mut(&mut self, name: &str) -> Result<&mut RuleFunction> {
        self.compiled_cache_mut().remove(name);
        self.functions
            .get_mut(name)
            .ok_or_else(|| RuleError::UnknownFunction { function: name.to_string() })
    }

    /// The compiled form of a function, lowering it on first use.
    pub fn compiled(&self, name: &str) -> Result<Arc<CompiledFunction>> {
        if let Some(hit) = self.compiled_cache().get(name) {
            return Ok(hit.clone());
        }
        let lowered = Arc::new(CompiledFunction::compile(self.function(name)?));
        let mut cache = self.compiled_cache_mut();
        // Another thread may have compiled meanwhile; keep the first entry
        // (both are identical — compilation is deterministic).
        Ok(cache.entry(name.to_string()).or_insert(lowered).clone())
    }

    /// Invokes a function with the paper's `(source, target, document)`
    /// calling convention.
    pub fn invoke(
        &self,
        name: &str,
        source: &str,
        target: &str,
        document: &Document,
    ) -> Result<Value> {
        self.compiled(name)?.invoke(&RuleContext::new(source, target, document))
    }

    /// Names of all registered functions (sorted).
    pub fn function_names(&self) -> Vec<&str> {
        self.functions.keys().map(String::as_str).collect()
    }

    /// Total number of rules across functions (model-size metrics).
    pub fn rule_count(&self) -> usize {
        self.functions.values().map(|f| f.rules.len()).sum()
    }

    /// Total AST size across functions (model-size metrics).
    pub fn node_count(&self) -> usize {
        self.functions.values().map(RuleFunction::node_count).sum()
    }

    /// Number of functions compiled so far (lazily populated).
    pub fn compiled_count(&self) -> usize {
        self.compiled_cache().len()
    }

    fn compiled_cache(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<CompiledFunction>>> {
        self.compiled.read().expect("rule compile cache poisoned")
    }

    fn compiled_cache_mut(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<CompiledFunction>>> {
        self.compiled.write().expect("rule compile cache poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::BusinessRule;
    use b2b_document::normalized::sample_po;

    #[test]
    fn registry_dispatches_by_name() {
        let mut reg = RuleRegistry::new();
        reg.register(
            RuleFunction::new("always-true")
                .with_rule(BusinessRule::parse("r", "true", "true").unwrap()),
        );
        let doc = sample_po("1", 1);
        assert_eq!(reg.invoke("always-true", "s", "t", &doc).unwrap(), Value::Bool(true));
        match reg.invoke("missing", "s", "t", &doc) {
            Err(RuleError::UnknownFunction { function }) => assert_eq!(function, "missing"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn counts_aggregate_over_functions() {
        let mut reg = RuleRegistry::new();
        reg.register(
            RuleFunction::new("a").with_rule(BusinessRule::parse("r1", "true", "1 + 1").unwrap()),
        );
        reg.register(
            RuleFunction::new("b")
                .with_rule(BusinessRule::parse("r2", "source == \"x\"", "true").unwrap()),
        );
        assert_eq!(reg.rule_count(), 2);
        assert_eq!(reg.function_names(), ["a", "b"]);
        assert!(reg.node_count() >= 7);
    }

    #[test]
    fn function_mut_allows_in_place_evolution() {
        let mut reg = RuleRegistry::new();
        reg.register(RuleFunction::new("f"));
        reg.function_mut("f").unwrap().add_rule(BusinessRule::parse("r", "true", "42").unwrap());
        let doc = sample_po("1", 1);
        assert_eq!(reg.invoke("f", "s", "t", &doc).unwrap(), Value::Int(42));
    }

    #[test]
    fn function_exists_probes_without_erroring() {
        let mut reg = RuleRegistry::new();
        assert!(!reg.function_exists("f"));
        reg.register(RuleFunction::new("f"));
        assert!(reg.function_exists("f"));
    }

    #[test]
    fn compilation_is_lazy_and_cached() {
        let mut reg = RuleRegistry::new();
        reg.register(
            RuleFunction::new("f").with_rule(BusinessRule::parse("r", "true", "1").unwrap()),
        );
        assert_eq!(reg.compiled_count(), 0, "nothing compiled before first use");
        let doc = sample_po("1", 1);
        reg.invoke("f", "s", "t", &doc).unwrap();
        assert_eq!(reg.compiled_count(), 1);
        reg.invoke("f", "s", "t", &doc).unwrap();
        assert_eq!(reg.compiled_count(), 1, "second dispatch reuses the cache");
        let a = reg.compiled("f").unwrap();
        let b = reg.compiled("f").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache returns the same compiled function");
    }

    #[test]
    fn register_and_function_mut_invalidate_the_compiled_form() {
        let mut reg = RuleRegistry::new();
        reg.register(
            RuleFunction::new("f").with_rule(BusinessRule::parse("r", "true", "1").unwrap()),
        );
        let doc = sample_po("1", 1);
        reg.invoke("f", "s", "t", &doc).unwrap();
        assert_eq!(reg.compiled_count(), 1);
        reg.function_mut("f").unwrap().add_rule(BusinessRule::parse("r2", "true", "2").unwrap());
        assert_eq!(reg.compiled_count(), 0, "mutable access drops the stale compilation");
        assert_eq!(reg.invoke("f", "s", "t", &doc).unwrap(), Value::Int(1));
        reg.register(
            RuleFunction::new("f").with_rule(BusinessRule::parse("r", "true", "3").unwrap()),
        );
        assert_eq!(reg.compiled_count(), 0, "re-registering drops the stale compilation");
        assert_eq!(reg.invoke("f", "s", "t", &doc).unwrap(), Value::Int(3));
    }

    #[test]
    fn interpreted_and_compiled_dispatch_agree() {
        let mut reg = RuleRegistry::new();
        reg.register(RuleFunction::new("approval").with_rule(
            BusinessRule::parse("r1", "source == \"TP1\"", "document.amount >= 55000").unwrap(),
        ));
        let doc = sample_po("1", 60_000);
        for source in ["TP1", "TP9"] {
            let interpreted =
                reg.function("approval").unwrap().invoke(&RuleContext::new(source, "SAP", &doc));
            assert_eq!(reg.invoke("approval", source, "SAP", &doc), interpreted, "{source}");
        }
    }
}
