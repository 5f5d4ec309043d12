//! Per-enterprise rule registry.
//!
//! Generic workflow steps name a rule function; the registry is the level
//! of indirection that keeps workflow types free of trading-partner
//! specifics (Section 4.3).
//!
//! Dispatch runs the tree interpreter ([`RuleFunction::invoke`]), the same
//! evaluator workflow guards run on. Lookups borrow the name end to end:
//! the miss path is the only place a `String` is allocated, and callers
//! that merely probe should use
//! [`function_exists`](RuleRegistry::function_exists) instead.

use crate::error::{Result, RuleError};
use crate::expr::RuleContext;
use crate::rule::RuleFunction;
use b2b_document::{Document, Value};
use std::collections::BTreeMap;

/// Registry of rule functions, keyed by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RuleRegistry {
    functions: BTreeMap<String, RuleFunction>,
}

impl RuleRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a rule function.
    pub fn register(&mut self, function: RuleFunction) {
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
    /// partner) without touching anything else.
    pub fn function_mut(&mut self, name: &str) -> Result<&mut RuleFunction> {
        self.functions
            .get_mut(name)
            .ok_or_else(|| RuleError::UnknownFunction { function: name.to_string() })
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
        self.function(name)?.invoke(&RuleContext::new(source, target, document))
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
}
