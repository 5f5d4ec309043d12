//! Guarded business rules and rule functions.

use crate::error::{Result, RuleError};
use crate::expr::{Expr, RuleContext};
use b2b_document::Value;
use serde::{Deserialize, Serialize};

/// One business rule: a guard over `(source, target, document)` plus the
/// value to return when the guard matches.
///
/// This mirrors the paper's `check-need-for-approval` pseudo-code, where
/// each `if target == … and source == …` block is one rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusinessRule {
    /// Human-readable rule name (e.g. `"business rule 1"`).
    pub name: String,
    /// When this rule applies.
    pub guard: Expr,
    /// What it returns when it applies.
    pub body: Expr,
}

impl BusinessRule {
    /// Parses a rule from guard and body source text.
    pub fn parse(name: &str, guard: &str, body: &str) -> Result<Self> {
        Ok(Self { name: name.to_string(), guard: Expr::parse(guard)?, body: Expr::parse(body)? })
    }

    /// AST size of guard plus body (model-size metrics).
    pub fn node_count(&self) -> usize {
        self.guard.node_count() + self.body.node_count()
    }
}

/// A named collection of rules evaluated first-match-wins, with the
/// paper's explicit error case when nothing matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleFunction {
    /// Function name workflow steps bind to (e.g. `check-need-for-approval`).
    pub name: String,
    /// Rules in evaluation order.
    pub rules: Vec<BusinessRule>,
}

impl RuleFunction {
    /// An empty function.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), rules: Vec::new() }
    }

    /// Appends a rule, builder style.
    pub fn with_rule(mut self, rule: BusinessRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Appends a rule in place (used when a new trading partner is added —
    /// the paper's point is that *only this* changes).
    pub fn add_rule(&mut self, rule: BusinessRule) {
        self.rules.push(rule);
    }

    /// Removes all rules whose guard mentions are managed under `name`;
    /// returns how many were removed.
    pub fn remove_rules_named(&mut self, name: &str) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| r.name != name);
        before - self.rules.len()
    }

    /// Evaluates the function: the body of the first rule whose guard holds,
    /// or [`RuleError::NoRuleApplies`].
    pub fn invoke(&self, ctx: &RuleContext<'_>) -> Result<Value> {
        for rule in &self.rules {
            if rule.guard.eval_bool(ctx)? {
                return rule.body.eval(ctx);
            }
        }
        Err(RuleError::NoRuleApplies {
            function: self.name.clone(),
            source: ctx.source.to_string(),
            target: ctx.target.to_string(),
        })
    }

    /// Total AST size across rules (model-size metrics).
    pub fn node_count(&self) -> usize {
        self.rules.iter().map(BusinessRule::node_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::normalized::sample_po;

    fn approval_function() -> RuleFunction {
        RuleFunction::new("check-need-for-approval")
            .with_rule(
                BusinessRule::parse(
                    "business rule 1",
                    "target == \"SAP\" and source == \"TP1\"",
                    "document.amount >= 55000",
                )
                .unwrap(),
            )
            .with_rule(
                BusinessRule::parse(
                    "business rule 2",
                    "target == \"SAP\" and source == \"TP2\"",
                    "document.amount >= 40000",
                )
                .unwrap(),
            )
    }

    #[test]
    fn first_matching_rule_wins() {
        let f = approval_function();
        let doc = sample_po("1", 45_000);
        assert_eq!(
            f.invoke(&RuleContext::new("TP1", "SAP", &doc)).unwrap(),
            Value::Bool(false),
            "TP1 threshold is 55000"
        );
        assert_eq!(
            f.invoke(&RuleContext::new("TP2", "SAP", &doc)).unwrap(),
            Value::Bool(true),
            "TP2 threshold is 40000"
        );
    }

    #[test]
    fn no_rule_applies_is_the_error_case() {
        let f = approval_function();
        let doc = sample_po("1", 45_000);
        match f.invoke(&RuleContext::new("TP9", "SAP", &doc)) {
            Err(RuleError::NoRuleApplies { function, source, .. }) => {
                assert_eq!(function, "check-need-for-approval");
                assert_eq!(source, "TP9");
            }
            other => panic!("expected NoRuleApplies, got {other:?}"),
        }
    }

    #[test]
    fn adding_a_partner_is_one_rule_append() {
        let mut f = approval_function();
        let before = f.rules.len();
        f.add_rule(
            BusinessRule::parse(
                "business rule TP3",
                "source == \"TP3\"",
                "document.amount >= 10000",
            )
            .unwrap(),
        );
        assert_eq!(f.rules.len(), before + 1);
        let doc = sample_po("1", 12_000);
        assert_eq!(f.invoke(&RuleContext::new("TP3", "SAP", &doc)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn removing_a_partner_restores_the_error_case() {
        let mut f = approval_function();
        assert_eq!(f.remove_rules_named("business rule 2"), 1);
        let doc = sample_po("1", 45_000);
        assert!(f.invoke(&RuleContext::new("TP2", "SAP", &doc)).is_err());
        assert_eq!(f.remove_rules_named("business rule 2"), 0);
    }

    #[test]
    fn a_non_boolean_guard_is_an_error_not_a_miss() {
        let f = RuleFunction::new("bad")
            .with_rule(BusinessRule::parse("r", "1 + 1", "true").unwrap())
            .with_rule(BusinessRule::parse("fallback", "true", "false").unwrap());
        let doc = sample_po("1", 1);
        match f.invoke(&RuleContext::new("s", "t", &doc)) {
            Err(RuleError::Eval { reason }) => {
                assert_eq!(reason, "expected a boolean result, got int")
            }
            other => panic!("the first guard decides, got {other:?}"),
        }
    }

    #[test]
    fn node_count_sums_rules() {
        let f = approval_function();
        assert!(f.node_count() > 10);
    }
}
