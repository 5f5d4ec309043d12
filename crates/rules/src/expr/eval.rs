//! Expression evaluation.

use super::{BinOp, Builtin, Expr, PathRoot};
use crate::error::{Result, RuleError};
use b2b_document::{Date, Document, Money, Value};
use std::cmp::Ordering;

/// Evaluation context handed to a rule: the paper's `(source, target,
/// document)` triple.
#[derive(Debug, Clone, Copy)]
pub struct RuleContext<'a> {
    /// Where the document came from (trading partner or application name).
    pub source: &'a str,
    /// Where the document goes (trading partner or application name).
    pub target: &'a str,
    /// The document under evaluation.
    pub document: &'a Document,
}

impl<'a> RuleContext<'a> {
    /// Builds a context.
    pub fn new(source: &'a str, target: &'a str, document: &'a Document) -> Self {
        Self { source, target, document }
    }
}

fn eval_err(reason: impl Into<String>) -> RuleError {
    RuleError::Eval { reason: reason.into() }
}

/// Evaluates an expression.
pub fn eval(expr: &Expr, ctx: &RuleContext<'_>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Path { root, path } => {
            let text = match root {
                PathRoot::Source => ctx.source,
                PathRoot::Target => ctx.target,
                PathRoot::Document => {
                    return path
                        .get(ctx.document.body())
                        .cloned()
                        .map_err(|e| eval_err(e.to_string()))
                }
            };
            let rooted = Value::text(text);
            if path.segments().is_empty() {
                return Ok(rooted);
            }
            path.get(&rooted).cloned().map_err(|e| eval_err(e.to_string()))
        }
        Expr::Not(inner) => match eval(inner, ctx)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(eval_err(format!("`not` needs a bool, got {}", other.type_name()))),
        },
        Expr::Neg(inner) => match eval(inner, ctx)? {
            Value::Int(n) => Ok(Value::Int(
                n.checked_neg().ok_or_else(|| eval_err("integer negation overflow"))?,
            )),
            Value::Money(m) => {
                Ok(Value::Money(m.checked_mul(-1).map_err(|e| eval_err(e.to_string()))?))
            }
            other => Err(eval_err(format!("`-` needs int or money, got {}", other.type_name()))),
        },
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, ctx),
        Expr::Call { builtin, arg } => eval_call(*builtin, arg, ctx),
    }
}

fn eval_binary(op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &RuleContext<'_>) -> Result<Value> {
    match op {
        // Short-circuit logical operators.
        BinOp::And => {
            let l = eval(lhs, ctx)?.as_bool("and").map_err(|e| eval_err(e.to_string()))?;
            if !l {
                return Ok(Value::Bool(false));
            }
            let r = eval(rhs, ctx)?.as_bool("and").map_err(|e| eval_err(e.to_string()))?;
            Ok(Value::Bool(r))
        }
        BinOp::Or => {
            let l = eval(lhs, ctx)?.as_bool("or").map_err(|e| eval_err(e.to_string()))?;
            if l {
                return Ok(Value::Bool(true));
            }
            let r = eval(rhs, ctx)?.as_bool("or").map_err(|e| eval_err(e.to_string()))?;
            Ok(Value::Bool(r))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let l = eval(lhs, ctx)?;
            let r = eval(rhs, ctx)?;
            let ord = compare(&l, &r)?;
            let result = match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::Ne => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!("comparison arm"),
            };
            Ok(Value::Bool(result))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul => arithmetic(op, lhs, rhs, ctx),
    }
}

/// Compares two values, coercing `Int` to whole currency units when the
/// other side is `Money` (so `document.amount >= 55000` works as in the
/// paper).
fn compare(l: &Value, r: &Value) -> Result<Ordering> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
        (Value::Text(a), Value::Text(b)) => Ok(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
        (Value::Date(a), Value::Date(b)) => Ok(a.cmp(b)),
        (Value::Money(a), Value::Money(b)) => {
            a.checked_cmp(*b).map_err(|e| eval_err(e.to_string()))
        }
        (Value::Money(a), Value::Int(b)) => {
            a.checked_cmp(Money::from_units(*b, a.currency())).map_err(|e| eval_err(e.to_string()))
        }
        (Value::Int(a), Value::Money(b)) => {
            Money::from_units(*a, b.currency()).checked_cmp(*b).map_err(|e| eval_err(e.to_string()))
        }
        (a, b) => Err(eval_err(format!("cannot compare {} with {}", a.type_name(), b.type_name()))),
    }
}

fn arithmetic(op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &RuleContext<'_>) -> Result<Value> {
    let l = eval(lhs, ctx)?;
    let r = eval(rhs, ctx)?;
    let overflow = || eval_err("integer overflow");
    match (op, l, r) {
        (BinOp::Add, Value::Int(a), Value::Int(b)) => {
            Ok(Value::Int(a.checked_add(b).ok_or_else(overflow)?))
        }
        (BinOp::Sub, Value::Int(a), Value::Int(b)) => {
            Ok(Value::Int(a.checked_sub(b).ok_or_else(overflow)?))
        }
        (BinOp::Mul, Value::Int(a), Value::Int(b)) => {
            Ok(Value::Int(a.checked_mul(b).ok_or_else(overflow)?))
        }
        (BinOp::Add, Value::Money(a), Value::Money(b)) => {
            Ok(Value::Money(a.checked_add(b).map_err(|e| eval_err(e.to_string()))?))
        }
        (BinOp::Sub, Value::Money(a), Value::Money(b)) => {
            Ok(Value::Money(a.checked_sub(b).map_err(|e| eval_err(e.to_string()))?))
        }
        (BinOp::Mul, Value::Money(a), Value::Int(b))
        | (BinOp::Mul, Value::Int(b), Value::Money(a)) => {
            Ok(Value::Money(a.checked_mul(b).map_err(|e| eval_err(e.to_string()))?))
        }
        (op, a, b) => Err(eval_err(format!(
            "{op:?} is not defined for {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

fn eval_call(builtin: Builtin, arg: &Expr, ctx: &RuleContext<'_>) -> Result<Value> {
    match builtin {
        Builtin::Date => {
            let v = eval(arg, ctx)?;
            let text = v.as_text("date()").map_err(|e| eval_err(e.to_string()))?;
            Ok(Value::Date(Date::parse_iso(text).map_err(|e| eval_err(e.to_string()))?))
        }
        Builtin::Money => {
            let v = eval(arg, ctx)?;
            let text = v.as_text("money()").map_err(|e| eval_err(e.to_string()))?;
            Ok(Value::Money(Money::parse(text).map_err(|e| eval_err(e.to_string()))?))
        }
        Builtin::Exists => match arg {
            Expr::Path { root: PathRoot::Document, path } => {
                Ok(Value::Bool(path.lookup(ctx.document.body()).is_some()))
            }
            Expr::Path { .. } => Ok(Value::Bool(true)),
            _ => Err(eval_err("exists() needs a path argument")),
        },
        Builtin::Len => match eval(arg, ctx)? {
            Value::List(items) => Ok(Value::Int(items.len() as i64)),
            Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
            other => Err(eval_err(format!("len() needs list or text, got {}", other.type_name()))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::normalized::sample_po;

    fn check(src: &str, source: &str, target: &str, amount: i64) -> Result<Value> {
        let doc = sample_po("4711", amount);
        let expr = Expr::parse(src)?;
        expr.eval(&RuleContext::new(source, target, &doc))
    }

    #[test]
    fn the_paper_rule_evaluates() {
        let rule = "target == \"SAP\" and source == \"TP1\" and document.amount >= 55000";
        assert_eq!(check(rule, "TP1", "SAP", 60_000).unwrap(), Value::Bool(true));
        assert_eq!(check(rule, "TP1", "SAP", 50_000).unwrap(), Value::Bool(false));
        assert_eq!(check(rule, "TP2", "SAP", 60_000).unwrap(), Value::Bool(false));
        assert_eq!(check(rule, "TP1", "Oracle", 60_000).unwrap(), Value::Bool(false));
    }

    #[test]
    fn money_int_coercion_works_both_directions() {
        assert_eq!(check("55000 <= document.amount", "s", "t", 55_000).unwrap(), Value::Bool(true));
        assert_eq!(check("document.amount < 55000", "s", "t", 54_999).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // document.bogus does not exist; `and` must not evaluate it.
        assert_eq!(
            check("false and document.bogus == 1", "s", "t", 1).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(check("true or document.bogus == 1", "s", "t", 1).unwrap(), Value::Bool(true));
        assert!(check("true and document.bogus == 1", "s", "t", 1).is_err());
    }

    #[test]
    fn builtins_work() {
        assert_eq!(check("exists(document.amount)", "s", "t", 1).unwrap(), Value::Bool(true));
        assert_eq!(check("exists(document.bogus)", "s", "t", 1).unwrap(), Value::Bool(false));
        assert_eq!(check("len(document.lines)", "s", "t", 1).unwrap(), Value::Int(1));
        assert_eq!(
            check("document.header.order_date < date(\"2002-01-01\")", "s", "t", 1).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            check("document.amount >= money(\"55000.00 USD\")", "s", "t", 55_000).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn arithmetic_on_lines() {
        assert_eq!(
            check("document.lines[0].quantity * 2 + 1", "s", "t", 10).unwrap(),
            Value::Int(21)
        );
        assert_eq!(
            check("document.amount - document.amount", "s", "t", 10).unwrap().type_name(),
            "money"
        );
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(check("document.amount + 1", "s", "t", 1).is_err(), "money + int undefined");
        assert!(check("not 5", "s", "t", 1).is_err());
        assert!(check("\"a\" < 1", "s", "t", 1).is_err());
        assert!(check("len(document.amount)", "s", "t", 1).is_err());
        assert!(check("date(5)", "s", "t", 1).is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        for src in
            ["9223372036854775807 + 1", "-9223372036854775807 - 2", "-9223372036854775807 * 2"]
        {
            match check(src, "s", "t", 1) {
                Err(RuleError::Eval { reason }) => assert_eq!(reason, "integer overflow", "{src}"),
                other => panic!("{src}: {other:?}"),
            }
        }
        let min = Expr::Literal(Value::Int(i64::MIN));
        let doc = sample_po("1", 1);
        match Expr::Neg(Box::new(min)).eval(&RuleContext::new("s", "t", &doc)) {
            Err(RuleError::Eval { reason }) => assert_eq!(reason, "integer negation overflow"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn source_and_target_read_as_text() {
        assert_eq!(check("source", "TP1", "SAP", 1).unwrap(), Value::text("TP1"));
        assert_eq!(check("target", "TP1", "SAP", 1).unwrap(), Value::text("SAP"));
        assert_eq!(check("exists(source)", "TP1", "SAP", 1).unwrap(), Value::Bool(true));
        assert_eq!(check("len(target)", "TP1", "Oracle", 1).unwrap(), Value::Int(6));
        assert_eq!(
            check("len(\"héllo\")", "s", "t", 1).unwrap(),
            Value::Int(5),
            "chars, not bytes"
        );
        // Paths below `source`/`target` are unreachable from the parser;
        // built directly, they never resolve and name the path.
        let doc = sample_po("1", 1);
        let below = Expr::Path {
            root: PathRoot::Target,
            path: b2b_document::FieldPath::parse("x").unwrap(),
        };
        match below.eval(&RuleContext::new("s", "t", &doc)) {
            Err(RuleError::Eval { reason }) => assert_eq!(reason, "path `x` not found in document"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eval_bool_rejects_non_boolean() {
        let doc = sample_po("1", 1);
        let e = Expr::parse("1 + 1").unwrap();
        assert!(e.eval_bool(&RuleContext::new("s", "t", &doc)).is_err());
    }
}
