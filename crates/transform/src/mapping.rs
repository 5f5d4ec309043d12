//! The declarative mapping language.

use crate::context::{ContextKey, TransformContext};
use crate::error::{Result, TransformError};
use b2b_document::{DocumentError, ElementAt, FieldPath, FieldVec, Money, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One mapping rule. Rules run in order against a source value tree and
/// write into a target tree that starts empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MappingRule {
    /// Copies the value at `from` to `to`. When `optional`, a missing
    /// source is skipped silently; otherwise it is an error.
    Move {
        /// Source path.
        from: FieldPath,
        /// Target path.
        to: FieldPath,
        /// Skip silently when the source is missing.
        optional: bool,
    },
    /// Writes a constant.
    Const {
        /// Target path.
        to: FieldPath,
        /// The constant.
        value: Value,
    },
    /// Translates a text code through a lookup table (e.g. normalized
    /// `accepted` ↔ EDI `IA`).
    ValueMap {
        /// Source path (must hold text).
        from: FieldPath,
        /// Target path.
        to: FieldPath,
        /// Code table.
        map: BTreeMap<String, String>,
        /// Fallback when the source code is not in the table; `None` makes
        /// unknown codes an error.
        default: Option<String>,
    },
    /// Maps every element of the source list into a new element of the
    /// target list, applying `rules` with paths relative to the elements.
    ForEach {
        /// Source list path.
        from: FieldPath,
        /// Target list path.
        to: FieldPath,
        /// Per-element rules.
        rules: Vec<MappingRule>,
    },
    /// Selects the element of a source list whose `match_field` equals
    /// `equals`, then copies its `take` field to `to` (e.g. pick the N1
    /// segment with code `BY` and take its name).
    Pick {
        /// Source list path.
        from: FieldPath,
        /// Field inside each element to match on.
        match_field: String,
        /// Value it must equal.
        equals: String,
        /// Field inside the matching element to copy.
        take: String,
        /// Target path.
        to: FieldPath,
    },
    /// Appends one record to the target list at `to`, built by `rules`
    /// evaluated against the *source root* (used to construct N1-style
    /// party lists from flat header fields).
    Append {
        /// Target list path.
        to: FieldPath,
        /// Rules building the appended record.
        rules: Vec<MappingRule>,
    },
    /// Injects a context value (sender, receiver, control number, …).
    Context {
        /// Target path.
        to: FieldPath,
        /// Which context value.
        key: ContextKey,
    },
    /// Writes the currency code (text) of the money value at `from`.
    CurrencyOf {
        /// Source money path.
        from: FieldPath,
        /// Target path.
        to: FieldPath,
    },
    /// Sums `field` (money) over the list at `over` and writes the total.
    SumMoney {
        /// Source list path.
        over: FieldPath,
        /// Money field inside each element.
        field: String,
        /// Target path.
        to: FieldPath,
    },
}

impl MappingRule {
    /// Required move.
    pub fn mv(from: &str, to: &str) -> Self {
        Self::Move { from: path(from), to: path(to), optional: false }
    }

    /// Optional move.
    pub fn mv_opt(from: &str, to: &str) -> Self {
        Self::Move { from: path(from), to: path(to), optional: true }
    }

    /// Constant text.
    pub fn const_text(to: &str, text: &str) -> Self {
        Self::Const { to: path(to), value: Value::text(text) }
    }

    /// Code table translation.
    pub fn value_map(from: &str, to: &str, pairs: &[(&str, &str)]) -> Self {
        Self::ValueMap {
            from: path(from),
            to: path(to),
            map: pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            default: None,
        }
    }

    /// Per-element iteration.
    pub fn for_each(from: &str, to: &str, rules: Vec<MappingRule>) -> Self {
        Self::ForEach { from: path(from), to: path(to), rules }
    }

    /// List element selection.
    pub fn pick(from: &str, match_field: &str, equals: &str, take: &str, to: &str) -> Self {
        Self::Pick {
            from: path(from),
            match_field: match_field.to_string(),
            equals: equals.to_string(),
            take: take.to_string(),
            to: path(to),
        }
    }

    /// List element construction.
    pub fn append(to: &str, rules: Vec<MappingRule>) -> Self {
        Self::Append { to: path(to), rules }
    }

    /// Context injection.
    pub fn context(to: &str, key: ContextKey) -> Self {
        Self::Context { to: path(to), key }
    }

    /// Currency extraction.
    pub fn currency_of(from: &str, to: &str) -> Self {
        Self::CurrencyOf { from: path(from), to: path(to) }
    }

    /// Money aggregation.
    pub fn sum_money(over: &str, field: &str, to: &str) -> Self {
        Self::SumMoney { over: path(over), field: field.to_string(), to: path(to) }
    }

    /// Short description used in error messages and metrics.
    pub fn describe(&self) -> String {
        match self {
            Self::Move { from, to, .. } => format!("move {from} -> {to}"),
            Self::Const { to, .. } => format!("const -> {to}"),
            Self::ValueMap { from, to, .. } => format!("value-map {from} -> {to}"),
            Self::ForEach { from, to, .. } => format!("for-each {from} -> {to}"),
            Self::Pick { from, to, .. } => format!("pick {from} -> {to}"),
            Self::Append { to, .. } => format!("append -> {to}"),
            Self::Context { to, .. } => format!("context -> {to}"),
            Self::CurrencyOf { from, to } => format!("currency-of {from} -> {to}"),
            Self::SumMoney { over, to, .. } => format!("sum-money {over} -> {to}"),
        }
    }

    /// Applies the rule. Error texts (path renderings included) are built
    /// only on the branch that returns the error.
    pub fn apply(
        &self,
        program: &str,
        source: &Value,
        target: &mut Value,
        ctx: &TransformContext,
    ) -> Result<()> {
        let err = |reason: String| TransformError::Rule {
            program: program.to_string(),
            rule: self.describe(),
            reason,
        };
        let doc_err = |e: DocumentError| err(e.to_string());
        let required = |from: &FieldPath| {
            from.lookup(source).ok_or_else(|| err(format!("source path `{from}` not found")))
        };
        match self {
            Self::Move { from, to, optional } => match from.lookup(source) {
                Some(v) => to.set(target, v.clone()).map_err(doc_err),
                None if *optional => Ok(()),
                None => Err(err(format!("source path `{from}` not found"))),
            },
            Self::Const { to, value } => to.set(target, value.clone()).map_err(doc_err),
            Self::ValueMap { from, to, map, default } => {
                let code = required(from)?.as_text(from).map_err(doc_err)?;
                let mapped = match (map.get(code), default) {
                    (Some(m), _) | (None, Some(m)) => m.as_str(),
                    (None, None) => return Err(err(format!("code `{code}` not in value map"))),
                };
                to.set(target, Value::text(mapped)).map_err(doc_err)
            }
            Self::ForEach { from, to, rules } => {
                let items = required(from)?.as_list(from).map_err(doc_err)?;
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let mut element = Value::Record(FieldVec::with_capacity(rules.len()));
                    for rule in rules {
                        rule.apply(program, item, &mut element, ctx)?;
                    }
                    out.push(element);
                }
                to.set(target, Value::List(out)).map_err(doc_err)
            }
            Self::Pick { from, match_field, equals, take, to } => {
                let items = required(from)?.as_list(from).map_err(doc_err)?;
                for item in items {
                    let rec = item.as_record(from).map_err(doc_err)?;
                    if let Some(Value::Text(code)) = rec.get(match_field) {
                        if code == equals {
                            let taken = rec.get(take).ok_or_else(|| {
                                err(format!("matched element has no field `{take}`"))
                            })?;
                            return to.set(target, taken.clone()).map_err(doc_err);
                        }
                    }
                }
                Err(err(format!("no element with {match_field} == `{equals}`")))
            }
            Self::Append { to, rules } => {
                let mut element = Value::Record(FieldVec::with_capacity(rules.len()));
                for rule in rules {
                    rule.apply(program, source, &mut element, ctx)?;
                }
                match to.lookup_mut(target) {
                    Some(Value::List(items)) => {
                        items.push(element);
                        Ok(())
                    }
                    Some(other) => {
                        Err(err(format!("target `{to}` is {}, not a list", other.type_name())))
                    }
                    None => {
                        // Appends add one entry per rule (a party list's
                        // buyer, seller, ...); room for four saves the
                        // next appends a regrow.
                        let mut items = Vec::with_capacity(4);
                        items.push(element);
                        to.set(target, Value::List(items)).map_err(doc_err)
                    }
                }
            }
            Self::Context { to, key } => {
                to.set(target, Value::text(ctx.get(*key))).map_err(doc_err)
            }
            Self::CurrencyOf { from, to } => {
                let money = required(from)?.as_money(from).map_err(doc_err)?;
                to.set(target, Value::text(money.currency().code())).map_err(doc_err)
            }
            Self::SumMoney { over, field, to } => {
                let items = required(over)?.as_list(over).map_err(doc_err)?;
                let mut sum: Option<Money> = None;
                for (i, item) in items.iter().enumerate() {
                    let at = ElementAt(over, i);
                    let rec = item.as_record(at).map_err(doc_err)?;
                    let m = rec
                        .get(field)
                        .ok_or_else(|| err(format!("{at} has no field `{field}`")))?
                        .as_money(at)
                        .map_err(doc_err)?;
                    sum = Some(match sum {
                        None => m,
                        Some(acc) => acc.checked_add(m).map_err(doc_err)?,
                    });
                }
                let total = sum.ok_or_else(|| err("cannot sum an empty list".into()))?;
                to.set(target, Value::Money(total)).map_err(doc_err)
            }
        }
    }
}

fn path(text: &str) -> FieldPath {
    FieldPath::parse(text).expect("builder paths are static and valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::{record, Currency};

    fn ctx() -> TransformContext {
        TransformContext::new("A", "B", "7", "i-1")
    }

    fn apply(rule: MappingRule, source: &Value) -> Result<Value> {
        let mut target = Value::record();
        rule.apply("test", source, &mut target, &ctx())?;
        Ok(target)
    }

    #[test]
    fn move_copies_and_reports_missing() {
        let source = record! { "a" => record! { "b" => Value::Int(5) } };
        let out = apply(MappingRule::mv("a.b", "x.y"), &source).unwrap();
        assert_eq!(out, record! { "x" => record! { "y" => Value::Int(5) } });
        assert!(apply(MappingRule::mv("a.z", "x"), &source).is_err());
        assert_eq!(apply(MappingRule::mv_opt("a.z", "x"), &source).unwrap(), Value::record());
    }

    #[test]
    fn value_map_translates_codes() {
        let source = record! { "status" => Value::text("accepted") };
        let rule =
            MappingRule::value_map("status", "code", &[("accepted", "IA"), ("rejected", "IR")]);
        assert_eq!(apply(rule, &source).unwrap(), record! { "code" => Value::text("IA") });
        let unknown = record! { "status" => Value::text("weird") };
        let rule = MappingRule::value_map("status", "code", &[("accepted", "IA")]);
        assert!(apply(rule, &unknown).is_err());
    }

    #[test]
    fn for_each_maps_lines() {
        let source = record! {
            "lines" => Value::List(vec![
                record! { "q" => Value::Int(1) },
                record! { "q" => Value::Int(2) },
            ]),
        };
        let rule = MappingRule::for_each("lines", "items", vec![MappingRule::mv("q", "qty")]);
        let out = apply(rule, &source).unwrap();
        assert_eq!(
            out,
            record! { "items" => Value::List(vec![
                record! { "qty" => Value::Int(1) },
                record! { "qty" => Value::Int(2) },
            ]) }
        );
    }

    #[test]
    fn pick_selects_by_code() {
        let source = record! {
            "n1" => Value::List(vec![
                record! { "code" => Value::text("BY"), "name" => Value::text("Buyer Inc") },
                record! { "code" => Value::text("SE"), "name" => Value::text("Seller Inc") },
            ]),
        };
        let out = apply(MappingRule::pick("n1", "code", "SE", "name", "seller"), &source).unwrap();
        assert_eq!(out, record! { "seller" => Value::text("Seller Inc") });
        assert!(apply(MappingRule::pick("n1", "code", "XX", "name", "x"), &source).is_err());
    }

    #[test]
    fn append_builds_party_lists() {
        let source = record! { "buyer" => Value::text("B"), "seller" => Value::text("S") };
        let mut target = Value::record();
        for (code, from) in [("BY", "buyer"), ("SE", "seller")] {
            MappingRule::append(
                "n1",
                vec![MappingRule::const_text("code", code), MappingRule::mv(from, "name")],
            )
            .apply("test", &source, &mut target, &ctx())
            .unwrap();
        }
        let n1 = FieldPath::parse("n1").unwrap();
        let items = n1.get(&target).unwrap().as_list("n1").unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1], record! { "code" => Value::text("SE"), "name" => Value::text("S") });
    }

    #[test]
    fn context_currency_and_sum() {
        let m = |u| Value::Money(Money::from_units(u, Currency::Usd));
        let source = record! {
            "lines" => Value::List(vec![
                record! { "ext" => m(10) },
                record! { "ext" => m(32) },
            ]),
            "amount" => m(42),
        };
        let mut target = Value::record();
        MappingRule::context("env.sender", ContextKey::Sender)
            .apply("t", &source, &mut target, &ctx())
            .unwrap();
        MappingRule::currency_of("amount", "cur").apply("t", &source, &mut target, &ctx()).unwrap();
        MappingRule::sum_money("lines", "ext", "total")
            .apply("t", &source, &mut target, &ctx())
            .unwrap();
        assert_eq!(
            FieldPath::parse("env.sender").unwrap().get(&target).unwrap(),
            &Value::text("A")
        );
        assert_eq!(FieldPath::parse("cur").unwrap().get(&target).unwrap(), &Value::text("USD"));
        assert_eq!(FieldPath::parse("total").unwrap().get(&target).unwrap(), &m(42));
    }

    /// Each failing rule names itself and, where a path is at fault, the
    /// path; `steps` run in order against one target.
    #[test]
    fn errors_name_the_rule_and_the_failing_path() {
        let po = b2b_document::normalized::sample_po("9", 2);
        let cases: Vec<(Vec<MappingRule>, &str)> = vec![
            (
                vec![MappingRule::mv("header.missing_field", "x")],
                "rule `move header.missing_field -> x`: \
                 source path `header.missing_field` not found",
            ),
            (
                vec![MappingRule::value_map("lines", "x", &[("a", "b")])],
                "rule `value-map lines -> x`: expected text at `lines`, found list",
            ),
            (
                vec![MappingRule::value_map("header.currency", "x", &[("XXX", "?")])],
                "rule `value-map header.currency -> x`: source path `header.currency` not found",
            ),
            (
                vec![MappingRule::value_map("header.po_number", "x", &[("XXX", "?")])],
                "rule `value-map header.po_number -> x`: code `9` not in value map",
            ),
            (
                vec![MappingRule::for_each("header", "x", vec![])],
                "rule `for-each header -> x`: expected list at `header`, found record",
            ),
            (
                vec![MappingRule::pick("lines", "item", "nope", "item", "x")],
                "rule `pick lines -> x`: no element with item == `nope`",
            ),
            (
                vec![MappingRule::sum_money("header.missing", "ext", "x")],
                "rule `sum-money header.missing -> x`: source path `header.missing` not found",
            ),
            (
                vec![MappingRule::sum_money("lines", "missing_money", "x")],
                "rule `sum-money lines -> x`: lines[0] has no field `missing_money`",
            ),
            (
                vec![MappingRule::sum_money("lines", "quantity", "x")],
                "rule `sum-money lines -> x`: expected money at `lines[0]`, found int",
            ),
            (
                vec![
                    MappingRule::const_text("n1", "oops"),
                    MappingRule::append("n1", vec![MappingRule::const_text("code", "BY")]),
                ],
                "rule `append -> n1`: target `n1` is text, not a list",
            ),
            (
                vec![
                    MappingRule::const_text("a", "leaf"),
                    MappingRule::const_text("a.b", "deeper"),
                ],
                "rule `const -> a.b`: expected record at `a.b`, found text",
            ),
        ];
        for (steps, expected) in cases {
            let mut target = Value::record();
            let err = steps
                .iter()
                .try_for_each(|rule| rule.apply("test", po.body(), &mut target, &ctx()))
                .unwrap_err();
            assert_eq!(err.to_string(), format!("transform `test`, {expected}"));
        }
    }

    #[test]
    fn append_creates_nested_lists_and_pushes_in_place() {
        let source = record! { "buyer" => Value::text("B") };
        let rule = MappingRule::append("env.parties", vec![MappingRule::mv("buyer", "name")]);
        let mut target = Value::record();
        for _ in 0..3 {
            rule.apply("test", &source, &mut target, &ctx()).unwrap();
        }
        let party = record! { "name" => Value::text("B") };
        assert_eq!(
            target,
            record! { "env" => record! { "parties" => Value::List(vec![party.clone(); 3]) } }
        );
        // A list addressed by index grows where it is; its neighbours stay.
        let list = |items: Vec<Value>| Value::List(items);
        let mut target = record! { "x" => list(vec![list(vec![]), list(vec![Value::Int(9)])]) };
        MappingRule::append("x[0]", vec![MappingRule::mv("buyer", "name")])
            .apply("test", &source, &mut target, &ctx())
            .unwrap();
        assert_eq!(
            target,
            record! { "x" => list(vec![list(vec![party]), list(vec![Value::Int(9)])]) }
        );
    }

    #[test]
    fn sum_money_rejects_empty_list() {
        let source = record! { "lines" => Value::List(vec![]) };
        assert!(apply(MappingRule::sum_money("lines", "ext", "total"), &source).is_err());
    }
}
