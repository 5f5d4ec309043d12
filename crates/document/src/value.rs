//! The dynamic value tree that documents are made of.

use crate::date::Date;
use crate::error::{DocumentError, Result};
use crate::intern::{intern, Symbol};
use crate::money::Money;
use crate::text::Str;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;

/// A record body: fields kept sorted by the interned key's string content.
///
/// The sort order is the canonical lexicographic field order the former
/// `BTreeMap<String, Value>` representation produced, so iteration,
/// serialization, `Display`, and structural comparison are byte-identical
/// to the old map — but keys are [`Symbol`]s (no per-record `String`
/// allocations) and lookups are binary searches over a contiguous slice.
#[derive(Clone, Default, PartialEq)]
pub struct FieldVec(Vec<(Symbol, Value)>);

impl FieldVec {
    /// An empty record body.
    pub fn new() -> Self {
        Self(Vec::new())
    }

    /// An empty record body with room for `cap` fields.
    pub fn with_capacity(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }

    /// Builds a record body from arbitrary-order entries, sorting them into
    /// canonical order. Duplicate keys keep the last value, matching map
    /// insert semantics.
    pub fn from_entries(entries: Vec<(Symbol, Value)>) -> Self {
        let mut fields = Self::with_capacity(entries.len());
        for (key, value) in entries {
            fields.insert(key, value);
        }
        fields
    }

    fn position(&self, name: &str) -> std::result::Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    fn position_sym(&self, key: Symbol) -> std::result::Result<usize, usize> {
        // Interning guarantees one pointer per distinct string, so
        // membership is decidable by pointer identity alone; for the small
        // records that dominate real documents a linear pointer scan beats
        // a binary search that compares string bytes at every probe.
        // Misses still need the content-ordered insertion point.
        if self.0.len() <= 16 {
            match self.0.iter().position(|(k, _)| *k == key) {
                Some(i) => Ok(i),
                None => Err(self.0.partition_point(|(k, _)| *k < key)),
            }
        } else {
            self.0.binary_search_by(|(k, _)| k.cmp(&key))
        }
    }

    /// Looks up a field by name. No interning happens on the probe path.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|i| &self.0[i].1)
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.position(name).ok().map(|i| &mut self.0[i].1)
    }

    /// Looks up a field by pre-interned symbol (pointer-equality fast path).
    pub fn get_sym(&self, key: Symbol) -> Option<&Value> {
        self.position_sym(key).ok().map(|i| &self.0[i].1)
    }

    /// Mutable lookup by pre-interned symbol.
    pub fn get_sym_mut(&mut self, key: Symbol) -> Option<&mut Value> {
        self.position_sym(key).ok().map(|i| &mut self.0[i].1)
    }

    /// Inserts or replaces a field, returning the previous value if any.
    pub fn insert(&mut self, key: Symbol, value: Value) -> Option<Value> {
        // Codecs and transform programs mostly emit fields in canonical
        // order already, so the common insert is an append past the
        // current tail — no scan, no shift.
        if self.0.last().is_none_or(|(last, _)| *last < key) {
            self.0.push((key, value));
            return None;
        }
        match self.position_sym(key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    /// Inserts by string key, interning it first. Prefer [`Self::insert`]
    /// with a cached symbol on hot paths.
    pub fn insert_str(&mut self, key: &str, value: Value) -> Option<Value> {
        self.insert(intern(key), value)
    }

    /// Removes a field by name, returning its value if present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.position(name).ok().map(|i| self.0.remove(i).1)
    }

    /// Whether a field with this name exists.
    pub fn contains_key(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// Whether a field with this symbol exists.
    pub fn contains_sym(&self, key: Symbol) -> bool {
        self.position_sym(key).is_ok()
    }

    /// Entry-style access: returns the field, inserting `default()` first
    /// if it is absent.
    pub fn entry_or_insert_with(
        &mut self,
        key: Symbol,
        default: impl FnOnce() -> Value,
    ) -> &mut Value {
        let i = match self.position_sym(key) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (key, default()));
                i
            }
        };
        &mut self.0[i].1
    }

    /// Fields in canonical (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }

    /// Field names in canonical order.
    pub fn keys(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.0.iter().map(|(k, _)| *k)
    }

    /// Field values in canonical order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Mutable field values in canonical order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.0.iter_mut().map(|(_, v)| v)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Index<&str> for FieldVec {
    type Output = Value;
    fn index(&self, name: &str) -> &Value {
        self.get(name).unwrap_or_else(|| panic!("no field {name:?} in record"))
    }
}

impl fmt::Debug for FieldVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.0.iter().map(|(k, v)| (k.as_str(), v))).finish()
    }
}

impl FromIterator<(Symbol, Value)> for FieldVec {
    fn from_iter<I: IntoIterator<Item = (Symbol, Value)>>(iter: I) -> Self {
        Self::from_entries(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a FieldVec {
    type Item = (Symbol, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Symbol, Value)>,
        fn(&'a (Symbol, Value)) -> (Symbol, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

/// Stored order is canonical order, so serializing as a map reproduces the
/// former `BTreeMap` wire bytes exactly.
impl Serialize for FieldVec {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(
            self.0
                .iter()
                .map(|(k, v)| (serde::Content::Str(k.as_str().to_string()), v.to_content()))
                .collect(),
        )
    }
}

impl Deserialize for FieldVec {
    fn from_content(content: &serde::Content) -> std::result::Result<Self, serde::Error> {
        // Mirrors the former `BTreeMap<String, Value>` impl, including the
        // seq-of-pairs fallback and error text, so existing snapshots and
        // error expectations are unchanged.
        match content {
            serde::Content::Map(pairs) => {
                let mut fields = FieldVec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    fields.insert(Symbol::from_content(k)?, Value::from_content(v)?);
                }
                Ok(fields)
            }
            serde::Content::Seq(items) => {
                let mut fields = FieldVec::with_capacity(items.len());
                for item in items {
                    let pair = serde::tuple_seq(item, 2, "map entry")?;
                    fields.insert(Symbol::from_content(&pair[0])?, Value::from_content(&pair[1])?);
                }
                Ok(fields)
            }
            other => Err(serde::Error::custom(format!("expected map, got {}", other.kind()))),
        }
    }
}

/// A node in a document tree.
///
/// Records keep their fields sorted by key so that document comparison,
/// hashing of definitions, and serialized snapshots are deterministic — the
/// change-management experiments depend on stable structural hashes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Explicit absence (distinct from a missing field).
    Null,
    /// Boolean flag.
    Bool(bool),
    /// Signed integer (quantities, control numbers).
    Int(i64),
    /// Exact monetary amount.
    Money(Money),
    /// Free text (names, codes, identifiers) — inline, borrowed from a
    /// shared wire payload, or owned; see [`Str`].
    Text(Str),
    /// Calendar date.
    Date(Date),
    /// Ordered collection (e.g. purchase-order lines).
    List(Vec<Value>),
    /// Named fields, symbol-keyed and canonically ordered.
    Record(FieldVec),
}

impl Value {
    /// Human-readable name of the variant, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Self::Null => "null",
            Self::Bool(_) => "bool",
            Self::Int(_) => "int",
            Self::Money(_) => "money",
            Self::Text(_) => "text",
            Self::Date(_) => "date",
            Self::List(_) => "list",
            Self::Record(_) => "record",
        }
    }

    /// Builds an empty record.
    pub fn record() -> Self {
        Self::Record(FieldVec::new())
    }

    /// Builds a text value.
    pub fn text(s: impl Into<Str>) -> Self {
        Self::Text(s.into())
    }

    /// Extracts a bool or reports a type mismatch at `at`.
    pub fn as_bool(&self, at: impl fmt::Display) -> Result<bool> {
        match self {
            Self::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", other, at)),
        }
    }

    /// Extracts an integer or reports a type mismatch at `at`.
    pub fn as_int(&self, at: impl fmt::Display) -> Result<i64> {
        match self {
            Self::Int(i) => Ok(*i),
            other => Err(mismatch("int", other, at)),
        }
    }

    /// Extracts a money amount or reports a type mismatch at `at`.
    pub fn as_money(&self, at: impl fmt::Display) -> Result<Money> {
        match self {
            Self::Money(m) => Ok(*m),
            other => Err(mismatch("money", other, at)),
        }
    }

    /// Extracts text or reports a type mismatch at `at`.
    pub fn as_text(&self, at: impl fmt::Display) -> Result<&str> {
        match self {
            Self::Text(s) => Ok(s),
            other => Err(mismatch("text", other, at)),
        }
    }

    /// Extracts a date or reports a type mismatch at `at`.
    pub fn as_date(&self, at: impl fmt::Display) -> Result<Date> {
        match self {
            Self::Date(d) => Ok(*d),
            other => Err(mismatch("date", other, at)),
        }
    }

    /// Extracts a list or reports a type mismatch at `at`.
    pub fn as_list(&self, at: impl fmt::Display) -> Result<&[Value]> {
        match self {
            Self::List(items) => Ok(items),
            other => Err(mismatch("list", other, at)),
        }
    }

    /// Extracts a record or reports a type mismatch at `at`.
    pub fn as_record(&self, at: impl fmt::Display) -> Result<&FieldVec> {
        match self {
            Self::Record(fields) => Ok(fields),
            other => Err(mismatch("record", other, at)),
        }
    }

    /// Mutable record access.
    pub fn as_record_mut(&mut self, at: impl fmt::Display) -> Result<&mut FieldVec> {
        match self {
            Self::Record(fields) => Ok(fields),
            other => Err(mismatch("record", other, at)),
        }
    }

    /// Number of leaf values in the tree (used by model-size metrics).
    pub fn leaf_count(&self) -> usize {
        match self {
            Self::List(items) => items.iter().map(Value::leaf_count).sum(),
            Self::Record(fields) => fields.values().map(Value::leaf_count).sum(),
            _ => 1,
        }
    }
}

fn mismatch(expected: &'static str, found: &Value, at: impl fmt::Display) -> DocumentError {
    DocumentError::TypeMismatch { expected, found: found.type_name(), at: at.to_string() }
}

/// The location `list[index]` of a list element, for the `at` argument of
/// the `as_*` accessors: they render `at` only into a type-mismatch
/// error, so a caller walking a list builds no string per element.
#[derive(Debug, Clone, Copy)]
pub struct ElementAt<L>(pub L, pub usize);

impl<L: fmt::Display> fmt::Display for ElementAt<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.0, self.1)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Null => f.write_str("null"),
            Self::Bool(b) => write!(f, "{b}"),
            Self::Int(i) => write!(f, "{i}"),
            Self::Money(m) => write!(f, "{m}"),
            Self::Text(s) => write!(f, "{s:?}"),
            Self::Date(d) => write!(f, "{d}"),
            Self::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Self::Record(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Convenience macro for building record values in tests and builders.
#[macro_export]
macro_rules! record {
    ($($key:expr => $val:expr),* $(,)?) => {{
        let mut fields = $crate::value::FieldVec::new();
        $(fields.insert_str($key, $val);)*
        $crate::value::Value::Record(fields)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Currency;

    #[test]
    fn accessors_enforce_types() {
        let v = Value::Int(7);
        assert_eq!(v.as_int("x").unwrap(), 7);
        let err = v.as_text("x").unwrap_err();
        assert!(err.to_string().contains("expected text"));
    }

    #[test]
    fn record_macro_builds_sorted_fields() {
        let v = record! { "b" => Value::Int(2), "a" => Value::Int(1) };
        let rec = v.as_record("v").unwrap();
        let keys: Vec<_> = rec.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, ["a", "b"]);
    }

    #[test]
    fn fieldvec_insert_get_remove() {
        let mut rec = FieldVec::new();
        assert!(rec.insert(intern("b"), Value::Int(2)).is_none());
        assert!(rec.insert(intern("a"), Value::Int(1)).is_none());
        assert_eq!(rec.insert(intern("b"), Value::Int(20)), Some(Value::Int(2)));
        assert_eq!(rec.get("b"), Some(&Value::Int(20)));
        assert_eq!(rec.get_sym(intern("a")), Some(&Value::Int(1)));
        assert!(rec.get("missing").is_none());
        assert!(rec.contains_key("a"));
        assert_eq!(rec.remove("a"), Some(Value::Int(1)));
        assert!(!rec.contains_key("a"));
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn fieldvec_entry_style() {
        let mut rec = FieldVec::new();
        *rec.entry_or_insert_with(intern("n"), || Value::Int(0)) = Value::Int(5);
        assert_eq!(rec.get("n"), Some(&Value::Int(5)));
        let v = rec.entry_or_insert_with(intern("n"), || Value::Int(0));
        assert_eq!(*v, Value::Int(5));
    }

    #[test]
    fn from_entries_sorts_and_keeps_last_duplicate() {
        let rec = FieldVec::from_entries(vec![
            (intern("z"), Value::Int(1)),
            (intern("a"), Value::Int(2)),
            (intern("z"), Value::Int(3)),
        ]);
        let keys: Vec<_> = rec.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, ["a", "z"]);
        assert_eq!(rec.get("z"), Some(&Value::Int(3)));
    }

    #[test]
    fn leaf_count_walks_nesting() {
        let v = record! {
            "header" => record! { "n" => Value::text("1") },
            "lines" => Value::List(vec![
                record! { "q" => Value::Int(1), "p" => Value::Money(Money::from_units(5, Currency::Usd)) },
                record! { "q" => Value::Int(2), "p" => Value::Money(Money::from_units(6, Currency::Usd)) },
            ]),
        };
        assert_eq!(v.leaf_count(), 5);
    }

    #[test]
    fn display_renders_nested() {
        let v = record! { "a" => Value::List(vec![Value::Int(1), Value::Bool(true)]) };
        assert_eq!(v.to_string(), "{a: [1, true]}");
    }

    #[test]
    fn serde_map_shape_round_trips() {
        let v = record! { "b" => Value::Int(2), "a" => Value::Null };
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"{"Record":{"a":"Null","b":{"Int":2}}}"#);
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
