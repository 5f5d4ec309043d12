//! Field paths addressing into document trees.
//!
//! Transformations, business rules, and workflow conditions all reference
//! document content by path, e.g. `header.total` or `lines[2].quantity`.

use crate::error::{DocumentError, Result};
use crate::intern::{intern, Symbol};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// One step of a field path.
///
/// Field names are interned [`Symbol`]s, so resolving a path against a
/// record is symbol comparison only — no string allocation or byte-walking
/// on the equal path. `Symbol`'s serde impl keeps the wire shape a plain
/// string, identical to the former `Field(String)` representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathSeg {
    /// Record field access by name.
    Field(Symbol),
    /// List element access by zero-based index.
    Index(usize),
}

/// A parsed field path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldPath {
    segments: Vec<PathSeg>,
}

impl FieldPath {
    /// Parses `a.b[3].c` style syntax.
    pub fn parse(text: &str) -> Result<Self> {
        let err = |reason: &str| DocumentError::PathSyntax {
            path: text.to_string(),
            reason: reason.to_string(),
        };
        if text.is_empty() {
            return Err(err("empty path"));
        }
        let mut segments = Vec::new();
        for part in text.split('.') {
            if part.is_empty() {
                return Err(err("empty segment"));
            }
            let (name, rest) = match part.find('[') {
                Some(i) => (&part[..i], &part[i..]),
                None => (part, ""),
            };
            if name.is_empty() {
                return Err(err("index without field name"));
            }
            if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
                return Err(err("field names may contain [A-Za-z0-9_-] only"));
            }
            segments.push(PathSeg::Field(intern(name)));
            let mut rest = rest;
            while !rest.is_empty() {
                let Some(stripped) = rest.strip_prefix('[') else {
                    return Err(err("expected `[`"));
                };
                let Some(close) = stripped.find(']') else {
                    return Err(err("unterminated index"));
                };
                let idx: usize =
                    stripped[..close].parse().map_err(|_| err("index must be a number"))?;
                segments.push(PathSeg::Index(idx));
                rest = &stripped[close + 1..];
            }
        }
        Ok(Self { segments })
    }

    /// Builds a path from already-validated segments.
    pub fn from_segments(segments: Vec<PathSeg>) -> Self {
        Self { segments }
    }

    /// The segments of this path.
    pub fn segments(&self) -> &[PathSeg] {
        &self.segments
    }

    /// A new path with one more field segment appended.
    pub fn child(&self, field: &str) -> Self {
        let mut segments = self.segments.clone();
        segments.push(PathSeg::Field(intern(field)));
        Self { segments }
    }

    /// Resolves the path against a value tree, or `None` if absent.
    pub fn lookup<'v>(&self, root: &'v Value) -> Option<&'v Value> {
        let mut cur = root;
        for seg in &self.segments {
            cur = match (seg, cur) {
                (PathSeg::Field(name), Value::Record(fields)) => fields.get_sym(*name)?,
                (PathSeg::Index(i), Value::List(items)) => items.get(*i)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Resolves the path, reporting an error naming the path when absent.
    pub fn get<'v>(&self, root: &'v Value) -> Result<&'v Value> {
        self.lookup(root).ok_or_else(|| self.not_found())
    }

    /// Resolves the path for writing, or `None` if absent.
    pub fn lookup_mut<'v>(&self, root: &'v mut Value) -> Option<&'v mut Value> {
        let mut cur = root;
        for seg in &self.segments {
            cur = match (seg, cur) {
                (PathSeg::Field(name), Value::Record(fields)) => fields.get_sym_mut(*name)?,
                (PathSeg::Index(i), Value::List(items)) => items.get_mut(*i)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Writes `value` at this path, creating intermediate records as needed.
    ///
    /// List segments must already exist (lists are created explicitly by
    /// transformation `ForEach` rules, never implicitly). The path is
    /// rendered into an error only when the write fails.
    pub fn set(&self, root: &mut Value, value: Value) -> Result<()> {
        let (last, init) = self.segments.split_last().ok_or_else(|| DocumentError::PathSyntax {
            path: String::new(),
            reason: "empty path".into(),
        })?;
        let mut cur = root;
        for seg in init {
            cur = match (seg, cur) {
                (PathSeg::Field(name), Value::Record(fields)) => {
                    fields.entry_or_insert_with(*name, Value::record)
                }
                (PathSeg::Index(i), Value::List(items)) => {
                    items.get_mut(*i).ok_or_else(|| self.not_found())?
                }
                (seg, other) => return Err(self.mismatch(seg, other)),
            };
        }
        match (last, cur) {
            (PathSeg::Field(name), Value::Record(fields)) => {
                fields.insert(*name, value);
            }
            (PathSeg::Index(i), Value::List(items)) => {
                *items.get_mut(*i).ok_or_else(|| self.not_found())? = value;
            }
            (seg, other) => return Err(self.mismatch(seg, other)),
        }
        Ok(())
    }

    fn not_found(&self) -> DocumentError {
        DocumentError::PathNotFound { path: self.to_string() }
    }

    /// `seg` cannot step into `found`: a field needs a record, an index a
    /// list.
    fn mismatch(&self, seg: &PathSeg, found: &Value) -> DocumentError {
        let expected = match seg {
            PathSeg::Field(_) => "record",
            PathSeg::Index(_) => "list",
        };
        DocumentError::TypeMismatch { expected, found: found.type_name(), at: self.to_string() }
    }
}

impl FromStr for FieldPath {
    type Err = DocumentError;

    fn from_str(s: &str) -> Result<Self> {
        Self::parse(s)
    }
}

impl fmt::Display for FieldPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, seg) in self.segments.iter().enumerate() {
            match seg {
                PathSeg::Field(name) => {
                    if i > 0 {
                        f.write_str(".")?;
                    }
                    f.write_str(name.as_str())?;
                }
                PathSeg::Index(idx) => write!(f, "[{idx}]")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    fn sample() -> Value {
        record! {
            "header" => record! { "po_number" => Value::text("4711") },
            "lines" => Value::List(vec![
                record! { "qty" => Value::Int(5) },
                record! { "qty" => Value::Int(7) },
            ]),
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for text in ["a", "a.b", "a.b[0].c", "lines[12]", "a_b.c-d"] {
            let p = FieldPath::parse(text).unwrap();
            assert_eq!(p.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_bad_syntax() {
        for text in ["", ".", "a..b", "a[", "a[x]", "a[1", "[0]", "a b"] {
            assert!(FieldPath::parse(text).is_err(), "{text} should fail");
        }
    }

    #[test]
    fn lookup_resolves_nested_values() {
        let doc = sample();
        let p = FieldPath::parse("lines[1].qty").unwrap();
        assert_eq!(p.get(&doc).unwrap(), &Value::Int(7));
        assert!(FieldPath::parse("lines[2].qty").unwrap().lookup(&doc).is_none());
        assert!(FieldPath::parse("header.missing").unwrap().lookup(&doc).is_none());
    }

    #[test]
    fn get_reports_path_in_error() {
        let doc = sample();
        let err = FieldPath::parse("header.nope").unwrap().get(&doc).unwrap_err();
        assert!(err.to_string().contains("header.nope"));
    }

    #[test]
    fn set_creates_intermediate_records() {
        let mut doc = Value::record();
        FieldPath::parse("a.b.c").unwrap().set(&mut doc, Value::Int(1)).unwrap();
        assert_eq!(FieldPath::parse("a.b.c").unwrap().get(&doc).unwrap(), &Value::Int(1));
    }

    #[test]
    fn set_into_existing_list_slot() {
        let mut doc = sample();
        FieldPath::parse("lines[0].qty").unwrap().set(&mut doc, Value::Int(9)).unwrap();
        assert_eq!(FieldPath::parse("lines[0].qty").unwrap().get(&doc).unwrap(), &Value::Int(9));
        assert!(FieldPath::parse("lines[5].qty").unwrap().set(&mut doc, Value::Int(1)).is_err());
    }

    #[test]
    fn lookup_mut_writes_in_place() {
        let mut doc = sample();
        *FieldPath::parse("lines[1].qty").unwrap().lookup_mut(&mut doc).unwrap() = Value::Int(8);
        assert_eq!(FieldPath::parse("lines[1].qty").unwrap().get(&doc).unwrap(), &Value::Int(8));
        for absent in ["header.gone", "lines[2]", "header.po_number.deeper", "lines.qty"] {
            assert!(FieldPath::parse(absent).unwrap().lookup_mut(&mut doc).is_none(), "{absent}");
        }
    }

    #[test]
    fn set_errors_name_the_whole_path() {
        let mut doc = sample();
        let err = |p: &str| FieldPath::parse(p).unwrap().set(&mut doc.clone(), Value::Null);
        assert_eq!(
            err("header.po_number.x").unwrap_err().to_string(),
            "expected record at `header.po_number.x`, found text"
        );
        assert_eq!(
            err("header[0].x").unwrap_err().to_string(),
            "expected list at `header[0].x`, found record"
        );
        assert_eq!(
            err("lines[5].qty").unwrap_err().to_string(),
            "path `lines[5].qty` not found in document"
        );
        assert_eq!(
            err("lines[2]").unwrap_err().to_string(),
            "path `lines[2]` not found in document"
        );
        assert_eq!(
            err("header[1]").unwrap_err().to_string(),
            "expected list at `header[1]`, found record"
        );
        FieldPath::parse("lines[1]").unwrap().set(&mut doc, Value::Int(3)).unwrap();
        assert_eq!(FieldPath::parse("lines[1]").unwrap().get(&doc).unwrap(), &Value::Int(3));
    }
}
