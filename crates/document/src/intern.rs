//! Process-global string interning for record field names.
//!
//! Every record key in the document core is a [`Symbol`]: a handle to a
//! string interned exactly once for the lifetime of the process. Interning
//! makes field comparison a pointer comparison and record construction
//! allocation-free in steady state — once a field name has been seen, every
//! later document that uses it reuses the same leaked string.
//!
//! Determinism note: symbol *identity* (the leaked pointer) varies run to
//! run, so nothing observable may depend on it. All ordering and hashing of
//! symbols goes through the string content ([`Symbol::as_str`]); `Ord` on
//! `Symbol` is exactly `Ord` on the underlying string, which is what keeps
//! record field order, serialized snapshots, and determinism
//! fingerprints byte-identical across runs and thread interleavings.

use serde::{Content, Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned string: a shared handle to one process-wide copy of a field
/// name.
///
/// `Symbol` is `Copy` and pointer-comparable: two symbols made from equal
/// strings are always the same pointer, so `==` never walks bytes. Ordering
/// and hashing use string content, keeping every observable ordering
/// deterministic.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

static INTERNER: OnceLock<RwLock<BTreeSet<&'static str>>> = OnceLock::new();

fn table() -> &'static RwLock<BTreeSet<&'static str>> {
    INTERNER.get_or_init(|| RwLock::new(BTreeSet::new()))
}

/// Interns a string, returning its process-global symbol. Repeated
/// interning of the same string returns the same symbol (same pointer)
/// and allocates nothing.
pub fn intern(name: &str) -> Symbol {
    let table = table();
    if let Some(&s) = table.read().expect("interner poisoned").get(name) {
        return Symbol(s);
    }
    let mut guard = table.write().expect("interner poisoned");
    // Double-check: another thread may have interned between the locks.
    if let Some(&s) = guard.get(name) {
        return Symbol(s);
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    guard.insert(leaked);
    Symbol(leaked)
}

/// Number of distinct strings interned so far, process-wide.
///
/// Exposed so allocation-regression tests can assert the symbol table is
/// frozen between steady-state iterations.
pub fn interned_count() -> usize {
    table().read().expect("interner poisoned").len()
}

impl Symbol {
    /// The interned text. Lock-free: the string is leaked for the process
    /// lifetime.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // Same string always interns to the same leak, so pointer equality
        // is string equality.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> Ordering {
        if std::ptr::eq(self.0, other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::borrow::Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

/// Serializes as a plain string — the wire shape is identical to the
/// `String` field names it replaces.
impl Serialize for Symbol {
    fn to_content(&self) -> Content {
        Content::Str(self.0.to_string())
    }
}

impl Deserialize for Symbol {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        match content {
            Content::Str(s) => Ok(intern(s)),
            other => Err(serde::Error::custom(format!("expected string, got {}", other.kind()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("po_number");
        let b = intern("lines");
        let a2 = intern("po_number");
        assert_eq!(a, a2);
        assert!(std::ptr::eq(a.as_str(), a2.as_str()));
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "po_number");
        assert_eq!(b.as_str(), "lines");
    }

    #[test]
    fn ordering_follows_string_content() {
        let a = intern("alpha");
        let z = intern("zulu");
        assert!(a < z);
        assert_eq!(intern("same").cmp(&intern("same")), Ordering::Equal);
    }

    #[test]
    fn serde_round_trips_as_plain_string() {
        let s = intern("header");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"header\"");
        let back: Symbol = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
