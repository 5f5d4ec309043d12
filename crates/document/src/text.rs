//! [`Str`]: the text payload of [`crate::Value::Text`].
//!
//! A `Str` is either an owned `String` or a zero-copy slice of a shared
//! wire payload ([`Bytes`]). The binary codec decodes text fields as
//! shared slices, so a hot document borrows its strings straight out of
//! the inbound payload instead of copying each one onto the heap. All
//! observable behaviour — equality, ordering, hashing, `Debug`/`Display`,
//! serialization — is content-based and byte-identical between the two
//! representations, so fingerprints, snapshots, and sharding identity
//! never depend on where a string's bytes happen to live.
//!
//! Ownership rule: a shared `Str` keeps the *entire* payload allocation
//! alive (it holds the payload's `Arc`). That is free at the edge — the
//! envelope holds the payload while its document is routed — but
//! long-lived stores that outlive the payload should call
//! [`Str::promote`] / [`Str::into_owned`] to detach.

use bytes::Bytes;
use serde::{Content, Deserialize, Error, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

#[derive(Clone)]
enum Repr {
    /// Heap-owned text (the default; everything non-binary produces this).
    Owned(String),
    /// A validated-UTF-8 window into a shared payload buffer.
    ///
    /// Invariant (enforced by [`Str::shared`], the only constructor):
    /// `start + len <= buf.len()` and `buf[start..start + len]` is valid
    /// UTF-8. `u32` offsets are enough because the binary wire format
    /// length-prefixes every node with a `u32`.
    Shared { buf: Bytes, start: u32, len: u32 },
}

/// Text that is either owned or borrowed from a shared wire payload.
///
/// Compares, orders, hashes, prints, and serializes exactly like the
/// `String` it replaces; dereferences to `&str`.
#[derive(Clone)]
pub struct Str(Repr);

impl Str {
    /// The empty string (owned, no allocation).
    pub fn new() -> Self {
        Self(Repr::Owned(String::new()))
    }

    /// A zero-copy view of `buf[start..start + len]`.
    ///
    /// Validates bounds and UTF-8 once, here; accessors rely on it.
    /// Offsets beyond `u32` fall back to an owned copy (the wire format
    /// caps node lengths at `u32`, so this only happens for synthetic
    /// buffers).
    pub fn shared(buf: &Bytes, start: usize, len: usize) -> crate::Result<Self> {
        let end = start.checked_add(len).filter(|&e| e <= buf.len()).ok_or_else(|| {
            crate::DocumentError::Parse {
                format: "shared-str".into(),
                offset: start,
                reason: format!("slice {start}+{len} out of bounds for {}-byte buffer", buf.len()),
            }
        })?;
        let text =
            std::str::from_utf8(&buf[start..end]).map_err(|e| crate::DocumentError::Parse {
                format: "shared-str".into(),
                offset: start + e.valid_up_to(),
                reason: "text is not valid UTF-8".into(),
            })?;
        if start > u32::MAX as usize || len > u32::MAX as usize {
            return Ok(Self(Repr::Owned(text.to_string())));
        }
        Ok(Self(Repr::Shared { buf: buf.clone(), start: start as u32, len: len as u32 }))
    }

    /// The text content.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Owned(s) => s,
            Repr::Shared { buf, start, len } => {
                let slice = &buf[*start as usize..(*start + *len) as usize];
                // SAFETY: the constructor validated this exact range as
                // UTF-8 and `Bytes` is immutable, so the bytes cannot
                // have changed since.
                unsafe { std::str::from_utf8_unchecked(slice) }
            }
        }
    }

    /// Whether this text borrows a shared payload (as opposed to owning
    /// its bytes). Diagnostic only — behaviour never depends on it.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.0, Repr::Shared { .. })
    }

    /// Detaches from any shared payload in place, copying the text into
    /// an owned allocation. No-op when already owned.
    pub fn promote(&mut self) {
        if let Repr::Shared { .. } = self.0 {
            self.0 = Repr::Owned(self.as_str().to_string());
        }
    }

    /// Consumes the value, yielding an owned `String` (copies only when
    /// borrowed).
    pub fn into_owned(self) -> String {
        match self.0 {
            Repr::Owned(s) => s,
            Repr::Shared { .. } => self.as_str().to_string(),
        }
    }
}

impl Default for Str {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Str {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Str {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Str {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for Str {
    fn from(s: String) -> Self {
        Self(Repr::Owned(s))
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        Self(Repr::Owned(s.to_string()))
    }
}

impl From<Str> for String {
    fn from(s: Str) -> Self {
        s.into_owned()
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

macro_rules! eq_with {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Str {
            fn eq(&self, other: &$t) -> bool {
                self.as_str() == AsRef::<str>::as_ref(other)
            }
        }
        impl PartialEq<Str> for $t {
            fn eq(&self, other: &Str) -> bool {
                AsRef::<str>::as_ref(self) == other.as_str()
            }
        }
    )*};
}

eq_with!(str, &str, String);

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Serializes as a plain string — the exact wire shape `String` had, so
/// every existing snapshot and fingerprint is unchanged.
impl Serialize for Str {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for Str {
    fn from_content(content: &Content) -> std::result::Result<Self, Error> {
        String::from_content(content).map(Self::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(text: &str) -> Str {
        let buf = Bytes::copy_from_slice(format!("<<{text}>>").as_bytes());
        Str::shared(&buf, 2, text.len()).unwrap()
    }

    #[test]
    fn owned_and_shared_are_indistinguishable() {
        let a = Str::from("hello");
        let b = shared("hello");
        assert!(b.is_borrowed() && !a.is_borrowed());
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(format!("{a:?}/{a}"), format!("{b:?}/{b}"));
        assert_eq!(a.to_content(), b.to_content());
        let hash = |s: &Str| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn promote_detaches_without_changing_content() {
        let mut s = shared("payload text");
        assert!(s.is_borrowed());
        s.promote();
        assert!(!s.is_borrowed());
        assert_eq!(s, "payload text");
        assert_eq!(shared("x").into_owned(), "x");
    }

    #[test]
    fn shared_rejects_bad_ranges_and_bad_utf8() {
        let buf = Bytes::copy_from_slice(b"ab\xffcd");
        assert!(Str::shared(&buf, 3, 5).is_err(), "out of bounds");
        assert!(Str::shared(&buf, 1, 3).is_err(), "invalid UTF-8");
        assert_eq!(Str::shared(&buf, 0, 2).unwrap(), "ab");
    }

    #[test]
    fn compares_with_plain_string_types() {
        let s = shared("code");
        assert_eq!(s, "code");
        assert_eq!(s, "code".to_string());
        assert_eq!("code".to_string(), s);
        assert!(s == *"code");
    }

    #[test]
    fn serde_round_trip_is_owned() {
        let s = shared("wire");
        let back = Str::from_content(&s.to_content()).unwrap();
        assert_eq!(back, s);
        assert!(!back.is_borrowed());
    }
}
