//! [`Str`]: the text payload of [`crate::Value::Text`] and of the
//! identifier types.
//!
//! A `Str` has three representations:
//!
//! - **inline**: a text of at most [`INLINE_CAP`] bytes kept inside the
//!   value itself. Creating, cloning and dropping one never calls the
//!   allocator. Every short text is inline, however it was made.
//! - **shared**: a longer text that a codec read in place, a slice of
//!   the shared wire payload ([`Bytes`]). Cloning it bumps the payload's
//!   reference count.
//! - **owned**: a longer text built at run time, in a `String`.
//!
//! All observable behaviour — equality, ordering, hashing,
//! `Debug`/`Display`, serialization — is content-based and identical
//! across the three, so fingerprints and snapshots never depend on where
//! a text's bytes happen to live.
//!
//! Ownership rule: a shared `Str` keeps the *entire* payload allocation
//! alive, and only a text longer than [`INLINE_CAP`] bytes is ever
//! shared. A short text never pins a payload.

use bytes::Bytes;
use serde::{Content, Deserialize, Error, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest text, in bytes, that a [`Str`] keeps inline: the most
/// that keeps `Str` and [`crate::Value`] at 40 bytes each.
pub const INLINE_CAP: usize = 38;

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is the text. Invariant: `len <= INLINE_CAP` and
    /// `buf[..len]` is valid UTF-8; every writer copies whole `&str`s.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// A text longer than `INLINE_CAP` bytes, read in place from a shared
    /// payload. Invariant: the view is valid UTF-8 — only `in_payload`
    /// makes one, over the very bytes of a `&str` — and `Bytes` is
    /// immutable.
    Shared(Bytes),
    /// A text longer than `INLINE_CAP` bytes, built at run time.
    Owned(String),
}

/// Text kept inline, borrowed from a shared wire payload, or owned.
///
/// Compares, orders, hashes, prints, and serializes exactly like the
/// `String` it replaces; dereferences to `&str`.
#[derive(Clone)]
pub struct Str(Repr);

impl Str {
    /// The empty string.
    pub const fn new() -> Self {
        Self(Repr::Inline { len: 0, buf: [0; INLINE_CAP] })
    }

    /// `text` kept inline, if it fits.
    fn inline(text: &str) -> Option<Self> {
        let mut buf = [0; INLINE_CAP];
        buf.get_mut(..text.len())?.copy_from_slice(text.as_bytes());
        Some(Self(Repr::Inline { len: text.len() as u8, buf }))
    }

    /// `text` as a `Str`: a zero-copy slice of `payload` when `text` is
    /// longer than [`INLINE_CAP`] bytes and lies inside it (a codec read
    /// it in place), else a copy. The check is by address, so any `&str`
    /// is safe to pass.
    pub fn in_payload(payload: &Bytes, text: &str) -> Self {
        if text.len() > INLINE_CAP {
            let at = (text.as_ptr() as usize).wrapping_sub(payload.as_ptr() as usize);
            if at <= payload.len() && text.len() <= payload.len() - at {
                // The same bytes as `text`: two live borrows whose
                // addresses overlap view one allocation.
                return Self(Repr::Shared(payload.slice(at..at + text.len())));
            }
        }
        Self::from(text)
    }

    /// Formats `args` straight into a `Str`: a result of at most
    /// [`INLINE_CAP`] bytes never touches the allocator.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Self {
        struct Writer(Str);
        impl fmt::Write for Writer {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.push_str(s);
                Ok(())
            }
        }
        if let Some(text) = args.as_str() {
            return Self::from(text);
        }
        let mut out = Writer(Self::new());
        fmt::Write::write_fmt(&mut out, args).expect("writing into a Str cannot fail");
        out.0
    }

    /// Appends `s`, leaving the inline buffer only when the text outgrows
    /// it.
    fn push_str(&mut self, s: &str) {
        match &mut self.0 {
            Repr::Inline { len, buf } if *len as usize + s.len() <= INLINE_CAP => {
                buf[*len as usize..][..s.len()].copy_from_slice(s.as_bytes());
                *len += s.len() as u8;
            }
            Repr::Owned(owned) => owned.push_str(s),
            _ => {
                let mut owned = String::with_capacity(self.len() + s.len());
                owned.push_str(self);
                owned.push_str(s);
                self.0 = Repr::Owned(owned);
            }
        }
    }

    /// The text content.
    #[allow(unsafe_code)]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // SAFETY: `buf[..len]` is valid UTF-8 by the `Inline`
                // invariant: `inline` and `push_str` copy whole `&str`s
                // into it and nothing else writes it.
                unsafe { std::str::from_utf8_unchecked(&buf[..*len as usize]) }
            }
            Repr::Shared(bytes) => {
                // SAFETY: only `in_payload` makes a `Shared`, viewing the
                // same memory as a `&str`, so the view was valid UTF-8;
                // `Bytes` is immutable, so it cannot have changed since.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Owned(s) => s,
        }
    }

    /// Whether this text is kept inline. Diagnostic only — behaviour
    /// never depends on it.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Whether this text borrows a shared payload. Diagnostic only —
    /// behaviour never depends on it.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.0, Repr::Shared(_))
    }

    /// Consumes the value, yielding an owned `String` (copies unless
    /// owned).
    pub fn into_owned(self) -> String {
        match self.0 {
            Repr::Owned(s) => s,
            _ => self.as_str().to_string(),
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
        Self::inline(&s).unwrap_or(Self(Repr::Owned(s)))
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        Self::inline(s).unwrap_or_else(|| Self(Repr::Owned(s.to_string())))
    }
}

impl From<&String> for Str {
    fn from(s: &String) -> Self {
        Self::from(s.as_str())
    }
}

impl From<&Str> for Str {
    fn from(s: &Str) -> Self {
        s.clone()
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
        let buf = Bytes::from(format!("<<{text}>>"));
        Str::in_payload(&buf, std::str::from_utf8(&buf[2..2 + text.len()]).unwrap())
    }

    #[test]
    fn str_and_value_stay_40_bytes() {
        assert_eq!(std::mem::size_of::<Str>(), 40);
        assert_eq!(std::mem::size_of::<crate::Value>(), 40);
    }

    #[test]
    fn each_text_takes_the_representation_its_length_and_origin_give() {
        let short = "x".repeat(INLINE_CAP);
        let long = "x".repeat(INLINE_CAP + 1);
        assert!(Str::from(short.as_str()).is_inline());
        assert!(Str::from(short.clone()).is_inline());
        assert!(shared(&short).is_inline(), "a short text never pins its payload");
        let owned = Str::from(long.as_str());
        assert!(!owned.is_inline() && !owned.is_borrowed());
        assert!(shared(&long).is_borrowed());
        assert!(Str::new().is_inline() && Str::new().is_empty());
    }

    #[test]
    fn inline_owned_and_shared_are_indistinguishable() {
        let long = "a text longer than the inline capacity of a Str";
        let a = Str::from(long);
        let b = shared(long);
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
        assert_eq!(hash(&Str::from("hello")), hash(&Str::from(String::from("hello"))));
        assert_eq!(shared(long).into_owned(), long);
    }

    #[test]
    fn from_fmt_spills_to_the_heap_only_past_the_inline_capacity() {
        let short = Str::from_fmt(format_args!("{}-{:08}", "doc", 42));
        assert_eq!(short, "doc-00000042");
        assert!(short.is_inline());
        let edge = Str::from_fmt(format_args!("{}{}", "x".repeat(30), "y".repeat(8)));
        assert_eq!(edge.len(), INLINE_CAP);
        assert!(edge.is_inline());
        let long = Str::from_fmt(format_args!("{}{}", "x".repeat(30), "y".repeat(9)));
        assert_eq!(long, format!("{}{}", "x".repeat(30), "y".repeat(9)));
        assert!(!long.is_inline() && !long.is_borrowed());
        assert_eq!(Str::from_fmt(format_args!("static")), "static");
        assert_eq!(Str::from_fmt(format_args!("{}", "é".repeat(20))), "é".repeat(20));
    }

    #[test]
    fn in_payload_slices_only_text_that_lies_inside_the_payload() {
        let payload = Bytes::from(format!("<a>{}</a>", "z".repeat(60)));
        let inside = std::str::from_utf8(&payload[3..63]).unwrap();
        let text = Str::in_payload(&payload, inside);
        assert!(text.is_borrowed());
        assert_eq!(text, "z".repeat(60));
        let elsewhere = "z".repeat(60);
        assert!(!Str::in_payload(&payload, &elsewhere).is_borrowed());
        assert!(Str::in_payload(&payload, &inside[..5]).is_inline());
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
    fn serde_round_trip_keeps_the_content() {
        let long = "a wire text that is too long to be kept inline";
        let s = shared(long);
        let back = Str::from_content(&s.to_content()).unwrap();
        assert_eq!(back, s);
        assert!(!back.is_borrowed());
    }
}
