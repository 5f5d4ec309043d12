//! Property tests for `Str`: whichever way a text is made — kept inline,
//! owned, borrowed from a payload or read back through serde — it
//! compares, orders, hashes, prints and serializes like the `&str` it
//! holds, at every length from empty to twice the inline capacity.

use b2b_document::text::INLINE_CAP;
use b2b_document::Str;
use bytes::Bytes;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// A text of exactly `len` bytes: `pieces` in turn, ASCII where the next
/// piece would overrun.
fn text_of(len: usize, pieces: &[char]) -> String {
    let mut out = String::with_capacity(len);
    let mut next = pieces.iter().cycle();
    while out.len() < len {
        let c = *next.next().expect("at least one piece");
        out.push(if out.len() + c.len_utf8() <= len { c } else { 'x' });
    }
    out
}

/// The four ways to make a `Str` of `text`, named.
fn four_ways(text: &str) -> [(&'static str, Str); 4] {
    let payload = Bytes::from(format!("<<{text}>>"));
    let in_place = std::str::from_utf8(&payload[2..2 + text.len()]).expect("the text's own bytes");
    let borrowed = Str::in_payload(&payload, in_place);
    let json = serde_json::to_string(&Str::from(text)).expect("serialize");
    let serde: Str = serde_json::from_str(&json).expect("deserialize");
    [
        ("inline", Str::from(text)),
        ("owned", Str::from(text.to_string())),
        ("borrowed", borrowed),
        ("serde", serde),
    ]
}

fn hash(s: &impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_representation_behaves_like_its_text(
        pieces in prop::collection::vec(
            prop_oneof![Just('a'), Just('Z'), Just('7'), Just(' '), Just('é'), Just('€'), Just('𝄞')],
            1..12,
        ),
    ) {
        let texts: Vec<String> = (0..=2 * INLINE_CAP).map(|len| text_of(len, &pieces)).collect();
        let made: Vec<_> = texts.iter().map(|text| four_ways(text)).collect();
        for (len, (text, ways)) in texts.iter().zip(&made).enumerate() {
            prop_assert_eq!(text.len(), len);
            for (how, s) in ways {
                prop_assert_eq!(s.as_str(), text.as_str(), "{} of {} bytes", how, len);
                prop_assert!(*s == *text.as_str(), "{} of {} bytes", how, len);
                prop_assert_eq!(&s.clone(), s, "a clone of {} of {} bytes", how, len);
                prop_assert_eq!(hash(s), hash(&text.as_str()), "{} of {} bytes", how, len);
                prop_assert_eq!(format!("{s}"), text.clone(), "{} of {} bytes", how, len);
                prop_assert_eq!(format!("{s:?}"), format!("{text:?}"), "{} of {} bytes", how, len);
                prop_assert_eq!(
                    serde_json::to_string(s).unwrap(),
                    serde_json::to_string(text).unwrap(),
                    "{} of {} bytes", how, len
                );
                // Only a long text leaves the inline buffer, and only a
                // long text borrowed from a payload pins it.
                prop_assert_eq!(s.is_inline(), len <= INLINE_CAP, "{} of {} bytes", how, len);
                let borrows = *how == "borrowed" && len > INLINE_CAP;
                prop_assert_eq!(s.is_borrowed(), borrows, "{} of {} bytes", how, len);
            }
            for (how, s) in ways {
                for (other_len, (other, other_ways)) in texts.iter().zip(&made).enumerate() {
                    for (other_how, o) in other_ways {
                        prop_assert_eq!(
                            s.cmp(o),
                            text.as_str().cmp(other.as_str()),
                            "{} of {} bytes against {} of {}", how, len, other_how, other_len
                        );
                        prop_assert_eq!(
                            s == o,
                            len == other_len,
                            "{} of {} bytes against {} of {}", how, len, other_how, other_len
                        );
                    }
                }
            }
        }
        prop_assert_eq!(Str::from(texts[0].as_str()).cmp(&Str::new()), Ordering::Equal);
    }
}
