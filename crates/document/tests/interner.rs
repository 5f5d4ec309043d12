//! The interner's table is process-wide, so a test of its size runs in a
//! binary of its own: no other test thread can intern a name between the
//! two counts.

use b2b_document::{intern, interned_count};

#[test]
fn repeat_interning_does_not_grow_table() {
    intern("stable_key");
    let before = interned_count();
    for _ in 0..64 {
        intern("stable_key");
    }
    assert_eq!(interned_count(), before);
}
