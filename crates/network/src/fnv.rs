//! FNV-1a hashing for hot runtime maps.
//!
//! The network checksum is FNV-1a
//! ([`checksum_of`](crate::checksum_of)); this module wraps the same
//! function (same offset basis and prime) in a [`std::hash::Hasher`] so
//! the session table and other hot maps can use one deterministic hash
//! family instead of the default randomly-seeded SipHash. FNV-1a is not
//! collision-resistant against adversarial keys — use it only for keys
//! the engine itself constructs (interned symbols, instance ids,
//! format ids), never for raw wire payloads.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// Streaming FNV-1a over the bytes fed by `Hash` impls. Byte-for-byte
/// compatible with [`checksum_of`](crate::checksum_of): hashing a byte
/// slice through [`write`](Hasher::write) alone yields the same value.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

/// `BuildHasher` for FNV-1a maps — zero-sized, no per-map random state.
pub type FnvBuildHasher = BuildHasherDefault<Fnv1a>;

/// A `HashMap` keyed by FNV-1a instead of SipHash.
pub type FnvMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed by FNV-1a instead of SipHash.
pub type FnvSet<T> = HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum_of;

    #[test]
    fn hasher_matches_checksum_of() {
        for bytes in [b"".as_slice(), b"a", b"corr-1\0TP1", b"the quick brown fox"] {
            let mut hasher = Fnv1a::default();
            hasher.write(bytes);
            assert_eq!(hasher.finish(), checksum_of(bytes));
        }
    }

    #[test]
    fn map_round_trips() {
        let mut map: FnvMap<(u32, u32), u32> = FnvMap::default();
        map.insert((1, 2), 3);
        map.insert((4, 5), 6);
        assert_eq!(map.get(&(1, 2)), Some(&3));
        assert_eq!(map.get(&(4, 5)), Some(&6));
        assert_eq!(map.get(&(9, 9)), None);
    }
}
