//! [`WordHasher`] — the hasher of the simulator's in-process memo tables.
//!
//! The NPU's compile, simulation, verify and gate caches and the GEMM
//! report cache are looked up once per node per run, so their hashing is
//! on the hot path of every cached run. Their keys are either a few
//! machine words or carry a hash precomputed when the key was built
//! (`tandem_compiler::NodeSignature`). Walking such a key through SipHash
//! costs more than the map probe itself; this hasher folds each written
//! word in with one multiply and avalanches once in `finish`.
//!
//! It is not seeded, so keys crafted to collide can slow a table down.
//! They can never return a wrong value: every table keeps full-key `Eq`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A word-at-a-time multiplicative hasher with a murmur3 finalizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // The multiply in `write_u64` leaves the low bits weak, and the
        // std map picks buckets by them: mix the high bits down.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }
    fn write_u16(&mut self, i: u16) {
        self.write_u64(i.into());
    }
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash<T: Hash>(value: &T) -> u64 {
        let mut h = WordHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinct_small_keys_spread_over_low_bits() {
        // Bucket choice uses the low bits: small integer keys (GEMM
        // workload dims, tile rows) must not pile into a few buckets.
        let low: std::collections::HashSet<u64> =
            (0u64..256).map(|i| hash(&(i, 64u64)) & 0xff).collect();
        assert!(low.len() > 140, "{} of 256 low bytes distinct", low.len());
    }

    #[test]
    fn word_order_and_values_matter() {
        assert_ne!(hash(&(1u64, 2u64)), hash(&(2u64, 1u64)));
        assert_ne!(hash(&[1u64, 2]), hash(&[1u64, 3]));
        assert_eq!(hash(&(7u64, true)), hash(&(7u64, true)));
    }
}
