//! [`Memo`] — the simulator's one in-process memo table — and
//! [`WordHasher`], its hasher.
//!
//! The NPU's caches (compile, gate, simulation, whole-graph report,
//! per-graph plan and per-recipe service demand) are each one [`Memo`],
//! looked up once per node, block, graph or recipe per run, so their
//! hashing is on the hot path of every cached run. Their keys are either
//! a few machine words or carry a hash precomputed when the key was
//! built (`tandem_compiler::NodeSignature`, [`crate::Graph::content_hash`]).
//! Walking such a key through SipHash costs more than the map probe
//! itself; this hasher folds each written word in with one multiply and
//! avalanches once in `finish`.
//!
//! It is not seeded, so keys crafted to collide can slow a table down.
//! They can never return a wrong value: every table keeps full-key `Eq`.
//! The graph digest is the one exception. [`crate::Graph::content_hash`]
//! is this hasher's hash of the graph's structure, and a graph key keeps
//! no copy of the graph to compare, so the fleet test `graph_digests`
//! checks that every graph the product builds has a digest of its own.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A thread-safe memo table of a pure function: a [`WordMap`] behind one
/// lock, plus hit and miss counters.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<WordMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            map: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// The value memoized for `key`, or `make()` memoized under a clone
    /// of it. `make` runs outside the lock, so it may itself query this
    /// memo, and concurrent misses on one key may each run it; the first
    /// value inserted wins and every caller gets it. A hit neither clones
    /// the key nor runs `make`.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> V) -> V {
        const POISONED: &str = "a memo lock holder panicked between map operations";
        if let Some(hit) = self.map.lock().expect(POISONED).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = make();
        let mut map = self.map.lock().expect(POISONED);
        map.entry(key.clone()).or_insert(value).clone()
    }
}

impl<K, V> Memo<K, V> {
    /// Lookups answered from the table so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran `make` so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

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

    #[test]
    fn memo_counts_hits_and_misses() {
        let memo: Memo<u64, u64> = Memo::default();
        let mut calls = 0;
        for key in [1, 2, 1, 1, 3, 2] {
            let v = memo.get_or_insert_with(&key, || {
                calls += 1;
                key * 10
            });
            assert_eq!(v, key * 10);
        }
        assert_eq!(calls, 3);
        assert_eq!((memo.hits(), memo.misses()), (3, 3));
        assert_eq!(memo.map.lock().unwrap().len(), 3);
    }

    #[test]
    fn memo_runs_make_outside_the_lock() {
        // A nested lookup on the same memo from inside `make` would
        // deadlock if `make` ran under the lock.
        let memo: Memo<u64, u64> = Memo::default();
        let outer = memo.get_or_insert_with(&2, || memo.get_or_insert_with(&1, || 7) + 1);
        assert_eq!(outer, 8);
        assert_eq!(memo.get_or_insert_with(&1, || 0), 7);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    #[test]
    fn concurrent_misses_on_one_key_leave_one_entry() {
        use std::sync::{Arc, Barrier};
        let memo: Arc<Memo<String, usize>> = Arc::default();
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (memo, barrier) = (Arc::clone(&memo), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    memo.get_or_insert_with(&"shared".to_string(), || {
                        // Every thread misses before any of them inserts.
                        barrier.wait();
                        i
                    })
                })
            })
            .collect();
        let values: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!((memo.hits(), memo.misses()), (0, 4));
        let map = memo.map.lock().unwrap();
        assert_eq!(map.len(), 1);
        let first = map["shared"];
        assert!(values.iter().all(|&v| v == first), "{values:?}");
    }
}
