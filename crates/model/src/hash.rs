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
use std::sync::{Arc, Mutex, OnceLock};

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A thread-safe memo table of a pure function: a [`WordMap`] behind one
/// lock, plus hit and miss counters.
///
/// Lookups are single-flight: each key's value sits in a [`OnceLock`],
/// so concurrent misses on one key run `make` once, and the racers that
/// arrive while it runs wait for its value and count as hits. Misses
/// therefore equal the distinct keys looked up, however many threads
/// share the table.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<WordMap<K, Arc<OnceLock<V>>>>,
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
    /// memo for other keys, but never for `key`: it would wait on
    /// itself. A lookup that finds `make` running for its key on another
    /// thread waits for that value; if that `make` panics, one waiter
    /// runs its own. A hit neither clones the key nor runs `make`.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> V) -> V {
        const POISONED: &str = "a memo lock holder panicked between map operations";
        let cell = {
            let mut map = self.map.lock().expect(POISONED);
            match map.get(key) {
                Some(cell) => match cell.get() {
                    Some(hit) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return hit.clone();
                    }
                    None => Arc::clone(cell),
                },
                None => Arc::clone(map.entry(key.clone()).or_default()),
            }
        };
        let mut ran = false;
        let value = cell.get_or_init(|| {
            ran = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            make()
        });
        if !ran {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
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

    /// Lookups of `key` now waiting on a running `make` (0 when none
    /// runs): the map and the maker hold one handle each.
    fn waiters(memo: &Memo<u64, u64>, key: u64) -> usize {
        match memo.map.lock().unwrap().get(&key) {
            Some(cell) if cell.get().is_none() => Arc::strong_count(cell) - 2,
            _ => 0,
        }
    }

    /// Spins until `n` lookups of `key` wait on its `make`, or 10 s pass.
    fn await_waiters(memo: &Memo<u64, u64>, key: u64, n: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while waiters(memo, key) < n && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_misses_on_one_key_run_make_once() {
        const RACERS: u64 = 4;
        let memo: Memo<u64, u64> = Memo::default();
        let calls = AtomicU64::new(0);
        let values: Vec<u64> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..RACERS)
                .map(|i| {
                    let (memo, calls) = (&memo, &calls);
                    s.spawn(move || {
                        memo.get_or_insert_with(&7, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            // Finish only once every other racer waits.
                            await_waiters(memo, 7, RACERS as usize - 1);
                            i
                        })
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!((memo.hits(), memo.misses()), (RACERS - 1, 1));
        assert!(values.iter().all(|&v| v == values[0]), "{values:?}");
        assert_eq!(memo.get_or_insert_with(&7, || unreachable!()), values[0]);
    }

    #[test]
    fn a_waiter_recomputes_when_make_panics() {
        let memo: Memo<u64, u64> = Memo::default();
        let running = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let maker = s.spawn(|| {
                memo.get_or_insert_with(&1, || {
                    running.wait();
                    await_waiters(&memo, 1, 1);
                    panic!("make failed");
                })
            });
            running.wait();
            // `make` is running: this lookup waits, then runs its own.
            assert_eq!(memo.get_or_insert_with(&1, || 5), 5);
            assert!(maker.join().is_err());
        });
        assert_eq!((memo.hits(), memo.misses()), (0, 2));
        assert_eq!(memo.get_or_insert_with(&1, || 0), 5);
    }
}
