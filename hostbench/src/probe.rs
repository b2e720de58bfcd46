//! A fixed reference kernel that measures how fast the host runs right
//! now.
//!
//! On a shared host the same code runs up to 2x slower while other
//! tenants load the machine, for stretches from under a second to longer
//! than a run. The benchmark times this kernel before every round and
//! scales operation times by how much slower than [`PROBE_REF_S`] the
//! kernel ran around them. The kernel uses no code of the stack, so a
//! change to the stack moves the scaled times exactly as it moves the raw
//! ones.
//!
//! The kernel's mix follows the stack's host paths: hashing, hash-map
//! inserts and lookups, small allocations and sorting over about a
//! megabyte. Under load it slows less than the stack does; a pure
//! arithmetic dependency chain slows by a tenth only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one probe takes on a quiet host: the fast end of its times on
/// a 2.1 GHz Intel Xeon (Emerald Rapids) vCPU, 0.82 to 0.88 ms.
pub const PROBE_REF_S: f64 = 0.85e-3;

/// How much more the stack slows than the kernel, as an exponent on the
/// kernel's slowdown. On the host above under load, the kernel ran 1.5x
/// slower while the stack's phases ran 1.5x to 2.0x slower, 1.75x on
/// average, and 1.5^1.4 = 1.76.
const SENSITIVITY: f64 = 1.4;

/// Keys per probe.
const KEYS: usize = 16_384;
/// Probes per measurement; the fastest one counts, so a single
/// preemption does not.
const REPEATS: usize = 3;

/// FNV-1a, so the kernel's work is the same in every process.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// One pass of the kernel; returns a checksum so nothing is optimised
/// away.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
    let mut map: HashMap<u64, Vec<u32>, BuildHasherDefault<Fnv>> = HashMap::default();
    for (i, &k) in keys.iter().enumerate() {
        map.entry(k % (KEYS as u64 / 2)).or_default().push(i as u32);
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut sum = 0u64;
    for &k in sorted.iter().rev() {
        if let Some(v) = map.get(&(k % (KEYS as u64 / 2))) {
            sum = sum.wrapping_add(v.len() as u64 ^ k);
        }
    }
    sum
}

/// Seconds of the fastest of [`REPEATS`] passes of the kernel.
pub fn probe() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// How much faster than the quiet host the host ran when a probe took
/// `probe_s`: the factor that scales a time measured then to the quiet
/// host.
pub fn speed(probe_s: f64) -> f64 {
    (PROBE_REF_S / probe_s).powf(SENSITIVITY)
}
