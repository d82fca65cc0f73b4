//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent over minutes. A fixed reference kernel, owned by the
//! benchmark and calling no repository code, is timed in a short burst
//! after every closed-loop iteration (and before every set-up). Each
//! measured time is then scaled by [`NOMINAL_MS`] / (median of the bursts
//! around it), i.e. expressed at the host speed at which one burst takes
//! [`NOMINAL_MS`]. A change to the program moves the scaled times; a
//! change in host speed moves the bursts too and cancels.
//!
//! Memory-latency-bound and compute-bound code slow down differently, so
//! each workload names the [`Kernel`] that matches what bounds it.

use crate::stats::{median, ms_since};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// The burst time that defines the nominal host speed, ms.
pub const NOMINAL_MS: f64 = 3.0;

/// A time is scaled by the median of the bursts within this many bursts
/// of it.
const WINDOW: usize = 5;

/// Memory kernel: random reads and writes over `WORDS` words.
const TOUCHES: usize = 250_000;
const WORDS: usize = 1 << 21;

/// Compute kernel: hash-set inserts (then twice as many lookups), and a
/// sort, all cache-resident.
const KEYS: u64 = 60_000;

/// What a reference burst exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dependent random accesses over 16 MiB.
    Memory,
    /// Hashing, probing and sorting inside the caches.
    Compute,
}

/// A multiplicative hasher for the compute kernel's hash set.
#[derive(Default)]
struct Mul(u64);

impl Hasher for Mul {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
}

/// The reference kernel and its burst times.
pub struct Reference {
    kernel: Kernel,
    words: Vec<u64>,
    bursts: Vec<f64>,
}

impl Reference {
    /// A reference that times `kernel`.
    pub fn new(kernel: Kernel) -> Self {
        let words = match kernel {
            Kernel::Memory => vec![1; WORDS],
            Kernel::Compute => Vec::new(),
        };
        Self {
            kernel,
            words,
            bursts: Vec::new(),
        }
    }

    /// Runs one timed burst of the kernel; returns its index.
    pub fn burst(&mut self) -> usize {
        let t0 = Instant::now();
        let out = match self.kernel {
            Kernel::Memory => self.memory(),
            Kernel::Compute => compute(),
        };
        std::hint::black_box(out);
        self.bursts.push(ms_since(t0));
        self.bursts.len() - 1
    }

    /// The factor that scales a time measured next to burst `at` to the
    /// nominal host speed.
    pub fn factor_at(&self, at: usize) -> f64 {
        let lo = at.saturating_sub(WINDOW);
        let hi = (at + WINDOW + 1).min(self.bursts.len());
        nominal_over(self.bursts.get(lo..hi).unwrap_or(&[]))
    }

    /// The factor over the whole run.
    pub fn factor(&self) -> f64 {
        nominal_over(&self.bursts)
    }

    /// `samples[i]` scaled by the factor next to burst `at[i]`.
    pub fn scale(&self, samples: &[f64], at: &[usize]) -> Vec<f64> {
        samples
            .iter()
            .zip(at)
            .map(|(&ms, &at)| ms * self.factor_at(at))
            .collect()
    }

    /// Number of bursts run.
    pub fn bursts(&self) -> usize {
        self.bursts.len()
    }

    fn memory(&mut self) -> u64 {
        let mask = self.words.len() - 1;
        let (mut x, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0u64);
        for _ in 0..TOUCHES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            acc = acc.wrapping_add(self.words[i]).rotate_left(5);
            self.words[i] = acc;
        }
        acc
    }
}

fn compute() -> u64 {
    let key = |k: u64| k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut set: HashSet<u64, BuildHasherDefault<Mul>> = HashSet::default();
    for k in 0..KEYS {
        set.insert(key(k));
    }
    let hits = (0..2 * KEYS).filter(|&k| set.contains(&key(k))).count();
    let mut v: Vec<u64> = (0..KEYS).map(|k| key(k) >> 7).collect();
    v.sort_unstable();
    v[hits % v.len()]
}

/// [`NOMINAL_MS`] over the median of `bursts` (1 without bursts).
fn nominal_over(bursts: &[f64]) -> f64 {
    let m = median(bursts);
    if m > 0.0 {
        NOMINAL_MS / m
    } else {
        1.0
    }
}
