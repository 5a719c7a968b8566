//! The host-speed reference that host times are normalised by.
//!
//! The 2-vCPU host this benchmark was tuned on alternates, in phases of
//! 2 s to over 10 s, between its normal speed and ones 1.3–1.7× slower
//! (another tenant on the same physical cores; CPU time slows as much as
//! wall time and no steal time shows). A run's raw timings move with the
//! share of slow time it happened to get: over ten 20 s runs their
//! quartile spread reached 23% of the median. So every timed call is
//! bracketed by two measurements of a fixed piece of benchmark-owned
//! work, on the threads the workload's ops keep busy, and its host time
//! is divided by the mean [`slowness`] of the two.
//!
//! The reference is plain `std` code on threads this module spawns
//! itself: it calls nothing in the measured crates, not even the pool to
//! place its copies (a unit test below checks the source). So a change to
//! those crates cannot move it, and a pool or kernel speed-up shows in
//! full in the nominal times.
//!
//! The reference is two pieces of work, timed separately: 3584 random
//! keys summed into a fresh hash map, and a churn of 256 small heap
//! allocations. Slowness is the geometric mean of their two slowdowns.
//! Candidates were measured around every op of ten runs per workload, in
//! two rounds: hash maps of 2048, 3584 and 8192 keys (the largest also
//! kept and cleared instead of allocated), the small map placed through
//! the pool and its median of three, dependent loads in a 1 MiB table, a
//! sort and the allocation churn, alone and in geometric means. Measured
//! where the ops run (alone for the single-threaded serving loops, on
//! every core for the TPC-H workloads), this pair left the smallest
//! worst quartile spread of nominal p50, p95 and throughput over the
//! four workloads: 0.045 of the median, against 0.055 for the 2048-key
//! map alone and 0.115 for raw host time over the same runs.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// The threads a workload's ops keep busy, where its reference runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// The calling thread only.
    Caller,
    /// One thread per core, all at once (where the pool's workers run).
    AllCores,
}

impl Threads {
    /// The reference's seconds (geometric mean of its two parts) on the
    /// tuning host at its normal speed: the 10th percentile of 20 000
    /// measurements in a quiet phase.
    fn nominal_secs(self) -> f64 {
        match self {
            Threads::Caller => 19e-6,
            Threads::AllCores => 20e-6,
        }
    }
}

/// Keys the map part inserts: its table takes 68 KiB, more than a core's
/// L1 and below the size at which the allocator maps fresh pages, so the
/// reference reuses heap memory and does not move peak RSS.
const KEYS: usize = 3584;

/// Allocations the churn part makes, and the `u64`s in each.
const ALLOCS: u64 = 256;
const ALLOC_LEN: u64 = 64;

/// The fixed pseudo-random key sequence (SplitMix64 from seed 1).
fn keys() -> Vec<u64> {
    let mut s = 1u64;
    (0..KEYS)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Seconds `f` takes.
fn time(f: impl FnOnce() -> u64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// One measurement of the reference: `keys` summed into a fresh map of
/// up to 16 384 keys, then the allocation churn. Returns the geometric
/// mean of the two parts' seconds.
fn reference(keys: &[u64]) -> f64 {
    let map = time(|| {
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(keys.len());
        for &k in keys {
            *map.entry(k & 0x3FFF).or_insert(0) += k;
        }
        map.len() as u64
    });
    let churn = time(|| {
        (0..ALLOCS).fold(0u64, |acc, i| {
            let v: Vec<u64> = black_box((0..ALLOC_LEN).map(|x| x ^ i).collect());
            acc.wrapping_add(v.iter().sum::<u64>())
        })
    });
    (map * churn).sqrt()
}

/// Measures the reference once on `threads` and returns how much slower
/// than normal the host runs there: 1 at the tuning host's normal speed,
/// 1.5 when the reference takes half as long again.
pub fn slowness(threads: Threads) -> f64 {
    let keys = keys();
    let secs = match threads {
        Threads::Caller => reference(&keys),
        Threads::AllCores => {
            let width = std::thread::available_parallelism().map_or(1, |n| n.get());
            let start = Barrier::new(width);
            let each: Vec<f64> = std::thread::scope(|s| {
                let copies: Vec<_> = (0..width)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            reference(&keys)
                        })
                    })
                    .collect();
                copies.into_iter().map(|c| c.join().expect("the reference panicked")).collect()
            });
            each.iter().sum::<f64>() / each.len() as f64
        }
    };
    secs / threads.nominal_secs()
}

/// Host seconds of one timed call and the mean slowness around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Raw host seconds.
    pub secs: f64,
    /// Mean of the [`slowness`] measured just before and just after.
    pub slowness: f64,
}

impl Timing {
    /// A call of `secs` host seconds between slowness measurements
    /// `before` and `after`.
    pub fn new(secs: f64, before: f64, after: f64) -> Timing {
        Timing { secs, slowness: (before + after) / 2.0 }
    }

    /// Seconds at the tuning host's normal speed.
    pub fn nominal(&self) -> f64 {
        self.secs / self.slowness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_positive_on_both_placements() {
        for t in [Threads::Caller, Threads::AllCores] {
            let s = slowness(t);
            assert!(s > 0.0 && s.is_finite(), "{t:?}: {s}");
        }
    }

    #[test]
    fn a_host_twice_as_slow_halves_nominal_time() {
        assert_eq!(Timing::new(0.5, 1.0, 1.0).nominal(), 0.5);
        assert_eq!(Timing::new(0.5, 2.0, 2.0).nominal(), 0.25);
        assert_eq!(Timing::new(0.5, 1.0, 3.0).nominal(), 0.25);
    }

    /// The reference names no crate of the repository, so no change to
    /// one can move it.
    #[test]
    fn the_reference_calls_no_measured_crate() {
        let src = include_str!("host.rs");
        let code = &src[..src.find("#[cfg(test)]").expect("test module present")];
        for krate in ["dpu_", "xeon_model"] {
            assert!(!code.contains(krate), "host.rs outside its tests names `{krate}`");
        }
    }

    #[test]
    fn the_keys_are_splitmix64_from_seed_1() {
        // First output of SplitMix64 seeded with 1 (Vigna's reference).
        assert_eq!(keys()[0], 0x910A_2DEC_8902_5CC1);
        assert_eq!(keys().len(), KEYS);
    }
}
