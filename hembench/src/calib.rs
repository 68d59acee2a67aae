//! Host-speed calibration.
//!
//! The development VM runs at two speeds that the guest cannot see:
//! for seconds to minutes at a time every instruction takes about 1.6x
//! as long (user CPU time equals wall time throughout, and steal time
//! stays flat). A run's raw timings therefore measure the host as much
//! as the program. Every workload interleaves a fixed reference kernel
//! with its operations and scales each measured time by how fast the
//! kernel ran around it: a time is reported in *reference
//! milliseconds*, what it would have taken on a host that runs the
//! kernel in [`REFERENCE_MS`].
//!
//! The kernel is plain Rust in this package, built with the same
//! compiler and profile as the program but sharing no code with it, so
//! a change to the program moves the program's times and never the
//! kernel's. That holds only while nothing else runs beside a sample:
//! where the program keeps other threads busy (the server of
//! `whatif_tcp`), samples are taken only while it is idle.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use crate::stats::{median, Samples};

/// The kernel's median time on the development VM in its fast state.
pub const REFERENCE_MS: f64 = 0.1;

/// Minimum measured time between two kernel samples (about a 2% cost).
pub const EVERY: Duration = Duration::from_millis(10);

/// Kernel samples the local speed is the median of.
const RECENT: usize = 5;

/// Allocation-, branch- and pointer-heavy work, like the engine's:
/// ordered-map inserts of formatted keys, lookups and a sort.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    };
    let mut map = BTreeMap::new();
    for _ in 0..300 {
        map.insert(next() % 2000, format!("r{}", next() % 1000));
    }
    let mut v: Vec<u64> = (0..300).map(|_| next()).collect();
    v.sort_unstable();
    let hits: usize = (0..300u64)
        .filter_map(|i| map.get(&(i * 7)))
        .map(String::len)
        .sum();
    hits as u64 ^ v[v.len() / 2]
}

/// Runs the kernel once without recording it, to reload the caches and
/// branch predictors other work evicted.
pub fn warm_up() {
    std::hint::black_box(kernel());
}

fn sample_ms() -> f64 {
    let started = Instant::now();
    std::hint::black_box(kernel());
    started.elapsed().as_secs_f64() * 1e3
}

/// The host's recent speed, from kernel samples taken between
/// operations.
#[derive(Debug)]
pub struct HostSpeed {
    recent: VecDeque<f64>,
    last: Instant,
    all: Samples,
}

impl HostSpeed {
    /// Starts with a few kernel samples.
    #[must_use]
    pub fn new() -> Self {
        let mut speed = HostSpeed {
            recent: VecDeque::with_capacity(RECENT),
            last: Instant::now(),
            all: Samples::default(),
        };
        speed.refresh();
        speed
    }

    fn sample(&mut self) {
        let ms = sample_ms();
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        self.all.push(ms);
        self.last = Instant::now();
    }

    /// Takes a full window of fresh samples (before a set-up).
    pub fn refresh(&mut self) {
        for _ in 0..RECENT {
            self.sample();
        }
    }

    /// Takes a sample if [`EVERY`] has passed since the last one. Call
    /// between operations, outside their timers.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// Runs `f` and returns its result with its time in reference
    /// seconds, calibrating right before and right after it.
    pub fn time_s<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        self.refresh();
        let before = self.factor();
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.refresh();
        (out, secs * (before + self.factor()) / 2.0)
    }

    /// Reference milliseconds per measured millisecond right now.
    #[must_use]
    pub fn factor(&self) -> f64 {
        let mut recent: Vec<f64> = self.recent.iter().copied().collect();
        recent.sort_by(f64::total_cmp);
        REFERENCE_MS / median(&recent).expect("at least one sample")
    }

    /// Every kernel sample so far.
    #[must_use]
    pub fn samples(&self) -> &Samples {
        &self.all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_follows_the_recent_kernel_time() {
        let mut speed = HostSpeed::new();
        assert_eq!(speed.samples().len(), RECENT);
        let f = speed.factor();
        assert!(f > 0.0 && f.is_finite());
        speed.recent = VecDeque::from(vec![0.2; RECENT]);
        assert!((speed.factor() - REFERENCE_MS / 0.2).abs() < 1e-12);
        speed.recent = VecDeque::from(vec![0.05, 0.05, 0.05, 0.4, 0.4]);
        assert!((speed.factor() - REFERENCE_MS / 0.05).abs() < 1e-12);
        speed.last = Instant::now() - EVERY;
        speed.tick();
        assert_eq!(speed.samples().len(), RECENT + 1);
        assert_eq!(speed.recent.len(), RECENT);
    }
}
