//! The benchmark's statistics: medians, quartiles, the tail rule,
//! failure accounting and the peak-RSS reading.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The `p`-th percentile (0–100) of ascending `sorted` samples, by
/// linear interpolation between closest ranks. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of ascending `sorted` samples.
#[must_use]
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// First and third quartiles of ascending `sorted` samples.
#[must_use]
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    Some((percentile(sorted, 25.0)?, percentile(sorted, 75.0)?))
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile
/// rank.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    // Multiply before dividing so whole-number ranks stay exact.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    n.saturating_sub(rank)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND_TAIL`] of `n` samples beyond it, if any.
#[must_use]
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND_TAIL)
}

/// Latency samples in milliseconds, summarized once sorted.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Appends another set's samples.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean sample (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Operations per second of busy time: the sample count over the
    /// sum of the samples (0 when empty).
    #[must_use]
    pub fn rate_per_s(&self) -> f64 {
        let busy_s = self.sum() / 1e3;
        if busy_s > 0.0 {
            self.0.len() as f64 / busy_s
        } else {
            0.0
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Median (0 when empty).
    #[must_use]
    pub fn p50(&self) -> f64 {
        median(&self.sorted()).unwrap_or(0.0)
    }

    /// First and third quartiles (`None` when empty).
    #[must_use]
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        quartiles(&self.sorted())
    }

    /// The `p`-th percentile, but only when the tail rule allows it:
    /// at least [`MIN_BEYOND_TAIL`] samples beyond it.
    #[must_use]
    pub fn tail(&self, p: f64) -> Option<f64> {
        if beyond(self.len(), p) < MIN_BEYOND_TAIL {
            return None;
        }
        percentile(&self.sorted(), p)
    }
}

/// Operations attempted and failed. A wrong answer is a failure just
/// like an error.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation with its outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks an already counted operation as failed (a wrong answer
    /// found by an oracle after the timed region).
    pub fn fail_checked(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set size in MiB from a `/proc/<pid>/status` text
/// (the `VmHWM` line, in kB).
#[must_use]
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(3.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((2.0, 4.0)));
        assert_eq!(percentile(&[0.0, 10.0], 90.0), Some(9.0));
    }

    #[test]
    fn samples_sort_before_summarizing() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.sum(), 9.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(Samples::default().p50(), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        assert_eq!(highest_tail(999), Some(98.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(40), Some(75.0));
        assert_eq!(highest_tail(39), None);
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail(99.0), None);
        s.push(999.0);
        assert!((s.tail(99.0).expect("1000 samples allow p99") - 989.01).abs() < 1e-9);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        t.fail_checked();
        assert_eq!(t.failed, 2);
        t.fail_checked();
        t.fail_checked();
        assert_eq!(t.failed, 3, "never more failures than attempts");
        let mut u = Tally::default();
        u.merge(t);
        u.record(true);
        assert_eq!(
            u,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
    }

    #[test]
    fn peak_rss_reads_vm_hwm() {
        let status =
            "Name:\thembench\nVmPeak:\t  10240 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        let live = peak_rss_mb().expect("procfs is mounted");
        assert!(live > 0.1 && live < 4096.0, "{live}");
    }
}
