//! Simulation statistics: counters, throughput meters, histograms.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use wilis_lis::stats::Counter;
/// let mut bits = Counter::new("decoded-bits");
/// bits.add(48);
/// bits.inc();
/// assert_eq!(bits.value(), 49);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// A zeroed counter with a diagnostic name.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            value: 0,
        }
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Adds one event.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Current count.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

/// Converts an event count and a simulated duration into a rate, the
/// measurement behind every "simulation speed" number in the paper's
/// Figure 2.
///
/// # Example
///
/// ```
/// use wilis_lis::stats::Throughput;
/// let t = Throughput::new(22_244_000, 1.0); // bits in one simulated second
/// assert!((t.per_sec() - 22_244_000.0).abs() < 1e-9);
/// assert!((t.mbits_per_sec() - 22.244).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    events: u64,
    secs: f64,
}

impl Throughput {
    /// A throughput measurement of `events` over `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not strictly positive.
    pub fn new(events: u64, secs: f64) -> Self {
        assert!(secs > 0.0, "throughput over a non-positive duration");
        Self { events, secs }
    }

    /// Events per second.
    pub fn per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }

    /// Events per second, in millions (reads as Mb/s when events are bits).
    pub fn mbits_per_sec(&self) -> f64 {
        self.per_sec() / 1e6
    }
}

/// A fixed-bin histogram over `u64` sample values, used to bin decoder
/// confidence hints (0..=63) against bit-error outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bins: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// A histogram with bins `0..bins` plus an overflow bin.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            bins: vec![0; bins],
            overflow: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        match self.bins.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Count in bin `i`, or `None` past the end.
    pub fn bin(&self, i: usize) -> Option<u64> {
        self.bins.get(i).copied()
    }

    /// Number of in-range bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no samples have been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Samples that fell past the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow
    }

    /// Iterates `(bin_index, count)` over in-range bins.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins.iter().copied().enumerate()
    }
}

/// Streaming mean/variance accumulator (Welford), for error-bar style
/// summaries like the paper's Figure 6 scatter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (0.0 with fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new("x");
        c.add(10);
        c.inc();
        assert_eq!(c.value(), 11);
        assert_eq!(c.to_string(), "x = 11");
    }

    #[test]
    #[should_panic(expected = "non-positive duration")]
    fn throughput_zero_duration_panics() {
        let _ = Throughput::new(1, 0.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(4);
        for v in [0, 1, 1, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.bin(0), Some(1));
        assert_eq!(h.bin(1), Some(2));
        assert_eq!(h.bin(2), Some(0));
        assert_eq!(h.bin(3), Some(1));
        assert_eq!(h.bin(4), None);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
        assert!(!h.is_empty());
    }

    #[test]
    fn running_mean_and_std() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_empty_is_zero() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.std_dev(), 0.0);
    }
}
