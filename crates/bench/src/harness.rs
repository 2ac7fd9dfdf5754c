//! A minimal wall-clock measurement harness.
//!
//! The container this repository builds in has no network access, so the
//! bench targets cannot depend on criterion; this module provides the
//! small subset the benches need: warmup, repeated timing, and robust
//! statistics (median and median absolute deviation, never the mean,
//! so one descheduled iteration cannot move a result).

use std::time::Instant;

/// One benchmark measurement: wall time per iteration over `iters` runs.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Timed iterations (after one warmup run).
    pub iters: u32,
    /// Median seconds per iteration.
    pub median_secs: f64,
    /// Median absolute deviation of the per-iteration seconds.
    pub mad_secs: f64,
}

impl Measurement {
    /// Elements per second given `elems` processed per iteration.
    pub fn throughput(&self, elems: u64) -> f64 {
        elems as f64 / self.median_secs
    }
}

/// Median and median absolute deviation of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median_mad(xs: &[f64]) -> (f64, f64) {
    fn median(v: &mut [f64]) -> f64 {
        assert!(!v.is_empty(), "median of no samples");
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }
    let mut v = xs.to_vec();
    let m = median(&mut v);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    (m, median(&mut dev))
}

/// Seconds one call of `f` takes.
pub fn time(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Times `f` for `iters` iterations after one untimed warmup call.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn bench<F: FnMut()>(name: &str, iters: u32, mut f: F) -> Measurement {
    assert!(iters > 0, "need at least one iteration");
    f(); // warmup
    let times: Vec<f64> = (0..iters).map(|_| time(&mut f)).collect();
    let (median_secs, mad_secs) = median_mad(&times);
    Measurement {
        name: name.to_string(),
        iters,
        median_secs,
        mad_secs,
    }
}

/// Prints a measurement as an aligned human-readable row.
pub fn report(m: &Measurement) {
    println!(
        "{:<36} {:>10.3} ms/iter  (MAD {:.3}, {} iters)",
        m.name,
        m.median_secs * 1e3,
        m.mad_secs * 1e3,
        m.iters
    );
}

/// How many times cheaper side A is than side B, over repeated trials.
#[derive(Debug, Clone)]
pub struct Ratio {
    /// Ratio label, `<stage>.<variant>.<A>/<B>`.
    pub name: String,
    /// One B-cost / A-cost value per trial.
    pub values: Vec<f64>,
}

impl Ratio {
    /// Median and median absolute deviation over the trials.
    pub fn median_mad(&self) -> (f64, f64) {
        median_mad(&self.values)
    }

    /// One JSON object (stable key order) for `BENCH_ratios.json`.
    pub fn to_json(&self) -> String {
        let (median, mad) = self.median_mad();
        let values: Vec<String> = self.values.iter().map(|v| format!("{v:.4}")).collect();
        format!(
            "{{\"name\":\"{}\",\"trials\":{},\"median\":{median:.4},\"mad\":{mad:.4},\"values\":[{}]}}",
            self.name,
            self.values.len(),
            values.join(",")
        )
    }
}

/// Times side `a` against side `b` over `trials` trials after one
/// untimed warmup call of each. Both sides run back to back inside every
/// trial (in alternating order), so host drift hits both; each trial
/// records `time(b) / time(a)`.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn time_ratio(name: &str, trials: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> Ratio {
    assert!(trials > 0, "need at least one trial");
    a();
    b();
    let values = (0..trials)
        .map(|t| {
            if t % 2 == 0 {
                let ta = time(&mut a);
                time(&mut b) / ta
            } else {
                let tb = time(&mut b);
                tb / time(&mut a)
            }
        })
        .collect();
    Ratio {
        name: name.to_string(),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |x, i| std::hint::black_box(x.wrapping_add(i)))
    }

    #[test]
    fn bench_measures_something() {
        let m = bench("spin", 3, || {
            std::hint::black_box(spin(10_000));
        });
        assert_eq!(m.iters, 3);
        assert!(m.median_secs >= 0.0 && m.mad_secs >= 0.0);
    }

    #[test]
    fn median_mad_ignores_one_outlier() {
        assert_eq!(median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), (3.0, 1.0));
        assert_eq!(median_mad(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.0));
    }

    #[test]
    fn time_ratio_sees_the_cheaper_side() {
        let r = time_ratio(
            "spin.short/long",
            5,
            || {
                std::hint::black_box(spin(1_000));
            },
            || {
                std::hint::black_box(spin(200_000));
            },
        );
        assert_eq!(r.values.len(), 5);
        assert!(r.median_mad().0 > 1.0, "{:?}", r.values);
        assert!(r.to_json().contains("\"trials\":5"));
    }
}
