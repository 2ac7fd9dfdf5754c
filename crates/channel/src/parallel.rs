//! Multithreaded channel processing.
//!
//! The paper's software channel is multithreaded "to take advantage of the
//! four available cores", and even so, noise generation saturates the host
//! and bottlenecks the whole co-simulation at 32.8–41.3% of line rate (§3).
//! This module reproduces that software organization: a buffer of samples
//! is split across a worker pool, each worker running an independent,
//! deterministically seeded Gaussian stream.

use wilis_fxp::Cplx;

use crate::gaussian::GaussianSource;
use crate::SnrDb;

/// Adds AWGN to `samples` using `threads` workers.
///
/// Determinism: the buffer is split into fixed chunks of [`CHUNK`] samples
/// and chunk `i` always uses the stream seeded by `(seed, i)`, so the
/// result is identical for any thread count — parallelism changes wall
/// time, never the realization.
///
/// # Panics
///
/// Panics if `threads` is zero.
///
/// # Example
///
/// ```
/// use wilis_channel::parallel::apply_awgn_parallel;
/// use wilis_channel::SnrDb;
/// use wilis_fxp::Cplx;
///
/// let mut a = vec![Cplx::ONE; 4096];
/// let mut b = vec![Cplx::ONE; 4096];
/// apply_awgn_parallel(&mut a, SnrDb::new(10.0), 7, 1);
/// apply_awgn_parallel(&mut b, SnrDb::new(10.0), 7, 4);
/// assert_eq!(a, b, "thread count must not change the realization");
/// ```
pub fn apply_awgn_parallel(samples: &mut [Cplx], snr: SnrDb, seed: u64, threads: usize) {
    assert!(threads > 0, "need at least one worker");
    let sigma = (snr.noise_power() / 2.0).sqrt();
    let chunks: Vec<&mut [Cplx]> = samples.chunks_mut(CHUNK).collect();
    let n_chunks = chunks.len();
    if n_chunks == 0 {
        return;
    }
    // Interleave chunks across workers round-robin so all workers see
    // similar load; each chunk's seed depends only on its index.
    std::thread::scope(|scope| {
        let mut work: Vec<Vec<(usize, &mut [Cplx])>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, chunk) in chunks.into_iter().enumerate() {
            work[i % threads].push((i, chunk));
        }
        for bundle in work {
            scope.spawn(move || {
                for (index, chunk) in bundle {
                    let mut g =
                        GaussianSource::new(seed ^ (index as u64).wrapping_mul(0x9e37_79b9));
                    for s in chunk {
                        let (nr, ni) = g.next_pair();
                        s.re += nr * sigma;
                        s.im += ni * sigma;
                    }
                }
            });
        }
    });
}

/// Chunk granularity for parallel noise generation, in samples.
pub const CHUNK: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_realization() {
        let mut serial = vec![Cplx::ZERO; CHUNK * 3 + 17];
        let mut parallel = serial.clone();
        apply_awgn_parallel(&mut serial, SnrDb::new(6.0), 99, 1);
        apply_awgn_parallel(&mut parallel, SnrDb::new(6.0), 99, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_buffer_is_fine() {
        let mut buf: Vec<Cplx> = Vec::new();
        apply_awgn_parallel(&mut buf, SnrDb::new(6.0), 1, 4);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let mut buf = vec![Cplx::ZERO; 8];
        apply_awgn_parallel(&mut buf, SnrDb::new(6.0), 1, 0);
    }

    #[test]
    fn noise_power_correct_across_chunks() {
        let n = CHUNK * 8;
        let mut buf = vec![Cplx::ZERO; n];
        apply_awgn_parallel(&mut buf, SnrDb::new(10.0), 5, 4);
        let p: f64 = buf.iter().map(|s| s.norm_sq()).sum::<f64>() / n as f64;
        let expect = SnrDb::new(10.0).noise_power();
        assert!((p / expect - 1.0).abs() < 0.05, "{p} vs {expect}");
    }
}
