//! Host-speed calibration.
//!
//! On a small shared virtual machine the same code runs up to twice as
//! fast or slow for seconds at a time, depending on what the machine's
//! other tenants do, so raw host seconds spread far more from run to
//! run than any regression bound worth having. Every host-clock metric
//! is therefore reported at a fixed reference speed: raw seconds times
//! [`REFERENCE_S`] over the median time of a fixed calibration kernel
//! run between the timed calls around each one (or, where calls are not
//! timed one by one, over the median of the samples taken in the same
//! window, for the serving workload in the server's idle gaps). The raw
//! value is printed beside it. The kernel is the benchmark's own code,
//! so no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

use crate::oracle::splitmix64;
use crate::stats::median;

/// The calibration kernel's time on the reference host (seconds).
pub const REFERENCE_S: f64 = 4e-3;

/// Samples on each side of a timed call that judge its host speed:
/// enough that one unlucky sample moves little, few enough to follow
/// the host's speed from one second to the next.
const WINDOW: usize = 2;

/// One timed call: raw host seconds and the calibration sample after it.
#[derive(Copy, Clone, Debug)]
pub struct Timed {
    pub raw: f64,
    at: usize,
}

#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Time one run of the kernel; returns the sample's number.
    pub fn sample(&mut self) -> usize {
        let t = Instant::now();
        black_box(kernel());
        self.samples.push(t.elapsed().as_secs_f64());
        self.samples.len() - 1
    }

    /// Time `f` and take a calibration sample after it; see
    /// [`Calibration::reference`].
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let t = Instant::now();
        let r = black_box(f());
        let raw = t.elapsed().as_secs_f64();
        let at = self.sample();
        (r, Timed { raw, at })
    }

    /// A [`Calibration::timed`] call's time at the reference speed,
    /// judged from the median of the samples taken around it: the
    /// [`WINDOW`] before and after the one that followed the call.
    pub fn reference(&self, t: &Timed) -> f64 {
        self.reference_at(t.raw, t.at)
    }

    /// `raw` seconds at the reference speed, judged from the samples
    /// around sample number `at`.
    pub fn reference_at(&self, raw: f64, at: usize) -> f64 {
        let lo = at.saturating_sub(WINDOW);
        let hi = (at + WINDOW + 1).min(self.samples.len());
        raw * REFERENCE_S / median(&self.samples[lo..hi])
    }

    /// Raw and reference seconds of timed calls.
    pub fn split(&self, timed: &[Timed]) -> (Vec<f64>, Vec<f64>) {
        timed.iter().map(|t| (t.raw, self.reference(t))).unzip()
    }

    /// Multiply raw host seconds by this to get reference seconds, for
    /// times not paired with samples of their own: the median over the
    /// whole run (takes a sample first if there is none).
    pub fn factor(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        REFERENCE_S / median(&self.samples)
    }

    pub fn describe(&self) -> String {
        format!(
            "host speed: calibration kernel median {:.3} ms over {} samples (reference {:.3} ms); host-clock metrics are raw seconds scaled by the reference over the samples taken around each call, or over the median of those taken while a metric was measured",
            median(&self.samples) * 1e3,
            self.samples.len(),
            REFERENCE_S * 1e3,
        )
    }
}

/// A fixed spreading-like loop: kernel values from `exp` and `cos`
/// added into an 8x8 window of a 256x256 grid at pseudo-random places.
fn kernel() -> f64 {
    const N: usize = 256;
    let mut grid = vec![0.0f64; N * N];
    let mut state = 12345u64;
    for _ in 0..20_000 {
        let x = (splitmix64(&mut state) % (N as u64 - 8)) as usize;
        let y = (splitmix64(&mut state) % (N as u64 - 8)) as usize;
        let f = (state % 1000) as f64 * 1e-3;
        for dy in 0..8 {
            let d = dy as f64 - f;
            let ky = (-0.1 * d * d).exp();
            for dx in 0..8 {
                grid[(y + dy) * N + x + dx] += ((dx as f64 + f) * 0.3).cos() * ky;
            }
        }
    }
    grid.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
    }

    #[test]
    fn factor_and_timed_calls() {
        let mut c = Calibration::default();
        let f = c.factor();
        assert!(f > 0.0 && f.is_finite(), "an empty run takes a sample");
        c.samples = vec![2.0, 2.0, 4.0]
            .into_iter()
            .map(|x| x * REFERENCE_S)
            .collect();
        assert_eq!(c.factor(), 0.5);
        let (r, t) = c.timed(|| 7);
        assert_eq!(r, 7);
        assert_eq!(t.at, 3);
        assert!(t.raw >= 0.0 && c.reference(&t) >= 0.0);
    }

    #[test]
    fn reference_uses_the_samples_around_the_call() {
        let mut c = Calibration {
            samples: vec![1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0]
                .into_iter()
                .map(|x| x * REFERENCE_S)
                .collect(),
        };
        // the sample after the call is index 3; its window is 1..=5
        assert_eq!(c.reference(&Timed { raw: 1.0, at: 3 }), 0.5);
        // clipped at both ends
        assert_eq!(c.reference(&Timed { raw: 1.0, at: 0 }), 0.5);
        assert_eq!(c.reference(&Timed { raw: 1.0, at: 6 }), 0.5);
        c.samples.truncate(1);
        assert_eq!(c.reference(&Timed { raw: 1.0, at: 0 }), 1.0);
    }
}
