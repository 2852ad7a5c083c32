//! Bluestein chirp-z transform: an `O(n log n)` DFT for arbitrary `n`,
//! used when `n` contains a prime factor too large for a direct butterfly.
//!
//! Identity: `jk = (j^2 + k^2 - (k-j)^2) / 2`, so with chirp
//! `c_j = e^{-i pi j^2 / n}` the DFT becomes a circular convolution of
//! `a_j = x_j c_j` with `b_j = conj(c_j)`, carried out by a zero-padded
//! smooth-size FFT.
//!
//! # Precision
//!
//! The chirp products and the padded `m`-point convolution are carried out
//! in f64 regardless of the working precision `T`. Running them in f32
//! accumulated 2-3e-7 relative error on large primes (measured against a
//! direct f64 DFT at n = 101..10007) — above the ~1e-7 single-precision
//! floor the NUFFT error envelope budgets for the FFT stage. With f64
//! internals the f32 path is limited only by rounding the inputs/outputs
//! (~6e-8). The extra cost is confined to sizes with prime factors > 31,
//! which are already the slow FFT path.

use crate::plan1d::{Direction, Fft1d};
use nufft_common::complex::Complex;
use nufft_common::real::Real;
use nufft_common::smooth::next_smooth;
use std::marker::PhantomData;

pub struct Bluestein<T> {
    n: usize,
    m: usize,
    /// Forward chirp `c_j = e^{-i pi j^2 / n}`, j in 0..n.
    chirp: Vec<Complex<f64>>,
    /// FFT of the padded kernel for each direction, with the backward
    /// FFT's 1/m normalization folded in.
    bf_fwd: Vec<Complex<f64>>,
    bf_bwd: Vec<Complex<f64>>,
    inner: Fft1d<f64>,
    _precision: PhantomData<T>,
}

impl<T: Real> Bluestein<T> {
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        let Some(m) = next_smooth(2 * n - 1) else {
            panic!("Bluestein size {n}: no 5-smooth padding fits in usize");
        };
        // j^2 mod 2n keeps the angle argument exact for huge j.
        let chirp: Vec<Complex<f64>> = (0..n)
            .map(|j| {
                let q = (j * j) % (2 * n);
                let ang = -std::f64::consts::PI * q as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        let inner = Fft1d::<f64>::new(m);
        let build_kernel = |conj: bool| -> Vec<Complex<f64>> {
            let mut b = vec![Complex::<f64>::ZERO; m];
            for j in 0..n {
                let v = if conj { chirp[j].conj() } else { chirp[j] };
                b[j] = v;
                if j > 0 {
                    b[m - j] = v;
                }
            }
            inner.process(&mut b, Direction::Forward);
            // Fold the 1/m of the unscaled backward FFT into the kernel so
            // `process` needs no final scaling pass.
            let s = 1.0 / m as f64;
            b.iter_mut().for_each(|z| *z = z.scale(s));
            b
        };
        // Forward DFT convolves with conj(chirp); backward with chirp.
        let bf_fwd = build_kernel(true);
        let bf_bwd = build_kernel(false);
        Bluestein {
            n,
            m,
            chirp,
            bf_fwd,
            bf_bwd,
            inner,
            _precision: PhantomData,
        }
    }

    #[allow(clippy::type_complexity)] // (kernel slice, chirp map) pair is local plumbing
    pub fn process(&self, data: &mut [Complex<T>], dir: Direction) {
        assert_eq!(data.len(), self.n);
        let (kernel, chirp_of): (&[Complex<f64>], fn(Complex<f64>) -> Complex<f64>) = match dir {
            Direction::Forward => (&self.bf_fwd, |z| z),
            Direction::Backward => (&self.bf_bwd, |z: Complex<f64>| z.conj()),
        };
        let mut a = vec![Complex::<f64>::ZERO; self.m];
        for j in 0..self.n {
            let x: Complex<f64> = data[j].cast();
            a[j] = x * chirp_of(self.chirp[j]);
        }
        self.inner.process(&mut a, Direction::Forward);
        for (av, bv) in a.iter_mut().zip(kernel.iter()) {
            *av *= *bv;
        }
        self.inner.process(&mut a, Direction::Backward);
        // No 1/m here: the kernel spectrum carries the normalization.
        for k in 0..self.n {
            data[k] = (a[k] * chirp_of(self.chirp[k])).cast();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::c;
    use nufft_common::metrics::rel_l2;

    fn dft(x: &[Complex<f64>], sign: i32) -> Vec<Complex<f64>> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| {
                        let ang =
                            sign as f64 * std::f64::consts::TAU * (j * k % n) as f64 / n as f64;
                        x[j] * Complex::cis(ang)
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn matches_dft_on_primes() {
        for n in [2usize, 3, 7, 37, 41, 113, 499] {
            let b = Bluestein::<f64>::new(n);
            let x: Vec<Complex<f64>> = (0..n)
                .map(|j| c((j as f64).sin(), (j as f64).cos()))
                .collect();
            let mut y = x.clone();
            b.process(&mut y, Direction::Forward);
            assert!(rel_l2(&y, &dft(&x, -1)) < 1e-10, "fwd n={n}");
            let mut z = x.clone();
            b.process(&mut z, Direction::Backward);
            assert!(rel_l2(&z, &dft(&x, 1)) < 1e-10, "bwd n={n}");
        }
    }

    #[test]
    fn matches_dft_on_composite_with_large_prime() {
        // 2 * 53 exercises Bluestein via the plan's factor check path too
        let n = 106;
        let b = Bluestein::<f64>::new(n);
        let x: Vec<Complex<f64>> = (0..n).map(|j| c(1.0 / (j + 1) as f64, 0.25)).collect();
        let mut y = x.clone();
        b.process(&mut y, Direction::Forward);
        assert!(rel_l2(&y, &dft(&x, -1)) < 1e-10);
    }

    #[test]
    fn roundtrip_scales_by_n() {
        let n = 59;
        let b = Bluestein::<f64>::new(n);
        let x: Vec<Complex<f64>> = (0..n).map(|j| c(j as f64, -(j as f64))).collect();
        let mut y = x.clone();
        b.process(&mut y, Direction::Forward);
        b.process(&mut y, Direction::Backward);
        let scaled: Vec<_> = x.iter().map(|z| z.scale(n as f64)).collect();
        assert!(rel_l2(&y, &scaled) < 1e-10);
    }

    /// Regression for the f32 precision-loss bug: with the chirp products
    /// and padded convolution done in working precision, the single
    /// precision path measured 2.1-2.9e-7 relative error against a direct
    /// f64 DFT on primes 101..10007 — above the ~1e-7 f32 floor. With f64
    /// internals it must stay at the cast-rounding level.
    #[test]
    fn f32_large_primes_stay_at_precision_floor() {
        for n in [101usize, 997, 10007] {
            let x64: Vec<Complex<f64>> = (0..n)
                .map(|j| c((j as f64 * 0.37).sin(), (j as f64 * 0.71).cos()))
                .collect();
            let want = dft(&x64, -1);
            let b = Bluestein::<f32>::new(n);
            let mut y: Vec<Complex<f32>> = x64.iter().map(|z| z.cast()).collect();
            b.process(&mut y, Direction::Forward);
            let y64: Vec<Complex<f64>> = y.iter().map(|z| z.cast()).collect();
            let err = rel_l2(&y64, &want);
            assert!(err < 1.0e-7, "f32 Bluestein n={n}: rel_l2 = {err:.3e}");
        }
    }

    #[test]
    fn f32_backward_matches_direct_dft() {
        let n = 499;
        let x64: Vec<Complex<f64>> = (0..n).map(|j| c(1.0 / (j + 2) as f64, 0.1)).collect();
        let want = dft(&x64, 1);
        let b = Bluestein::<f32>::new(n);
        let mut y: Vec<Complex<f32>> = x64.iter().map(|z| z.cast()).collect();
        b.process(&mut y, Direction::Backward);
        let y64: Vec<Complex<f64>> = y.iter().map(|z| z.cast()).collect();
        assert!(rel_l2(&y64, &want) < 1.0e-7);
    }
}
