//! Smooth ("5-smooth") FFT sizes of the form `2^q * 3^p * 5^r`.
//!
//! Following FINUFFT/cuFINUFFT, the upsampled fine grid in each dimension is
//! the smallest 5-smooth integer `>= max(sigma * N, 2w)` so the FFT stays
//! efficient (Sec. II of the paper).

use crate::error::{NufftError, Result};
use crate::shape::Shape;

/// Returns `true` iff `n` has no prime factors other than 2, 3 and 5.
pub fn is_smooth(mut n: usize) -> bool {
    if n == 0 {
        return false;
    }
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// Smallest 5-smooth integer `>= n`, or `None` when it does not fit in
/// `usize`. `next_smooth(0)` and `next_smooth(1)` are both 1.
///
/// Walks the `3^b * 5^c` lattice below `n` and lifts each point to `n`
/// with one power of two, in checked arithmetic: `O(log^2 n)` steps,
/// however far away the next smooth number is.
pub fn next_smooth(n: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut p5 = Some(1usize);
    while let Some(f5) = p5 {
        let mut p35 = Some(f5);
        while let Some(f) = p35 {
            // the smallest f * 2^a >= n
            let lifted = n.div_ceil(f).checked_next_power_of_two();
            if let Some(c) = lifted.and_then(|pow2| f.checked_mul(pow2)) {
                best = Some(best.map_or(c, |b| b.min(c)));
            }
            // once f >= n, more factors of 3 only move further above n
            p35 = f.checked_mul(3).filter(|_| f < n);
        }
        p5 = f5.checked_mul(5).filter(|_| f5 < n);
    }
    best
}

/// Policy for choosing the upsampled fine-grid size from the mode count.
///
/// The paper's rule rounds up to a 5-smooth size so the fine-grid FFT
/// stays on the fast mixed-radix path. [`FineSizing::Exact`] skips the
/// rounding and uses `max(ceil(sigma*n), 2w)` as-is, which for prime `n`
/// (with integer sigma) leaves a large prime factor in the fine grid and
/// therefore routes the FFT through the Bluestein chirp-z fallback. The
/// conformance harness uses this to exercise Bluestein through the full
/// plan pipeline; production plans should keep the default.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum FineSizing {
    /// Round the target up to the next 5-smooth integer (paper rule).
    #[default]
    Smooth,
    /// Use `max(ceil(sigma*n), 2w)` exactly, whatever its factorization.
    Exact,
}

/// Fine-grid size of one dimension under a [`FineSizing`] policy (the
/// paper's rule is [`FineSizing::Smooth`]: the smallest 5-smooth integer
/// `>= max(ceil(sigma*n), 2w)`); `None` when `sigma*n` or its 5-smooth
/// ceiling does not fit in `usize`.
pub fn fine_grid_size_with(n: usize, sigma: f64, w: usize, sizing: FineSizing) -> Option<usize> {
    let scaled = (sigma * n as f64).ceil();
    // usize::MAX as f64 rounds up to 2^64: anything at or above it,
    // where the cast would saturate, does not fit
    if scaled.is_nan() || scaled >= usize::MAX as f64 {
        return None;
    }
    let target = (scaled as usize).max(2 * w);
    match sizing {
        FineSizing::Smooth => next_smooth(target),
        FineSizing::Exact => Some(target),
    }
}

/// Fine grid for `modes`, one [`fine_grid_size_with`] per dimension;
/// `BadModes` when a dimension or the total point count does not fit
/// in `usize`.
pub fn fine_grid_shape(modes: Shape, sigma: f64, w: usize, sizing: FineSizing) -> Result<Shape> {
    let dims = &modes.n[..modes.dim];
    dims.iter()
        .map(|&n| fine_grid_size_with(n, sigma, w, sizing))
        .collect::<Option<Vec<usize>>>()
        .map(|fine| Shape::from_slice(&fine))
        .filter(|fine| fine.checked_total().is_some())
        .ok_or_else(|| {
            NufftError::BadModes(format!("fine grid for modes {dims:?} overflows usize"))
        })
}

/// Factorize a 5-smooth number into its (2,3,5) exponents; returns `None`
/// for non-smooth input.
pub fn smooth_factor(mut n: usize) -> Option<(u32, u32, u32)> {
    if n == 0 {
        return None;
    }
    let mut e = [0u32; 3];
    for (i, p) in [2usize, 3, 5].iter().enumerate() {
        while n.is_multiple_of(*p) {
            n /= p;
            e[i] += 1;
        }
    }
    (n == 1).then_some((e[0], e[1], e[2]))
}

/// Full prime factorization (small primes by trial division), used by the
/// mixed-radix FFT planner for arbitrary sizes.
pub fn factorize(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothness_detection() {
        for n in [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 720, 1024, 3600] {
            assert!(is_smooth(n), "{n} should be smooth");
        }
        for n in [7, 11, 13, 14, 22, 77, 1022] {
            assert!(!is_smooth(n), "{n} should not be smooth");
        }
        assert!(!is_smooth(0));
    }

    #[test]
    fn next_smooth_values() {
        assert_eq!(next_smooth(0), Some(1));
        assert_eq!(next_smooth(1), Some(1));
        assert_eq!(next_smooth(7), Some(8));
        assert_eq!(next_smooth(11), Some(12));
        assert_eq!(next_smooth(13), Some(15));
        assert_eq!(next_smooth(17), Some(18));
        assert_eq!(next_smooth(1025), Some(1080));
        // already smooth stays put
        assert_eq!(next_smooth(960), Some(960));
    }

    #[test]
    fn fine_grid_respects_kernel_width() {
        let fine_grid_size = |n, sigma, w| fine_grid_size_with(n, sigma, w, FineSizing::Smooth);
        // sigma*N small, 2w dominates
        assert_eq!(fine_grid_size(4, 2.0, 8), Some(16));
        // sigma*N dominates: 2*100=200 -> 200 = 2^3*5^2 is smooth
        assert_eq!(fine_grid_size(100, 2.0, 4), Some(200));
        // non-smooth target rounds up: 2*101=202 -> 216
        assert_eq!(fine_grid_size(101, 2.0, 4), Some(216));
    }

    #[test]
    fn exact_sizing_keeps_prime_factors() {
        // prime modes with sigma=2: fine = 2n keeps the prime factor, so
        // the FFT goes through Bluestein; the smooth policy rounds away
        assert_eq!(
            fine_grid_size_with(101, 2.0, 4, FineSizing::Exact),
            Some(202)
        );
        assert_eq!(
            fine_grid_size_with(101, 2.0, 4, FineSizing::Smooth),
            Some(216)
        );
        // the 2w floor still applies under Exact
        assert_eq!(fine_grid_size_with(4, 2.0, 8, FineSizing::Exact), Some(16));
    }

    /// The reference rule: test integers upward one at a time (with a
    /// smoothness test cheap enough to scan ~10^8 integers in a debug
    /// build).
    fn linear_next_smooth(n: usize) -> usize {
        let mut m = n.max(1);
        loop {
            let mut r = m >> m.trailing_zeros();
            while r.is_multiple_of(3) {
                r /= 3;
            }
            while r.is_multiple_of(5) {
                r /= 5;
            }
            if r == 1 {
                return m;
            }
            m += 1;
        }
    }

    #[test]
    fn next_smooth_matches_linear_scan_below_2_pow_20() {
        // walk down, carrying the smallest smooth number seen so far: the
        // linear scan's answer for every n in one pass
        let top = 1usize << 20;
        let mut above = linear_next_smooth(top);
        for n in (0..=top).rev() {
            if is_smooth(n) {
                above = n;
            }
            assert_eq!(next_smooth(n), Some(above.max(1)), "n = {n}");
        }
    }

    #[test]
    fn next_smooth_matches_linear_scan_at_large_sigma2_targets() {
        // sigma = 2 targets for 2^30+1, 2^33+1 and 2^36+1 modes, where
        // the linear scan takes tens of milliseconds to seconds
        for modes in [(1usize << 30) + 1, (1 << 33) + 1, (1 << 36) + 1] {
            let target = 2 * modes;
            assert_eq!(
                next_smooth(target),
                Some(linear_next_smooth(target)),
                "target {target}"
            );
        }
    }

    #[test]
    fn sizes_past_usize_are_none_not_wrapped() {
        // usize::MAX itself is not 5-smooth, and nothing above it fits
        assert_eq!(next_smooth(usize::MAX), None);
        // the largest power of two still fits
        assert_eq!(next_smooth(1 << 63), Some(1 << 63));
        let above = next_smooth((1 << 63) + 1).expect("a smooth size above 2^63 fits");
        assert!(is_smooth(above) && above > 1 << 63, "{above}");
        // sigma * n past usize, under both sizing rules
        for sizing in [FineSizing::Smooth, FineSizing::Exact] {
            assert_eq!(fine_grid_size_with(usize::MAX / 2, 2.0, 4, sizing), None);
            assert_eq!(fine_grid_size_with(usize::MAX, 1.25, 4, sizing), None);
        }
        assert!(matches!(
            fine_grid_shape(Shape::d1(usize::MAX / 2), 2.0, 4, FineSizing::Smooth),
            Err(NufftError::BadModes(_))
        ));
        // every dimension fits but the total does not
        assert!(matches!(
            fine_grid_shape(Shape::d2(1 << 40, 1 << 40), 2.0, 4, FineSizing::Smooth),
            Err(NufftError::BadModes(_))
        ));
        assert_eq!(
            fine_grid_shape(Shape::d2(100, 101), 2.0, 4, FineSizing::Smooth),
            Ok(Shape::d2(200, 216))
        );
    }

    #[test]
    fn factor_roundtrip() {
        for n in [1usize, 2, 6, 30, 360, 2250] {
            let (a, b, c) = smooth_factor(n).unwrap();
            assert_eq!(
                n,
                2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c),
                "factoring {n}"
            );
        }
        assert!(smooth_factor(14).is_none());
        assert!(smooth_factor(0).is_none());
    }

    #[test]
    fn general_factorization() {
        assert_eq!(factorize(1), Vec::<usize>::new());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(360), vec![2, 2, 2, 3, 3, 5]);
        assert_eq!(factorize(97), vec![97]);
        assert_eq!(factorize(91), vec![7, 13]);
    }
}
