//! Accuracy checks against the direct NUDFT on a fixed sample of
//! outputs, so a check costs `O(sample * M)` or `O(sample * N)` instead
//! of the full `O(N M)` sum.

use nufft_common::metrics::rel_l2;
use nufft_common::reference::type2_direct;
use nufft_common::{freqs, Complex, Points, Real, Shape, TransformType};

/// Outputs per accuracy measurement: enough that the estimate moves
/// little from seed to seed.
pub const SAMPLE: usize = 256;

/// The conformance envelope `6 eps + floor`, with the floor set by the
/// working precision.
pub fn envelope<T: Real>(eps: f64) -> f64 {
    6.0 * eps + if T::IS_DOUBLE { 2e-13 } else { 6e-7 }
}

/// `k` distinct indices in `0..n`, drawn from `seed` (all of them when
/// `k >= n`), in ascending order.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k {
        picked.insert((splitmix64(&mut state) % n as u64) as usize);
    }
    picked.into_iter().collect()
}

/// One step of the SplitMix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Direct sums at the output entries `idx` of a type 1 or type 2
/// transform with sign `iflag` (mode outputs in centered order, `k1`
/// fastest).
pub fn direct_at<T: Real>(
    ttype: TransformType,
    pts: &Points<T>,
    input: &[Complex<T>],
    modes: Shape,
    iflag: i32,
    idx: &[usize],
) -> Vec<Complex<f64>> {
    match ttype {
        TransformType::Type1 => type1_at(pts, input, modes, iflag, idx),
        TransformType::Type2 => {
            let mut sub = Points {
                coords: [Vec::new(), Vec::new(), Vec::new()],
                dim: pts.dim,
            };
            for (d, coord) in sub.coords.iter_mut().enumerate().take(pts.dim) {
                *coord = idx.iter().map(|&j| pts.coords[d][j]).collect();
            }
            type2_direct(&sub, input, modes, iflag)
        }
    }
}

/// `f_k = sum_j c_j e^{i sign k.x_j}` at the mode indices `idx` only.
fn type1_at<T: Real>(
    pts: &Points<T>,
    strengths: &[Complex<T>],
    modes: Shape,
    sign: i32,
    idx: &[usize],
) -> Vec<Complex<f64>> {
    let axes: Vec<Vec<i64>> = (0..3).map(|d| freqs(modes.n[d]).collect()).collect();
    let s = f64::from(sign);
    idx.iter()
        .map(|&i| {
            let k = [
                axes[0][i % modes.n[0]] as f64,
                axes[1][(i / modes.n[0]) % modes.n[1]] as f64,
                axes[2][i / (modes.n[0] * modes.n[1])] as f64,
            ];
            let mut acc = Complex::<f64>::ZERO;
            for (j, cj) in strengths.iter().enumerate() {
                let phase = (0..3).map(|d| k[d] * pts.coord(d, j).to_f64()).sum::<f64>();
                acc += cj.cast::<f64>() * Complex::cis(s * phase);
            }
            acc
        })
        .collect()
}

/// Relative ℓ2 error of `out` at the entries `idx` against `truth`.
pub fn sampled_rel_err<T: Real>(out: &[Complex<T>], idx: &[usize], truth: &[Complex<f64>]) -> f64 {
    let picked: Vec<Complex<T>> = idx.iter().map(|&i| out[i]).collect();
    rel_l2(&picked, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::reference::type1_direct;
    use nufft_common::{gen_points, gen_strengths, PointDist};

    #[test]
    fn sampled_type1_matches_the_reference_sum() {
        let modes = Shape::d3(6, 5, 4);
        let pts = gen_points::<f64>(PointDist::Rand, 3, 40, Shape::d3(12, 10, 8), 3);
        let c = gen_strengths::<f64>(40, 4);
        let full = type1_direct(&pts, &c, modes, -1);
        let idx = sample_indices(modes.total(), 17, 9);
        let got = direct_at(TransformType::Type1, &pts, &c, modes, -1, &idx);
        for (g, &i) in got.iter().zip(&idx) {
            assert!((g.re - full[i].re).abs() < 1e-12 && (g.im - full[i].im).abs() < 1e-12);
        }
    }

    #[test]
    fn sampled_type2_matches_the_reference_sum() {
        let modes = Shape::d2(8, 6);
        let pts = gen_points::<f32>(PointDist::Rand, 2, 30, Shape::d2(16, 12), 5);
        let f = gen_strengths::<f32>(modes.total(), 6);
        let full = type2_direct(&pts, &f, modes, 1);
        let idx = sample_indices(30, 7, 1);
        let got = direct_at(TransformType::Type2, &pts, &f, modes, 1, &idx);
        for (g, &i) in got.iter().zip(&idx) {
            assert_eq!(*g, full[i]);
        }
    }

    #[test]
    fn sample_indices_are_distinct_sorted_and_seeded() {
        let a = sample_indices(1000, 64, 7);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, sample_indices(1000, 64, 7));
        assert_ne!(a, sample_indices(1000, 64, 8));
        assert_eq!(sample_indices(5, 64, 7), vec![0, 1, 2, 3, 4]);
    }
}
