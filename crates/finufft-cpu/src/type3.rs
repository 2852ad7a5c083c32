//! Type 3 NUFFT: nonuniform to nonuniform (Lee & Greengard 2005) —
//! a cuFINUFFT future-work item (paper Sec. VI) that FINUFFT provides.
//!
//! Computes `f_k = sum_j c_j e^{i iflag s_k . x_j}` for arbitrary source
//! points `x_j in [-X, X]^d` and target frequencies `s_k in [-S, S]^d`.
//!
//! Algorithm (per dimension): pick a fine grid of `nf >= 2 sigma X S /
//! pi + 2w` points and a rescaling `gamma = nf / (2 sigma S)`; then
//! `x' = x / gamma` fills `[-pi, pi)` with a w-cell safety margin and
//! `tau = gamma h s` lands in `[-pi/sigma, pi/sigma]`. The transform
//! becomes: spread `c_j` at `x'_j` onto the fine grid, evaluate the
//! resulting semi-discrete transform at the `tau_k` with an inner
//! **type 2** NUFFT (on the centered fine-grid array), and divide out
//! the spreading kernel's transform at each target:
//! `f_k = t2(b~, tau_k)_k / prod_i phihat(alpha_i gamma_i s_{k,i})`
//! with `alpha = w h / 2`.

use crate::plan::{Opts, Plan};
use nufft_common::complex::Complex;
use nufft_common::error::{NufftError, Result};
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::smooth::next_smooth;
use nufft_common::workload::Points;
use nufft_common::TransformType;
use nufft_kernels::EsKernel;

/// A type 3 plan: fixed source/target geometry, reusable with new
/// strength vectors.
pub struct Type3Plan<T: Real> {
    dim: usize,
    iflag: i32,
    kernel: EsKernel,
    /// Fine grid for the source-side spreading.
    nf: Shape,
    /// Per-dimension rescaling factors gamma_i.
    gamma: [f64; 3],
    /// Source points rescaled into [-pi, pi)^d.
    xp: Option<Points<T>>,
    /// Inner type-2 plan evaluated at tau_k = gamma h s_k.
    inner: Option<Plan<T>>,
    /// Per-target correction 1 / prod_i phihat(alpha_i gamma_i s_ki).
    corr: Vec<f64>,
    n_targets: usize,
    m_sources: usize,
    /// Scratch fine grid (wrapped layout), reused across executes.
    grid: Vec<Complex<T>>,
}

/// Half-widths `X_i = max_j |x_ji|`, floored to avoid degenerate scales.
fn half_width<T: Real>(pts: &Points<T>, dim: usize) -> [f64; 3] {
    let mut out = [1.0f64; 3];
    for (oi, coords) in out.iter_mut().zip(&pts.coords).take(dim) {
        let w = coords
            .iter()
            .map(|v| v.to_f64().abs())
            .fold(0.0f64, f64::max);
        *oi = w.max(1e-3);
    }
    out
}

impl<T: Real> Type3Plan<T> {
    pub fn new(dim: usize, iflag: i32, eps: f64) -> Result<Self> {
        if !(1..=3).contains(&dim) {
            return Err(NufftError::BadDim(dim));
        }
        let kernel = EsKernel::for_tolerance(eps, T::IS_DOUBLE)?;
        Ok(Type3Plan {
            dim,
            iflag: if iflag >= 0 { 1 } else { -1 },
            kernel,
            nf: Shape::from_slice(&vec![1; dim]),
            gamma: [1.0; 3],
            xp: None,
            inner: None,
            corr: Vec::new(),
            n_targets: 0,
            m_sources: 0,
            grid: Vec::new(),
        })
    }

    pub fn kernel(&self) -> &EsKernel {
        &self.kernel
    }

    pub fn fine_grid_shape(&self) -> Shape {
        self.nf
    }

    /// Register the source points `x` and target frequencies `s`. The
    /// tolerance passed here is the inner type-2 tolerance (usually the
    /// same as the plan's).
    pub fn set_pts(&mut self, x: &Points<T>, s: &Points<T>, eps: f64) -> Result<()> {
        if x.dim != self.dim || s.dim != self.dim {
            return Err(NufftError::BadDim(x.dim.max(s.dim)));
        }
        for pts in [x, s] {
            for i in 0..self.dim {
                for (j, &v) in pts.coords[i].iter().enumerate() {
                    if !v.is_finite() {
                        return Err(NufftError::BadPoint {
                            index: j,
                            value: v.to_f64(),
                        });
                    }
                }
            }
        }
        let w = self.kernel.w;
        let sigma = 2.0f64;
        let xw = half_width(x, self.dim);
        let sw = half_width(s, self.dim);
        // fine grid size and rescaling per dimension
        let mut nfs = vec![0usize; self.dim];
        let mut gamma = [1.0f64; 3];
        for i in 0..self.dim {
            let target =
                (sigma * 2.0 * xw[i] * sw[i] / std::f64::consts::PI).ceil() as usize + 2 * w;
            nfs[i] = next_smooth(target.max(2 * w + 2)).ok_or_else(|| {
                NufftError::BadModes(format!("type-3 fine grid {target} overflows usize"))
            })?;
            gamma[i] = nfs[i] as f64 / (2.0 * sigma * sw[i]);
            // ensure x'/gamma stays at least w/2 cells from the boundary
            let h = std::f64::consts::TAU / nfs[i] as f64;
            let max_xp = xw[i] / gamma[i];
            debug_assert!(
                max_xp <= std::f64::consts::PI - (w as f64 / 2.0 - 1.0).max(0.0) * h,
                "type-3 rescaled sources escape the safety margin"
            );
        }
        let nf = Shape::from_slice(&nfs);
        // rescaled source points
        let mut xp = Points {
            coords: [Vec::new(), Vec::new(), Vec::new()],
            dim: self.dim,
        };
        for (i, xc) in xp.coords.iter_mut().enumerate().take(self.dim) {
            *xc = x.coords[i]
                .iter()
                .map(|&v| T::from_f64(v.to_f64() / gamma[i]))
                .collect();
        }
        // inner type-2 at tau = gamma h s (modes = the centered fine grid)
        let mut tau = Points {
            coords: [Vec::new(), Vec::new(), Vec::new()],
            dim: self.dim,
        };
        for (i, tc) in tau.coords.iter_mut().enumerate().take(self.dim) {
            let h = std::f64::consts::TAU / nf.n[i] as f64;
            *tc = s.coords[i]
                .iter()
                .map(|&v| T::from_f64(gamma[i] * h * v.to_f64()))
                .collect();
        }
        let mut inner =
            Plan::<T>::new(TransformType::Type2, &nfs, self.iflag, eps, Opts::default())?;
        inner.set_pts(tau)?;
        // per-target kernel corrections
        let n_targets = s.len();
        let mut corr = vec![1.0f64; n_targets];
        for (i, &g) in gamma.iter().enumerate().take(self.dim) {
            let h = std::f64::consts::TAU / nf.n[i] as f64;
            let alpha = w as f64 * h / 2.0;
            for (k, c) in corr.iter_mut().enumerate() {
                let xi = alpha * g * s.coords[i][k].to_f64();
                let ft = self.kernel.ft(xi);
                if ft.abs() < f64::MIN_POSITIVE {
                    return Err(NufftError::BadOptions(format!(
                        "type-3 target {k} outside the resolvable band"
                    )));
                }
                *c *= (2.0 / w as f64) / ft;
            }
        }
        self.nf = nf;
        self.gamma = gamma;
        self.m_sources = x.len();
        self.n_targets = n_targets;
        self.corr = corr;
        self.xp = Some(xp);
        self.inner = Some(inner);
        self.grid = vec![Complex::ZERO; nf.total()];
        Ok(())
    }

    /// Run the transform: `strengths` has M entries, `out` N entries.
    pub fn execute(&mut self, strengths: &[Complex<T>], out: &mut [Complex<T>]) -> Result<()> {
        let xp = self.xp.as_ref().ok_or(NufftError::PointsNotSet)?;
        if strengths.len() != self.m_sources {
            return Err(NufftError::LengthMismatch {
                expected: self.m_sources,
                got: strengths.len(),
            });
        }
        if out.len() != self.n_targets {
            return Err(NufftError::LengthMismatch {
                expected: self.n_targets,
                got: out.len(),
            });
        }
        // 1) spread strengths at the rescaled sources
        self.grid.iter_mut().for_each(|z| *z = Complex::ZERO);
        let order: Vec<u32> = (0..self.m_sources as u32).collect();
        crate::spread::spread_serial(&self.kernel, self.nf, xp, strengths, &order, &mut self.grid);
        // 2) reorder the wrapped fine grid into centered-mode layout:
        // grid index l (coordinate (l h) mod 2pi, wrapped) holds the
        // sample at centered position lc = ((l + nf/2) mod nf) - nf/2;
        // the inner type-2 treats its input as coefficients over the
        // centered frequency grid I_nf in ascending order (index
        // j = lc + nf/2), so b~[wrap(l + nf/2)] = grid[l] per dimension.
        let nf = self.nf;
        let mut centered = vec![Complex::<T>::ZERO; nf.total()];
        for l3 in 0..nf.n[2] {
            let c3 = (l3 + nf.n[2] / 2) % nf.n[2];
            for l2 in 0..nf.n[1] {
                let c2 = (l2 + nf.n[1] / 2) % nf.n[1];
                for l1 in 0..nf.n[0] {
                    let c1 = (l1 + nf.n[0] / 2) % nf.n[0];
                    centered[nf.idx(c1, c2, c3)] = self.grid[nf.idx(l1, l2, l3)];
                }
            }
        }
        // 3) inner type 2 at tau_k, then 4) kernel correction
        let inner = self.inner.as_mut().expect("points set");
        inner.execute(&centered, out)?;
        for (z, &c) in out.iter_mut().zip(self.corr.iter()) {
            *z = z.scale(T::from_f64(c));
        }
        Ok(())
    }
}

/// One-shot 1D type 3 transform.
pub fn nufft1d3<T: Real>(
    x: &[T],
    strengths: &[Complex<T>],
    iflag: i32,
    eps: f64,
    s: &[T],
) -> Result<Vec<Complex<T>>> {
    let mut plan = Type3Plan::<T>::new(1, iflag, eps)?;
    plan.set_pts(
        &Points {
            coords: [x.to_vec(), Vec::new(), Vec::new()],
            dim: 1,
        },
        &Points {
            coords: [s.to_vec(), Vec::new(), Vec::new()],
            dim: 1,
        },
        eps,
    )?;
    let mut out = vec![Complex::ZERO; s.len()];
    plan.execute(strengths, &mut out)?;
    Ok(out)
}

/// One-shot 2D type 3 transform.
#[allow(clippy::too_many_arguments)]
pub fn nufft2d3<T: Real>(
    x: &[T],
    y: &[T],
    strengths: &[Complex<T>],
    iflag: i32,
    eps: f64,
    sx: &[T],
    sy: &[T],
) -> Result<Vec<Complex<T>>> {
    let mut plan = Type3Plan::<T>::new(2, iflag, eps)?;
    plan.set_pts(
        &Points {
            coords: [x.to_vec(), y.to_vec(), Vec::new()],
            dim: 2,
        },
        &Points {
            coords: [sx.to_vec(), sy.to_vec(), Vec::new()],
            dim: 2,
        },
        eps,
    )?;
    let mut out = vec![Complex::ZERO; sx.len()];
    plan.execute(strengths, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::c;
    use nufft_common::metrics::rel_l2;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Direct O(NM) type-3 sum in f64.
    fn direct(
        x: &Points<f64>,
        cs: &[Complex<f64>],
        s: &Points<f64>,
        iflag: i32,
    ) -> Vec<Complex<f64>> {
        (0..s.len())
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, c) in cs.iter().enumerate().take(x.len()) {
                    let mut phase = 0.0;
                    for i in 0..x.dim {
                        phase += s.coord(i, k) * x.coord(i, j);
                    }
                    acc += *c * Complex::cis(iflag as f64 * phase);
                }
                acc
            })
            .collect()
    }

    fn random_pts(dim: usize, n: usize, half_width: f64, seed: u64) -> Points<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords = [Vec::new(), Vec::new(), Vec::new()];
        for coord in coords.iter_mut().take(dim) {
            *coord = (0..n)
                .map(|_| rng.random_range(-half_width..half_width))
                .collect();
        }
        Points { coords, dim }
    }

    fn random_strengths(n: usize, seed: u64) -> Vec<Complex<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| c(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn type3_1d_meets_tolerance() {
        for eps in [1e-4, 1e-8, 1e-11] {
            let x = random_pts(1, 150, 2.5, 1);
            let s = random_pts(1, 120, 20.0, 2);
            let cs = random_strengths(150, 3);
            let out = nufft1d3(x.x(), &cs, 1, eps, s.x()).unwrap();
            let want = direct(&x, &cs, &s, 1);
            let err = rel_l2(&out, &want);
            assert!(err < 50.0 * eps, "eps={eps}: err={err}");
        }
    }

    #[test]
    fn type3_2d_meets_tolerance() {
        for eps in [1e-4, 1e-8] {
            let x = random_pts(2, 200, 1.8, 4);
            let s = random_pts(2, 150, 12.0, 5);
            let cs = random_strengths(200, 6);
            let out = nufft2d3(x.x(), x.y(), &cs, -1, eps, s.x(), s.y()).unwrap();
            let want = direct(&x, &cs, &s, -1);
            let err = rel_l2(&out, &want);
            assert!(err < 50.0 * eps, "eps={eps}: err={err}");
        }
    }

    #[test]
    fn type3_3d_meets_tolerance() {
        let eps = 1e-6;
        let x = random_pts(3, 120, 1.2, 7);
        let s = random_pts(3, 100, 6.0, 8);
        let cs = random_strengths(120, 9);
        let mut plan = Type3Plan::<f64>::new(3, 1, eps).unwrap();
        plan.set_pts(&x, &s, eps).unwrap();
        let mut out = vec![Complex::ZERO; 100];
        plan.execute(&cs, &mut out).unwrap();
        let want = direct(&x, &cs, &s, 1);
        let err = rel_l2(&out, &want);
        assert!(err < 50.0 * eps, "err={err}");
    }

    #[test]
    fn plan_reuse_with_new_strengths() {
        let eps = 1e-9;
        let x = random_pts(2, 80, 3.0, 10);
        let s = random_pts(2, 90, 8.0, 11);
        let mut plan = Type3Plan::<f64>::new(2, 1, eps).unwrap();
        plan.set_pts(&x, &s, eps).unwrap();
        for seed in [20u64, 21] {
            let cs = random_strengths(80, seed);
            let mut out = vec![Complex::ZERO; 90];
            plan.execute(&cs, &mut out).unwrap();
            let want = direct(&x, &cs, &s, 1);
            assert!(rel_l2(&out, &want) < 1e-7, "seed {seed}");
        }
    }

    #[test]
    fn asymmetric_scales_work() {
        // tiny sources x huge frequencies, and vice versa per-dimension
        let eps = 1e-7;
        let mut x = random_pts(2, 60, 0.05, 30);
        x.coords[1] = random_pts(1, 60, 10.0, 31).coords[0].clone();
        let mut s = random_pts(2, 70, 100.0, 32);
        s.coords[1] = random_pts(1, 70, 0.3, 33).coords[0].clone();
        let cs = random_strengths(60, 34);
        let mut plan = Type3Plan::<f64>::new(2, -1, eps).unwrap();
        plan.set_pts(&x, &s, eps).unwrap();
        let mut out = vec![Complex::ZERO; 70];
        plan.execute(&cs, &mut out).unwrap();
        let want = direct(&x, &cs, &s, -1);
        let err = rel_l2(&out, &want);
        assert!(err < 100.0 * eps, "err={err}");
    }

    #[test]
    fn single_precision_type3() {
        let eps = 1e-5;
        let x64 = random_pts(1, 100, 2.0, 40);
        let s64 = random_pts(1, 80, 15.0, 41);
        let x: Vec<f32> = x64.x().iter().map(|&v| v as f32).collect();
        let s: Vec<f32> = s64.x().iter().map(|&v| v as f32).collect();
        let cs64 = random_strengths(100, 42);
        let cs: Vec<Complex<f32>> = cs64.iter().map(|z| z.cast()).collect();
        let out = nufft1d3(&x, &cs, 1, eps, &s).unwrap();
        let want = direct(&x64, &cs64, &s64, 1);
        assert!(rel_l2(&out, &want) < 1e-3);
    }

    #[test]
    fn error_paths() {
        let mut plan = Type3Plan::<f64>::new(2, 1, 1e-6).unwrap();
        let mut out = vec![Complex::ZERO; 4];
        assert!(matches!(
            plan.execute(&[Complex::ZERO; 4], &mut out),
            Err(NufftError::PointsNotSet)
        ));
        assert!(Type3Plan::<f64>::new(0, 1, 1e-6).is_err());
        assert!(Type3Plan::<f64>::new(4, 1, 1e-6).is_err());
        assert!(Type3Plan::<f32>::new(2, 1, 1e-12).is_err());
    }
}
