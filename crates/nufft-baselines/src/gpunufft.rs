//! gpuNUFFT-style GPU gridding (Knoll et al. 2014), reimplemented on the
//! simulated device as the paper's output-driven (gather) baseline.
//!
//! Characteristics modeled from the real library:
//!
//! * **Kaiser–Bessel** kernel evaluated through a lookup table — the LUT
//!   quantization puts a floor on achievable accuracy (the paper observed
//!   gpuNUFFT's error "appears always to exceed 1e-3");
//! * kernel width capped by the **sector width 8** design;
//! * **CPU pre-sorting** of points into sectors when the operator is
//!   built (the paper excludes this from "total+mem"; so do we);
//! * type 1 gridding is **output-driven**: thread blocks own sectors and
//!   gather from candidate points of the 3^d sector neighbourhood,
//!   paying a distance check for every (cell, candidate) pair — the
//!   brute-force factor that makes gpuNUFFT an order of magnitude slower
//!   than input-driven spreading at matched accuracy;
//! * host (CPU) arrays in, host arrays out, so every call pays transfers.

use cufinufft::interp::interp_gm;
use cufinufft::plan::GpuStageTimings;
use cufinufft::spread::PtsRef;
use gpu_sim::{Device, GpuBuffer, LaunchConfig, LaunchReport, Precision};
use nufft_common::complex::Complex;
use nufft_common::error::{NufftError, Result};
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::smooth::{fine_grid_shape, FineSizing};
use nufft_common::workload::Points;
use nufft_common::TransformType;
use nufft_fft::Direction;
use nufft_kernels::deconv::correction_rows;
use nufft_kernels::{grid_coord, spread_footprint, KaiserBesselKernel, Kernel1d};

/// gpuNUFFT's fixed sector width in fine-grid cells.
pub const SECTOR_WIDTH: usize = 8;
/// Entries in the kernel lookup table (sets the accuracy floor).
pub const LUT_SIZE: usize = 1024;
/// Candidate-chunk size per thread block (sector processing in passes).
const CHUNK: usize = 512;

/// Kaiser–Bessel kernel evaluated through a nearest-entry lookup table,
/// as gpuNUFFT's texture fetch does.
#[derive(Copy, Clone)]
pub struct LutKernel {
    pub inner: KaiserBesselKernel,
    table: [f64; LUT_SIZE],
}

impl LutKernel {
    pub fn new(inner: KaiserBesselKernel) -> Self {
        let mut table = [0.0; LUT_SIZE];
        for (i, t) in table.iter_mut().enumerate() {
            let z = i as f64 / (LUT_SIZE - 1) as f64;
            *t = inner.eval(z);
        }
        LutKernel { inner, table }
    }
}

impl Kernel1d for LutKernel {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn eval(&self, z: f64) -> f64 {
        let a = z.abs();
        if a > 1.0 {
            return 0.0;
        }
        let i = (a * (LUT_SIZE - 1) as f64).round() as usize;
        self.table[i.min(LUT_SIZE - 1)]
    }

    fn ft(&self, xi: f64) -> f64 {
        self.inner.ft(xi)
    }
}

/// Host-side sector sort (gpuNUFFT builds this on the CPU when the
/// operator is created; no device time charged).
struct SectorSort {
    nsec: [usize; 3],
    /// point indices grouped by sector (CSR layout)
    perm: Vec<u32>,
    starts: Vec<u32>,
}

fn sector_sort<T: Real>(pts: &Points<T>, fine: Shape) -> SectorSort {
    let mut nsec = [1usize; 3];
    for (ns, &n) in nsec.iter_mut().zip(&fine.n).take(fine.dim) {
        *ns = n.div_ceil(SECTOR_WIDTH);
    }
    let total = nsec[0] * nsec[1] * nsec[2];
    let m = pts.len();
    let sector_of = |j: usize| -> usize {
        let mut s = [0usize; 3];
        for (i, si) in s.iter_mut().enumerate().take(pts.dim) {
            let g = grid_coord(pts.coord(i, j).to_f64(), fine.n[i]);
            *si = ((g as usize).min(fine.n[i] - 1)) / SECTOR_WIDTH;
        }
        s[0] + nsec[0] * (s[1] + nsec[1] * s[2])
    };
    let mut counts = vec![0u32; total + 1];
    let secs: Vec<u32> = (0..m)
        .map(|j| {
            let s = sector_of(j);
            counts[s + 1] += 1;
            s as u32
        })
        .collect();
    for s in 0..total {
        counts[s + 1] += counts[s];
    }
    let starts = counts.clone();
    let mut cursor = counts;
    let mut perm = vec![0u32; m];
    for (j, &s) in secs.iter().enumerate() {
        perm[cursor[s as usize] as usize] = j as u32;
        cursor[s as usize] += 1;
    }
    SectorSort { nsec, perm, starts }
}

/// A gpuNUFFT-style plan.
pub struct GpunufftPlan<T: Real> {
    ttype: TransformType,
    modes: Shape,
    fine: Shape,
    iflag: i32,
    kernel: LutKernel,
    dev: Device,
    fft: gpu_fft::GpuFftPlan<T>,
    corr: [Vec<f64>; 3],
    d_grid: GpuBuffer<Complex<T>>,
    d_in: GpuBuffer<Complex<T>>,
    d_out: GpuBuffer<Complex<T>>,
    pts_host: Option<Points<T>>,
    sort: Option<SectorSort>,
    d_pts: Option<[GpuBuffer<T>; 3]>,
    timings: GpuStageTimings,
}

use crate::cunfft::dev_err;

impl<T: Real> GpunufftPlan<T> {
    pub fn new(
        ttype: TransformType,
        modes: &[usize],
        iflag: i32,
        eps: f64,
        dev: &Device,
    ) -> Result<Self> {
        if modes.is_empty() || modes.len() > 3 {
            return Err(NufftError::BadDim(modes.len()));
        }
        let sigma = 2.0;
        let kb = KaiserBesselKernel::for_tolerance(eps, sigma);
        let kernel = LutKernel::new(kb);
        let modes = Shape::from_slice(modes);
        // sector tiling requires fine sizes to be sector multiples
        let fine = fine_grid_shape(modes, sigma, kernel.width(), FineSizing::Smooth)?
            .map(|_, n| n.div_ceil(SECTOR_WIDTH) * SECTOR_WIDTH);
        let corr = correction_rows(&kernel, modes, fine);
        let fft = gpu_fft::GpuFftPlan::new(fine);
        let t0 = dev.clock();
        let d_grid = dev.alloc("gpunufft_grid", fine.total()).map_err(dev_err)?;
        let d_in = dev.alloc("gpunufft_in", 0).map_err(dev_err)?;
        let d_out = dev.alloc("gpunufft_out", 0).map_err(dev_err)?;
        let timings = GpuStageTimings {
            alloc: dev.clock() - t0,
            ..Default::default()
        };
        Ok(GpunufftPlan {
            ttype,
            modes,
            fine,
            iflag: if iflag >= 0 { 1 } else { -1 },
            kernel,
            dev: dev.clone(),
            fft,
            corr,
            d_grid,
            d_in,
            d_out,
            pts_host: None,
            sort: None,
            d_pts: None,
            timings,
        })
    }

    pub fn kernel_width(&self) -> usize {
        self.kernel.width()
    }

    pub fn timings(&self) -> GpuStageTimings {
        self.timings
    }

    pub fn fine_grid_shape(&self) -> Shape {
        self.fine
    }

    pub fn modes(&self) -> Shape {
        self.modes
    }

    pub fn transform_type(&self) -> TransformType {
        self.ttype
    }

    pub fn num_points(&self) -> usize {
        self.pts_host.as_ref().map_or(0, |p| p.len())
    }

    /// Build the operator: CPU sector sort (uncharged, per the paper's
    /// timing methodology) + transfer of the sorted point arrays.
    pub fn set_pts(&mut self, pts: &Points<T>) -> Result<()> {
        if pts.dim != self.modes.dim {
            return Err(NufftError::BadDim(pts.dim));
        }
        let m = pts.len();
        let sort = sector_sort(pts, self.fine);
        let t0 = self.dev.clock();
        let mut bufs = [
            self.dev.alloc("gpunufft_x", m).map_err(dev_err)?,
            self.dev
                .alloc("gpunufft_y", if pts.dim >= 2 { m } else { 0 })
                .map_err(dev_err)?,
            self.dev
                .alloc("gpunufft_z", if pts.dim >= 3 { m } else { 0 })
                .map_err(dev_err)?,
        ];
        for (buf, coords) in bufs.iter_mut().zip(&pts.coords).take(pts.dim) {
            self.dev.memcpy_htod(buf, coords).map_err(dev_err)?;
        }
        // the paper excludes operator construction from total+mem; track
        // the transfer under h2d but zero the sort stage
        self.timings.h2d_pts = self.dev.clock() - t0;
        self.timings.sort = 0.0;
        self.sort = Some(sort);
        self.d_pts = Some(bufs);
        self.pts_host = Some(pts.clone());
        Ok(())
    }

    pub fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let m = self
            .pts_host
            .as_ref()
            .map(|p| p.len())
            .ok_or(NufftError::PointsNotSet)?;
        let n = self.modes.total();
        let (want_in, want_out) = match self.ttype {
            TransformType::Type1 => (m, n),
            TransformType::Type2 => (n, m),
        };
        if input.len() != want_in || output.len() != want_out {
            return Err(NufftError::LengthMismatch {
                expected: want_in,
                got: input.len(),
            });
        }
        let prec = if T::IS_DOUBLE {
            Precision::Double
        } else {
            Precision::Single
        };
        let cb = std::mem::size_of::<Complex<T>>();
        let t0 = self.dev.clock();
        if self.d_in.len() != want_in {
            self.d_in = self.dev.alloc("gpunufft_in", want_in).map_err(dev_err)?;
        }
        if self.d_out.len() != want_out {
            self.d_out = self.dev.alloc("gpunufft_out", want_out).map_err(dev_err)?;
        }
        self.timings.alloc += self.dev.clock() - t0;
        let t1 = self.dev.clock();
        self.dev
            .memcpy_htod(&mut self.d_in, input)
            .map_err(dev_err)?;
        self.timings.h2d_data = self.dev.clock() - t1;
        let dir = Direction::from_sign(self.iflag);
        match self.ttype {
            TransformType::Type1 => {
                let t = self.dev.clock();
                self.d_grid
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|z| *z = Complex::ZERO);
                self.dev
                    .bulk_op("gpunufft_memset", 0, self.fine.total() * cb, 0.0, prec);
                self.gather_gridding().map_err(dev_err)?;
                self.timings.spread_interp = self.dev.clock() - t;
                let t = self.dev.clock();
                self.fft.execute(&self.dev, &mut self.d_grid, dir);
                self.timings.fft = self.dev.clock() - t;
                let t = self.dev.clock();
                crate::cunfft::deconv_copy(
                    &self.corr,
                    self.modes,
                    self.fine,
                    self.d_grid.as_slice(),
                    self.d_out.as_mut_slice(),
                    false,
                );
                self.dev
                    .bulk_op("gpunufft_deconv", n * cb, n * cb, n as f64 * 8.0, prec);
                self.timings.deconv = self.dev.clock() - t;
            }
            TransformType::Type2 => {
                let t = self.dev.clock();
                self.d_grid
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|z| *z = Complex::ZERO);
                self.dev
                    .bulk_op("gpunufft_memset", 0, self.fine.total() * cb, 0.0, prec);
                crate::cunfft::deconv_copy(
                    &self.corr,
                    self.modes,
                    self.fine,
                    self.d_in.as_slice(),
                    self.d_grid.as_mut_slice(),
                    true,
                );
                self.dev
                    .bulk_op("gpunufft_precorrect", n * cb, n * cb, n as f64 * 8.0, prec);
                self.timings.deconv = self.dev.clock() - t;
                let t = self.dev.clock();
                self.fft.execute(&self.dev, &mut self.d_grid, dir);
                self.timings.fft = self.dev.clock() - t;
                let t = self.dev.clock();
                let sort = self.sort.as_ref().expect("points set");
                let bufs = self.d_pts.as_ref().expect("points set");
                let pr = PtsRef {
                    coords: [bufs[0].as_slice(), bufs[1].as_slice(), bufs[2].as_slice()],
                    dim: self.modes.dim,
                };
                interp_gm(
                    &self.dev,
                    "gpunufft_forward",
                    &self.kernel,
                    self.fine,
                    &pr,
                    self.d_grid.as_slice(),
                    &sort.perm,
                    self.d_out.as_mut_slice(),
                    SECTOR_WIDTH * SECTOR_WIDTH,
                )
                .map_err(dev_err)?;
                // per-pair distance computation + LUT fetches without
                // tensor-product factorization (same inefficiency as the
                // adjoint path), on top of the generic gather cost
                let w = self.kernel.width();
                let pairs = m as f64 * (w as f64).powi(self.modes.dim as i32);
                self.dev
                    .bulk_op("gpunufft_forward_pairs", 0, 0, pairs * 90.0, prec);
                self.timings.spread_interp = self.dev.clock() - t;
            }
        }
        let t2 = self.dev.clock();
        self.dev.memcpy_dtoh(output, &self.d_out).map_err(dev_err)?;
        self.timings.d2h = self.dev.clock() - t2;
        Ok(())
    }

    /// Output-driven adjoint gridding: one block per (sector, candidate
    /// chunk); each of the sector's cells checks every candidate point.
    fn gather_gridding(&mut self) -> std::result::Result<LaunchReport, gpu_sim::DeviceFault> {
        let pts = self.pts_host.as_ref().expect("points set");
        let sort = self.sort.as_ref().expect("points set");
        let kernel = &self.kernel;
        let fine = self.fine;
        let dim = self.modes.dim;
        let [n1, n2, _] = fine.n;
        let cb = std::mem::size_of::<Complex<T>>();
        let prec = if T::IS_DOUBLE {
            Precision::Double
        } else {
            Precision::Single
        };
        let strengths = self.d_in.as_slice();
        let grid = self.d_grid.as_mut_slice();
        let cells_per_sector = SECTOR_WIDTH.pow(dim as u32);
        let mut k = self.dev.kernel(
            "gpunufft_adjoint",
            LaunchConfig::new(prec, cells_per_sector.min(512)),
        )?;
        k.atomic_region(fine.total(), cb);
        let nsec = sort.nsec;
        let total_sectors = nsec[0] * nsec[1] * nsec[2];
        // a sector's candidates: the points of its periodic 3^d
        // neighbourhood, as one slice of the sector sort per neighbour
        let candidates = |s: usize| -> Vec<&[u32]> {
            let s1 = s % nsec[0];
            let r = s / nsec[0];
            let (s2, s3) = (r % nsec[1], r / nsec[1]);
            let mut out = Vec::new();
            let span = |c: usize, n: usize| -> Vec<usize> {
                if n == 1 {
                    vec![0]
                } else {
                    // periodic 3-neighbourhood
                    let mut v = vec![c];
                    v.push((c + 1) % n);
                    v.push((c + n - 1) % n);
                    v.sort_unstable();
                    v.dedup();
                    v
                }
            };
            for a3 in span(s3, nsec[2]) {
                for a2 in span(s2, nsec[1]) {
                    for a1 in span(s1, nsec[0]) {
                        let nb = a1 + nsec[0] * (a2 + nsec[1] * a3);
                        out.push(
                            &sort.perm[sort.starts[nb] as usize..sort.starts[nb + 1] as usize],
                        );
                    }
                }
            }
            out
        };
        // (sector, chunk) blocks in sector order; empty sectors launch none
        let blocks: Vec<(usize, usize)> = (0..total_sectors)
            .flat_map(|sec| {
                let n: usize = candidates(sec).iter().map(|c| c.len()).sum();
                (0..n.div_ceil(CHUNK)).map(move |c| (sec, c))
            })
            .collect();
        let prf = PtsRef {
            coords: [&pts.coords[0], &pts.coords[1], &pts.coords[2]],
            dim,
        };
        // Each block returns its (cell, delta) adds, applied to the grid
        // in block-id order and, within a block, in candidate order.
        let body = |bid: usize, b: &mut gpu_sim::BlockAcc<'_>| {
            let (sec, c) = blocks[bid];
            // candidates c*CHUNK.. of the sector's neighbourhood list
            let mut chunk: Vec<u32> = Vec::with_capacity(CHUNK);
            let mut skip = c * CHUNK;
            for part in candidates(sec) {
                let from = skip.min(part.len());
                skip -= from;
                let take = (part.len() - from).min(CHUNK - chunk.len());
                chunk.extend_from_slice(&part[from..from + take]);
            }
            // sector cell origin
            let s1 = sec % nsec[0];
            let r = sec / nsec[0];
            let (s2, s3) = (r % nsec[1], r / nsec[1]);
            let o = [s1 * SECTOR_WIDTH, s2 * SECTOR_WIDTH, s3 * SECTOR_WIDTH];
            let mut addrs = [0usize; 32];
            // candidate point loads (scattered gathers)
            for warp in chunk.chunks(32) {
                for arr in 0..dim + 1 {
                    for (l, &j) in warp.iter().enumerate() {
                        addrs[l] = j as usize * T::BYTES + arr * 7919; // distinct arrays
                    }
                    b.warp_access(&addrs[..warp.len()]);
                }
            }
            // every (cell, candidate) pair pays distance computation
            // in all axes plus the in-range test (gpuNUFFT computes
            // these per pair; no tensor-product factorization)
            let checked = cells_per_sector as u64 * chunk.len() as u64;
            b.flops(checked * 24);
            // functional + accepted-pair accounting via footprints
            let mut accepted = 0u64;
            let mut deltas: Vec<(usize, Complex<T>)> = Vec::new();
            for &jr in &chunk {
                let j = jr as usize;
                let fp = sector_clipped_footprint(kernel, fine, &prf, j, o, dim);
                if let Some((cells, weights)) = fp {
                    accepted += cells.len() as u64;
                    let c = strengths[j];
                    for (cell, wgt) in cells.iter().zip(weights.iter()) {
                        deltas.push((*cell, c.scale(T::from_f64(*wgt))));
                        b.global_atomic(*cell);
                        b.global_atomic(*cell);
                    }
                }
            }
            // accepted pairs additionally pay per-axis LUT fetches
            // and the complex multiply-accumulate
            b.flops(accepted * 80);
            // sector-region writes: contiguous rows of the sector
            for c3 in 0..if dim >= 3 { SECTOR_WIDTH } else { 1 } {
                for c2 in 0..if dim >= 2 { SECTOR_WIDTH } else { 1 } {
                    let base = (o[2] + c3) * n1 * n2 + (o[1] + c2) * n1 + o[0];
                    b.stream_span(base * cb, SECTOR_WIDTH * cb, true);
                }
            }
            deltas
        };
        k.run_blocks(blocks.len(), body, |_bid, deltas| {
            for (cell, v) in deltas {
                grid[cell] += v;
            }
        });
        Ok(self.dev.launch_end(k))
    }
}

/// gpuNUFFT has no native batching; the trait's default `execute_many`
/// loop applies.
impl<T: Real> nufft_common::NufftPlan<T> for GpunufftPlan<T> {
    fn transform_type(&self) -> TransformType {
        self.ttype
    }

    fn modes(&self) -> Shape {
        self.modes
    }

    fn num_points(&self) -> usize {
        GpunufftPlan::num_points(self)
    }

    fn set_points(&mut self, pts: &Points<T>) -> Result<()> {
        self.set_pts(pts)
    }

    fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        GpunufftPlan::execute(self, input, output)
    }

    fn exec_time(&self) -> f64 {
        self.timings.exec()
    }

    fn total_time(&self) -> f64 {
        self.timings.total_mem()
    }

    fn backend_name(&self) -> &'static str {
        "gpunufft"
    }
}

/// Compute the (cell, weight) pairs of point `j`'s footprint clipped to
/// the sector starting at `o` (size SECTOR_WIDTH^dim), with periodic
/// wrapping. Returns `None` when the footprint misses the sector.
fn sector_clipped_footprint<T: Real, K: Kernel1d>(
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    j: usize,
    o: [usize; 3],
    dim: usize,
) -> Option<(Vec<usize>, Vec<f64>)> {
    let w = kernel.width();
    let [n1, n2, _n3] = fine.n;
    let mut idx: [Vec<(usize, f64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for i in 0..3 {
        if i >= dim {
            idx[i].push((0, 1.0));
            continue;
        }
        let n = fine.n[i];
        let g = grid_coord(pts.coord(i, j).to_f64(), n);
        let (l0, z0) = spread_footprint(g, w);
        let step = 2.0 / w as f64;
        for t in 0..w {
            let cell = (l0 + t as i64).rem_euclid(n as i64) as usize;
            if cell >= o[i] && cell < o[i] + SECTOR_WIDTH {
                idx[i].push((cell, kernel.eval(z0 + t as f64 * step)));
            }
        }
        if idx[i].is_empty() {
            return None;
        }
    }
    let mut cells = Vec::new();
    let mut weights = Vec::new();
    for &(c3, w3) in &idx[2] {
        for &(c2, w2) in &idx[1] {
            for &(c1, w1) in &idx[0] {
                cells.push(c1 + n1 * (c2 + n2 * c3));
                weights.push(w1 * w2 * w3);
            }
        }
    }
    Some((cells, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::workload::{gen_points, gen_strengths, PointDist};

    /// Every launch-report figure as bits, then an FNV-1a hash over the
    /// bits of `grid`: a single array a pin can compare in one assert.
    fn report_and_grid_bits<T: Real>(r: &LaunchReport, grid: &[Complex<T>]) -> [u64; 16] {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in grid.iter().flat_map(|z| [z.re.to_f64(), z.im.to_f64()]) {
            h = (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
        }
        let d = &r.breakdown;
        [
            r.duration.to_bits(),
            d.makespan.to_bits(),
            d.l2.to_bits(),
            d.dram.to_bits(),
            d.compute.to_bits(),
            d.atomic_hotspot.to_bits(),
            d.atomic_ops.to_bits(),
            d.overhead.to_bits(),
            r.l2_bytes.to_bits(),
            r.dram_bytes.to_bits(),
            r.flops.to_bits(),
            r.global_atomics,
            r.atomic_hotspot_count,
            r.blocks as u64,
            grid.len() as u64,
            h,
        ]
    }

    /// Type-1 adjoint gridding of `m` points onto a zeroed fine grid.
    fn gridding_bits<T: Real>(
        dist: PointDist,
        modes: &[usize],
        m: usize,
        seed: u64,
        host_threads: usize,
    ) -> [u64; 16] {
        let dev = Device::v100();
        dev.set_host_parallelism(host_threads);
        let mut plan = GpunufftPlan::<T>::new(TransformType::Type1, modes, 1, 1e-3, &dev).unwrap();
        let pts = gen_points::<T>(dist, modes.len(), m, plan.fine, seed);
        plan.set_pts(&pts).unwrap();
        plan.d_in = dev.alloc("gpunufft_in", m).unwrap();
        dev.memcpy_htod(&mut plan.d_in, &gen_strengths::<T>(m, seed + 1))
            .unwrap();
        let r = plan.gather_gridding().unwrap();
        report_and_grid_bits(&r, plan.d_grid.as_slice())
    }

    #[test]
    fn adjoint_gridding_report_and_grid_are_pinned() {
        // Full launch report and fine-grid bits of the type-1 gridding
        // kernel, at 1 and 4 host threads, against values recorded from
        // the serial block-accounting implementation.
        type Case = (&'static str, fn(usize) -> [u64; 16], [u64; 16]);
        let cases: [Case; 4] = [
            (
                "2D f32 rand",
                |t| gridding_bits::<f32>(PointDist::Rand, &[24, 20], 800, 91, t),
                [
                    4532225688516013969,
                    4530288377035156728,
                    4509401866841736413,
                    4494709611621133761,
                    4522933007751159580,
                    4512787814548873184,
                    4501040032487033030,
                    4524193975976911956,
                    4693524318150197248,
                    4673293853954932736,
                    4712748729206046720,
                    25600,
                    124,
                    30,
                    1920,
                    5418681556065701669,
                ],
            ),
            (
                "2D f64 cluster",
                |t| gridding_bits::<f64>(PointDist::Cluster, &[20, 24], 800, 93, t),
                [
                    4541788503099912429,
                    4541345781242143400,
                    4502360985432598615,
                    4494709611621133761,
                    4527436607378530076,
                    4525346233398732150,
                    4501040032487033030,
                    4524193975976911956,
                    4686305474558033920,
                    4673293853954932736,
                    4712748729206046720,
                    25600,
                    872,
                    18,
                    1920,
                    2155045403236233258,
                ],
            ),
            (
                "3D f32 cluster",
                |t| gridding_bits::<f32>(PointDist::Cluster, &[8, 12, 8], 400, 95, t),
                [
                    4547477563686093132,
                    4547256202757208617,
                    4499916537425337835,
                    4502254331310290391,
                    4533469868247045613,
                    4520955970566950525,
                    4505543632114403526,
                    4524193975976911956,
                    4684082262046670848,
                    4681008027535409152,
                    4723460171483840512,
                    51200,
                    442,
                    12,
                    6144,
                    6420396520783078181,
                ],
            ),
            (
                "3D f64 rand",
                |t| gridding_bits::<f64>(PointDist::Rand, &[12, 8, 8], 400, 97, t),
                [
                    4550455122151727011,
                    4550344441687284754,
                    4509623704729635697,
                    4506795541963160009,
                    4537973467874416109,
                    4507558508480427909,
                    4505543632114403526,
                    4524193975976911956,
                    4693726078533894144,
                    4685542413488357376,
                    4723460171483840512,
                    51200,
                    56,
                    12,
                    6144,
                    14269729462772126906,
                ],
            ),
        ];
        for (what, run, want) in cases {
            let serial = run(1);
            assert_eq!(serial, want, "{what}");
            assert_eq!(run(4), serial, "{what}: 4 host threads");
        }
    }
}
