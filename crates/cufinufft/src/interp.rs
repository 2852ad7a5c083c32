//! GPU interpolation (type 2 step iii) — paper Sec. III-B.
//!
//! One thread per target point, in either user order (**GM**) or
//! bin-sorted order (**GM-sort**). Reads carry no write conflicts, so the
//! only effect of sorting is read coalescing; there is no SM variant
//! (the paper argues its benefit would be limited).

use crate::spread::{footprint, Footprint, PtsRef, SpreadInputs};
use gpu_sim::{BlockAcc, Device, DeviceFault, LaunchConfig, LaunchReport, Precision, Scope};
use nufft_common::complex::Complex;
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_kernels::Kernel1d;

const FLOPS_PER_EVAL: u64 = 30;
const FLOPS_PER_CELL: u64 = 8;

/// Interpolate the fine grid at the points listed in `order`, writing
/// `out[j] = value at point j` (original indexing).
#[allow(clippy::too_many_arguments)]
pub fn interp_gm<T: Real, K: Kernel1d>(
    dev: &Device,
    name: &str,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    grid: &[Complex<T>],
    order: &[u32],
    out: &mut [Complex<T>],
    threads_per_block: usize,
) -> Result<LaunchReport, DeviceFault> {
    let [n1, n2, _] = fine.n;
    let cb = std::mem::size_of::<Complex<T>>();
    let count = |b: &mut BlockAcc<'_>, fps: &[Footprint], runs: &mut Vec<(usize, usize)>| {
        warp_grid_sectors(b, fps, n1, n2, cb, runs)
    };
    interp_gm_counted(
        dev,
        name,
        kernel,
        fine,
        pts,
        grid,
        order,
        out,
        threads_per_block,
        count,
    )
}

/// Report the L2 sectors of one warp's grid loads, each sector once
/// (see [`BlockAcc::l2_warp_runs`]): one run of cells per footprint
/// row, two when the row wraps in x, so the cost is 32·w^(d−1) runs per
/// warp rather than 32·w^d cells.
fn warp_grid_sectors(
    b: &mut BlockAcc<'_>,
    fps: &[Footprint],
    n1: usize,
    n2: usize,
    cb: usize,
    runs: &mut Vec<(usize, usize)>,
) {
    runs.clear();
    for fp in fps {
        let (start, wd1) = (fp.idx[0][0], fp.wd[0]);
        for t3 in 0..fp.wd[2] {
            for t2 in 0..fp.wd[1] {
                let row = n1 * (fp.idx[1][t2] + n2 * fp.idx[2][t3]);
                if wd1 >= n1 {
                    runs.push((row, n1));
                } else if start + wd1 <= n1 {
                    runs.push((row + start, wd1));
                } else {
                    runs.push((row + start, n1 - start));
                    runs.push((row, wd1 - (n1 - start)));
                }
            }
        }
    }
    b.l2_warp_runs(cb, runs);
}

/// [`interp_gm`] with the warp grid-load sector count supplied by the
/// caller (`count(block, warp footprints, scratch runs)`), so tests can
/// hold the shipped count against an independent one.
#[allow(clippy::too_many_arguments)]
fn interp_gm_counted<T: Real, K: Kernel1d, C>(
    dev: &Device,
    name: &str,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    grid: &[Complex<T>],
    order: &[u32],
    out: &mut [Complex<T>],
    threads_per_block: usize,
    count: C,
) -> Result<LaunchReport, DeviceFault>
where
    C: Fn(&mut BlockAcc<'_>, &[Footprint], &mut Vec<(usize, usize)>) + Sync,
{
    assert_eq!(grid.len(), fine.total());
    assert_eq!(out.len(), order.len());
    let cb = std::mem::size_of::<Complex<T>>();
    let prec = if T::IS_DOUBLE {
        Precision::Double
    } else {
        Precision::Single
    };
    let mut k = dev.kernel(name, LaunchConfig::new(prec, threads_per_block))?;
    // traced buffers (no-ops unless the device is in hazard mode): the
    // grid is only read, each out[j] is written by exactly one thread
    let traced = k.access_traced();
    let tb_pts = k.trace_buffer("points", Scope::Global, T::BYTES);
    let tb_grid = k.trace_buffer("fine_grid", Scope::Global, cb / 2);
    let tb_out = k.trace_buffer("out", Scope::Global, cb / 2);
    let w = kernel.width();
    let dim = pts.dim;
    let [n1, n2, _] = fine.n;
    let m = order.len();
    let n_blocks = m.div_ceil(threads_per_block);
    let pts = *pts;
    // One task per thread block on the host pool (bit-identical to
    // serial; see `Kernel::run_blocks`). Each point's value is written by
    // exactly one thread, so the per-block result is a disjoint list of
    // (j, value) writes applied in block-id order.
    let body = |bid: usize, b: &mut BlockAcc<'_>| {
        let block = &order[bid * threads_per_block..m.min((bid + 1) * threads_per_block)];
        let mut addrs = [0usize; 32];
        let mut fps: Vec<Footprint> = Vec::with_capacity(32);
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut writes: Vec<(usize, Complex<T>)> = Vec::with_capacity(block.len());
        for (wi, warp) in block.chunks(32).enumerate() {
            let lane0 = (wi * 32) as u32;
            // point coordinate loads
            for arr in 0..dim {
                for (l, &j) in warp.iter().enumerate() {
                    addrs[l] = j as usize * T::BYTES + arr;
                    b.trace_read(tb_pts, lane0 + l as u32, (j as u64) * 4 + arr as u64);
                }
                b.warp_access(&addrs[..warp.len()]);
            }
            b.flops(warp.len() as u64 * (dim * w) as u64 * FLOPS_PER_EVAL);
            fps.clear();
            fps.extend(
                warp.iter()
                    .map(|&j| footprint(kernel, fine, &pts, j as usize)),
            );
            let [wd1, wd2, wd3] = fps[0].wd;
            let steps = (wd1 * wd2 * wd3) as u64;
            b.flops(steps * fps.len() as u64 * FLOPS_PER_CELL);
            count(b, &fps, &mut runs);
            // DRAM-side grid reads, row-wise through the line model
            for fp in fps.iter() {
                for t3 in 0..fp.wd[2] {
                    for t2 in 0..fp.wd[1] {
                        let row = n1 * (fp.idx[1][t2] + n2 * fp.idx[2][t3]);
                        crate::spread::account_row(b, row, fp.l0[0], fp.wd[0], n1, cb, false);
                    }
                }
            }
            // output writes c[t(j)] — scattered when sorted
            for (l, &j) in warp.iter().enumerate() {
                addrs[l] = j as usize * cb;
            }
            b.warp_access(&addrs[..warp.len()]);
            // functional interpolation
            for (l, (&j, fp)) in warp.iter().zip(fps.iter()).enumerate() {
                let lane = lane0 + l as u32;
                writes.push((j as usize, gather(grid, fp, n1, n2)));
                if traced {
                    for t3 in 0..fp.wd[2] {
                        for t2 in 0..fp.wd[1] {
                            let base = fp.idx[2][t3] * n1 * n2 + fp.idx[1][t2] * n1;
                            for &i1 in &fp.idx[0][..fp.wd[0]] {
                                let cell = (base + i1) as u64;
                                b.trace_read(tb_grid, lane, 2 * cell);
                                b.trace_read(tb_grid, lane, 2 * cell + 1);
                            }
                        }
                    }
                }
                b.trace_write(tb_out, lane, 2 * j as u64);
                b.trace_write(tb_out, lane, 2 * j as u64 + 1);
            }
        }
        writes
    };
    k.run_blocks(n_blocks, body, |_bid, writes| {
        for (j, v) in writes {
            out[j] = v;
        }
    });
    Ok(dev.launch_end(k))
}

/// The value at one point: its footprint's grid cells weighted by the
/// separable kernel, summed along x within each row, then over rows.
#[inline]
fn gather<T: Real>(grid: &[Complex<T>], fp: &Footprint, n1: usize, n2: usize) -> Complex<T> {
    let mut acc = Complex::<T>::ZERO;
    for t3 in 0..fp.wd[2] {
        for t2 in 0..fp.wd[1] {
            let k23 = fp.ker[1][t2] * fp.ker[2][t3];
            let base = fp.idx[2][t3] * n1 * n2 + fp.idx[1][t2] * n1;
            let mut row = Complex::<T>::ZERO;
            for t1 in 0..fp.wd[0] {
                row += grid[base + fp.idx[0][t1]].scale(T::from_f64(fp.ker[0][t1]));
            }
            acc += row.scale(T::from_f64(k23));
        }
    }
    acc
}

/// Shared-memory interpolation (the variant the paper chose NOT to ship;
/// Sec. III-B argues its benefit would be limited because reads carry no
/// write conflicts). Implemented here as an ablation: each subproblem
/// block stages its padded bin into shared memory with coalesced global
/// reads, then its points gather from shared. Compare against
/// [`interp_gm`] with a bin-sorted order to reproduce the paper's
/// design-decision evidence.
#[allow(clippy::too_many_arguments)]
pub fn interp_sm<T: Real, K: Kernel1d>(
    dev: &Device,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    grid: &[Complex<T>],
    perm: &[u32],
    layout: &crate::bins::BinLayout,
    subproblems: &[crate::bins::Subproblem],
    out: &mut [Complex<T>],
) -> Result<LaunchReport, DeviceFault> {
    assert_eq!(grid.len(), fine.total());
    assert_eq!(out.len(), perm.len());
    let cb = std::mem::size_of::<Complex<T>>();
    let prec = if T::IS_DOUBLE {
        Precision::Double
    } else {
        Precision::Single
    };
    let w = kernel.width();
    let pad = 2 * w.div_ceil(2);
    let dim = pts.dim;
    let mut p = [1usize; 3];
    for (pi, &bs) in p.iter_mut().zip(&layout.bin_size).take(dim) {
        *pi = bs + pad;
    }
    let padded_cells = p[0] * p[1] * p[2];
    let shared_bytes = (padded_cells * cb).min(dev.props().shared_mem_per_block);
    let mut k = dev.kernel(
        "interp_SM",
        LaunchConfig::new(prec, 256).with_shared(shared_bytes),
    )?;
    let [n1, n2, n3] = fine.n;
    let half = (pad / 2) as i64;
    // One block per subproblem; its points' values come back as a
    // disjoint list of (j, value) writes applied in block-id order.
    let body = |bid: usize, b: &mut BlockAcc<'_>| {
        let sp = &subproblems[bid];
        let mut addrs = [0usize; 32];
        let o = layout.origin(sp.bin as usize);
        let delta = [
            o[0] as i64 - half * (dim >= 1) as i64,
            o[1] as i64 - half * (dim >= 2) as i64,
            o[2] as i64 - half * (dim >= 3) as i64,
        ];
        // stage the padded bin: coalesced global reads + shared writes
        for i3 in 0..p[2] {
            let g3 = (delta[2] + i3 as i64).rem_euclid(n3 as i64) as usize;
            for i2 in 0..p[1] {
                let g2 = (delta[1] + i2 as i64).rem_euclid(n2 as i64) as usize;
                let row_base = (g3 * n1 * n2 + g2 * n1) * cb;
                b.stream_span(row_base, p[0] * cb, false);
            }
        }
        b.shared_ops(padded_cells as u64);
        let members = &perm[sp.start as usize..(sp.start + sp.len) as usize];
        let mut writes: Vec<(usize, Complex<T>)> = Vec::with_capacity(members.len());
        for warp in members.chunks(32) {
            for arr in 0..dim {
                for (l, &j) in warp.iter().enumerate() {
                    addrs[l] = j as usize * T::BYTES + arr;
                }
                b.warp_access(&addrs[..warp.len()]);
            }
            b.flops(warp.len() as u64 * (dim * w) as u64 * 30);
            for &j in warp {
                let fp = footprint(kernel, fine, pts, j as usize);
                // shared-memory gathers for every cell of the footprint
                b.shared_reads((fp.wd[0] * fp.wd[1] * fp.wd[2]) as u64);
                b.flops((fp.wd[0] * fp.wd[1] * fp.wd[2]) as u64 * 8);
                // functional evaluation straight from the global grid
                writes.push((j as usize, gather(grid, &fp, n1, n2)));
            }
            // output writes
            for (l, &j) in warp.iter().enumerate() {
                addrs[l] = j as usize * cb;
            }
            b.warp_access(&addrs[..warp.len()]);
        }
        writes
    };
    k.run_blocks(subproblems.len(), body, |_bid, writes| {
        for (j, v) in writes {
            out[j] = v;
        }
    });
    Ok(dev.launch_end(k))
}

/// Interpolate `bc` stacked fine grids at the registered points into
/// `bc` stacked output vectors (the `ntransf` layout; see
/// [`spread_batch`](crate::spread::spread_batch)). Interpolation has no
/// SM variant, so the method only decides the point order: bin-sorted
/// when a sort is available and the method wants it, user order
/// otherwise.
#[allow(clippy::too_many_arguments)]
pub fn interp_batch<T: Real, K: Kernel1d>(
    dev: &Device,
    kernel: &K,
    fine: Shape,
    method: crate::opts::Method,
    threads_per_block: usize,
    inputs: &SpreadInputs<'_, T>,
    bc: usize,
    grids: &[Complex<T>],
    out: &mut [Complex<T>],
) -> Result<(), DeviceFault> {
    let m = inputs.pts.len();
    let nf = fine.total();
    assert!(grids.len() >= bc * nf && out.len() >= bc * m);
    let _span = nufft_trace::span!(
        "interp",
        dim = inputs.pts.dim,
        method = format!("{method:?}"),
        m = m,
        bc = bc,
    );
    let (name, order): (&str, std::borrow::Cow<'_, [u32]>) = match (inputs.sort_perm, method) {
        (_, crate::opts::Method::Gm) | (None, _) => {
            ("interp_GM", (0..m as u32).collect::<Vec<u32>>().into())
        }
        (Some(perm), _) => ("interp_GM-sort", perm.into()),
    };
    for v in 0..bc {
        interp_gm(
            dev,
            name,
            kernel,
            fine,
            &inputs.pts,
            &grids[v * nf..(v + 1) * nf],
            &order,
            &mut out[v * m..(v + 1) * m],
            threads_per_block,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::gpu_bin_sort;
    use nufft_common::workload::{gen_points, gen_strengths, PointDist, Points};
    use nufft_kernels::EsKernel;

    fn pts_ref<T: Real>(p: &Points<T>) -> PtsRef<'_, T> {
        PtsRef {
            coords: [&p.coords[0], &p.coords[1], &p.coords[2]],
            dim: p.dim,
        }
    }

    #[test]
    fn sorted_and_natural_order_agree_exactly() {
        let dev = Device::v100();
        let fine = Shape::d2(64, 64);
        let kernel = EsKernel::with_width(5);
        let m = 700;
        let pts = gen_points::<f64>(PointDist::Rand, 2, m, fine, 21);
        let grid = gen_strengths::<f64>(fine.total(), 22);
        let natural: Vec<u32> = (0..m as u32).collect();
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let mut a = vec![Complex::<f64>::ZERO; m];
        let mut b = vec![Complex::<f64>::ZERO; m];
        interp_gm(
            &dev,
            "interp_GM",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &natural,
            &mut a,
            128,
        )
        .unwrap();
        interp_gm(
            &dev,
            "interp_GMs",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &mut b,
            128,
        )
        .unwrap();
        // interpolation is read-only per point: results are bit-identical
        for j in 0..m {
            assert_eq!(a[j].re, b[j].re);
            assert_eq!(a[j].im, b[j].im);
        }
    }

    /// The per-cell count [`warp_grid_sectors`] replaced: every cell of
    /// every footprint pushed as a sector id, then sort + dedup.
    fn sorted_cell_sectors(
        b: &mut BlockAcc<'_>,
        fps: &[Footprint],
        fine: Shape,
        cb: usize,
        sector_bytes: usize,
    ) {
        let [n1, n2, _] = fine.n;
        let mut ids = Vec::new();
        for fp in fps {
            for t3 in 0..fp.wd[2] {
                for t2 in 0..fp.wd[1] {
                    for &i1 in &fp.idx[0][..fp.wd[0]] {
                        let cell = i1 + n1 * (fp.idx[1][t2] + n2 * fp.idx[2][t3]);
                        ids.push(cell * cb / sector_bytes);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        b.l2_sector_count(ids.len() as u64);
    }

    fn check_run_count_matches_cell_count<T: Real>(dim: usize, fine: Shape, w: usize) {
        let dev = Device::v100();
        let kernel = EsKernel::with_width(w);
        let m = 1000;
        let pts = gen_points::<T>(PointDist::Rand, dim, m, fine, 71);
        let grid = gen_strengths::<T>(fine.total(), 72);
        let natural: Vec<u32> = (0..m as u32).collect();
        let sort = gpu_bin_sort(&dev, &pts, fine, [8, 8, if dim == 3 { 4 } else { 1 }]);
        let cb = std::mem::size_of::<Complex<T>>();
        let sb = dev.props().sector_bytes;
        for order in [&natural, &sort.perm] {
            let mut a = vec![Complex::<T>::ZERO; m];
            let mut b = vec![Complex::<T>::ZERO; m];
            let ra = interp_gm(
                &dev,
                "i",
                &kernel,
                fine,
                &pts_ref(&pts),
                &grid,
                order,
                &mut a,
                128,
            )
            .unwrap();
            let cells = |blk: &mut BlockAcc<'_>, fps: &[Footprint], _: &mut Vec<(usize, usize)>| {
                sorted_cell_sectors(blk, fps, fine, cb, sb)
            };
            let rb = interp_gm_counted(
                &dev,
                "i",
                &kernel,
                fine,
                &pts_ref(&pts),
                &grid,
                order,
                &mut b,
                128,
                cells,
            )
            .unwrap();
            let what = format!("dim {dim} fine {:?} w {w} f64 {}", fine.n, T::IS_DOUBLE);
            assert_eq!(ra.duration.to_bits(), rb.duration.to_bits(), "{what}");
            assert_eq!(ra.l2_bytes.to_bits(), rb.l2_bytes.to_bits(), "{what}");
            assert_eq!(ra.dram_bytes.to_bits(), rb.dram_bytes.to_bits(), "{what}");
            assert_eq!(ra.flops.to_bits(), rb.flops.to_bits(), "{what}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.re.to_f64().to_bits(), y.re.to_f64().to_bits(), "{what}");
                assert_eq!(x.im.to_f64().to_bits(), y.im.to_f64().to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn row_run_sector_count_matches_per_cell_count_bitwise() {
        // {2D, 3D} × {f32, f64} × {GM, GM-sort}; the odd 15-cell rows
        // with w = 7 wrap in x and, in f32, share sectors across rows.
        for (dim, fine, w) in [
            (2, Shape::d2(64, 48), 6),
            (2, Shape::d2(15, 20), 7),
            (3, Shape::d3(24, 16, 20), 5),
            (3, Shape::d3(15, 12, 14), 7),
        ] {
            check_run_count_matches_cell_count::<f32>(dim, fine, w);
            check_run_count_matches_cell_count::<f64>(dim, fine, w);
        }
    }

    #[test]
    fn interp_is_adjoint_of_spread() {
        use crate::spread::spread_gm;
        let dev = Device::v100();
        let fine = Shape::d2(32, 48);
        let kernel = EsKernel::with_width(6);
        let m = 150;
        let pts = gen_points::<f64>(PointDist::Rand, 2, m, fine, 31);
        let cs = gen_strengths::<f64>(m, 32);
        let g = gen_strengths::<f64>(fine.total(), 33);
        let order: Vec<u32> = (0..m as u32).collect();
        let mut sp = vec![Complex::<f64>::ZERO; fine.total()];
        spread_gm(
            &dev,
            "s",
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &order,
            &mut sp,
            128,
            1.0,
        )
        .unwrap();
        let mut it = vec![Complex::<f64>::ZERO; m];
        interp_gm(
            &dev,
            "i",
            &kernel,
            fine,
            &pts_ref(&pts),
            &g,
            &order,
            &mut it,
            128,
        )
        .unwrap();
        let lhs = nufft_common::metrics::inner(&sp, &g);
        let rhs = nufft_common::metrics::inner(&cs, &it);
        assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
    }

    #[test]
    fn sorting_speeds_up_large_grid_interp() {
        // same regime as Fig. 3's right-hand side: grid well beyond L2,
        // density high enough for line reuse among sorted neighbours
        let dev = Device::v100();
        let fine = Shape::d2(2048, 2048);
        let kernel = EsKernel::with_width(6);
        let m = 500_000;
        let pts = gen_points::<f32>(PointDist::Rand, 2, m, fine, 41);
        let grid = vec![Complex::<f32>::ZERO; fine.total()];
        let natural: Vec<u32> = (0..m as u32).collect();
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let mut a = vec![Complex::<f32>::ZERO; m];
        let r_gm = interp_gm(
            &dev,
            "gm",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &natural,
            &mut a,
            128,
        )
        .unwrap();
        let r_gs = interp_gm(
            &dev,
            "gms",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &mut a,
            128,
        )
        .unwrap();
        assert!(
            r_gs.duration < r_gm.duration / 1.5,
            "sorted {} vs natural {}",
            r_gs.duration,
            r_gm.duration
        );
    }

    #[test]
    fn sm_interp_matches_gm_interp_exactly() {
        use crate::bins::{build_subproblems, gpu_bin_sort};
        let dev = Device::v100();
        let fine = Shape::d2(128, 128);
        let kernel = EsKernel::with_width(6);
        let m = 2000;
        let pts = gen_points::<f64>(PointDist::Rand, 2, m, fine, 61);
        let grid = gen_strengths::<f64>(fine.total(), 62);
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let subs = build_subproblems(&dev, &sort, 1024);
        let mut a = vec![Complex::<f64>::ZERO; m];
        let mut b = vec![Complex::<f64>::ZERO; m];
        interp_gm(
            &dev,
            "g",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &mut a,
            128,
        )
        .unwrap();
        interp_sm(
            &dev,
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &sort.layout,
            &subs,
            &mut b,
        )
        .unwrap();
        for j in 0..m {
            assert_eq!(a[j].re, b[j].re);
            assert_eq!(a[j].im, b[j].im);
        }
    }

    /// Every launch-report figure as bits, then an FNV-1a hash over the
    /// bits of `out`: a single array a pin can compare in one assert.
    fn report_and_output_bits<T: Real>(r: &LaunchReport, out: &[Complex<T>]) -> [u64; 16] {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in out.iter().flat_map(|z| [z.re.to_f64(), z.im.to_f64()]) {
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
            out.len() as u64,
            h,
        ]
    }

    fn interp_sm_bits<T: Real>(
        dist: PointDist,
        fine: Shape,
        m: usize,
        seed: u64,
        host_threads: usize,
    ) -> [u64; 16] {
        use crate::bins::build_subproblems;
        let dev = Device::v100();
        dev.set_host_parallelism(host_threads);
        let dim = fine.dim;
        let kernel = EsKernel::with_width(6);
        let pts = gen_points::<T>(dist, dim, m, fine, seed);
        let grid = gen_strengths::<T>(fine.total(), seed + 1);
        let sort = gpu_bin_sort(&dev, &pts, fine, crate::default_bin_size(dim));
        let subs = build_subproblems(&dev, &sort, 256);
        let mut out = vec![Complex::<T>::ZERO; m];
        let r = interp_sm(
            &dev,
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &sort.layout,
            &subs,
            &mut out,
        )
        .unwrap();
        report_and_output_bits(&r, &out)
    }

    #[test]
    fn interp_sm_report_and_output_are_pinned() {
        // Full launch report and output bits of the SM interpolation
        // ablation, at 1 and 4 host threads, against values recorded
        // from the serial block-accounting implementation.
        type Case = (&'static str, fn(usize) -> [u64; 16], [u64; 16]);
        let cases: [Case; 4] = [
            (
                "2D f32 cluster",
                |t| interp_sm_bits::<f32>(PointDist::Cluster, Shape::d2(64, 48), 1500, 81, t),
                [
                    4528353286175233400,
                    4523505397118813853,
                    4497417336806888394,
                    4491474040853447943,
                    4506590134226961088,
                    0,
                    0,
                    4524193975976911956,
                    4681401652698152960,
                    4670549472932003840,
                    4696596628516110336,
                    0,
                    0,
                    6,
                    1500,
                    1598438543192378245,
                ],
            ),
            (
                "2D f64 rand",
                |t| interp_sm_bits::<f64>(PointDist::Rand, Shape::d2(96, 64), 1500, 83, t),
                [
                    4531085998371527780,
                    4528008996746184349,
                    4505294190420289708,
                    4499191719233933331,
                    4511093733854331584,
                    0,
                    0,
                    4524193975976911956,
                    4689380808580923392,
                    4677762269210214400,
                    4696596628516110336,
                    0,
                    0,
                    9,
                    1500,
                    12342886102053076788,
                ],
            ),
            (
                "3D f32 rand",
                |t| interp_sm_bits::<f32>(PointDist::Rand, Shape::d3(32, 24, 20), 1200, 85, t),
                [
                    4529924341475054589,
                    4526382566612902355,
                    4515154286840768821,
                    4504254111240147922,
                    4513349101536551405,
                    0,
                    0,
                    4524193975976911956,
                    4699163713289060352,
                    4683180662511894528,
                    4703099002843824128,
                    0,
                    0,
                    40,
                    1200,
                    8886092430231506597,
                ],
            ),
            (
                "3D f64 cluster",
                |t| interp_sm_bits::<f64>(PointDist::Cluster, Shape::d3(24, 24, 16), 1200, 87, t),
                [
                    4537102268358187604,
                    4536216824642649545,
                    4509353207577496924,
                    4504125159152722361,
                    4517852701163921901,
                    0,
                    0,
                    4524193975976911956,
                    4693480062807179264,
                    4682969556279361536,
                    4703099002843824128,
                    0,
                    0,
                    8,
                    1200,
                    4918770164091204402,
                ],
            ),
        ];
        for (what, run, want) in cases {
            let serial = run(1);
            assert_eq!(serial, want, "{what}");
            assert_eq!(run(4), serial, "{what}: 4 host threads");
        }
    }

    #[test]
    fn no_atomics_in_interp() {
        let dev = Device::v100();
        let fine = Shape::d2(32, 32);
        let kernel = EsKernel::with_width(4);
        let pts = gen_points::<f32>(PointDist::Rand, 2, 100, fine, 51);
        let grid = vec![Complex::<f32>::ZERO; fine.total()];
        let order: Vec<u32> = (0..100).collect();
        let mut out = vec![Complex::<f32>::ZERO; 100];
        let r = interp_gm(
            &dev,
            "i",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &order,
            &mut out,
            128,
        )
        .unwrap();
        assert_eq!(r.global_atomics, 0);
        assert_eq!(r.atomic_hotspot_count, 0);
    }
}
