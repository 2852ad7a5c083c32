//! The cuFINUFFT plan: "plan, setpts, execute, destroy" on the simulated
//! GPU, mirroring `cufinufft_makeplan` / `cufinufft_setpts` /
//! `cufinufft_execute` / `cufinufft_destroy` (destroy = `Drop`).
//!
//! As in the C library there is one execution path: [`Plan::execute`] is
//! a batch of one through the chunk routine and device buffers that
//! [`Plan::execute_many`] uses.

use crate::bins::{build_subproblems, gpu_bin_sort, GpuBinSort, Subproblem};
use crate::interp::interp_batch;
use crate::opts::{Geometry, GpuOpts, Method, ModeOrder, Tuning};
use crate::recovery::{ExecCtx, RecoveryReport};
use crate::spread::{spread_batch, PtsRef, SpreadInputs};
use gpu_sim::{
    sync_streams, Device, DeviceFault, EngineState, GpuBuffer, HazardMode, HazardReport, Lane,
    Precision, Stream, Trace, TraceReport,
};
use nufft_common::complex::Complex;
use nufft_common::error::{NufftError, Result};
use nufft_common::real::Real;
use nufft_common::shape::{freq_to_bin, freqs, Shape};
use nufft_common::smooth::FineSizing;
use nufft_common::spec::{Precision as SpecPrecision, TransformSpec};
use nufft_common::workload::Points;
use nufft_common::TransformType;
use nufft_fft::Direction;
use nufft_kernels::deconv::correction_rows;
use nufft_kernels::{EsKernel, EvalKernel};
use nufft_trace::{ActiveGuard, Span};

/// Outcome of one device stage: a typed fault, or done.
type DevResult = std::result::Result<(), DeviceFault>;

/// Lowercase metric tag for a (resolved) spread method, used to key the
/// per-stage duration histograms (`stage.<stage>.<method>`).
fn method_tag(m: Method) -> &'static str {
    match m {
        Method::Auto => "auto",
        Method::Gm => "gm",
        Method::GmSort => "gm_sort",
        Method::Sm => "sm",
    }
}

/// Simulated-device time spent in each stage (seconds). The aggregates
/// match the paper's reporting:
/// * "exec" = spread/interp + FFT + deconvolution (re-usable transform);
/// * "total" = exec + point preprocessing (sort, subproblem setup);
/// * "total+mem" = total + allocation + all host-device transfers.
///
/// Executions accumulate the per-vector stages over all transforms of
/// the batch (one for [`Plan::execute`]). A batch that ran in several
/// chunks also reports the pipelined wall time of the data-movement +
/// compute region (`pipe_wall`), which is shorter than the serial sum
/// whenever transfers hid under compute.
///
/// `alloc` is the build's allocations, plus the current point set's,
/// plus every execution-time allocation so far.
#[derive(Copy, Clone, Debug, Default)]
pub struct GpuStageTimings {
    pub alloc: f64,
    pub h2d_pts: f64,
    pub sort: f64,
    pub h2d_data: f64,
    pub spread_interp: f64,
    pub fft: f64,
    pub deconv: f64,
    pub d2h: f64,
    /// Number of transforms covered by the most recent execution (1 for
    /// a plain `execute`; B for `execute_many`).
    pub batches: usize,
    /// Stream-scheduled wall time of the per-vector H2D -> spread/FFT/
    /// deconv -> D2H region. Zero when the execution was serial.
    pub pipe_wall: f64,
}

impl GpuStageTimings {
    pub fn exec(&self) -> f64 {
        self.spread_interp + self.fft + self.deconv
    }

    pub fn total(&self) -> f64 {
        self.exec() + self.sort
    }

    /// Serial cost of the per-vector region: what the same work costs on
    /// one stream with no overlap.
    pub fn batch_serial(&self) -> f64 {
        self.h2d_data + self.exec() + self.d2h
    }

    /// End-to-end cost including setup, allocation, and host-device
    /// transfers. For pipelined batches the transfer/compute region is
    /// priced at its overlapped wall time rather than the serial sum.
    pub fn total_mem(&self) -> f64 {
        let region = if self.pipe_wall > 0.0 {
            self.pipe_wall
        } else {
            self.batch_serial()
        };
        self.sort + self.alloc + self.h2d_pts + region
    }

    /// Time hidden by transfer/compute overlap in the last execution
    /// (zero for serial executions).
    pub fn overlap_saving(&self) -> f64 {
        if self.pipe_wall > 0.0 {
            (self.batch_serial() - self.pipe_wall).max(0.0)
        } else {
            0.0
        }
    }

    /// Average exec-stage time per transform in the batch.
    pub fn per_transform_exec(&self) -> f64 {
        self.exec() / self.batches.max(1) as f64
    }
}

/// Per-chunk detail of the most recent execution. Times are relative to
/// the start of the pipelined region.
#[derive(Copy, Clone, Debug, Default)]
pub struct ChunkTiming {
    /// Transforms in this chunk.
    pub ntransf: usize,
    /// Serial durations of the chunk's three pipeline stages.
    pub h2d: f64,
    pub exec: f64,
    pub d2h: f64,
    /// Scheduled start of the chunk's H2D (relative seconds).
    pub start: f64,
    /// Scheduled completion of the chunk's D2H (relative seconds).
    pub done: f64,
}

/// Batch-level report of the most recent execution: per-chunk schedules
/// plus the serial-vs-pipelined totals.
#[derive(Clone, Debug, Default)]
pub struct BatchTimings {
    pub chunks: Vec<ChunkTiming>,
    /// Sum of all stage durations (one-stream cost).
    pub serial: f64,
    /// Overlapped wall time of the whole region.
    pub wall: f64,
}

impl BatchTimings {
    /// Time hidden by the two-stream pipeline.
    pub fn saving(&self) -> f64 {
        (self.serial - self.wall).max(0.0)
    }
}

struct PtsState<T: Real> {
    bufs: [GpuBuffer<T>; 3],
    m: usize,
    dim: usize,
    /// Bin sort (present for GM-sort and SM; absent for plain GM).
    sort: Option<GpuBinSort>,
    /// SM subproblem list (empty unless the SM method is active).
    subproblems: Vec<Subproblem>,
    /// Simulated seconds the coordinate arrays took to allocate.
    alloc: f64,
}

impl<T: Real> PtsState<T> {
    /// Borrowed view handed to the spread/interp dispatchers
    /// ([`spread_batch`] / [`interp_batch`]), so those can live next to
    /// the kernels while the plan keeps ownership of the buffers.
    fn inputs(&self) -> SpreadInputs<'_, T> {
        SpreadInputs {
            pts: PtsRef {
                coords: [
                    self.bufs[0].as_slice(),
                    self.bufs[1].as_slice(),
                    self.bufs[2].as_slice(),
                ],
                dim: self.dim,
            },
            sort_perm: self.sort.as_ref().map(|s| s.perm.as_slice()),
            layout: self.sort.as_ref().map(|s| &s.layout),
            subproblems: &self.subproblems,
        }
    }
}

/// The plan's device staging: one input, one fine-grid and one output
/// buffer, each holding one chunk of stacked vectors. A buffer grows
/// when a chunk needs more room; only the OOM shrink loop releases them.
struct Staging<T: Real> {
    input: GpuBuffer<Complex<T>>,
    grid: GpuBuffer<Complex<T>>,
    output: GpuBuffer<Complex<T>>,
}

impl<T: Real> Staging<T> {
    /// Grow every buffer shorter than its entry in `lens` (input, grid,
    /// output): drop it first, then allocate the replacement, retrying
    /// transient faults. A persistent OOM propagates as `DeviceOom`.
    fn fit(&mut self, ctx: &mut ExecCtx, lens: [usize; 3]) -> Result<()> {
        let dev = ctx.dev;
        let slots = [
            (&mut self.input, "in"),
            (&mut self.grid, "fine_grid"),
            (&mut self.output, "out"),
        ];
        for ((buf, name), len) in slots.into_iter().zip(lens) {
            if buf.len() < len {
                buf.release();
                *buf = ctx.retry(&format!("alloc:{name}"), || dev.alloc(name, len))?;
            }
        }
        Ok(())
    }

    fn release(&mut self) {
        self.input.release();
        self.grid.release();
        self.output.release();
    }
}

/// What a plan computes and the device resources it computes with;
/// fixed at build.
struct Core<T: Real> {
    ttype: TransformType,
    geom: Geometry,
    iflag: i32,
    /// Kernel evaluator the spread/interp hot paths run with: the exact
    /// ES kernel or its Horner/Chebyshev fast path, resolved once at
    /// plan time from `Tuning::kernel_eval` (see DESIGN.md §5l).
    eval_kernel: EvalKernel,
    opts: GpuOpts,
    dev: Device,
    fft: gpu_fft::GpuFftPlan<T>,
    corr: [Vec<f64>; 3],
}

/// A cuFINUFFT plan bound to a device.
pub struct Plan<T: Real> {
    core: Core<T>,
    bufs: Staging<T>,
    /// Declared batch width (builder hint); `execute_many` accepts any
    /// width, but declaring it up front pre-sizes the fine grid.
    ntransf: usize,
    pts: Option<PtsState<T>>,
    timings: GpuStageTimings,
    batch: BatchTimings,
    recovery: RecoveryReport,
    /// Sticky chunk-size override installed by OOM-driven shrinking, so
    /// later batches skip the doomed allocation sizes.
    shrunk_chunk: Option<usize>,
    /// Allocation seconds charged by the build and by executions; the
    /// point set's share lives in [`PtsState`].
    setup_alloc: f64,
    exec_alloc: f64,
}

/// Fluent constructor for [`Plan`]: transform type and mode dimensions
/// are mandatory, everything else has a sensible default.
///
/// ```ignore
/// let plan = Plan::<f32>::builder(TransformType::Type1, &[64, 64])
///     .eps(1e-5)
///     .iflag(-1)
///     .method(Method::Sm)
///     .ntransf(8)
///     .build(&dev)?;
/// ```
pub struct PlanBuilder<T: Real> {
    ttype: TransformType,
    modes: Vec<usize>,
    eps: f64,
    iflag: i32,
    opts: GpuOpts,
    ntransf: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Real> PlanBuilder<T> {
    /// Build a plan from a canonical [`TransformSpec`] — the same value
    /// the serving layer uses as its request API and plan-cache key, so
    /// "what was requested" and "what the plan computes" cannot drift
    /// apart. The spec is validated here and its precision must match
    /// `T`; tuning and operational knobs (tracing, recovery, ...) stay
    /// at their defaults and can still be set fluently afterwards.
    ///
    /// ```ignore
    /// let spec = TransformSpec::type1(&[64, 64]).eps(1e-5).precision(Precision::F32);
    /// let plan = PlanBuilder::<f32>::from_spec(&spec)?.tuning(tuning).build(&dev)?;
    /// ```
    pub fn from_spec(spec: &TransformSpec) -> Result<Self> {
        spec.validate()?;
        if !spec.matches_precision::<T>() {
            return Err(NufftError::BadSpec(format!(
                "spec requests {} but the plan is being built for {}",
                spec.precision,
                SpecPrecision::of::<T>(),
            )));
        }
        Ok(Self::new(spec.ttype, &spec.modes)
            .eps(spec.eps)
            .iflag(spec.iflag)
            .method(spec.method)
            .modeord(spec.modeord)
            .fine_sizing(spec.fine_sizing))
    }

    /// [`from_spec`](Self::from_spec) with the spreading method
    /// overridden — the replan hook the serve layer's brownout mode
    /// uses to degrade a faulting spec (e.g. SM → GM-sort) without
    /// mutating the caller's spec or the cache key it hashes to.
    pub fn from_spec_with_method(spec: &TransformSpec, method: Method) -> Result<Self> {
        Ok(Self::from_spec(spec)?.method(method))
    }

    fn new(ttype: TransformType, modes: &[usize]) -> Self {
        PlanBuilder {
            ttype,
            modes: modes.to_vec(),
            eps: 1e-6,
            // the conventional sign: type 1 accumulates with e^{-ikx},
            // type 2 evaluates with e^{+ikx}
            iflag: match ttype {
                TransformType::Type1 => -1,
                TransformType::Type2 => 1,
            },
            opts: GpuOpts::default(),
            ntransf: 1,
            _marker: std::marker::PhantomData,
        }
    }

    /// Requested tolerance (default `1e-6`).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sign of the imaginary unit in the exponential (normalized to ±1).
    pub fn iflag(mut self, iflag: i32) -> Self {
        self.iflag = iflag;
        self
    }

    /// Replace the whole option block at once.
    pub fn opts(mut self, opts: GpuOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Spreading method (default [`Method::Auto`]).
    pub fn method(mut self, method: Method) -> Self {
        self.opts.method = method;
        self
    }

    /// Output mode ordering (default [`ModeOrder::Centered`]).
    pub fn modeord(mut self, modeord: ModeOrder) -> Self {
        self.opts.modeord = modeord;
        self
    }

    /// Replace the whole tuning block at once (see [`Tuning`]); the
    /// per-knob setters below are thin shims over its fields.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.opts.tuning = tuning;
        self
    }

    /// Override the bin size used for sorting and SM subproblems.
    pub fn bin_size(mut self, bin_size: [usize; 3]) -> Self {
        self.opts.tuning.bin_size = Some(bin_size);
        self
    }

    /// Maximum points per SM subproblem.
    pub fn msub(mut self, msub: usize) -> Self {
        self.opts.tuning.msub = msub;
        self
    }

    /// Kernel-evaluation choice for the spread/interp hot paths (exact
    /// exponential vs the fitted Horner fast path; default Auto).
    pub fn kernel_eval(mut self, ke: crate::opts::KernelEval) -> Self {
        self.opts.tuning.kernel_eval = ke;
        self
    }

    /// Upsampling factor sigma (default 2.0).
    pub fn upsampfac(mut self, upsampfac: f64) -> Self {
        self.opts.tuning.upsampfac = upsampfac;
        self
    }

    /// Fine-grid sizing policy (default [`FineSizing::Smooth`], the
    /// paper's 5-smooth rounding). [`FineSizing::Exact`] keeps
    /// `max(ceil(sigma*n), 2w)` exactly, routing prime sizes through the
    /// Bluestein FFT; the conformance harness uses this.
    pub fn fine_sizing(mut self, sizing: FineSizing) -> Self {
        self.opts.fine_sizing = sizing;
        self
    }

    /// Threads per block for GM kernels.
    pub fn threads_per_block(mut self, threads: usize) -> Self {
        self.opts.tuning.threads_per_block = threads;
        self
    }

    /// Shared-memory budget per block (bytes).
    pub fn shared_mem_budget(mut self, bytes: usize) -> Self {
        self.opts.tuning.shared_mem_budget = bytes;
        self
    }

    /// Expected number of stacked transforms per `execute_many` call
    /// (default 1). Declaring it pre-sizes the batch fine grid.
    pub fn ntransf(mut self, ntransf: usize) -> Self {
        self.ntransf = ntransf.max(1);
        self
    }

    /// Cap on transforms per pipelined chunk (0 = choose automatically).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.opts.max_batch = max_batch;
        self
    }

    /// Record plan lifecycle spans, device events, and load-balance
    /// counters into `trace` (see [`Plan::trace_report`]).
    pub fn tracing(mut self, trace: &Trace) -> Self {
        self.opts.trace = Some(trace.clone());
        self
    }

    /// Fault-recovery policy: bounded retry of transient device faults,
    /// OOM-driven chunk shrinking, and opt-in SM method fallback (see
    /// [`crate::RecoveryPolicy`]; `RecoveryPolicy::none()` restores
    /// fail-fast behavior).
    pub fn recovery(mut self, policy: crate::RecoveryPolicy) -> Self {
        self.opts.recovery = policy;
        self
    }

    /// Race / access-contract checking mode (default
    /// [`HazardMode::Off`]). Under [`HazardMode::Check`] every
    /// instrumented kernel launched by this plan records a shadow
    /// access trace and the device's happens-before checker runs over
    /// it; collect the findings with [`Plan::hazard_findings`].
    pub fn hazard(mut self, mode: HazardMode) -> Self {
        self.opts.hazard = mode;
        self
    }

    /// Validate the options and build the plan (cufinufft_makeplan):
    /// resolve the [`Geometry`] (Sec. II kernel and fine grid, Sec. III /
    /// Remark 2 method), apply the recovery policy's SM -> GM-sort
    /// fallback, and allocate the fine grid, pre-sized for one chunk of
    /// a declared `ntransf` batch so the first `execute_many` allocates
    /// nothing in the pipeline.
    pub fn build(self, dev: &Device) -> Result<Plan<T>> {
        let (ttype, modes, eps, ntransf, opts) =
            (self.ttype, &self.modes, self.eps, self.ntransf, self.opts);
        opts.validate()?;
        if let Some(t) = &opts.trace {
            dev.attach_trace(t);
        }
        dev.set_hazard_mode(opts.hazard);
        let args = [
            ("ttype", format!("{ttype:?}")),
            ("dim", modes.len().to_string()),
            ("eps", format!("{eps:e}")),
        ];
        let _scope = host_span(opts.trace.as_ref(), "plan.build", &args);
        let mut recovery = RecoveryReport::default();
        let resolve = |method| {
            Geometry::resolve(
                modes,
                eps,
                SpecPrecision::of::<T>(),
                method,
                opts.fine_sizing,
                &opts.tuning,
                dev.props().shared_mem_per_block,
            )
        };
        let geom = match resolve(opts.method) {
            Err(e @ NufftError::MethodUnavailable(_)) if opts.recovery.allow_method_fallback => {
                // the policy prefers a working plan over the requested
                // method: degrade to GM-sort, the method Auto would use
                recovery.note_method_fallback(&e, opts.trace.as_ref());
                resolve(Method::GmSort)?
            }
            res => res?,
        };
        let (kernel, modes, fine) = (geom.kernel, geom.modes, geom.fine);
        let core = Core {
            ttype,
            geom,
            iflag: if self.iflag >= 0 { 1 } else { -1 },
            // under Auto, fit the Horner table and keep it iff the
            // measured fit error spends at most 10% of the plan's error
            // budget (exact-exp fallback otherwise)
            eval_kernel: EvalKernel::select(kernel, eps, opts.tuning.kernel_eval),
            corr: correction_rows(&kernel, modes, fine),
            fft: gpu_fft::GpuFftPlan::new(fine),
            opts,
            dev: dev.clone(),
        };
        let mut ctx = ExecCtx::new(dev, &core.opts, &mut recovery);
        let (bufs, setup_alloc) = dev.timed(|| -> Result<Staging<T>> {
            let mut bufs = Staging {
                grid: ctx.retry("alloc:fine_grid", || dev.alloc("fine_grid", fine.total()))?,
                input: ctx.retry("alloc:in", || dev.alloc("in", 0))?,
                output: ctx.retry("alloc:out", || dev.alloc("out", 0))?,
            };
            if ntransf > 1 {
                let len = fine.total().saturating_mul(core.chunk_size(ntransf));
                bufs.grid.release();
                match ctx.retry("alloc:fine_grid_batch", || {
                    dev.alloc("fine_grid_batch", len)
                }) {
                    Ok(grid) => bufs.grid = grid,
                    // leave the grid empty: execution's shrink loop will
                    // find a chunk size that fits
                    Err(NufftError::DeviceOom { .. }) if ctx.policy.min_chunk > 0 => ctx
                        .rec
                        .events
                        .push("pre-size OOM: deferring batch grid to execute_many".into()),
                    Err(e) => return Err(e),
                }
            }
            Ok(bufs)
        });
        Ok(Plan {
            core,
            bufs: bufs?,
            ntransf,
            pts: None,
            timings: GpuStageTimings {
                alloc: setup_alloc,
                ..Default::default()
            },
            batch: BatchTimings::default(),
            recovery,
            shrunk_chunk: None,
            setup_alloc,
            exec_alloc: 0.0,
        })
    }
}

/// Activate `trace` (if any) and open the host span `name`; both close
/// when the returned guards drop.
fn host_span(
    trace: Option<&Trace>,
    name: &str,
    args: &[(&str, String)],
) -> Option<(Span, ActiveGuard)> {
    trace.map(|t| {
        let on = t.activate();
        (t.span_with(name, args), on)
    })
}

fn check_len(expected: usize, got: usize) -> Result<()> {
    if expected == got {
        Ok(())
    } else {
        Err(NufftError::LengthMismatch { expected, got })
    }
}

impl<T: Real> Plan<T> {
    /// Start building a plan; see [`PlanBuilder`].
    pub fn builder(ttype: TransformType, modes: &[usize]) -> PlanBuilder<T> {
        PlanBuilder::new(ttype, modes)
    }

    /// Build a plan directly from a canonical [`TransformSpec`] with
    /// default tuning; shorthand for
    /// [`PlanBuilder::from_spec`]`(spec)?.build(dev)`.
    pub fn from_spec(spec: &TransformSpec, dev: &Device) -> Result<Self> {
        PlanBuilder::from_spec(spec)?.build(dev)
    }

    pub fn modes(&self) -> Shape {
        self.core.geom.modes
    }

    /// Which transform this plan computes.
    pub fn transform_type(&self) -> TransformType {
        self.core.ttype
    }

    pub fn fine_grid_shape(&self) -> Shape {
        self.core.geom.fine
    }

    pub fn kernel(&self) -> &EsKernel {
        &self.core.geom.kernel
    }

    /// The kernel evaluator the hot paths run with (exact vs the fitted
    /// Horner fast path; resolved at plan time from `Tuning::kernel_eval`).
    pub fn eval_kernel(&self) -> &EvalKernel {
        &self.core.eval_kernel
    }

    /// The spreading method actually in use for type-1 transforms.
    pub fn spread_method(&self) -> Method {
        self.core.geom.method
    }

    pub fn device(&self) -> &Device {
        &self.core.dev
    }

    /// Per-stage simulated timings of the current point set and the
    /// most recent execution.
    pub fn timings(&self) -> GpuStageTimings {
        self.timings
    }

    /// Per-chunk schedule of the most recent execution (empty before the
    /// first one).
    pub fn batch_timings(&self) -> &BatchTimings {
        &self.batch
    }

    /// Batch width declared at build time (1 unless the builder's
    /// `ntransf` was used).
    pub fn ntransf(&self) -> usize {
        self.ntransf
    }

    /// Snapshot of the plan's tracing session: lifecycle spans, device
    /// timeline events, and load-balance counters. `None` when the plan
    /// was built without [`PlanBuilder::tracing`] /
    /// [`GpuOpts::with_tracing`].
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.core.opts.trace.as_ref().map(|t| t.report())
    }

    /// What the recovery layer did over this plan's lifetime so far:
    /// method fallbacks, retries, OOM-driven chunk shrinks, and a
    /// human-readable event log (see [`RecoveryReport`]).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Everything the race / contract checker has found on this plan's
    /// device so far: one [`gpu_sim::KernelHazardReport`] per checked
    /// launch. Empty (and vacuously clean) unless the plan was built
    /// with [`PlanBuilder::hazard`]`(HazardMode::Check)` /
    /// [`GpuOpts::with_hazard_checking`].
    pub fn hazard_findings(&self) -> HazardReport {
        self.core.dev.hazard_findings()
    }

    pub fn num_points(&self) -> usize {
        self.pts.as_ref().map_or(0, |p| p.m)
    }

    /// Recompute `timings.alloc` from its three parts.
    fn sum_alloc(&mut self) {
        let pts = self.pts.as_ref().map_or(0.0, |p| p.alloc);
        self.timings.alloc = self.setup_alloc + pts + self.exec_alloc;
    }

    /// Register nonuniform points (cufinufft_setpts): transfer to the
    /// device, bin-sort, and build SM subproblems if applicable. The new
    /// point set's transfer, sort and allocation times replace the
    /// previous set's in [`Plan::timings`].
    pub fn set_pts(&mut self, pts: &Points<T>) -> Result<()> {
        let core = &self.core;
        if pts.dim != core.geom.modes.dim {
            return Err(NufftError::BadDim(pts.dim));
        }
        let m = pts.len();
        for coords in &pts.coords[..pts.dim] {
            check_len(m, coords.len())?;
            if let Some(j) = coords.iter().position(|v| !v.is_finite()) {
                return Err(NufftError::BadPoint {
                    index: j,
                    value: coords[j].to_f64(),
                });
            }
        }
        let args = [("m", m.to_string()), ("dim", pts.dim.to_string())];
        let _scope = host_span(core.opts.trace.as_ref(), "plan.setpts", &args);
        let dev = &core.dev;
        let mut ctx = ExecCtx::new(dev, &core.opts, &mut self.recovery);
        let my = if pts.dim >= 2 { m } else { 0 };
        let mz = if pts.dim >= 3 { m } else { 0 };
        let (bufs, t_alloc) = dev.timed(|| -> Result<[GpuBuffer<T>; 3]> {
            Ok([
                ctx.retry("alloc:pts_x", || dev.alloc("pts_x", m))?,
                ctx.retry("alloc:pts_y", || dev.alloc("pts_y", my))?,
                ctx.retry("alloc:pts_z", || dev.alloc("pts_z", mz))?,
            ])
        });
        let mut bufs = bufs?;
        let (res, t_h2d) = dev.timed(|| -> Result<()> {
            for (buf, coords) in bufs.iter_mut().zip(&pts.coords).take(pts.dim) {
                ctx.retry("h2d:pts", || dev.memcpy_htod(buf, coords))?;
            }
            Ok(())
        });
        res?;
        // GM works in user point order for both transform types; every
        // other method wants the bin sort
        let start = dev.clock();
        let ((sort, subproblems), t_sort) = dev.timed(|| {
            let sort = (core.geom.method != Method::Gm)
                .then(|| gpu_bin_sort(dev, pts, core.geom.fine, core.geom.bin_size));
            let subproblems = match (&sort, core.ttype, core.geom.method) {
                (Some(s), TransformType::Type1, Method::Sm) => {
                    build_subproblems(dev, s, core.opts.tuning.msub)
                }
                _ => Vec::new(),
            };
            (sort, subproblems)
        });
        if t_sort > 0.0 {
            core.stage_span("stage.sort", start, t_sort);
        }
        self.timings.h2d_pts = t_h2d;
        self.timings.sort = t_sort;
        self.pts = Some(PtsState {
            bufs,
            m,
            dim: pts.dim,
            sort,
            subproblems,
            alloc: t_alloc,
        });
        self.sum_alloc();
        Ok(())
    }

    /// Per-transform input and output lengths for the registered points.
    fn io_per(&self) -> Result<(usize, usize)> {
        let m = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?.m;
        Ok(self.core.io_per(m))
    }

    /// Execute the transform (cufinufft_execute). Type 1: `input` = M
    /// strengths, `output` = N modes; type 2 swaps the roles. This is a
    /// batch of one through the [`Plan::execute_many`] path; host-device
    /// transfers of input/output are included and reported separately
    /// in [`GpuStageTimings`].
    pub fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let (in_per, out_per) = self.io_per()?;
        check_len(in_per, input.len())?;
        check_len(out_per, output.len())?;
        let args = [
            ("ttype", format!("{:?}", self.core.ttype)),
            ("method", format!("{:?}", self.core.geom.method)),
        ];
        let _scope = host_span(self.core.opts.trace.as_ref(), "plan.execute", &args);
        self.run(input, output, 1)
    }

    /// Execute `B` stacked transforms sharing the plan's points, with
    /// `B` inferred from `input.len()` (the vectors are concatenated:
    /// `input = [c_0, .., c_{B-1}]`, `output = [f_0, .., f_{B-1}]`).
    ///
    /// This is the library's batching strategy (the C API's `ntransf`):
    /// the point sort and subproblem setup from `set_pts` are reused for
    /// every vector, spreading/interpolation run per vector into a
    /// chunk-sized fine grid, the FFT runs batched (`cufftPlanMany`
    /// style), and each chunk's H2D -> compute -> D2H chain is scheduled
    /// on one of two streams so the transfers of chunk `i+1` hide under
    /// the kernels of chunk `i`. Results are bitwise identical to `B`
    /// sequential [`Plan::execute`] calls; [`Plan::timings`] reports the
    /// accumulated stages plus the pipelined wall (`pipe_wall`), and
    /// [`Plan::batch_timings`] the per-chunk schedule.
    pub fn execute_many(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let (in_per, out_per) = self.io_per()?;
        if in_per == 0 {
            return Err(NufftError::BadOptions(
                "execute_many cannot infer the batch size from empty transforms".into(),
            ));
        }
        if input.is_empty() || !input.len().is_multiple_of(in_per) {
            return Err(NufftError::LengthMismatch {
                expected: in_per,
                got: input.len(),
            });
        }
        let b = input.len() / in_per;
        check_len(out_per.saturating_mul(b), output.len())?;
        let args = [
            ("b", b.to_string()),
            ("ttype", format!("{:?}", self.core.ttype)),
        ];
        let _scope = host_span(self.core.opts.trace.as_ref(), "plan.execute_many", &args);
        self.run(input, output, b)
    }

    /// The execution path: `b` transforms in chunks through the
    /// two-stream pipeline. The staging buffers are fitted to the chunk
    /// outside the pipelined region, so the schedule holds only
    /// transfers and compute. A device OOM there halves the chunk
    /// (releasing the buffers first) until it fits or `min_chunk` is
    /// reached; the shrunk size sticks for later calls.
    fn run(&mut self, input: &[Complex<T>], output: &mut [Complex<T>], b: usize) -> Result<()> {
        let core = &self.core;
        let dev = &core.dev;
        let state = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        let (in_per, out_per) = core.io_per(state.m);
        let mut ctx = ExecCtx::new(dev, &core.opts, &mut self.recovery);
        let mut chunk = core.chunk_size(b);
        if let Some(c) = self.shrunk_chunk {
            chunk = chunk.min(c).max(1);
        }
        let min_chunk = ctx.policy.min_chunk;
        loop {
            let lens = [in_per, core.geom.fine.total(), out_per].map(|n| n.saturating_mul(chunk));
            let (res, t) = dev.timed(|| self.bufs.fit(&mut ctx, lens));
            self.exec_alloc += t;
            match res {
                Ok(()) => break,
                Err(NufftError::DeviceOom { .. }) if min_chunk > 0 && chunk > min_chunk => {
                    self.bufs.release();
                    chunk = (chunk / 2).max(min_chunk);
                    self.shrunk_chunk = Some(chunk);
                    ctx.note_chunk_shrink(chunk);
                }
                Err(e) => return Err(e),
            }
        }
        let (wall, chunks, stage) =
            core.run_pipeline(state, &mut self.bufs, &mut ctx, input, output, b, chunk)?;
        let serial = chunks.iter().map(|c| c.h2d + c.exec + c.d2h).sum();
        // a single chunk ran serially: its region costs the serial sum
        let pipe_wall = if chunks.len() > 1 { wall } else { 0.0 };
        self.batch = BatchTimings {
            chunks,
            serial,
            wall,
        };
        self.timings = GpuStageTimings {
            h2d_pts: self.timings.h2d_pts,
            sort: self.timings.sort,
            batches: b,
            pipe_wall,
            ..stage
        };
        self.sum_alloc();
        Ok(())
    }

    /// Spread-only entry point (FINUFFT's `spreadinterponly` use case,
    /// used by particle codes \[13\]\[14\]): spread the strengths onto the
    /// plan's fine grid and return the grid contents, skipping the FFT
    /// and deconvolution. The plan must be type 1.
    pub fn spread_only(
        &mut self,
        strengths: &[Complex<T>],
        grid_out: &mut [Complex<T>],
    ) -> Result<()> {
        self.stage_only(TransformType::Type1, strengths, grid_out)
    }

    /// Interpolation-only entry point: evaluate the given fine-grid data
    /// at the plan's points, skipping pre-correction and the FFT. The
    /// plan must be type 2.
    pub fn interp_only(&mut self, grid_in: &[Complex<T>], out: &mut [Complex<T>]) -> Result<()> {
        self.stage_only(TransformType::Type2, grid_in, out)
    }

    /// The spread (type 1) or interp (type 2) stage alone, once, on the
    /// plan's buffers: strengths -> grid, or grid -> values at the points.
    fn stage_only(
        &mut self,
        want: TransformType,
        src: &[Complex<T>],
        dst: &mut [Complex<T>],
    ) -> Result<()> {
        let type1 = want == TransformType::Type1;
        if self.core.ttype != want {
            return Err(NufftError::BadOptions(if type1 {
                "spread_only requires a type 1 plan".into()
            } else {
                "interp_only requires a type 2 plan".into()
            }));
        }
        let state = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        let (core, bufs) = (&self.core, &mut self.bufs);
        let (m, nf) = (state.m, core.geom.fine.total());
        let (src_len, dst_len, lens) = if type1 {
            (m, nf, [m, nf, 0])
        } else {
            (nf, m, [0, nf, m])
        };
        check_len(src_len, src.len())?;
        check_len(dst_len, dst.len())?;
        let dev = &core.dev;
        let mut ctx = ExecCtx::new(dev, &core.opts, &mut self.recovery);
        let (res, t_alloc) = dev.timed(|| bufs.fit(&mut ctx, lens));
        self.exec_alloc += t_alloc;
        res?;
        let t = if type1 {
            ctx.retry("h2d:in", || dev.memcpy_htod(&mut bufs.input, src))?;
            let (res, t) = dev.timed(|| ctx.retry("spread", || core.spread(state, bufs, 1)));
            res?;
            ctx.retry("d2h:grid", || dev.memcpy_dtoh(dst, &bufs.grid))?;
            t
        } else {
            ctx.retry("h2d:grid", || dev.memcpy_htod(&mut bufs.grid, src))?;
            let (res, t) = dev.timed(|| ctx.retry("interp", || core.interp(state, bufs, 1)));
            res?;
            ctx.retry("d2h:out", || dev.memcpy_dtoh(dst, &bufs.output))?;
            t
        };
        self.timings.spread_interp = t;
        self.sum_alloc();
        Ok(())
    }
}

impl<T: Real> Core<T> {
    /// Per-transform input and output lengths for `m` points.
    fn io_per(&self, m: usize) -> (usize, usize) {
        let n = self.geom.modes.total();
        match self.ttype {
            TransformType::Type1 => (m, n),
            TransformType::Type2 => (n, m),
        }
    }

    /// Transforms per pipelined chunk for a batch of `b`: the explicit
    /// `max_batch` option if set, else roughly a quarter of the batch so
    /// the two-stream pipeline has several chunks to overlap.
    fn chunk_size(&self, b: usize) -> usize {
        if self.opts.max_batch > 0 {
            self.opts.max_batch.min(b).max(1)
        } else {
            b.div_ceil(4).max(1)
        }
    }

    fn precision() -> Precision {
        if T::IS_DOUBLE {
            Precision::Double
        } else {
            Precision::Single
        }
    }

    /// Record a stage-level span (simulated clock, plan lane) of `dur`
    /// seconds from `start`, and feed the duration into a per-method
    /// histogram (`stage.spread.sm`, `stage.fft.gm_sort`, …) so the
    /// trace report exposes per-stage quantiles split by spread method.
    fn stage_span(&self, name: &str, start: f64, dur: f64) {
        if let Some(t) = &self.opts.trace {
            let method = method_tag(self.geom.method);
            t.device_span(
                Lane::Plan,
                name,
                "stage",
                start,
                dur,
                &[("method", method.to_string())],
            );
            t.histogram(&format!("{name}.{method}")).observe(dur);
        }
    }

    /// Run stage `name`; on success add its simulated time to `acc` and
    /// record its span.
    fn stage(&self, name: &str, acc: &mut f64, f: impl FnOnce() -> DevResult) -> DevResult {
        let start = self.dev.clock();
        let (res, dur) = self.dev.timed(f);
        res?;
        *acc += dur;
        self.stage_span(name, start, dur);
        Ok(())
    }

    /// The pipelined transfer/compute region of an execution. Compute
    /// is priced on the serial device clock (the SM array serializes
    /// across streams anyway) and its measured duration is queued on the
    /// chunk's stream; async copies are queued with their analytic
    /// duration without touching the clock. The final sync advances the
    /// clock to the schedule's end, so the region's clock delta IS the
    /// pipelined wall.
    #[allow(clippy::too_many_arguments)]
    fn run_pipeline(
        &self,
        pts: &PtsState<T>,
        bufs: &mut Staging<T>,
        ctx: &mut ExecCtx,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        b: usize,
        chunk: usize,
    ) -> Result<(f64, Vec<ChunkTiming>, GpuStageTimings)> {
        let (in_per, out_per) = self.io_per(pts.m);
        let dev = &self.dev;
        let base = dev.clock();
        let mut engines = EngineState::default();
        let mut streams = [Stream::new(dev), Stream::new(dev)];
        let mut chunks: Vec<ChunkTiming> = Vec::new();
        let mut stage = GpuStageTimings::default();
        let mut off = 0;
        while off < b {
            let bc = chunk.min(b - off);
            let s = &mut streams[chunks.len() % 2];
            let src = &input[off * in_per..(off + bc) * in_per];
            let h2d = dev.transfer_time(std::mem::size_of_val(src));
            let h2d_done = ctx.retry("h2d:chunk", || {
                s.memcpy_htod(dev, &mut engines, &mut bufs.input, src)
            })?;
            let (res, exec) = dev
                .timed(|| ctx.retry("exec:chunk", || self.exec_chunk(pts, bufs, bc, &mut stage)));
            res?;
            s.compute(&mut engines, exec);
            let dst = &mut output[off * out_per..(off + bc) * out_per];
            let d2h = dev.transfer_time(std::mem::size_of_val(dst));
            let d2h_done = ctx.retry("d2h:chunk", || {
                s.memcpy_dtoh(dev, &mut engines, dst, &bufs.output)
            })?;
            chunks.push(ChunkTiming {
                ntransf: bc,
                h2d,
                exec,
                d2h,
                start: (h2d_done - h2d) - base,
                done: d2h_done - base,
            });
            stage.h2d_data += h2d;
            stage.d2h += d2h;
            off += bc;
        }
        let wall = sync_streams(dev, &[&streams[0], &streams[1]]) - base;
        Ok((wall, chunks, stage))
    }

    /// One chunk of `bc` transforms on the staged input (Sec. II). Type
    /// 1 spreads each vector into its own fine grid, runs one batched
    /// FFT and deconvolves each vector; type 2 pre-corrects, transforms
    /// and interpolates. Each chunk starts by zeroing its grids, so a
    /// launch fault retries the whole chunk without double accumulation.
    fn exec_chunk(
        &self,
        pts: &PtsState<T>,
        bufs: &mut Staging<T>,
        bc: usize,
        stage: &mut GpuStageTimings,
    ) -> DevResult {
        match self.ttype {
            TransformType::Type1 => {
                self.stage("stage.spread", &mut stage.spread_interp, || {
                    self.spread(pts, bufs, bc)
                })?;
                self.stage("stage.fft", &mut stage.fft, || {
                    self.fft(bufs, bc);
                    Ok(())
                })?;
                self.stage("stage.deconv", &mut stage.deconv, || {
                    self.deconvolve(bufs, bc);
                    Ok(())
                })
            }
            TransformType::Type2 => {
                self.stage("stage.deconv", &mut stage.deconv, || {
                    self.precorrect(bufs, bc);
                    Ok(())
                })?;
                self.stage("stage.fft", &mut stage.fft, || {
                    self.fft(bufs, bc);
                    Ok(())
                })?;
                self.stage("stage.interp", &mut stage.spread_interp, || {
                    self.interp(pts, bufs, bc)
                })
            }
        }
    }

    /// Transform the first `bc` fine grids in one batched launch.
    fn fft(&self, bufs: &mut Staging<T>, bc: usize) {
        let dir = Direction::from_sign(self.iflag);
        self.fft.execute_many(&self.dev, &mut bufs.grid, bc, dir);
    }

    /// Zero the first `bc` fine grids.
    fn zero_grids(&self, grid: &mut GpuBuffer<Complex<T>>, bc: usize) {
        let len = bc * self.geom.fine.total();
        grid.as_mut_slice()[..len].fill(Complex::ZERO);
        let bytes = len * std::mem::size_of::<Complex<T>>();
        self.dev
            .bulk_op("memset_grid_batch", 0, bytes, 0.0, Self::precision());
    }

    /// Zero the first `bc` fine grids and spread the first `bc` staged
    /// strength vectors into them with the configured method.
    fn spread(&self, pts: &PtsState<T>, bufs: &mut Staging<T>, bc: usize) -> DevResult {
        self.zero_grids(&mut bufs.grid, bc);
        spread_batch(
            &self.dev,
            &self.eval_kernel,
            self.geom.fine,
            self.geom.method,
            self.opts.tuning.threads_per_block,
            &pts.inputs(),
            bc,
            &bufs.input.as_slice()[..bc * pts.m],
            &mut bufs.grid.as_mut_slice()[..bc * self.geom.fine.total()],
        )
    }

    /// Interpolate the first `bc` fine grids at the points into the
    /// first `bc` staged output vectors.
    fn interp(&self, pts: &PtsState<T>, bufs: &mut Staging<T>, bc: usize) -> DevResult {
        interp_batch(
            &self.dev,
            &self.eval_kernel,
            self.geom.fine,
            self.geom.method,
            self.opts.tuning.threads_per_block,
            &pts.inputs(),
            bc,
            &bufs.grid.as_slice()[..bc * self.geom.fine.total()],
            &mut bufs.output.as_mut_slice()[..bc * pts.m],
        )
    }

    /// Type 1 step 3 for `bc` vectors: deconvolve and truncate each fine
    /// grid into its output modes.
    fn deconvolve(&self, bufs: &mut Staging<T>, bc: usize) {
        let (nf, n) = (self.geom.fine.total(), self.geom.modes.total());
        for v in 0..bc {
            let grid = &bufs.grid.as_slice()[v * nf..(v + 1) * nf];
            let out = &mut bufs.output.as_mut_slice()[v * n..(v + 1) * n];
            self.for_each_mode(|g, k, p| out[k] = grid[g].scale(T::from_f64(p)));
        }
        self.mode_pass("deconvolve_batch", bc * n);
    }

    /// Type 2 step 1 for `bc` vectors: zero the fine grids, then
    /// pre-correct and zero-pad each input into its grid.
    fn precorrect(&self, bufs: &mut Staging<T>, bc: usize) {
        let (nf, n) = (self.geom.fine.total(), self.geom.modes.total());
        self.zero_grids(&mut bufs.grid, bc);
        for v in 0..bc {
            let input = &bufs.input.as_slice()[v * n..(v + 1) * n];
            let grid = &mut bufs.grid.as_mut_slice()[v * nf..(v + 1) * nf];
            self.for_each_mode(|g, k, p| grid[g] = input[k].scale(T::from_f64(p)));
        }
        self.mode_pass("precorrect_batch", bc * n);
    }

    /// Visit every mode with its fine-grid index, its index in the
    /// caller's array under the plan's mode ordering, and its
    /// correction factor (host-functional).
    fn for_each_mode(&self, mut f: impl FnMut(usize, usize, f64)) {
        let (modes, fine, corr) = (self.geom.modes, self.geom.fine, &self.corr);
        let k1s: Vec<(usize, f64)> = freqs(modes.n[0])
            .enumerate()
            .map(|(j, k)| (freq_to_bin(k, fine.n[0]), corr[0][j]))
            .collect();
        for (j3, k3) in freqs(modes.n[2]).enumerate() {
            let b3 = freq_to_bin(k3, fine.n[2]) * fine.n[0] * fine.n[1];
            let p3 = corr[2][j3];
            for (j2, k2) in freqs(modes.n[1]).enumerate() {
                let b2 = b3 + freq_to_bin(k2, fine.n[1]) * fine.n[0];
                let p23 = p3 * corr[1][j2];
                for (j1, (b1, p1)) in k1s.iter().enumerate() {
                    let k = mode_index(modes, self.opts.modeord, j1, j2, j3);
                    f(b2 + b1, k, p1 * p23);
                }
            }
        }
    }

    /// Price one read + write pass over `modes` complex values at 8
    /// flops each.
    fn mode_pass(&self, name: &str, modes: usize) {
        let bytes = modes * std::mem::size_of::<Complex<T>>();
        self.dev
            .bulk_op(name, bytes, bytes, modes as f64 * 8.0, Self::precision());
    }
}

impl<T: Real> nufft_common::NufftPlan<T> for Plan<T> {
    fn transform_type(&self) -> TransformType {
        self.core.ttype
    }

    fn modes(&self) -> Shape {
        self.core.geom.modes
    }

    fn num_points(&self) -> usize {
        Plan::num_points(self)
    }

    fn set_points(&mut self, pts: &Points<T>) -> Result<()> {
        self.set_pts(pts)
    }

    fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        Plan::execute(self, input, output)
    }

    fn execute_many(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        Plan::execute_many(self, input, output)
    }

    fn exec_time(&self) -> f64 {
        self.timings.exec()
    }

    fn total_time(&self) -> f64 {
        self.timings.total_mem()
    }

    fn backend_name(&self) -> &'static str {
        "cufinufft"
    }
}

/// Caller-array index of mode `(j1,j2,j3)` (ascending-frequency
/// enumeration indices) under the plan's mode ordering.
#[inline]
fn mode_index(modes: Shape, modeord: ModeOrder, j1: usize, j2: usize, j3: usize) -> usize {
    match modeord {
        ModeOrder::Centered => j1 + modes.n[0] * (j2 + modes.n[1] * j3),
        ModeOrder::Fft => {
            // j enumerates k = -N/2 + j; FFT order stores k at k mod N
            let f = |j: usize, n: usize| (j + n - n / 2) % n;
            f(j1, modes.n[0]) + modes.n[0] * (f(j2, modes.n[1]) + modes.n[1] * f(j3, modes.n[2]))
        }
    }
}
