//! One transform through the plan lifecycle, timed from outside the
//! library: `PlanBuilder::build`, `Plan::{set_pts, execute,
//! spread_only, interp_only, timings}`, `GpuFftPlan::execute` and the
//! `finufft-cpu` plan.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cufinufft::{GpuStageTimings, Plan, PlanBuilder};
use gpu_fft::GpuFftPlan;
use gpu_sim::Device;
use nufft_common::metrics::rel_l2;
use nufft_common::{
    gen_coeffs, gen_strengths, Complex, Method, Points, Real, Shape, TransformSpec,
};
use nufft_fft::Direction;
use nufft_trace::Trace;

use crate::calib::Timed;
use crate::oracle::{direct_at, envelope, sample_indices, sampled_rel_err, SAMPLE};
use crate::report::Outcome;
use crate::stats::median;

/// Repetitions of set-up and of each layer call in the traced run.
const SETUP_REPS: usize = 5;
const LAYER_REPS: usize = 3;

/// A simulated V100 with timeline recording off and a pinned host
/// thread count (the environment's `GPU_SIM_HOST_THREADS` is not used).
pub fn device(host_threads: usize) -> Device {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    dev.set_host_parallelism(host_threads);
    dev
}

/// Host threads for the check that the simulated clock and the outputs
/// do not depend on the host thread count: two, when the host has them.
pub fn wide_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Host seconds of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// A transform request: what to compute, at which points, on what.
pub struct Transform<T: Real> {
    pub spec: TransformSpec,
    pub points: Arc<Points<T>>,
    pub input: Vec<Complex<T>>,
}

impl<T: Real> Transform<T> {
    pub fn m(&self) -> usize {
        self.points.len()
    }

    pub fn out_len(&self) -> usize {
        self.spec.output_len(self.m())
    }

    /// Relative ℓ2 error of `out` against the direct NUDFT at a fixed
    /// sample of [`SAMPLE`] output entries (the same entries whatever
    /// the workload seed); fails the check when it leaves the
    /// conformance envelope.
    pub fn rel_err(&self, out: &[Complex<T>], outcome: &mut Outcome) -> f64 {
        let spec = &self.spec;
        let idx = sample_indices(out.len(), SAMPLE, 0);
        let truth = direct_at(
            spec.ttype,
            &self.points,
            &self.input,
            Shape::from_slice(&spec.modes),
            spec.iflag,
            &idx,
        );
        let err = sampled_rel_err(out, &idx, &truth);
        let env = envelope::<T>(spec.eps);
        outcome.check(
            err <= env,
            format!(
                "{}: rel_err {err:e} outside the envelope {env:e}",
                spec.label()
            ),
        );
        err
    }

    /// Plan build plus the first `set_pts`, each timed.
    pub fn setup(&self, dev: &Device, trace: Option<&Trace>) -> Result<Setup<T>, String> {
        let mut b = PlanBuilder::from_spec(&self.spec).map_err(|e| format!("spec: {e}"))?;
        if let Some(t) = trace {
            b = b.tracing(t);
        }
        let (plan, build_s) = timed(|| b.build(dev));
        let mut plan = plan.map_err(|e| format!("build {}: {e}", self.spec.label()))?;
        let (r, setpts_s) = timed(|| plan.set_pts(&self.points));
        r.map_err(|e| format!("set_pts {}: {e}", self.spec.label()))?;
        Ok(Setup {
            plan,
            build_s,
            setpts_s,
        })
    }

    /// One build → `set_pts` → `execute` sequence on a fresh device.
    /// Its simulated stage times are the paper's per-transform figures:
    /// they are read before anything else runs on the plan, because
    /// `GpuStageTimings::alloc` accumulates over repeated `set_pts`
    /// calls.
    pub fn sequence(
        &self,
        host_threads: usize,
        trace: Option<&Trace>,
    ) -> Result<Sequence<T>, String> {
        let dev = device(host_threads);
        let s = self.setup(&dev, trace)?;
        Sequence::finish(s, &self.input, self.out_len())
    }
}

pub struct Setup<T: Real> {
    pub plan: Plan<T>,
    pub build_s: f64,
    pub setpts_s: f64,
}

pub struct Sequence<T: Real> {
    pub plan: Plan<T>,
    pub timings: GpuStageTimings,
    pub mem_peak: usize,
    pub output: Vec<Complex<T>>,
    /// Trace counters after `set_pts` and after the first `execute`.
    pub counters_setpts: BTreeMap<String, i64>,
    pub counters_exec: BTreeMap<String, i64>,
}

impl<T: Real> Sequence<T> {
    /// Run the first `execute` on a freshly set-up plan.
    pub fn finish(s: Setup<T>, input: &[Complex<T>], out_len: usize) -> Result<Self, String> {
        let mut plan = s.plan;
        let counters = |plan: &Plan<T>| plan.trace_report().map(|r| r.counters).unwrap_or_default();
        let counters_setpts = counters(&plan);
        let mut output = vec![Complex::<T>::ZERO; out_len];
        plan.execute(input, &mut output)
            .map_err(|e| format!("execute: {e}"))?;
        Ok(Sequence {
            timings: plan.timings(),
            mem_peak: plan.device().mem_peak(),
            counters_exec: counters(&plan),
            counters_setpts,
            output,
            plan,
        })
    }

    /// Simulated "exec" (spread/interp + FFT + deconv) in ns per point.
    pub fn sim_exec_ns_per_pt(&self) -> f64 {
        self.timings.exec() * 1e9 / self.plan.num_points() as f64
    }

    /// Simulated "total+mem" in ns per point.
    pub fn sim_total_mem_ns_per_pt(&self) -> f64 {
        self.timings.total_mem() * 1e9 / self.plan.num_points() as f64
    }
}

/// Bitwise equality of two simulated stage-time records.
pub fn same_timings(a: &GpuStageTimings, b: &GpuStageTimings) -> bool {
    let bits = |t: &GpuStageTimings| {
        [
            t.alloc,
            t.h2d_pts,
            t.sort,
            t.h2d_data,
            t.spread_interp,
            t.fft,
            t.deconv,
            t.d2h,
        ]
        .map(f64::to_bits)
    };
    bits(a) == bits(b)
}

/// One timed `plan.execute` (see [`crate::calib`]), whose output must
/// equal `expected` bit for bit (a mismatch or an error counts as
/// failed).
pub fn execute_timed<T: Real>(
    plan: &mut Plan<T>,
    input: &[Complex<T>],
    expected: &[Complex<T>],
    outcome: &mut Outcome,
) -> Timed {
    let mut out = vec![Complex::<T>::ZERO; expected.len()];
    let (r, t) = outcome.cal.timed(|| plan.execute(input, &mut out));
    let equal = out == expected;
    outcome.check(
        r.is_ok() && equal,
        format!("execute: {r:?}, output equal to the first: {equal}"),
    );
    t
}

/// Host seconds of the spread/interp layer alone: `spread_only` on a
/// type 1 plan, `interp_only` on a type 2 plan.
pub fn spread_interp_reps<T: Real>(
    plan: &mut Plan<T>,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let nf = plan.fine_grid_shape().total();
    let m = plan.num_points();
    let type1 = plan.transform_type() == nufft_common::TransformType::Type1;
    let (src, mut dst) = if type1 {
        (gen_strengths::<T>(m, seed), vec![Complex::<T>::ZERO; nf])
    } else {
        (gen_coeffs::<T>(nf, seed), vec![Complex::<T>::ZERO; m])
    };
    (0..reps)
        .map(|_| {
            let (r, s) = timed(|| {
                if type1 {
                    plan.spread_only(&src, &mut dst)
                } else {
                    plan.interp_only(&src, &mut dst)
                }
            });
            r.map(|()| s)
                .map_err(|e| format!("spread/interp only: {e}"))
        })
        .collect()
}

/// Host seconds of `GpuFftPlan::execute` on `plan`'s fine grid.
pub fn fft_reps<T: Real>(
    plan: &Plan<T>,
    host_threads: usize,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let fine = plan.fine_grid_shape();
    let dev = device(host_threads);
    let fft = GpuFftPlan::<T>::new(fine);
    let data = gen_coeffs::<T>(fine.total(), seed);
    let mut buf = dev
        .alloc::<Complex<T>>("fft_grid", fine.total())
        .map_err(|e| format!("fft buffer: {e:?}"))?;
    Ok((0..reps)
        .map(|_| {
            // fresh data each time, so repeated transforms cannot overflow
            buf.as_mut_slice().copy_from_slice(&data);
            timed(|| fft.execute(&dev, &mut buf, Direction::Forward)).1
        })
        .collect())
}

/// Host seconds of the `finufft-cpu` plan's `execute` on the same
/// transform, with the same number of host threads; also checks that
/// its output agrees with the GPU plan's `expected` within both
/// tolerances.
pub fn cpu_reps<T: Real>(
    tr: &Transform<T>,
    expected: &[Complex<T>],
    host_threads: usize,
    reps: usize,
    outcome: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let opts = finufft_cpu::Opts {
        nthreads: host_threads,
        ..finufft_cpu::Opts::default()
    };
    let spec = &tr.spec;
    let mut plan = finufft_cpu::Plan::<T>::new(spec.ttype, &spec.modes, spec.iflag, spec.eps, opts)
        .map_err(|e| format!("cpu plan: {e}"))?;
    plan.set_pts((*tr.points).clone())
        .map_err(|e| format!("cpu set_pts: {e}"))?;
    let mut out = vec![Complex::<T>::ZERO; expected.len()];
    let mut samples = Vec::new();
    for _ in 0..reps {
        let (r, s) = timed(|| plan.execute(&tr.input, &mut out));
        r.map_err(|e| format!("cpu execute: {e}"))?;
        samples.push(s);
    }
    let diff = rel_l2(&out, expected);
    outcome.check(
        diff <= 2.0 * envelope::<T>(spec.eps),
        format!(
            "finufft-cpu vs cufinufft on {}: rel diff {diff:e}",
            spec.label()
        ),
    );
    Ok(samples)
}

/// The plan-layer numbers of one transform, from the traced run.
#[derive(Default)]
pub struct LayerSums {
    pub build_s: f64,
    pub setpts_s: f64,
    pub spread_s: f64,
    pub interp_s: f64,
    pub fft_s: f64,
    pub exec_s: f64,
    pub exec_traced_s: f64,
    /// `execute` with [`wide_threads`] host threads.
    pub exec_wide_s: f64,
    pub exec_rest_s: f64,
    pub cpu_s: f64,
    pub sim: GpuStageTimings,
    pub counters: BTreeMap<String, i64>,
    pub exec_blocks: i64,
}

impl LayerSums {
    fn add_sim(&mut self, t: &GpuStageTimings) {
        let s = &mut self.sim;
        s.alloc += t.alloc;
        s.h2d_pts += t.h2d_pts;
        s.sort += t.sort;
        s.h2d_data += t.h2d_data;
        s.spread_interp += t.spread_interp;
        s.fft += t.fft;
        s.deconv += t.deconv;
        s.d2h += t.d2h;
    }
}

/// Measure every plan layer on each transform and sum over them (one
/// request per transform). Traced and untraced `execute` alternate for
/// `exec_budget` per transform (at least [`LAYER_REPS`] pairs). With
/// `companion`, the spread/interp layer the transform does not use is
/// also timed, on a plan of the other type over the same points, as the
/// "no move" control.
pub fn probe_layers<T: Real>(
    transforms: &[Transform<T>],
    host_threads: usize,
    exec_budget: Duration,
    companion: bool,
    seed: u64,
    outcome: &mut Outcome,
) -> Result<LayerSums, String> {
    let mut sums = LayerSums::default();
    for (i, tr) in transforms.iter().enumerate() {
        let layer_seed = seed.wrapping_add(100 + i as u64);
        let mut build = Vec::new();
        let mut setpts = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let s = tr.setup(&device(host_threads), None)?;
            build.push(s.build_s);
            setpts.push(s.setpts_s);
            last = Some(s);
        }
        sums.build_s += median(&build);
        sums.setpts_s += median(&setpts);

        // the simulated clock and the outputs must not depend on the
        // host thread count or on tracing
        let plain = Sequence::finish(last.expect("SETUP_REPS > 0"), &tr.input, tr.out_len())?;
        let wide = tr.sequence(wide_threads(), None)?;
        outcome.check(
            same_timings(&plain.timings, &wide.timings) && plain.output == wide.output,
            format!(
                "{}: host threads {host_threads} vs {} changed the simulated clock or the output",
                tr.spec.label(),
                wide_threads()
            ),
        );
        let mut wide_plan = wide.plan;
        let wide_s: Vec<f64> = (0..LAYER_REPS)
            .map(|_| execute_timed(&mut wide_plan, &tr.input, &plain.output, outcome).raw)
            .collect();
        sums.exec_wide_s += median(&wide_s);
        let trace = Trace::new();
        let traced = tr.sequence(host_threads, Some(&trace))?;
        outcome.check(
            same_timings(&plain.timings, &traced.timings) && plain.output == traced.output,
            format!(
                "{}: tracing changed the simulated clock or the output",
                tr.spec.label()
            ),
        );
        sums.add_sim(&plain.timings);
        for (k, v) in &traced.counters_exec {
            *sums.counters.entry(k.clone()).or_default() += v;
        }
        sums.exec_blocks += traced.counters_exec.get("gpu.blocks").copied().unwrap_or(0)
            - traced
                .counters_setpts
                .get("gpu.blocks")
                .copied()
                .unwrap_or(0);

        // traced and untraced execute, interleaved
        let (mut plan, mut plan_traced) = (plain.plan, traced.plan);
        let mut untraced_s = Vec::new();
        let mut traced_s = Vec::new();
        let start = Instant::now();
        while untraced_s.len() < LAYER_REPS || start.elapsed() < exec_budget {
            untraced_s.push(execute_timed(&mut plan, &tr.input, &plain.output, outcome).raw);
            traced_s.push(execute_timed(&mut plan_traced, &tr.input, &plain.output, outcome).raw);
        }
        let exec = median(&untraced_s);
        sums.exec_s += exec;
        sums.exec_traced_s += median(&traced_s);

        let own = median(&spread_interp_reps(&mut plan, LAYER_REPS, layer_seed)?);
        let fft = median(&fft_reps(&plan, host_threads, LAYER_REPS, layer_seed)?);
        sums.exec_rest_s += exec - own - fft;
        sums.fft_s += fft;
        let type1 = tr.spec.ttype == nufft_common::TransformType::Type1;
        *if type1 {
            &mut sums.spread_s
        } else {
            &mut sums.interp_s
        } += own;
        if companion {
            let other = Transform {
                spec: TransformSpec {
                    ttype: if type1 {
                        nufft_common::TransformType::Type2
                    } else {
                        nufft_common::TransformType::Type1
                    },
                    iflag: -tr.spec.iflag,
                    method: Method::GmSort,
                    ..tr.spec.clone()
                },
                points: Arc::clone(&tr.points),
                input: Vec::new(),
            };
            let mut cplan = other.setup(&device(host_threads), None)?.plan;
            let t = median(&spread_interp_reps(&mut cplan, LAYER_REPS, layer_seed)?);
            *if type1 {
                &mut sums.interp_s
            } else {
                &mut sums.spread_s
            } += t;
        }
        sums.cpu_s += median(&cpu_reps(
            tr,
            &plain.output,
            host_threads,
            LAYER_REPS,
            outcome,
        )?);

        if i == 0 {
            // known defect, left in place: alloc grows with every set_pts
            let alloc_once = plain.timings.alloc;
            plan.set_pts(&tr.points)
                .map_err(|e| format!("second set_pts: {e}"))?;
            outcome.note(format!(
                "known defect (GpuStageTimings::alloc accumulates over set_pts): alloc after one set_pts {:.3} us, after a second {:.3} us",
                alloc_once * 1e6,
                plan.timings().alloc * 1e6
            ));
        }
    }
    Ok(sums)
}
