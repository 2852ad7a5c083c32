//! The single-transform workloads: one large plan, points set once,
//! `execute` timed over and over.

use std::time::{Duration, Instant};

use cufinufft::PlanBuilder;
use nufft_common::{
    gen_coeffs, gen_points, gen_strengths, Method, PointDist, Precision, Real, TransformSpec,
    TransformType,
};

use crate::anchors::{Anchor, AnchorRow};
use crate::oracle::{envelope, SAMPLE};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::transform::{device, execute_timed, probe_layers, Sequence, Transform};
use crate::{layers, serve};

/// Execute calls per timed run, at least: sixteen leave ten beyond a
/// tail that is not the fastest call, also where only a few calls fit
/// in the timed window (t2).
const MIN_EXEC_REPS: usize = 16;
/// A set-up (build + first `set_pts`) is timed between execute calls
/// once this much time has passed since the last one.
const SETUP_EVERY: Duration = Duration::from_millis(500);

pub struct Case {
    pub spec: fn() -> TransformSpec,
    pub dist: PointDist,
    /// Latency limit for one `execute` call (seconds).
    pub slo_s: f64,
    pub anchor: Anchor,
}

/// 2D type 1, f32, 256² modes, eps 1e-5, SM spreading, M = 512²
/// points all inside one 8h box of the fine grid.
pub const T1_2D_CLUSTER_SM: Case = Case {
    spec: || {
        TransformSpec::type1(&[256, 256])
            .eps(1e-5)
            .precision(Precision::F32)
            .method(Method::Sm)
    },
    dist: PointDist::Cluster,
    slo_s: 0.5,
    anchor: Anchor {
        file: "results/fig4_5_single.csv",
        key: &[
            ("dim", "2"),
            ("type", "type1"),
            ("eps", "1e-5"),
            ("lib", "cufinufft_SM"),
        ],
        tolerance: 0.10,
        caveat: "the row used \"rand\" points and this workload clusters them; SM spreading is distribution-robust, the bin sort in total+mem is not",
    },
};

/// 3D type 2, f64, 32³ modes, eps 1e-6, GM-sort interpolation, M = 64³
/// uniform random points.
pub const T2_3D_RAND_GMSORT_F64: Case = Case {
    spec: || {
        TransformSpec::type2(&[32, 32, 32])
            .eps(1e-6)
            .precision(Precision::F64)
            .method(Method::GmSort)
    },
    dist: PointDist::Rand,
    slo_s: 8.0,
    anchor: Anchor {
        file: "results/fig7_double.csv",
        key: &[
            ("dim", "3"),
            ("type", "type2"),
            ("eps", "1e-6"),
            ("lib", "cufinufft"),
            ("method", "GM-sort"),
        ],
        tolerance: 0.03,
        caveat: "same distribution and size as the row; only the seed differs",
    },
};

/// The workload's transform from `seed`, with M = ρ·(fine grid) at ρ = 1.
/// Building the plan that sizes the fine grid also warms the FFT plan
/// cache before anything is timed.
fn transform<T: Real>(case: &Case, seed: u64, host_threads: usize) -> Result<Transform<T>, String> {
    let spec = (case.spec)();
    let plan = PlanBuilder::<T>::from_spec(&spec)
        .and_then(|b| b.build(&device(host_threads)))
        .map_err(|e| format!("warm-up build: {e}"))?;
    let fine = plan.fine_grid_shape();
    let m = fine.total();
    let points = gen_points::<T>(case.dist, spec.dim(), m, fine, seed);
    let input = match spec.ttype {
        TransformType::Type1 => gen_strengths::<T>(m, seed.wrapping_add(1)),
        TransformType::Type2 => gen_coeffs::<T>(spec.num_modes(), seed.wrapping_add(1)),
    };
    Ok(Transform {
        spec,
        points: points.into(),
        input,
    })
}

/// The timed run: every end-to-end metric, tracing off.
pub fn run<T: Real>(
    case: &Case,
    seed: u64,
    seconds: f64,
    host_threads: usize,
    o: &mut Outcome,
) -> Result<(), String> {
    let tr = transform::<T>(case, seed, host_threads)?;
    let m = tr.m();

    // the first set-up's plan runs the simulated-clock sequence; later
    // set-ups are spread over the timed window, so they sample the same
    // host conditions as the execute calls
    let (first, t) = o.cal.timed(|| tr.setup(&device(host_threads), None));
    let mut seq = Sequence::finish(first?, &tr.input, tr.out_len())?;
    o.check(true, "first set-up and execute");
    let mut setup = vec![t];
    let mut exec = Vec::new();
    let mut last_setup = Instant::now();
    let start = Instant::now();
    while exec.len() < MIN_EXEC_REPS || start.elapsed().as_secs_f64() < seconds {
        exec.push(execute_timed(&mut seq.plan, &tr.input, &seq.output, o));
        if last_setup.elapsed() >= SETUP_EVERY {
            let (s, t) = o.cal.timed(|| tr.setup(&device(host_threads), None));
            s?;
            setup.push(t);
            o.check(true, "set-up");
            last_setup = Instant::now();
        }
    }
    let (exec_raw, exec) = o.cal.split(&exec);
    let (setup_raw, setup) = o.cal.split(&setup);

    // every timed output equals the first, so the sample checks them all
    let rel_err = tr.rel_err(&seq.output, o);
    let spec = &tr.spec;
    let (sim_exec, sim_total_mem) = (seq.sim_exec_ns_per_pt(), seq.sim_total_mem_ns_per_pt());
    o.note(format!(
        "transform: {} with M = {m} {:?} points",
        spec.label(),
        case.dist
    ));
    o.note(case.anchor.check(AnchorRow {
        exec_ns: sim_exec,
        total_mem_ns: sim_total_mem,
    }));
    let t = seq.timings;
    o.note(format!(
        "simulated stages (us): alloc {:.3} h2d_pts {:.3} sort {:.3} h2d_data {:.3} spread_interp {:.3} fft {:.3} deconv {:.3} d2h {:.3}",
        t.alloc * 1e6, t.h2d_pts * 1e6, t.sort * 1e6, t.h2d_data * 1e6, t.spread_interp * 1e6, t.fft * 1e6, t.deconv * 1e6, t.d2h * 1e6
    ));

    let n = exec.len();
    let lat_tail = tail(&exec).expect("at least one rep");
    let met = exec_raw.iter().filter(|&&s| s <= case.slo_s).count();
    o.host_metric(
        "exec_s",
        median(&exec),
        median(&exec_raw),
        "s",
        format!("host, median of {n} Plan::execute"),
    );
    o.metric(
        "sim_exec_ns_per_pt",
        sim_exec,
        "ns/pt",
        "simulated V100, first execute",
    );
    o.metric(
        "sim_total_mem_ns_per_pt",
        sim_total_mem,
        "ns/pt",
        "simulated V100, build + set_pts + first execute",
    );
    o.metric(
        "gpu_mem_peak_bytes",
        seq.mem_peak as f64,
        "bytes",
        "simulated device, Device::mem_peak",
    );
    o.host_metric(
        "setup_s",
        median(&setup),
        median(&setup_raw),
        "s",
        format!("host, median of {} build + first set_pts", setup.len()),
    );
    o.metric(
        "rel_err_digits",
        -rel_err.log10(),
        "digits",
        format!("-log10 rel_err; rel_err {rel_err:e} over {SAMPLE} sampled outputs vs direct NUDFT, envelope {:e}", envelope::<T>(spec.eps)),
    );
    o.host_metric(
        "latency_p50_s",
        median(&exec),
        median(&exec_raw),
        "s",
        format!("host, median of {n} execute calls"),
    );
    o.host_metric(
        "latency_tail_s",
        lat_tail.value,
        tail(&exec_raw).expect("at least one rep").value,
        "s",
        format!(
            "host, p{:.2} of {n} execute calls (ten or more beyond: {})",
            lat_tail.percentile, lat_tail.supported
        ),
    );
    o.metric(
        "slo_met_frac",
        met as f64 / n as f64,
        "1",
        format!("raw execute calls within {} s, of {n}", case.slo_s),
    );
    Ok(())
}

/// The traced run: every per-layer metric.
pub fn run_traced<T: Real>(
    case: &Case,
    seed: u64,
    seconds: f64,
    host_threads: usize,
    o: &mut Outcome,
) -> Result<(), String> {
    let tr = transform::<T>(case, seed, host_threads)?;
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let sums = probe_layers(
        std::slice::from_ref(&tr),
        host_threads,
        budget,
        true,
        seed,
        o,
    )?;
    layers::emit_plan_layers(&sums, o);
    serve::layer_pass(&tr, sums.exec_s, host_threads, o)
}
