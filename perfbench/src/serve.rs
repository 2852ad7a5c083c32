//! The serving workload: an open loop into one `NufftServer`, plus the
//! short open-loop pass the single-transform workloads use to measure
//! the serve layer on their own transform.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nufft_common::metrics::rel_l2;
use nufft_common::{
    gen_coeffs, gen_points, gen_strengths, Complex, PointDist, Points, Precision, Real, Shape,
    TransformSpec, TransformType,
};
use nufft_serve::{NufftServer, ServeConfig};
use nufft_trace::Trace;

use crate::calib::Timed;
use crate::layers;
use crate::loadgen::{self, Record, Request, Status};
use crate::oracle::{direct_at, envelope, sample_indices, splitmix64, SAMPLE};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::transform::{device, execute_timed, probe_layers, Transform};

/// Offered load: requests per second, sent in bursts that share a spec
/// and a point set.
pub const RATE_PER_S: f64 = 30.0;
pub const BURST: usize = 4;
/// Latency limit (due time to completion) for `slo_met_frac`.
pub const SLO_S: f64 = 0.2;
/// Every `NOVEL_EVERY`-th burst carries a spec never seen before (4%):
/// enough cache misses that the latency tail, the 11th-largest of the
/// run, falls inside the miss population rather than on its edge.
pub const NOVEL_EVERY: usize = 25;
/// Points per point set.
pub const M: usize = 8192;
/// Every `SAMPLE_EVERY`-th request is checked against a direct
/// single-plan execution and the direct NUDFT.
pub const SAMPLE_EVERY: usize = 16;
/// Entries per checked response compared with the direct NUDFT.
const ENTRIES: usize = 16;
/// Distinct input vectors per spec.
const POOL: usize = 8;
/// Timed server set-ups before the stream, and again after it.
const SETUP_REPS: usize = 10;
/// Execute calls per warm spec for `exec_s`: at least this many, for
/// at least this long.
const EXEC_REPS: usize = 11;
const EXEC_BUDGET: Duration = Duration::from_secs(3);

fn config(trace: Option<&Trace>) -> ServeConfig {
    let c = ServeConfig {
        queue_capacity: 256,
        cache_capacity: 4,
        max_batch: BURST,
        ..ServeConfig::default()
    };
    match trace {
        Some(t) => c.with_trace(t),
        None => c,
    }
}

/// The three specs the stream keeps warm.
fn warm_specs() -> [TransformSpec; 3] {
    let f32 = |s: TransformSpec| s.precision(Precision::F32);
    [
        f32(TransformSpec::type1(&[64, 64]).eps(1e-4)),
        f32(TransformSpec::type2(&[64, 64]).eps(1e-4)),
        f32(TransformSpec::type1(&[96, 96]).eps(1e-5)),
    ]
}

/// A spec no earlier request used: the first warm spec at a slightly
/// different tolerance (same kernel width, so the same build cost).
fn novel_spec(k: usize) -> TransformSpec {
    let base = &warm_specs()[0];
    base.clone().eps(base.eps * (1.0 + 1e-3 * (k + 1) as f64))
}

/// Two uniform point sets and one clustered one.
fn point_sets(seed: u64) -> Vec<Arc<Points<f32>>> {
    let fine = Shape::d2(128, 128);
    [PointDist::Rand, PointDist::Rand, PointDist::Cluster]
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            Arc::new(gen_points::<f32>(
                d,
                2,
                M,
                fine,
                seed.wrapping_add(10 + i as u64),
            ))
        })
        .collect()
}

fn input_for(spec: &TransformSpec, seed: u64) -> Vec<Complex<f32>> {
    match spec.ttype {
        TransformType::Type1 => gen_strengths::<f32>(M, seed),
        TransformType::Type2 => gen_coeffs::<f32>(spec.num_modes(), seed),
    }
}

/// The request stream of one run, drawn from `seed`.
struct Stream {
    specs: Vec<TransformSpec>,
    points: Vec<Arc<Points<f32>>>,
    /// Input pool per spec index (novel specs share the first pool).
    pools: Vec<Vec<Vec<Complex<f32>>>>,
    /// `(due_s, spec, points, pool entry)` per request.
    schedule: Vec<(f64, usize, usize, usize)>,
}

impl Stream {
    fn new(seed: u64, seconds: f64) -> Stream {
        let mut specs: Vec<TransformSpec> = warm_specs().into();
        let pools = specs
            .iter()
            .enumerate()
            .map(|(s, spec)| {
                (0..POOL)
                    .map(|k| input_for(spec, seed.wrapping_add(1000 + 100 * s as u64 + k as u64)))
                    .collect()
            })
            .collect();
        let mut rng = seed ^ 0x2545_f491_4f6c_dd1d;
        let bursts = (RATE_PER_S * seconds / BURST as f64).ceil() as usize;
        let mut schedule = Vec::with_capacity(bursts * BURST);
        // warm bursts take every (spec, point set) pair once per cycle,
        // the last spec twice, in a seeded order, so every seed offers
        // the same mix; the uneven weight keeps the median latency
        // inside one spec's spread instead of on the edge between two
        let mut cycle: Vec<(usize, usize)> = Vec::new();
        for b in 0..bursts {
            let due = (b * BURST) as f64 / RATE_PER_S;
            let (spec, pts) = if b % NOVEL_EVERY == NOVEL_EVERY / 2 {
                let k = b / NOVEL_EVERY;
                specs.push(novel_spec(k));
                (specs.len() - 1, k % 3)
            } else {
                if cycle.is_empty() {
                    cycle = (0..12).map(|k| ((k / 3).min(2), k % 3)).collect();
                    for i in (1..cycle.len()).rev() {
                        cycle.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
                    }
                }
                cycle.pop().expect("refilled above")
            };
            for _ in 0..BURST {
                schedule.push((
                    due,
                    spec,
                    pts,
                    (splitmix64(&mut rng) % POOL as u64) as usize,
                ));
            }
        }
        Stream {
            specs,
            points: point_sets(seed),
            pools,
            schedule,
        }
    }

    fn input(&self, spec: usize, entry: usize) -> &[Complex<f32>] {
        &self.pools[if spec < self.pools.len() { spec } else { 0 }][entry]
    }

    fn requests(&self) -> Vec<Request<'_, f32>> {
        self.schedule
            .iter()
            .enumerate()
            .map(|(i, &(due_s, spec, pts, entry))| Request {
                due_s,
                spec: &self.specs[spec],
                points: &self.points[pts],
                input: self.input(spec, entry),
                keep_output: i % SAMPLE_EVERY == 0,
            })
            .collect()
    }

    /// One transform per warm spec, each on its own point set.
    fn warm_transforms(&self) -> Vec<Transform<f32>> {
        (0..3)
            .map(|i| Transform {
                spec: self.specs[i].clone(),
                points: Arc::clone(&self.points[i]),
                input: self.pools[i][0].clone(),
            })
            .collect()
    }
}

/// Submit each transform once and wait for all the answers.
fn serve_each(server: &NufftServer, transforms: &[Transform<f32>]) -> Result<(), String> {
    let responses = transforms
        .iter()
        .map(|t| server.submit(&t.spec, &t.points, t.input.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up submit: {e}"))?;
    for r in responses {
        r.wait().map_err(|e| format!("warm-up response: {e}"))?;
    }
    Ok(())
}

/// Server start through the first response for each warm spec.
fn setup_s(
    warm: &[Transform<f32>],
    host_threads: usize,
    o: &mut Outcome,
) -> Result<Vec<Timed>, String> {
    let mut timed = Vec::new();
    // the first pass in the process warms the FFT plan cache
    for rep in 0..=SETUP_REPS {
        let (r, t) = o.cal.timed(|| -> Result<_, String> {
            let server = NufftServer::start(&device(host_threads), config(None))
                .map_err(|e| format!("start: {e}"))?;
            serve_each(&server, warm)?;
            Ok(server)
        });
        r?.shutdown();
        if rep > 0 {
            timed.push(t);
        }
    }
    Ok(timed)
}

/// Check the kept responses against a direct single-plan execution of
/// the same request and, at a few entries, against the direct NUDFT.
fn check_sample(
    stream: &Stream,
    records: &[Record<f32>],
    host_threads: usize,
    o: &mut Outcome,
) -> Result<(), String> {
    let mut plans = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        let Some(out) = &r.output else { continue };
        let (_, s, p, entry) = stream.schedule[i];
        let spec = &stream.specs[s];
        let (points, input) = (&stream.points[p], stream.input(s, entry));
        if let Entry::Vacant(slot) = plans.entry((s, p)) {
            let tr = Transform {
                spec: spec.clone(),
                points: Arc::clone(points),
                input: Vec::new(),
            };
            slot.insert(tr.setup(&device(host_threads), None)?.plan);
        }
        let plan = plans.get_mut(&(s, p)).expect("inserted above");
        let mut direct = vec![Complex::<f32>::ZERO; out.len()];
        plan.execute(input, &mut direct)
            .map_err(|e| format!("direct execute: {e}"))?;
        let idx = sample_indices(out.len(), ENTRIES, i as u64);
        let truth = direct_at(
            spec.ttype,
            points,
            input,
            Shape::from_slice(&spec.modes),
            spec.iflag,
            &idx,
        );
        let picked: Vec<Complex<f32>> = idx.iter().map(|&k| out[k]).collect();
        let err = rel_l2(&picked, &truth);
        let vs_direct = rel_l2(out, &direct);
        o.check(
            vs_direct <= 1e-6 && err <= envelope::<f32>(spec.eps),
            format!(
                "request {i} ({}): vs direct plan {vs_direct:e}, vs NUDFT {err:e}",
                spec.label()
            ),
        );
    }
    Ok(())
}

/// Count each request once, failed unless it completed.
fn count_records<T: Real>(records: &[Record<T>], o: &mut Outcome) {
    let mut refused = 0;
    for r in records {
        match &r.status {
            Status::Ok => o.count(1, 0),
            Status::Refused => {
                refused += 1;
                o.count(1, 1);
            }
            Status::Failed(why) => {
                o.check(false, format!("request failed: {why}"));
            }
        }
    }
    if refused > 0 {
        o.note(format!("FAILED: {refused} requests refused at admission"));
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    host_threads: usize,
    traced: bool,
    o: &mut Outcome,
) -> Result<(), String> {
    let stream = Stream::new(seed, seconds);
    let warm = stream.warm_transforms();
    // set-up is timed before and after the stream, to sample more than
    // one stretch of host conditions
    let mut setup = if traced {
        Vec::new()
    } else {
        setup_s(&warm, host_threads, o)?
    };

    let trace = traced.then(Trace::new);
    let dev = device(host_threads);
    let server =
        NufftServer::start(&dev, config(trace.as_ref())).map_err(|e| format!("start: {e}"))?;
    // fill the plan cache: every warm spec on every point set
    for p in 0..stream.points.len() {
        let on_p: Vec<Transform<f32>> = warm
            .iter()
            .map(|t| Transform {
                points: Arc::clone(&stream.points[p]),
                spec: t.spec.clone(),
                input: t.input.clone(),
            })
            .collect();
        serve_each(&server, &on_p)?;
    }
    let skip = trace
        .as_ref()
        .map_or(0, |t| t.report().spans_named("serve.queue").len());
    let before = server.stats();
    let requests = stream.requests();
    // calibration samples in the server's idle gaps, each with its time
    let mut idle_at = Vec::new();
    let records = loadgen::run(&server, &requests, Duration::from_secs(30), || {
        idle_at.push((Instant::now(), o.cal.sample()));
    });
    if idle_at.is_empty() {
        idle_at.push((Instant::now(), o.cal.sample()));
    }
    let after = server.stats();
    server.shutdown();
    let mem_peak = dev.mem_peak();

    if !traced {
        setup.extend(setup_s(&warm, host_threads, o)?);
    }
    count_records(&records, o);
    check_sample(&stream, &records, host_threads, o)?;
    let sent = records.len();
    o.note(format!(
        "open loop: {sent} requests at {RATE_PER_S} req/s in bursts of {BURST}, {} specs ({} novel), {} point sets of M = {M}",
        stream.specs.len(),
        stream.specs.len() - 3,
        stream.points.len()
    ));
    o.note(format!(
        "server stats over the stream: {}",
        diff_note(&before, &after)
    ));

    if let Some(trace) = &trace {
        let budget = Duration::from_secs_f64(seconds / warm.len() as f64);
        let sums = probe_layers(&warm, host_threads, budget, false, seed, o)?;
        layers::emit_plan_layers(&sums, o);
        let waits = layers::queue_waits(&trace.report(), skip);
        layers::emit_serve_layers(&records, &before, &after, &waits, o);
        return Ok(());
    }

    // exec_s, the simulated clock and the error: one request per warm
    // spec; the specs' execute calls take turns, so all three see the
    // same host conditions
    let (mut sim_exec, mut sim_total_mem, mut m_total, mut digits) = (0.0, 0.0, 0.0, 0.0);
    let mut seqs = Vec::new();
    for t in &warm {
        let seq = t.sequence(host_threads, None)?;
        sim_exec += seq.timings.exec();
        sim_total_mem += seq.timings.total_mem();
        m_total += t.m() as f64;
        digits -= t.rel_err(&seq.output, o).log10() / warm.len() as f64;
        seqs.push(seq);
    }
    let mut reps = vec![Vec::new(); warm.len()];
    let start = Instant::now();
    while reps[0].len() < EXEC_REPS || start.elapsed() < EXEC_BUDGET {
        for ((t, seq), r) in warm.iter().zip(&mut seqs).zip(&mut reps) {
            r.push(execute_timed(&mut seq.plan, &t.input, &seq.output, o));
        }
    }
    let (reps_raw, reps): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        reps.iter().map(|r| o.cal.split(r)).unzip();
    let (setup_raw, setup) = o.cal.split(&setup);
    let sum_of_medians = |r: &[Vec<f64>]| r.iter().map(|v| median(v)).sum::<f64>();
    o.note("simulated clock on this workload: unvalidated (no paper anchor for serving)");

    // each latency at the reference speed of the idle gap nearest its due
    // time
    let (latencies_raw, latencies): (Vec<f64>, Vec<f64>) = records
        .iter()
        .filter_map(|r| {
            let raw = r.latency_s?;
            let k = idle_at.partition_point(|&(t, _)| t < r.due);
            let nearest = [k.saturating_sub(1), k.min(idle_at.len() - 1)]
                .into_iter()
                .min_by_key(|&j| {
                    let t = idle_at[j].0;
                    t.max(r.due) - t.min(r.due)
                })
                .expect("two candidates");
            Some((raw, o.cal.reference_at(raw, idle_at[nearest].1)))
        })
        .unzip();
    let lat_tail = tail(&latencies).ok_or("no request completed")?;
    let met = latencies_raw.iter().filter(|&&l| l <= SLO_S).count();
    o.host_metric(
        "exec_s",
        sum_of_medians(&reps),
        sum_of_medians(&reps_raw),
        "s",
        format!(
            "host, sum over 3 warm specs of the median of {} Plan::execute",
            reps[0].len()
        ),
    );
    o.metric(
        "sim_exec_ns_per_pt",
        sim_exec * 1e9 / m_total,
        "ns/pt",
        "simulated V100, warm specs pooled, unvalidated",
    );
    o.metric(
        "sim_total_mem_ns_per_pt",
        sim_total_mem * 1e9 / m_total,
        "ns/pt",
        "simulated V100, warm specs pooled, unvalidated",
    );
    o.metric(
        "gpu_mem_peak_bytes",
        mem_peak as f64,
        "bytes",
        "server device, Device::mem_peak over warm-up and stream",
    );
    o.host_metric(
        "setup_s",
        median(&setup),
        median(&setup_raw),
        "s",
        format!(
            "host, median of {} server start to first response per warm spec",
            setup.len()
        ),
    );
    o.metric(
        "rel_err_digits",
        digits,
        "digits",
        format!("mean over 3 warm specs of -log10 rel_err, {SAMPLE} sampled outputs each vs direct NUDFT"),
    );
    o.host_metric(
        "latency_p50_s",
        median(&latencies),
        median(&latencies_raw),
        "s",
        format!("due to completion, median of {}", latencies.len()),
    );
    o.host_metric(
        "latency_tail_s",
        lat_tail.value,
        tail(&latencies_raw).expect("not empty").value,
        "s",
        format!(
            "due to completion, p{:.2} of {} (ten or more beyond: {})",
            lat_tail.percentile,
            latencies.len(),
            lat_tail.supported
        ),
    );
    o.metric(
        "slo_met_frac",
        met as f64 / sent as f64,
        "1",
        format!("completed correctly within {SLO_S} s raw, of {sent} sent"),
    );
    Ok(())
}

fn diff_note(before: &nufft_serve::ServeStats, after: &nufft_serve::ServeStats) -> String {
    format!(
        "completed {} failed {} rejected {} shed {} batches {} coalesced {} cache hits {} misses {} evictions {} setpts reuses {} peak queue {}",
        after.completed - before.completed,
        after.failed - before.failed,
        after.rejected - before.rejected,
        after.shed - before.shed,
        after.batches - before.batches,
        after.coalesced - before.coalesced,
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        after.cache_evictions - before.cache_evictions,
        after.setpts_reuses - before.setpts_reuses,
        after.peak_queue_depth
    )
}

/// The serve layer on a single-transform workload's own transform: two
/// bursts of two same-spec, same-points requests, the second due once
/// the first should be done (a cache miss, then a hit with set_pts
/// reused). The first output is checked against the direct NUDFT and
/// the others must equal it.
pub fn layer_pass<T: Real>(
    tr: &Transform<T>,
    exec_s: f64,
    host_threads: usize,
    o: &mut Outcome,
) -> Result<(), String> {
    let trace = Trace::new();
    let server = NufftServer::start(&device(host_threads), config(Some(&trace)))
        .map_err(|e| format!("start: {e}"))?;
    let gap = 3.0 * exec_s + 0.05;
    let requests: Vec<Request<'_, T>> = [0.0, 0.0, gap, gap]
        .iter()
        .map(|&due_s| Request {
            due_s,
            spec: &tr.spec,
            points: &tr.points,
            input: &tr.input,
            keep_output: true,
        })
        .collect();
    let before = server.stats();
    let records = loadgen::run(&server, &requests, Duration::from_secs(120), || {
        o.cal.sample();
    });
    let after = server.stats();
    server.shutdown();
    count_records(&records, o);
    let outputs: Vec<&Vec<Complex<T>>> = records.iter().filter_map(|r| r.output.as_ref()).collect();
    if let Some(first) = outputs.first() {
        tr.rel_err(first, o);
        let same = outputs.iter().all(|out| out == first);
        o.check(same, "served outputs of one request differ");
    }
    let waits = layers::queue_waits(&trace.report(), 0);
    layers::emit_serve_layers(&records, &before, &after, &waits, o);
    Ok(())
}
