//! Per-layer metrics of the traced run, named `<module>.<what>`.

use nufft_serve::ServeStats;
use nufft_trace::TraceReport;

use crate::loadgen::{Record, Status};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::transform::LayerSums;
use nufft_common::Real;

pub fn emit_plan_layers(s: &LayerSums, o: &mut Outcome) {
    let count = |name: &str| s.counters.get(name).copied().unwrap_or(0) as f64;
    let t = &s.sim;
    let f = o.cal.factor();
    o.host_scaled(
        "cufinufft.build.host_s",
        s.build_s,
        "s",
        "PlanBuilder::build, median",
        f,
    );
    o.host_scaled(
        "cufinufft.setpts.host_s",
        s.setpts_s,
        "s",
        "Plan::set_pts, median",
        f,
    );
    o.metric(
        "gpu-sim.sort.sim_s",
        t.sort,
        "s",
        "simulated bin sort + subproblem setup",
    );
    o.host_scaled(
        "cufinufft.spread.host_s",
        s.spread_s,
        "s",
        "Plan::spread_only, median",
        f,
    );
    o.metric(
        "cufinufft.bins.nonempty",
        count("bins.nonempty"),
        "count",
        "trace counter",
    );
    o.metric(
        "cufinufft.subprob.count",
        count("subprob.count"),
        "count",
        "trace counter",
    );
    o.metric(
        "cufinufft.subprob.idle_slots",
        count("subprob.idle_slots"),
        "count",
        "trace counter",
    );
    o.host_scaled(
        "cufinufft.interp.host_s",
        s.interp_s,
        "s",
        "Plan::interp_only, median",
        f,
    );
    o.metric(
        "gpu-sim.spread_interp.sim_s",
        t.spread_interp,
        "s",
        "simulated",
    );
    o.metric("gpu-sim.fft.sim_s", t.fft, "s", "simulated");
    o.metric("gpu-sim.deconv.sim_s", t.deconv, "s", "simulated");
    o.metric(
        "gpu-sim.h2d.sim_s",
        t.h2d_pts + t.h2d_data,
        "s",
        "simulated, points + data",
    );
    o.metric("gpu-sim.d2h.sim_s", t.d2h, "s", "simulated");
    o.metric("gpu-sim.alloc.sim_s", t.alloc, "s", "simulated");
    o.metric(
        "gpu-sim.global_atomics",
        count("gpu.global_atomics"),
        "count",
        "trace counter, build + set_pts + execute",
    );
    o.metric(
        "gpu-sim.kernel_launches",
        count("gpu.kernel_launches"),
        "count",
        "trace counter, build + set_pts + execute",
    );
    o.metric(
        "gpu-sim.blocks",
        count("gpu.blocks"),
        "count",
        "trace counter, build + set_pts + execute",
    );
    o.host_scaled(
        "gpu-sim.host_us_per_block",
        s.exec_s * 1e6 / s.exec_blocks.max(1) as f64,
        "us",
        format!(
            "host execute time / {} simulated blocks per execute",
            s.exec_blocks
        ),
        f,
    );
    o.metric(
        "gpu-sim.parallel_speedup",
        s.exec_s / s.exec_wide_s,
        "1",
        format!(
            "execute on 1 vs {} host threads",
            crate::transform::wide_threads()
        ),
    );
    o.host_scaled(
        "gpu-fft.host_s",
        s.fft_s,
        "s",
        "GpuFftPlan::execute on the fine grid, median",
        f,
    );
    o.host_scaled(
        "cufinufft.exec_rest.host_s",
        s.exec_rest_s,
        "s",
        "derived: execute - spread/interp - fft",
        f,
    );
    o.host_scaled(
        "finufft-cpu.exec.host_s",
        s.cpu_s,
        "s",
        "finufft-cpu Plan::execute, median",
        f,
    );
    o.metric(
        "sim_overhead_ratio",
        s.exec_s / s.cpu_s,
        "1",
        "cufinufft execute / finufft-cpu execute, host",
    );
    o.metric(
        "trace_overhead_frac",
        s.exec_traced_s / s.exec_s - 1.0,
        "1",
        format!(
            "traced {:.6} s vs untraced {:.6} s execute",
            s.exec_traced_s, s.exec_s
        ),
    );
}

/// Serve-layer and generator metrics of one open-loop pass. `before`
/// and `after` bracket the pass; `queue_waits` are its requests'
/// `serve.queue` span lengths.
pub fn emit_serve_layers<T: Real>(
    records: &[Record<T>],
    before: &ServeStats,
    after: &ServeStats,
    queue_waits: &[f64],
    o: &mut Outcome,
) {
    let d = |f: fn(&ServeStats) -> u64| (f(after) - f(before)) as f64;
    let f = o.cal.factor();
    let completed = d(|s| s.completed);
    let groups = d(|s| s.cache_hits) + d(|s| s.cache_misses);
    let submitted: Vec<f64> = records
        .iter()
        .filter(|r| r.status != Status::Refused)
        .map(|r| r.admit_s)
        .collect();
    let lateness: Vec<f64> = records.iter().map(|r| r.lateness_s).collect();
    let wait_tail = tail(queue_waits).map_or(f64::NAN, |t| t.value);
    let lag_tail = tail(&lateness).map_or(f64::NAN, |t| t.value);
    let n = records.len();
    o.host_scaled(
        "nufft-serve.admit.host_s",
        median(&submitted),
        "s",
        format!("time inside submit, median of {}", submitted.len()),
        f,
    );
    o.host_scaled(
        "nufft-serve.queue_wait_s",
        median(queue_waits),
        "s",
        format!("serve.queue spans, median of {}", queue_waits.len()),
        f,
    );
    o.host_scaled(
        "nufft-serve.queue_wait_tail_s",
        wait_tail,
        "s",
        "serve.queue spans, 11th largest (max below 11)",
        f,
    );
    o.metric(
        "nufft-serve.batch_size_mean",
        completed / d(|s| s.batches),
        "1",
        "requests per execute_many launch",
    );
    o.metric(
        "nufft-serve.coalesced_frac",
        d(|s| s.coalesced) / completed,
        "1",
        "requests that shared a launch",
    );
    o.metric(
        "nufft-serve.cache_hit_ratio",
        d(|s| s.cache_hits) / groups,
        "1",
        "plan cache hits per group",
    );
    o.metric(
        "nufft-serve.setpts_reuse_ratio",
        d(|s| s.setpts_reuses) / groups,
        "1",
        "set_pts skipped per group",
    );
    o.metric(
        "nufft-serve.refused",
        d(|s| s.rejected) + d(|s| s.shed),
        "count",
        format!("QueueFull + Overloaded of {n} sent"),
    );
    o.host_scaled(
        "loadgen.lag_tail_s",
        lag_tail,
        "s",
        format!("generator lateness, 11th largest of {n}"),
        f,
    );
}

/// `serve.queue` span lengths (seconds) in a trace, skipping the first
/// `skip` (requests sent before the measured pass).
pub fn queue_waits(report: &TraceReport, skip: usize) -> Vec<f64> {
    report
        .spans_named("serve.queue")
        .into_iter()
        .skip(skip)
        .map(|ev| ev.dur_us * 1e-6)
        .collect()
}
