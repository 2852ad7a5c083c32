//! Two-clock, per-layer benchmark of the cuFINUFFT reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every metric is printed by name with
//! its unit, clock and sample count; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics with tracing off, `--trace 1` the
//! per-layer metrics of a separate traced run. The workloads, metrics
//! and bounds are listed in `BENCHMARK.json` at the repository root.
//!
//! Two clocks:
//! * host: wall seconds of calls into each layer's public functions,
//!   with the simulator pinned to one host thread, reported at a
//!   reference host speed set by a calibration kernel (`calib.rs`; the
//!   raw seconds are printed beside every value);
//! * simulated V100: the device clock (`Plan::timings`,
//!   `Device::mem_peak`), read from exactly one build → `set_pts` →
//!   `execute` sequence. It is deterministic and must be bit-identical
//!   at any host thread count; the traced run checks that.
//!
//! Workloads:
//! * `t1_2d_cluster_sm`: 2D type 1, f32, 256² modes, eps 1e-5, SM
//!   spreading, M = 512² clustered points (anchor: the 2D type 1 1e-5
//!   SM row of `results/fig4_5_single.csv`);
//! * `t2_3d_rand_gmsort_f64`: 3D type 2, f64, 32³ modes, eps 1e-6,
//!   GM-sort interpolation, M = 64³ uniform points (anchor: the 3D type
//!   2 1e-6 GM-sort row of `results/fig7_double.csv`);
//! * `serve_bursty_open`: an open loop into one `NufftServer` (rate,
//!   burst size and latency limit in `serve.rs`); its simulated-clock
//!   figures are unvalidated.
//!
//! The anchors are read from the CSVs when the benchmark runs and each
//! comparison is printed as a match or a MISMATCH with its cause.
//!
//! Known defect, recorded and left for a program fix:
//! `GpuStageTimings::alloc` accumulates over repeated `set_pts` calls
//! while `h2d_pts` is overwritten, so "total+mem" read after a second
//! `set_pts` is inflated. The benchmark reads it after the first; the
//! traced run prints both values.

mod anchors;
mod calib;
mod layers;
mod loadgen;
mod oracle;
mod report;
mod serve;
mod single;
mod stats;
mod transform;

use std::process::ExitCode;

use report::Outcome;

const WORKLOADS: [&str; 3] = [
    "t1_2d_cluster_sm",
    "t2_3d_rand_gmsort_f64",
    "serve_bursty_open",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Host threads for every timed call into the simulator and the CPU
/// baseline. One: on a small shared host a second simulator thread
/// made host times spread far more from run to run. The traced run
/// also times `execute` on two threads (`gpu-sim.parallel_speedup`).
const HOST_THREADS: usize = 1;

fn run(args: &Args, o: &mut Outcome) -> Result<(), String> {
    let p = HOST_THREADS;
    o.note(format!(
        "workload {} seed {} seconds {} trace {}; host threads {p} (of {} available, GPU_SIM_HOST_THREADS ignored); timeline recording off",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("t1_2d_cluster_sm", false) => {
            single::run::<f32>(&single::T1_2D_CLUSTER_SM, seed, secs, p, o)
        }
        ("t1_2d_cluster_sm", true) => {
            single::run_traced::<f32>(&single::T1_2D_CLUSTER_SM, seed, secs, p, o)
        }
        ("t2_3d_rand_gmsort_f64", false) => {
            single::run::<f64>(&single::T2_3D_RAND_GMSORT_F64, seed, secs, p, o)
        }
        ("t2_3d_rand_gmsort_f64", true) => {
            single::run_traced::<f64>(&single::T2_3D_RAND_GMSORT_F64, seed, secs, p, o)
        }
        (_, traced) => serve::run(seed, secs, p, traced, o),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut o = Outcome::default();
    let result = run(&args, &mut o);
    let line = o.cal.describe();
    o.note(line);
    for line in &o.lines {
        println!("{line}");
    }
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    for m in &o.metrics {
        println!(
            "{:<34} {:>16} {:<6} {}",
            m.name,
            format!("{:.6e}", m.value),
            m.unit,
            m.note
        );
    }
    println!("{}", o.json_line());
    ExitCode::SUCCESS
}
