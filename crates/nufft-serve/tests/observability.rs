//! Acceptance test for the observability stack (ISSUE 7): a mixed-spec
//! burst of ≥50 requests must leave behind a non-degenerate latency
//! histogram, a correlated per-request timeline, well-formed Prometheus
//! `serve_latency` buckets, a passing SLO report, and a trajectory
//! point that round-trips through the `nufft-bench/v1` schema
//! validator.

use std::sync::Arc;

use gpu_sim::Device;
use nufft_common::workload::{gen_points, gen_strengths, PointDist};
use nufft_common::{Points, Precision, Shape, TransformSpec};
use nufft_serve::{Health, NufftServer, RequestId, ServeConfig, SloThresholds};
use nufft_trace::bench::BenchReport;
use nufft_trace::{Trace, TraceReport};

mod common;

const M: usize = 500;
const REQUESTS: u64 = 60;

fn mixed_specs() -> Vec<TransformSpec> {
    vec![
        TransformSpec::type1(&[24, 24])
            .eps(1e-5)
            .precision(Precision::F32),
        TransformSpec::type1(&[32, 32])
            .eps(1e-4)
            .precision(Precision::F32),
        TransformSpec::type2(&[24, 24])
            .eps(1e-5)
            .precision(Precision::F32),
        TransformSpec::type1(&[16, 16])
            .eps(1e-4)
            .precision(Precision::F64),
    ]
}

fn points32(seed: u64) -> Arc<Points<f32>> {
    Arc::new(gen_points::<f32>(
        PointDist::Rand,
        2,
        M,
        Shape::d2(64, 64),
        seed,
    ))
}

fn points64(seed: u64) -> Arc<Points<f64>> {
    Arc::new(gen_points::<f64>(
        PointDist::Rand,
        2,
        M,
        Shape::d2(64, 64),
        seed,
    ))
}

/// Drive `REQUESTS` mixed-spec requests through one traced server;
/// returns the trace report, the server's SLO report, and one sampled
/// request id per spec shape.
fn run_burst(trace: &Trace) -> (TraceReport, nufft_serve::ServeReport, Vec<RequestId>) {
    let config = ServeConfig {
        queue_capacity: 128,
        max_batch: 8,
        ..ServeConfig::default()
    }
    .with_trace(trace);
    let server = NufftServer::start(&Device::v100(), config).expect("server");
    // pause so a backlog builds: coalescing and queue-wait become
    // deterministic and non-trivial
    server.pause();

    let specs = mixed_specs();
    let p32 = points32(9);
    let p64 = points64(9);
    let mut waiters32 = Vec::new();
    let mut waiters64 = Vec::new();
    let mut sampled = Vec::new();
    for i in 0..REQUESTS {
        let spec = &specs[(i % specs.len() as u64) as usize];
        let id = match spec.precision {
            Precision::F32 => {
                let input = gen_strengths::<f32>(spec.input_len(M), i + 1);
                let r = server.submit(spec, &p32, input).expect("submit");
                let id = r.request_id();
                waiters32.push(r);
                id
            }
            Precision::F64 => {
                let input = gen_strengths::<f64>(spec.input_len(M), i + 1);
                let r = server.submit(spec, &p64, input).expect("submit");
                let id = r.request_id();
                waiters64.push(r);
                id
            }
        };
        if i < specs.len() as u64 {
            sampled.push(id);
        }
    }
    server.resume();
    for r in waiters32 {
        r.wait().expect("f32 request failed");
    }
    for r in waiters64 {
        r.wait().expect("f64 request failed");
    }
    let slo = server.report_with(SloThresholds {
        // functional-simulation latencies are huge in wall-clock terms
        // on a busy host; the SLO under test is availability/saturation
        max_p99_latency_s: 3600.0,
        ..SloThresholds::default()
    });
    let report = trace.report();
    server.shutdown();
    (report, slo, sampled)
}

#[test]
fn burst_observability_acceptance() {
    let trace = Trace::new();
    let (report, slo, sampled) = run_burst(&trace);

    // --- non-degenerate latency histogram ------------------------
    let lat = report
        .histograms
        .get("serve.latency")
        .expect("serve.latency histogram");
    assert_eq!(lat.count, REQUESTS);
    let (p50, p99) = (lat.p50().unwrap(), lat.p99().unwrap());
    assert!(
        p50 < p99,
        "latency histogram is degenerate: p50 {p50} >= p99 {p99}"
    );
    assert!(lat.min <= p50 && p99 <= lat.max);
    // queue-wait and batch-size families populated too
    assert_eq!(report.histograms["serve.queue_wait"].count, REQUESTS);
    let batch = &report.histograms["serve.batch_size"];
    assert!(batch.count >= 1);
    assert!(
        batch.max > 1.0,
        "paused backlog must coalesce: max batch {}",
        batch.max
    );

    // --- request timelines ---------------------------------------
    for id in &sampled {
        let timeline = report.request_timeline(id.0);
        let names: Vec<&str> = timeline.iter().map(|e| e.name.as_str()).collect();
        for need in ["serve.admit", "serve.queue", "serve.execute"] {
            assert!(
                names.contains(&need),
                "request {id}: timeline {names:?} missing {need}"
            );
        }
    }
    // the group representative's timeline reaches the plan stages
    let rep_timeline = report.request_timeline(sampled[0].0);
    let rep_names: Vec<&str> = rep_timeline.iter().map(|e| e.name.as_str()).collect();
    assert!(rep_names.contains(&"serve.group"));
    assert!(
        rep_names.iter().any(|n| n.starts_with("plan.")),
        "representative timeline should include plan spans: {rep_names:?}"
    );

    // --- ids are unique and dense from 1 --------------------------
    let corr = report.request_correlation();
    let mut ids: Vec<u64> = sampled.iter().map(|r| r.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), sampled.len(), "sampled ids must be unique");
    assert!(ids.iter().all(|id| corr.values().any(|v| v == id)));

    // --- well-formed Prometheus serve_latency family --------------
    let text = report.prometheus();
    assert!(text.contains("# TYPE serve_latency histogram"));
    let buckets: Vec<(f64, u64)> = text
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("serve_latency_bucket{le=\"")?;
            let (le, v) = rest.split_once("\"} ")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, v.parse().ok()?))
        })
        .collect();
    assert!(buckets.len() >= 3, "too few buckets: {buckets:?}");
    assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "bounds sorted");
    assert!(
        buckets.windows(2).all(|w| w[0].1 <= w[1].1),
        "cumulative counts monotone"
    );
    let (last_bound, last_count) = *buckets.last().unwrap();
    assert!(last_bound.is_infinite());
    assert_eq!(last_count, REQUESTS);
    assert!(text.contains(&format!("serve_latency_count {REQUESTS}")));

    // --- SLO verdict ----------------------------------------------
    assert_eq!(slo.health, Health::Healthy, "breaches: {:?}", slo.breaches);
    assert_eq!(slo.availability, 1.0);
    assert_eq!(slo.stats.completed, REQUESTS);
    assert!(slo.latency.p50.is_some());

    // --- BENCH trajectory round-trip ------------------------------
    let mut bench = BenchReport::new("observability-test", 1_754_611_200);
    bench.push_row("burst_60_mixed", 0.123, 1);
    bench.add_histograms(&report, |n| n.starts_with("serve."));
    let dir = std::env::temp_dir().join(format!("obs-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_20250808.json");
    std::fs::write(&path, bench.to_json()).unwrap();
    let back = BenchReport::from_json(&std::fs::read_to_string(&path).unwrap())
        .expect("trajectory point validates");
    assert_eq!(back, bench);
    assert!(back.histograms.contains_key("serve.latency"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Overload events must reach every observability surface: the
/// Prometheus export carries the shed/deadline counters and the
/// breaker-state gauge with HELP/TYPE headers, and the ServeReport
/// JSON round-trips through the crate's own parser with the shed rate
/// and open-breaker gauge intact.
#[test]
fn overload_counters_export_and_report_json_round_trips() {
    use cufinufft::RecoveryPolicy;
    use gpu_sim::{FaultMode, FaultPlan};
    use nufft_serve::{BreakerPolicy, ShedPolicy, SubmitOptions};

    let dev = Device::v100();
    let trace = Trace::new();
    let config = ServeConfig {
        recovery: RecoveryPolicy::none(),
        breaker: BreakerPolicy {
            failure_streak: 1,
            ..BreakerPolicy::default()
        },
        shed: ShedPolicy {
            target_queue_wait_p90: 1e-9,
            min_limit: 1,
            ..ShedPolicy::default()
        },
        ..ServeConfig::default()
    }
    .with_trace(&trace);
    let server = NufftServer::start(&dev, config).expect("server");
    let spec = TransformSpec::type1(&[24, 24])
        .eps(1e-5)
        .precision(Precision::F32);
    let pts = points32(3);

    // deadline already expired at admission
    let expired = SubmitOptions::with_deadline(dev.clock());
    let err = server
        .submit_opts(&spec, &pts, gen_strengths::<f32>(M, 1), expired)
        .unwrap_err();
    assert!(matches!(
        err,
        nufft_common::NufftError::DeadlineExceeded { .. }
    ));

    // one persistent failure opens the streak-1 breaker
    dev.inject_faults(FaultPlan::new(5).fail_kernel("spread", FaultMode::Always));
    server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 2))
        .unwrap()
        .wait()
        .unwrap_err();

    // seed the shed window with a measurable queue wait, then trip the
    // collapsed limit with a queued backlog
    server.pause();
    let seed_resp = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 3))
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));
    server.resume();
    let _ = seed_resp.wait();
    server.pause();
    let filler = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 4))
        .unwrap();
    let err = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 5))
        .unwrap_err();
    assert!(matches!(err, nufft_common::NufftError::Overloaded { .. }));
    server.resume();
    let _ = filler.wait();

    let stats = server.stats();
    assert!(stats.shed >= 1 && stats.deadline_exceeded >= 1 && stats.breaker_opens >= 1);

    // --- Prometheus export ----------------------------------------
    let text = trace.report().prometheus();
    for family in ["serve_shed", "serve_deadline_exceeded"] {
        assert!(
            text.contains(&format!("# HELP {family} ")),
            "missing HELP for {family}"
        );
        assert!(
            text.contains(&format!("# TYPE {family} counter")),
            "missing TYPE for {family}"
        );
    }
    assert!(text.contains("# TYPE serve_breaker_state gauge"));
    assert!(text.contains("serve_breaker_state 1"));

    // --- ServeReport JSON round-trip ------------------------------
    let report = server.report();
    let doc = nufft_trace::json::Json::parse(&report.to_json()).expect("report json parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("nufft-serve-report/v1")
    );
    assert_eq!(
        doc.get("shed_rate").and_then(|v| v.as_f64()),
        Some(report.shed_rate)
    );
    assert_eq!(
        doc.get("open_breakers").and_then(|v| v.as_f64()),
        Some(report.open_breakers as f64)
    );
    assert!(report.shed_rate > 0.0);
    let stats_obj = doc.get("stats").expect("stats object");
    assert_eq!(
        stats_obj.get("shed").and_then(|v| v.as_f64()),
        Some(report.stats.shed as f64)
    );
    assert_ne!(doc.get("health").and_then(|v| v.as_str()), Some("healthy"));
    common::assert_stats_match_trace(&server.stats(), &trace.report());
    server.shutdown();
}

#[test]
fn chrome_export_carries_flows_and_thread_names() {
    let trace = Trace::new();
    let (report, _, sampled) = run_burst(&trace);
    let text = report.chrome_json();
    let doc = nufft_trace::json::Json::parse(&text).expect("valid chrome json");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents");

    // worker thread named via thread_name metadata
    let named: Vec<String> = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("thread_name"))
        .filter_map(|e| Some(e.get("args")?.get("name")?.as_str()?.to_string()))
        .collect();
    assert!(
        named.iter().any(|n| n == "nufft-serve"),
        "serve worker should be a named row: {named:?}"
    );
    assert!(named.iter().any(|n| n.contains("compute")));

    // flow events tie the sampled request's spans together
    let flows: Vec<&nufft_trace::json::Json> = events
        .iter()
        .filter(|e| {
            matches!(
                e.get("ph").and_then(|v| v.as_str()),
                Some("s") | Some("t") | Some("f")
            )
        })
        .collect();
    assert!(!flows.is_empty(), "no flow events in export");
    let want = sampled[0].0 as f64;
    assert!(
        flows
            .iter()
            .any(|e| e.get("id").and_then(|v| v.as_f64()) == Some(want)),
        "no flow chain for request {}",
        sampled[0]
    );
}
