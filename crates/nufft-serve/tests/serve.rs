//! Integration suite for the plan server: cache behavior (a hit must
//! demonstrably skip plan construction), coalescing (batched execution
//! bitwise identical to sequential), backpressure, fault isolation, and
//! shutdown semantics. The randomized multi-client sweep at the bottom
//! runs under `SERVE=full` (see scripts/check.sh).

use std::sync::Arc;

use cufinufft::{Plan, RecoveryPolicy};
use gpu_sim::{Device, FaultMode, FaultPlan};
use nufft_common::workload::{gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, NufftError, Points, Precision, Shape, TransformSpec};
use nufft_serve::{
    block_on, join_all, ChaosHook, NufftServer, ServeConfig, ShedPolicy, SubmitOptions,
};
use nufft_trace::Trace;

mod common;

const N: usize = 24;
const M: usize = 400;

fn spec_2d() -> TransformSpec {
    TransformSpec::type1(&[N, N])
        .eps(1e-5)
        .precision(Precision::F32)
}

fn points_for(spec: &TransformSpec, seed: u64) -> Arc<Points<f32>> {
    // the served plan's fine grid is what matters for point scaling;
    // gen_points only needs a bounding shape, so reuse the mode shape
    Arc::new(gen_points::<f32>(
        PointDist::Rand,
        spec.dim(),
        M,
        Shape::from_slice(&spec.modes),
        seed,
    ))
}

/// Ground truth: one dedicated plan per call, sequential execute.
fn direct(spec: &TransformSpec, pts: &Points<f32>, input: &[Complex<f32>]) -> Vec<Complex<f32>> {
    let dev = Device::v100();
    let mut plan = Plan::<f32>::from_spec(spec, &dev).expect("direct plan");
    plan.set_pts(pts).expect("direct set_pts");
    let mut out = vec![Complex::<f32>::ZERO; spec.output_len(pts.len())];
    plan.execute(input, &mut out).expect("direct execute");
    out
}

// ---------------------------------------------------------------------
// plan cache
// ---------------------------------------------------------------------

#[test]
fn cache_hit_skips_plan_construction() {
    let trace = Trace::new();
    let server =
        NufftServer::start(&Device::v100(), ServeConfig::default().with_trace(&trace)).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    let first = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 1))
        .unwrap()
        .wait()
        .unwrap();
    let second = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 2))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(first.len(), N * N);
    assert_eq!(second.len(), N * N);

    // the acceptance check: exactly one plan was ever built — the
    // second request emitted no plan.build span and hit the cache
    let report = trace.report();
    assert_eq!(
        report.spans_named("plan.build").len(),
        1,
        "cache hit must not rebuild the plan"
    );
    assert_eq!(report.counters["serve.cache_miss"], 1);
    assert_eq!(report.counters["serve.cache_hit"], 1);

    let stats = server.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.completed, 2);
    // same points on a warm plan: the bin-sort was reused too
    assert_eq!(stats.setpts_reuses, 1);
}

#[test]
fn distinct_specs_get_distinct_plans() {
    let trace = Trace::new();
    let server =
        NufftServer::start(&Device::v100(), ServeConfig::default().with_trace(&trace)).unwrap();
    // differ only in tolerance: must never share a cache slot
    let loose = spec_2d().eps(1e-3);
    let tight = spec_2d().eps(1e-6);
    let pts = points_for(&loose, 7);
    let input = gen_strengths::<f32>(M, 3);

    let a = server
        .submit(&loose, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();
    let b = server.submit(&tight, &pts, input).unwrap().wait().unwrap();

    assert_eq!(trace.report().spans_named("plan.build").len(), 2);
    assert_eq!(server.stats().cache_misses, 2);
    assert_eq!(server.stats().cache_hits, 0);
    // different kernel widths: the outputs must actually differ
    assert_ne!(a, b);
}

#[test]
fn cache_evicts_lru_spec_at_capacity_and_rebuilds() {
    let trace = Trace::new();
    let config = ServeConfig {
        cache_capacity: 2,
        ..ServeConfig::default()
    }
    .with_trace(&trace);
    let server = NufftServer::start(&Device::v100(), config).unwrap();

    let spec_a = spec_2d().eps(1e-3);
    let spec_b = spec_2d().eps(1e-4);
    let spec_c = spec_2d().eps(1e-5);
    let pts = points_for(&spec_a, 7);

    for spec in [&spec_a, &spec_b, &spec_c] {
        server
            .submit(spec, &pts, gen_strengths::<f32>(M, 4))
            .unwrap()
            .wait()
            .unwrap();
    }
    // capacity 2: admitting C evicted A (the least recently used)
    assert_eq!(server.stats().cache_evictions, 1);

    // A again: a fresh miss and a rebuild; B is evicted in turn
    server
        .submit(&spec_a, &pts, gen_strengths::<f32>(M, 5))
        .unwrap()
        .wait()
        .unwrap();
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_evictions, 2);
    assert_eq!(trace.report().spans_named("plan.build").len(), 4);
    common::assert_stats_match_trace(&server.stats(), &trace.report());
}

// ---------------------------------------------------------------------
// coalescing
// ---------------------------------------------------------------------

#[test]
fn coalesced_batches_match_sequential_bitwise() {
    const REQUESTS: usize = 6;
    const MAX_BATCH: usize = 4;
    let config = ServeConfig {
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);
    let inputs: Vec<Vec<Complex<f32>>> = (0..REQUESTS)
        .map(|i| gen_strengths::<f32>(M, 10 + i as u64))
        .collect();

    // hold the worker off so all six requests land in one queue sweep
    server.pause();
    let responses: Vec<_> = inputs
        .iter()
        .map(|input| server.submit(&spec, &pts, input.clone()).unwrap())
        .collect();
    assert_eq!(server.queue_depth(), REQUESTS);
    server.resume();

    let results = block_on(join_all(responses));
    let stats = server.stats();
    // one plan, one sort, ceil(6/4) = 2 stacked launches
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(
        stats.batches as usize,
        REQUESTS.div_ceil(MAX_BATCH),
        "compatible concurrent requests must coalesce"
    );
    assert_eq!(stats.coalesced as usize, REQUESTS);
    assert_eq!(stats.completed as usize, REQUESTS);

    // bitwise identical to sequential single-plan execution
    for (result, input) in results.into_iter().zip(&inputs) {
        assert_eq!(result.unwrap(), direct(&spec, &pts, input));
    }
}

#[test]
fn incompatible_requests_do_not_coalesce() {
    let server = NufftServer::start(&Device::v100(), ServeConfig::default()).unwrap();
    let spec = spec_2d();
    let pts_a = points_for(&spec, 7);
    let pts_b = points_for(&spec, 8); // same spec, different points

    server.pause();
    let ra = server
        .submit(&spec, &pts_a, gen_strengths::<f32>(M, 1))
        .unwrap();
    let rb = server
        .submit(&spec, &pts_b, gen_strengths::<f32>(M, 2))
        .unwrap();
    server.resume();

    let out = block_on(join_all(vec![ra, rb]));
    let stats = server.stats();
    // two groups (distinct points), each its own launch; plan shared
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.coalesced, 0);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
    assert!(out.iter().all(|r| r.is_ok()));
}

// ---------------------------------------------------------------------
// admission control and backpressure
// ---------------------------------------------------------------------

#[test]
fn full_queue_rejects_with_typed_error() {
    let config = ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let r1 = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 1))
        .unwrap();
    let r2 = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 2))
        .unwrap();
    let overflow = server.submit(&spec, &pts, gen_strengths::<f32>(M, 3));
    assert_eq!(
        overflow.unwrap_err(),
        NufftError::QueueFull {
            depth: 2,
            capacity: 2
        }
    );
    server.resume();

    // the refused request wedged nothing: the admitted two complete
    assert!(block_on(join_all(vec![r1, r2])).iter().all(|r| r.is_ok()));
    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.peak_queue_depth, 2);
}

#[test]
fn submit_wait_applies_backpressure_instead_of_rejecting() {
    let config = ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Arc::new(NufftServer::start(&Device::v100(), config).unwrap());
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    // saturate the queue, then push 4 more through the blocking path
    // from another thread while the worker drains
    server.pause();
    let first = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 0))
        .unwrap();
    let producer = {
        let server = Arc::clone(&server);
        let spec = spec.clone();
        let pts = Arc::clone(&pts);
        std::thread::spawn(move || {
            (1..5)
                .map(|i| {
                    server
                        .submit_wait(&spec, &pts, gen_strengths::<f32>(M, i))
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    };
    server.resume();
    let mut responses = vec![first];
    responses.extend(producer.join().unwrap());
    assert!(block_on(join_all(responses)).iter().all(|r| r.is_ok()));
    assert_eq!(server.stats().accepted, 5);
    assert_eq!(server.stats().rejected, 0);
}

#[test]
fn invalid_requests_are_refused_at_submission() {
    let server = NufftServer::start(&Device::v100(), ServeConfig::default()).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    // wrong precision tag for the data type
    let f64_spec = spec.clone().precision(Precision::F64);
    assert!(matches!(
        server.submit(&f64_spec, &pts, gen_strengths::<f32>(M, 1)),
        Err(NufftError::BadSpec(_))
    ));
    // wrong dimensionality
    let spec_3d = TransformSpec::type1(&[8, 8, 8]).precision(Precision::F32);
    assert!(matches!(
        server.submit(&spec_3d, &pts, gen_strengths::<f32>(M, 1)),
        Err(NufftError::BadSpec(_))
    ));
    // wrong strengths length for a type-1 with M sources
    assert_eq!(
        server
            .submit(&spec, &pts, gen_strengths::<f32>(M / 2, 1))
            .unwrap_err(),
        NufftError::LengthMismatch {
            expected: M,
            got: M / 2
        }
    );
    assert_eq!(server.stats().accepted, 0);
}

// ---------------------------------------------------------------------
// fault isolation (chaos)
// ---------------------------------------------------------------------

#[test]
fn device_fault_mid_request_fails_typed_without_wedging_the_queue() {
    let dev = Device::v100();
    let config = ServeConfig {
        // fail fast so the injected fault surfaces instead of retrying
        recovery: RecoveryPolicy::none(),
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&dev, config).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);
    let input = gen_strengths::<f32>(M, 1);

    // warm the plan, then make every host-to-device copy fault
    let warm = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();
    dev.inject_faults(FaultPlan::new(1).fail_memcpy("htod", FaultMode::Always));

    let err = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap_err();
    match &err {
        NufftError::Request { stage, .. } => {
            assert_eq!(stage, "plan.execute");
            assert!(
                matches!(err.root_cause(), NufftError::DeviceFault { .. }),
                "root cause should be the device fault, got {err}"
            );
        }
        other => panic!("expected a staged Request error, got {other}"),
    }

    // the persistent fault quarantined the cached plan; once the fault
    // clears, the same spec rebuilds from scratch and serves bit-exactly
    dev.clear_faults();
    let after = server.submit(&spec, &pts, input).unwrap().wait().unwrap();
    assert_eq!(after, warm);

    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(
        stats.quarantined, 1,
        "a persistent fault must evict the poisoned plan"
    );
    assert_eq!(stats.cache_misses, 2, "the next request rebuilds the plan");
}

#[test]
fn transient_fault_is_absorbed_by_the_recovery_layer() {
    let dev = Device::v100();
    // default policy: bounded retry absorbs one-shot faults
    let server = NufftServer::start(&dev, ServeConfig::default()).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);
    let input = gen_strengths::<f32>(M, 1);

    let clean = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();
    dev.inject_faults(FaultPlan::new(1).fail_memcpy("htod", FaultMode::Once));
    let recovered = server.submit(&spec, &pts, input).unwrap().wait().unwrap();
    assert_eq!(recovered, clean, "retry must reproduce the result exactly");
    assert_eq!(dev.faults_injected(), 1);
    assert_eq!(server.stats().failed, 0);
}

// ---------------------------------------------------------------------
// shutdown
// ---------------------------------------------------------------------

#[test]
fn shutdown_fails_queued_requests_and_refuses_new_ones() {
    let server = NufftServer::start(&Device::v100(), ServeConfig::default()).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let queued = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 1))
        .unwrap();
    server.shutdown();

    assert_eq!(queued.wait().unwrap_err(), NufftError::Shutdown);
}

#[test]
fn mixed_precision_requests_share_one_server() {
    let server = NufftServer::start(&Device::v100(), ServeConfig::default()).unwrap();
    let spec32 = spec_2d();
    let spec64 = TransformSpec::type1(&[N, N])
        .eps(1e-9)
        .precision(Precision::F64);
    let pts32 = points_for(&spec32, 7);
    let pts64 = Arc::new(gen_points::<f64>(PointDist::Rand, 2, M, Shape::d2(N, N), 7));

    let r32 = server
        .submit(&spec32, &pts32, gen_strengths::<f32>(M, 1))
        .unwrap();
    let r64 = server
        .submit(&spec64, &pts64, gen_strengths::<f64>(M, 1))
        .unwrap();
    assert_eq!(r32.wait().unwrap().len(), N * N);
    assert_eq!(r64.wait().unwrap().len(), N * N);
    assert_eq!(server.stats().cache_misses, 2);
}

// ---------------------------------------------------------------------
// deadlines and cancellation
// ---------------------------------------------------------------------

#[test]
fn expired_deadline_is_refused_at_admission() {
    let dev = Device::v100();
    let server = NufftServer::start(&dev, ServeConfig::default()).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    // the simulated clock starts at 0, so a deadline of 0 has passed
    let err = server
        .submit_opts(
            &spec,
            &pts,
            gen_strengths::<f32>(M, 1),
            SubmitOptions::with_deadline(0.0),
        )
        .unwrap_err();
    assert!(
        matches!(err, NufftError::DeadlineExceeded { deadline, now } if deadline == 0.0 && now >= 0.0),
        "got {err}"
    );
    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.accepted, 0, "an expired request never queues");
}

#[test]
fn deadline_expiring_in_queue_resolves_typed_without_device_work() {
    let trace = Trace::new();
    let dev = Device::v100();
    let server = NufftServer::start(&dev, ServeConfig::default().with_trace(&trace)).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let doomed = server
        .submit_opts(
            &spec,
            &pts,
            gen_strengths::<f32>(M, 1),
            SubmitOptions::with_deadline(dev.clock() + 1e-6),
        )
        .unwrap();
    // simulated time passes the deadline while the request sits queued
    dev.advance("test.idle", 1.0);
    server.resume();

    let err = doomed.wait().unwrap_err();
    assert!(
        matches!(err, NufftError::DeadlineExceeded { .. }),
        "got {err}"
    );
    let report = trace.report();
    assert!(
        report.spans_named("plan.build").is_empty(),
        "an expired request must not build a plan"
    );
    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 0);
    common::assert_stats_match_trace(&server.stats(), &trace.report());
}

#[test]
fn cancelled_request_resolves_cancelled_without_device_work() {
    let trace = Trace::new();
    let server =
        NufftServer::start(&Device::v100(), ServeConfig::default().with_trace(&trace)).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let keep = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 1))
        .unwrap();
    let dropped = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 2))
        .unwrap();
    dropped.cancel();
    assert!(dropped.is_cancelled());
    server.resume();

    assert_eq!(dropped.wait().unwrap_err(), NufftError::Cancelled);
    assert_eq!(keep.wait().unwrap().len(), N * N, "siblings are unaffected");
    let stats = server.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0, "a cancel is not a failure");
    assert_eq!(
        trace.report().spans_named("plan.build").len(),
        1,
        "only the surviving request planned"
    );
    common::assert_stats_match_trace(&server.stats(), &trace.report());
}

#[test]
fn untraced_server_reports_latency_and_saturation() {
    // no trace attached: the serve.* histograms are recorded anyway
    let server = NufftServer::start(&Device::v100(), ServeConfig::default()).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);
    const REQUESTS: u64 = 6;

    server.pause();
    let responses: Vec<_> = (0..REQUESTS)
        .map(|i| {
            server
                .submit(&spec, &pts, gen_strengths::<f32>(M, i))
                .unwrap()
        })
        .collect();
    server.resume();
    for r in responses {
        r.wait().unwrap();
    }

    let report = server.report();
    assert!(report.latency.p50.is_some(), "latency p50");
    assert!(report.latency.p99.is_some(), "latency p99");
    assert!(report.queue_wait.p50.is_some(), "queue wait p50");
    assert!(report.queue_depth.p90.is_some(), "queue depth p90");
    assert_eq!(server.stats().completed, REQUESTS);
}

// ---------------------------------------------------------------------
// load shedding
// ---------------------------------------------------------------------

#[test]
fn shed_controller_rejects_early_once_queue_waits_blow_past_target() {
    let config = ServeConfig {
        shed: ShedPolicy {
            enabled: true,
            // any real queue wait breaches this, shrinking the limit to
            // min_limit deterministically
            target_queue_wait_p90: 1e-9,
            min_limit: 1,
        },
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    // seed the wait window: one request queued while paused
    server.pause();
    let seeded = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 1))
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));
    server.resume();
    seeded.wait().unwrap();

    // p90 wait now far exceeds target → effective limit is min_limit=1:
    // one queued request is tolerated, the second is shed
    server.pause();
    let tolerated = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 2))
        .unwrap();
    let err = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 3))
        .unwrap_err();
    match err {
        NufftError::Overloaded {
            depth,
            limit,
            capacity,
        } => {
            assert_eq!(limit, 1);
            assert!(depth >= limit);
            assert_eq!(capacity, 64);
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    server.resume();
    tolerated.wait().unwrap();

    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.rejected, 0, "shed is typed distinctly from QueueFull");
    let report = server.report();
    assert!(report.shed_rate > 0.0);
}

#[test]
fn disabled_shed_policy_restores_queuefull_admission() {
    let config = ServeConfig {
        queue_capacity: 1,
        shed: ShedPolicy {
            enabled: false,
            ..ShedPolicy::default()
        },
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let queued = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 1))
        .unwrap();
    let err = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 2))
        .unwrap_err();
    assert!(matches!(err, NufftError::QueueFull { .. }), "got {err}");
    server.resume();
    queued.wait().unwrap();
    assert_eq!(server.stats().shed, 0);
}

// ---------------------------------------------------------------------
// graceful drain and shutdown with in-flight work
// ---------------------------------------------------------------------

#[test]
fn drain_finishes_the_backlog_before_stopping() {
    let server = NufftServer::start(&Device::v100(), ServeConfig::default()).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let backlog: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(&spec, &pts, gen_strengths::<f32>(M, i))
                .unwrap()
        })
        .collect();
    // drain overrides the pause: the worker finishes queued work first
    let drained = server.drain(std::time::Duration::from_secs(10));
    assert!(drained, "backlog of 3 must drain well within 10s");
    for resp in backlog {
        assert_eq!(resp.wait().unwrap().len(), N * N);
    }
}

#[test]
fn drain_timeout_falls_back_to_hard_shutdown_with_no_hangs() {
    let config = ServeConfig {
        // stall every chunk launch so the backlog cannot drain in time
        chaos_hook: Some(ChaosHook::new(|_| {
            std::thread::sleep(std::time::Duration::from_millis(100));
        })),
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let a = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 1))
        .unwrap();
    let b = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 2))
        .unwrap();
    let drained = server.drain(std::time::Duration::from_millis(1));
    assert!(!drained, "a stalled worker cannot drain in 1ms");
    // hard-stop still resolves every response: in-flight work completes,
    // nothing hangs
    assert!(a.wait().is_ok());
    assert!(b.wait().is_ok());
}

#[test]
fn shutdown_mid_coalesced_batch_resolves_every_response() {
    use std::sync::mpsc;

    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    let config = ServeConfig {
        chaos_hook: Some(ChaosHook::new(move |_| {
            // announce the chunk, then hold the worker mid-batch until
            // the test has initiated shutdown
            let _ = started_tx.send(());
            let _ = release_rx.lock().unwrap().recv();
        })),
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_2d();
    let pts = points_for(&spec, 7);

    server.pause();
    let batch: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(&spec, &pts, gen_strengths::<f32>(M, i))
                .unwrap()
        })
        .collect();
    server.resume();
    // the worker is now inside the coalesced chunk, pre-launch
    started_rx.recv().expect("worker reached the chunk");

    let shutdown = std::thread::spawn(move || server.shutdown());
    // shutdown is blocked joining the worker; release the chunk
    release_tx.send(()).unwrap();
    shutdown.join().expect("shutdown thread");

    // the in-flight coalesced batch completed; nothing hangs or leaks
    for resp in batch {
        assert_eq!(resp.wait().unwrap().len(), N * N);
    }
}

// ---------------------------------------------------------------------
// SERVE=full: randomized multi-client stress sweep
// ---------------------------------------------------------------------

/// xorshift64* — deterministic per-client randomness without a rand dep.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn randomized_multi_client_sweep() {
    if std::env::var("SERVE").as_deref() != Ok("full") {
        eprintln!("skipping randomized sweep (set SERVE=full to run)");
        return;
    }
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 25;

    let config = ServeConfig {
        queue_capacity: 8,
        cache_capacity: 2, // force evictions under load
        max_batch: 4,
        ..ServeConfig::default()
    };
    let server = Arc::new(NufftServer::start(&Device::v100(), config).unwrap());

    // shared pool: 3 specs x 2 point sets, truth precomputed per input
    let specs: Vec<TransformSpec> = vec![
        spec_2d().eps(1e-3),
        spec_2d().eps(1e-5),
        TransformSpec::type2(&[N, N])
            .eps(1e-4)
            .precision(Precision::F32),
    ];
    let points: Vec<Arc<Points<f32>>> = vec![points_for(&specs[0], 21), points_for(&specs[0], 22)];

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            let specs = specs.clone();
            let points = points.clone();
            std::thread::spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (c as u64 + 1);
                for i in 0..REQUESTS_PER_CLIENT {
                    let spec = &specs[(xorshift(&mut rng) % specs.len() as u64) as usize];
                    let pts = &points[(xorshift(&mut rng) % points.len() as u64) as usize];
                    let seed = 100 + (c * REQUESTS_PER_CLIENT + i) as u64;
                    let input = gen_strengths::<f32>(spec.input_len(pts.len()), seed);
                    let got = server
                        .submit_wait(spec, pts, input.clone())
                        .expect("admission")
                        .wait()
                        .expect("request under load");
                    assert_eq!(got, direct(spec, pts, &input), "client {c} request {i}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let stats = server.stats();
    assert_eq!(stats.completed as usize, CLIENTS * REQUESTS_PER_CLIENT);
    assert_eq!(stats.failed, 0);
    assert!(stats.cache_hits > 0, "the sweep should reuse warm plans");
    eprintln!(
        "sweep: {} completed, {} cache hits / {} misses / {} evictions, \
         {} batches ({} requests coalesced), peak depth {}",
        stats.completed,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.batches,
        stats.coalesced,
        stats.peak_queue_depth
    );
}
