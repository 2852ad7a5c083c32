//! Chaos suite for the overload/fault-containment layer: circuit
//! breakers (open → fast-fail → half-open trial → bit-exact recovery),
//! brownout degradation (method override and CPU fallback), worker
//! supervision (panic → typed failure → respawn → recovery), and the
//! combined overload-plus-persistent-fault acceptance scenario from
//! the PR spec. Everything is driven by gpu-sim's seeded fault
//! injection and simulated clock, so every run is deterministic.
//!
//! The acceptance scenario runs one seed by default; `SERVE_CHAOS=1`
//! (see scripts/check.sh) widens it to a multi-seed sweep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cufinufft::{Plan, RecoveryPolicy};
use gpu_sim::{Device, FaultMode, FaultPlan};
use nufft_common::workload::{gen_points, gen_strengths, PointDist};
use nufft_common::{
    Complex, Method, NufftError, NufftPlan, Points, Precision, Shape, TransformSpec,
};
use nufft_serve::{
    BreakerPolicy, Brownout, ChaosHook, Health, NufftServer, ServeConfig, ShedPolicy,
    SloThresholds, SupervisorPolicy,
};
use nufft_trace::Trace;

mod common;

const N: usize = 24;
const M: usize = 400;

fn spec_sm() -> TransformSpec {
    TransformSpec::type1(&[N, N])
        .eps(1e-5)
        .precision(Precision::F32)
        .method(Method::Sm)
}

fn points_for(spec: &TransformSpec, seed: u64) -> Arc<Points<f32>> {
    Arc::new(gen_points::<f32>(
        PointDist::Rand,
        spec.dim(),
        M,
        Shape::from_slice(&spec.modes),
        seed,
    ))
}

/// Ground truth on a clean device: dedicated plan, sequential execute.
fn direct(spec: &TransformSpec, pts: &Points<f32>, input: &[Complex<f32>]) -> Vec<Complex<f32>> {
    let dev = Device::v100();
    let mut plan = Plan::<f32>::from_spec(spec, &dev).expect("direct plan");
    plan.set_pts(pts).expect("direct set_pts");
    let mut out = vec![Complex::<f32>::ZERO; spec.output_len(pts.len())];
    plan.execute(input, &mut out).expect("direct execute");
    out
}

fn breaker(streak: u32, cooldown: f64, brownout: Brownout) -> BreakerPolicy {
    BreakerPolicy {
        enabled: true,
        failure_streak: streak,
        cooldown,
        brownout,
    }
}

// ---------------------------------------------------------------------
// circuit breaker lifecycle
// ---------------------------------------------------------------------

#[test]
fn breaker_opens_fast_fails_and_recovers_bit_exact() {
    let dev = Device::v100();
    let trace = Trace::new();
    let config = ServeConfig {
        recovery: RecoveryPolicy::none(),
        breaker: breaker(2, 0.05, Brownout::FailFast),
        ..ServeConfig::default()
    }
    .with_trace(&trace);
    let server = NufftServer::start(&dev, config).unwrap();
    let spec = spec_sm();
    let pts = points_for(&spec, 7);
    let input = gen_strengths::<f32>(M, 1);

    // baseline on the healthy device
    let baseline = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();

    // persistent launch fault on the SM spread kernel
    dev.inject_faults(FaultPlan::new(1).fail_kernel("spread_SM", FaultMode::Always));

    // two persistent failures reach the streak and open the breaker
    for i in 0..2 {
        let err = server
            .submit(&spec, &pts, input.clone())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            matches!(
                err.root_cause(),
                NufftError::DeviceFault {
                    persistent: true,
                    ..
                }
            ),
            "failure {i}: {err}"
        );
    }
    let mid = server.stats();
    assert_eq!(mid.breaker_opens, 1, "breaker opens exactly at the streak");
    assert_eq!(mid.open_breakers, 1);
    assert!(mid.quarantined >= 1, "poisoned plans were quarantined");

    // while open: typed fast-fail without any device work
    let launches_before = dev.faults_injected();
    let err = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap_err();
    match &err {
        NufftError::BreakerOpen {
            spec: label,
            retry_after,
        } => {
            assert!(label.contains("t1"), "label: {label}");
            assert!(*retry_after >= 0.0);
        }
        other => panic!("expected BreakerOpen, got {other}"),
    }
    assert_eq!(
        dev.faults_injected(),
        launches_before,
        "a fast-fail must not touch the device"
    );
    assert_eq!(server.stats().breaker_fastfails, 1);

    // report surfaces the open breaker as a health breach
    let report = server.report();
    assert!(report.open_breakers >= 1);
    assert_ne!(report.health, Health::Healthy);

    // fault cleared + cooldown elapsed in simulated time: the half-open
    // trial rebuilds the plan and serves bit-exactly vs the baseline
    dev.clear_faults();
    dev.advance("test.cooldown", 1.0);
    let recovered = server.submit(&spec, &pts, input).unwrap().wait().unwrap();
    assert_eq!(recovered, baseline, "recovery must be bit-exact");
    assert_eq!(server.stats().open_breakers, 0, "trial success closes");
    common::assert_stats_match_trace(&server.stats(), &trace.report());
}

#[test]
fn breakers_isolate_specs_from_each_other() {
    let dev = Device::v100();
    let config = ServeConfig {
        recovery: RecoveryPolicy::none(),
        breaker: breaker(1, 10.0, Brownout::FailFast),
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&dev, config).unwrap();
    let bad = spec_sm();
    let good = spec_sm().method(Method::GmSort);
    let pts = points_for(&bad, 7);
    let input = gen_strengths::<f32>(M, 1);

    dev.inject_faults(FaultPlan::new(1).fail_kernel("spread_SM", FaultMode::Always));
    // one failure opens the bad spec's breaker (streak = 1)
    server
        .submit(&bad, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap_err();
    let err = server
        .submit(&bad, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, NufftError::BreakerOpen { .. }), "got {err}");

    // the sibling spec (GM-sort kernel, unfaulted) keeps serving
    let got = server
        .submit(&good, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(got, direct(&good, &pts, &input));
    assert_eq!(server.stats().open_breakers, 1);
}

// ---------------------------------------------------------------------
// brownout degradation
// ---------------------------------------------------------------------

#[test]
fn method_override_brownout_serves_degraded_bit_exact() {
    let dev = Device::v100();
    let config = ServeConfig {
        recovery: RecoveryPolicy::none(),
        breaker: breaker(1, 10.0, Brownout::MethodOverride),
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&dev, config).unwrap();
    let spec = spec_sm();
    let pts = points_for(&spec, 7);
    let input = gen_strengths::<f32>(M, 1);

    // only the SM kernel faults; GM-sort stays healthy
    dev.inject_faults(FaultPlan::new(1).fail_kernel("spread_SM", FaultMode::Always));
    server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap_err();

    // breaker open → brownout re-plans SM → GM-sort and still serves
    let degraded = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        degraded,
        direct(&spec.clone().method(Method::GmSort), &pts, &input),
        "brownout result must equal a direct GM-sort plan"
    );
    let stats = server.stats();
    assert_eq!(stats.brownouts, 1);
    assert_eq!(stats.breaker_fastfails, 0, "degraded, not fast-failed");
}

#[test]
fn cpu_brownout_serves_on_the_cpu_backend() {
    let dev = Device::v100();
    let config = ServeConfig {
        recovery: RecoveryPolicy::none(),
        breaker: breaker(1, 10.0, Brownout::Cpu),
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&dev, config).unwrap();
    let spec = spec_sm();
    let pts = points_for(&spec, 7);
    let input = gen_strengths::<f32>(M, 1);

    // every host-to-device copy faults: the GPU path is fully down
    dev.inject_faults(FaultPlan::new(1).fail_memcpy("htod", FaultMode::Always));
    server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap_err();

    // breaker open → the request is served by finufft-cpu instead
    let got = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();
    let expected = {
        let opts = finufft_cpu::Opts {
            fine_sizing: spec.fine_sizing,
            ..finufft_cpu::Opts::default()
        };
        let mut plan =
            finufft_cpu::Plan::<f32>::new(spec.ttype, &spec.modes, spec.iflag, spec.eps, opts)
                .expect("cpu plan");
        plan.set_points(&pts).expect("cpu set_points");
        let mut out = vec![Complex::<f32>::ZERO; spec.output_len(pts.len())];
        plan.execute(&input, &mut out).expect("cpu execute");
        out
    };
    assert_eq!(got, expected, "CPU brownout must match a direct CPU plan");
    assert_eq!(server.stats().brownouts, 1);
}

// ---------------------------------------------------------------------
// worker supervision
// ---------------------------------------------------------------------

#[test]
fn worker_panic_respawns_and_recovers_to_healthy() {
    let trace = Trace::new();
    let panic_once = Arc::new(AtomicBool::new(true));
    let hook_flag = Arc::clone(&panic_once);
    let config = ServeConfig {
        supervisor: SupervisorPolicy { max_respawns: 3 },
        // a deliberately-panicking kernel hook: blows up the first
        // chunk, behaves afterwards
        chaos_hook: Some(ChaosHook::new(move |_| {
            if hook_flag.swap(false, Ordering::SeqCst) {
                panic!("injected kernel bug");
            }
        })),
        ..ServeConfig::default()
    }
    .with_trace(&trace);
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_sm();
    let pts = points_for(&spec, 7);
    let input = gen_strengths::<f32>(M, 1);

    // the poisoned in-flight request fails typed, never hangs
    let err = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap_err();
    match &err {
        NufftError::WorkerPanic(msg) => assert!(msg.contains("injected kernel bug"), "{msg}"),
        other => panic!("expected WorkerPanic, got {other}"),
    }

    // mid-crash report: the lone finished request failed → unhealthy
    let slo = SloThresholds {
        min_availability: 0.4,
        ..SloThresholds::default()
    };
    assert_eq!(server.report_with(slo).health, Health::Unhealthy);

    // the respawned worker (fresh plan cache) serves the same spec
    let recovered = server
        .submit(&spec, &pts, input.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(recovered, direct(&spec, &pts, &input));

    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_respawns, 1);
    assert_eq!(trace.report().counters["serve.worker_respawn"], 1);
    // availability back over threshold: the verdict transitions healthy
    assert_eq!(server.report_with(slo).health, Health::Healthy);
    common::assert_stats_match_trace(&server.stats(), &trace.report());
}

#[test]
fn respawn_budget_exhaustion_shuts_down_without_hangs() {
    let config = ServeConfig {
        supervisor: SupervisorPolicy { max_respawns: 1 },
        chaos_hook: Some(ChaosHook::new(|_| panic!("crash loop"))),
        ..ServeConfig::default()
    };
    let server = NufftServer::start(&Device::v100(), config).unwrap();
    let spec = spec_sm();
    let pts = points_for(&spec, 7);

    // first panic consumes the only respawn; second exhausts the budget
    for i in 0..2 {
        let err = server
            .submit(&spec, &pts, gen_strengths::<f32>(M, i))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, NufftError::WorkerPanic(_)), "req {i}: {err}");
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 2);
    assert_eq!(stats.worker_respawns, 1, "budget caps the respawns");

    // the supervisor shut the queue down: admission now refuses typed
    let err = server
        .submit(&spec, &pts, gen_strengths::<f32>(M, 9))
        .unwrap_err();
    assert_eq!(err, NufftError::Shutdown);
}

// ---------------------------------------------------------------------
// acceptance: overload + persistent faults, then full recovery
// ---------------------------------------------------------------------

/// One full chaos round at a given seed: 4 concurrent clients push
/// 120 requests against a capacity-8 queue while the SM spread kernel
/// faults persistently. The run must shed/fast-fail under pressure,
/// open the bad spec's breaker within its streak, resolve every
/// admitted response with zero hangs, and — once the fault clears and
/// the cooldown elapses — serve the previously-poisoned spec again,
/// bit-exact against a direct plan.
fn chaos_round(seed: u64) {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 30;

    let dev = Device::v100();
    let trace = Trace::new();
    let config = ServeConfig {
        queue_capacity: 8,
        max_batch: 4,
        recovery: RecoveryPolicy::none(),
        breaker: breaker(3, 0.05, Brownout::FailFast),
        shed: ShedPolicy {
            enabled: true,
            // any measurable wall-clock wait breaches this, so the shed
            // limit collapses to min_limit as soon as pressure appears
            target_queue_wait_p90: 1e-9,
            min_limit: 4,
        },
        ..ServeConfig::default()
    }
    .with_trace(&trace);
    let server = Arc::new(NufftServer::start(&dev, config).unwrap());

    let bad = spec_sm();
    let good = spec_sm().method(Method::GmSort);
    let pts = points_for(&bad, 21);

    // persistent launch fault on the SM kernel only: `bad` is poisoned,
    // `good` keeps serving
    dev.inject_faults(FaultPlan::new(seed).fail_kernel("spread_SM", FaultMode::Always));

    /// xorshift64* — deterministic per-client randomness.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            let bad = bad.clone();
            let good = good.clone();
            let pts = Arc::clone(&pts);
            std::thread::spawn(move || {
                let mut rng = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(c as u64 + 1);
                let mut responses = Vec::new();
                let mut overloaded = 0usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    let spec = if xorshift(&mut rng).is_multiple_of(3) {
                        &bad
                    } else {
                        &good
                    };
                    let input =
                        gen_strengths::<f32>(M, 1000 + (c * REQUESTS_PER_CLIENT + i) as u64);
                    match server.submit(spec, &pts, input) {
                        Ok(resp) => responses.push((spec == &bad, resp)),
                        Err(NufftError::Overloaded { .. }) | Err(NufftError::QueueFull { .. }) => {
                            overloaded += 1;
                        }
                        Err(other) => panic!("unexpected admission error: {other}"),
                    }
                }
                // every admitted response must resolve — no hangs
                let mut ok = 0usize;
                let mut bad_failures = 0usize;
                for (was_bad, resp) in responses {
                    match resp.wait() {
                        Ok(out) => {
                            assert_eq!(out.len(), N * N);
                            ok += 1;
                        }
                        Err(e) => {
                            assert!(was_bad, "good spec must never fail, got {e}");
                            assert!(
                                matches!(
                                    e.root_cause(),
                                    NufftError::DeviceFault {
                                        persistent: true,
                                        ..
                                    }
                                ) || matches!(e, NufftError::BreakerOpen { .. }),
                                "bad-spec failure must be typed, got {e}"
                            );
                            bad_failures += 1;
                        }
                    }
                }
                (ok, bad_failures, overloaded)
            })
        })
        .collect();

    let mut total_ok = 0usize;
    let mut total_bad_failures = 0usize;
    let mut total_overloaded = 0usize;
    for client in clients {
        let (ok, bad_failures, overloaded) = client.join().expect("client thread");
        total_ok += ok;
        total_bad_failures += bad_failures;
        total_overloaded += overloaded;
    }

    let stats = server.stats();
    let attempts = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(stats.accepted + stats.rejected + stats.shed, attempts);
    assert_eq!(
        stats.completed + stats.failed + stats.cancelled,
        stats.accepted,
        "every admitted request resolved exactly once"
    );
    assert!(total_ok > 0, "the healthy spec made progress under chaos");
    assert_eq!(
        stats.shed + stats.rejected,
        total_overloaded as u64,
        "admission refusals observed by clients match the stats"
    );

    // Aggressive shedding can refuse most of the storm, so some seeds
    // admit fewer bad-spec requests than the breaker streak. Drive the
    // remainder through the blocking path (which never sheds): each
    // request fails typed and advances the streak until the breaker
    // opens.
    let mut driven_failures = 0usize;
    for i in 0..3u64 {
        if server.stats().breaker_opens >= 1 {
            break;
        }
        server
            .submit_wait(&bad, &pts, gen_strengths::<f32>(M, 9_000 + i))
            .expect("blocking admission after the storm")
            .wait()
            .expect_err("the poisoned spec still fails while faulted");
        driven_failures += 1;
    }
    assert!(
        total_bad_failures + driven_failures > 0,
        "seed {seed}: the poisoned spec should have failed requests"
    );
    let stats = server.stats();
    assert!(
        stats.breaker_opens >= 1,
        "seed {seed}: persistent failures must open the breaker"
    );

    // --- recovery: fault cleared, cooldown elapsed in simulated time ---
    dev.clear_faults();
    dev.advance("test.cooldown", 1.0);
    let input = gen_strengths::<f32>(M, 4242);
    let recovered = server
        .submit_wait(&bad, &pts, input.clone())
        .expect("admission after chaos")
        .wait()
        .expect("the cleared spec serves again");
    assert_eq!(
        recovered,
        direct(&bad, &pts, &input),
        "seed {seed}: post-recovery result must be bit-exact vs a direct plan"
    );
    assert_eq!(server.stats().open_breakers, 0, "breaker closed on success");

    eprintln!(
        "chaos seed {seed}: {} ok / {} bad-spec failures / {} refused; \
         {} sheds, {} breaker opens, {} fastfails, {} quarantines",
        total_ok,
        total_bad_failures,
        total_overloaded,
        stats.shed,
        stats.breaker_opens,
        stats.breaker_fastfails,
        stats.quarantined,
    );
}

#[test]
fn chaos_acceptance_overload_with_persistent_faults() {
    // 1-seed smoke by default; SERVE_CHAOS=1 widens the sweep
    let seeds: &[u64] = if std::env::var("SERVE_CHAOS").as_deref() == Ok("1") {
        &[1, 2, 3, 4, 5]
    } else {
        &[1]
    };
    for &seed in seeds {
        chaos_round(seed);
    }
}
