//! The plan server: one supervised worker thread owning a device and
//! an LRU plan cache, fed by a bounded submission queue with load
//! shedding, deadlines, and per-spec circuit breakers.
//!
//! Request flow:
//!
//! 1. [`NufftServer::submit`] validates the [`TransformSpec`] against
//!    the request data, checks the request's optional deadline, and
//!    admission-controls against the **shed controller**: the
//!    effective depth limit shrinks below the physical queue capacity
//!    when recent queue waits exceed the configured p90 target, so
//!    latency stays bounded under overload
//!    ([`NufftError::Overloaded`] / [`NufftError::QueueFull`] — use
//!    [`NufftServer::submit_wait`] for blocking backpressure), and
//!    returns a [`Response`] future (which can be
//!    [`cancel`](Response::cancel)led).
//! 2. The worker drains the queue in one sweep, drops expired or
//!    cancelled requests (typed `DeadlineExceeded`/`Cancelled`, no
//!    device work), and **coalesces** the rest: requests with the same
//!    spec *and* the same nonuniform points (fingerprint-grouped, then
//!    verified bit-exactly) form one group, executed as stacked
//!    [`Plan::execute_many`] batches of at most `max_batch` vectors —
//!    riding the plan's two-stream pipeline, with results bitwise
//!    identical to sequential execution.
//! 3. The plan for each group comes from an LRU cache keyed by the
//!    `TransformSpec` itself: a cache hit skips plan construction
//!    entirely (no `plan.build` span is emitted), and if the group's
//!    points fingerprint matches the plan's current points, `set_pts`
//!    is skipped too.
//! 4. Device faults surface through each plan's recovery layer; a
//!    fault that survives bounded retry fails *only the requests in
//!    that chunk* with a typed [`NufftError::Request`] chain (stage +
//!    root cause). A **persistent** fault additionally quarantines the
//!    cached plan (the next same-spec request rebuilds) and advances
//!    the spec's **circuit breaker** ([`BreakerPolicy`]): after a
//!    streak, matching requests are fast-failed — or degraded, per
//!    [`Brownout`] — for a cooldown in simulated time.
//! 5. The worker runs under a supervisor: a panic fails the poisoned
//!    in-flight batch with [`NufftError::WorkerPanic`] and respawns
//!    the worker (fresh plan cache and breakers) within a restart
//!    budget ([`SupervisorPolicy`](crate::SupervisorPolicy)).

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cufinufft::{degraded_method_for, Plan, PlanBuilder, RecoveryPolicy, Tuning};
use gpu_sim::Device;
use nufft_common::{
    Complex, ModeOrder, NufftError, NufftPlan, Points, Precision, Real, Result, TransformSpec,
};
use nufft_trace::{MetricSnapshot, Trace, REQUEST_ID_ARG};

use crate::breaker::{BreakerDecision, BreakerPolicy, BreakerSet, Brownout};
use crate::future::{Response, ResponseCell};
use crate::lru::LruCache;
use crate::queue::{PushError, Queue};
use crate::report::{ServeReport, SloThresholds};
use crate::supervisor::SupervisorPolicy;

/// Identity of one submitted request, unique within a server's
/// lifetime. Propagated into every span the request touches (as a
/// [`REQUEST_ID_ARG`] annotation), so
/// `TraceReport::request_timeline(id.0)` reconstructs the request's
/// full lifecycle — admission, queue wait, execution, and (for the
/// group's representative request) the plan stages and device kernel
/// lanes underneath.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Load-shedding policy for the non-blocking admission path.
///
/// The controller computes an *effective* queue-depth limit from the
/// recent queue-wait history (a sliding window of wall-clock
/// `serve.queue_wait` samples): while the window's p90 stays at or
/// under `target_queue_wait_p90`, the limit is the full queue
/// capacity and behaviour matches plain [`NufftError::QueueFull`]
/// admission. Once waits blow past the target, the limit scales down
/// proportionally (`capacity × target / p90`, floored at
/// `min_limit`), so excess demand is rejected *early* with
/// [`NufftError::Overloaded`] instead of queueing behind work that
/// cannot meet its latency goal anyway.
#[derive(Copy, Clone, Debug)]
pub struct ShedPolicy {
    /// Master switch; `false` restores pure capacity-bounded admission.
    pub enabled: bool,
    /// Target p90 queue wait in wall-clock seconds.
    pub target_queue_wait_p90: f64,
    /// The effective depth limit never sheds below this.
    pub min_limit: usize,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            enabled: true,
            target_queue_wait_p90: 0.25,
            min_limit: 1,
        }
    }
}

impl ShedPolicy {
    pub fn validate(&self) -> Result<()> {
        if self.enabled && self.target_queue_wait_p90 <= 0.0 {
            return Err(NufftError::BadOptions(
                "shed target_queue_wait_p90 must be > 0".into(),
            ));
        }
        if self.enabled && self.min_limit == 0 {
            return Err(NufftError::BadOptions("shed min_limit must be > 0".into()));
        }
        Ok(())
    }
}

/// Per-request submission options; everything defaults to "no limit".
#[derive(Copy, Clone, Debug, Default)]
pub struct SubmitOptions {
    /// Absolute deadline in **simulated seconds** (the
    /// `Device::clock()` domain). Checked at admission, at dequeue,
    /// and between coalesced chunks; once passed, the request resolves
    /// to [`NufftError::DeadlineExceeded`] without touching a device.
    pub deadline: Option<f64>,
}

impl SubmitOptions {
    /// Options carrying an absolute simulated-time deadline.
    pub fn with_deadline(deadline: f64) -> Self {
        SubmitOptions {
            deadline: Some(deadline),
        }
    }
}

/// A test/chaos hook invoked on the worker thread immediately before
/// each `execute_many` launch (after breaker admission, with the spec
/// about to run). Panics thrown here exercise the supervisor path
/// exactly like a kernel bug would.
#[derive(Clone)]
pub struct ChaosHook(pub Arc<dyn Fn(&TransformSpec) + Send + Sync>);

impl ChaosHook {
    pub fn new(f: impl Fn(&TransformSpec) + Send + Sync + 'static) -> Self {
        ChaosHook(Arc::new(f))
    }
}

impl std::fmt::Debug for ChaosHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChaosHook(..)")
    }
}

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission-control bound on queued (not yet running) requests.
    pub queue_capacity: usize,
    /// Distinct [`TransformSpec`]s whose plans stay warm (LRU beyond).
    pub cache_capacity: usize,
    /// Most transforms coalesced into one `execute_many` launch.
    pub max_batch: usize,
    /// Performance tuning applied to every plan the server builds.
    pub tuning: Tuning,
    /// Fault-recovery policy applied to every plan the server builds.
    pub recovery: RecoveryPolicy,
    /// Load-shedding policy for the non-blocking admission path.
    pub shed: ShedPolicy,
    /// Per-spec circuit-breaker policy (see [`BreakerPolicy`]).
    pub breaker: BreakerPolicy,
    /// Worker restart budget (see [`SupervisorPolicy`](crate::SupervisorPolicy)).
    pub supervisor: SupervisorPolicy,
    /// Optional trace session: plans and requests record their spans
    /// here, and the server's `serve.*` metrics live in it (Prometheus
    /// text via `TraceReport::prometheus`). Without one, the server
    /// keeps the same metrics in a private session and records no
    /// spans.
    pub trace: Option<Trace>,
    /// Optional fault-injection hook run before every chunk launch.
    pub chaos_hook: Option<ChaosHook>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            cache_capacity: 8,
            max_batch: 8,
            tuning: Tuning::default(),
            recovery: RecoveryPolicy::default(),
            shed: ShedPolicy::default(),
            breaker: BreakerPolicy::default(),
            supervisor: SupervisorPolicy::default(),
            trace: None,
            chaos_hook: None,
        }
    }
}

impl ServeConfig {
    pub fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(NufftError::BadOptions("queue_capacity must be > 0".into()));
        }
        if self.cache_capacity == 0 {
            return Err(NufftError::BadOptions("cache_capacity must be > 0".into()));
        }
        if self.max_batch == 0 {
            return Err(NufftError::BadOptions("max_batch must be > 0".into()));
        }
        if self.breaker.enabled && self.breaker.failure_streak == 0 {
            return Err(NufftError::BadOptions(
                "breaker failure_streak must be > 0".into(),
            ));
        }
        if self.breaker.enabled && self.breaker.cooldown < 0.0 {
            return Err(NufftError::BadOptions(
                "breaker cooldown must be >= 0".into(),
            ));
        }
        self.shed.validate()?;
        self.tuning.validate()?;
        self.recovery.validate()
    }

    /// Attach a trace session (see [`ServeConfig::trace`]). One trace
    /// attached to two servers sums their `serve.*` metrics, so each
    /// server's [`NufftServer::stats`] then reads the total.
    pub fn with_trace(mut self, trace: &Trace) -> Self {
        self.trace = Some(trace.clone());
        self
    }
}

/// Cumulative serving statistics: a snapshot view of the server's
/// `serve.*` metrics, which are their only record. Each field reads the
/// counter named after it (`cache_hits` reads `serve.cache_hit`, and so
/// on); `open_breakers` reads the gauge `serve.breaker_state` and
/// `peak_queue_depth` the gauge `serve.queue_peak`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests refused with [`NufftError::QueueFull`].
    pub rejected: u64,
    /// Requests refused early by the shed controller
    /// ([`NufftError::Overloaded`]).
    pub shed: u64,
    /// Requests resolved with [`NufftError::DeadlineExceeded`]
    /// (at admission, dequeue, or a chunk boundary).
    pub deadline_exceeded: u64,
    /// Requests resolved with [`NufftError::Cancelled`] before
    /// execution started.
    pub cancelled: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests failed with a typed error (including shutdown sweeps).
    pub failed: u64,
    /// Group plan lookups served from the cache (no plan built).
    pub cache_hits: u64,
    /// Group plan lookups that had to build a plan.
    pub cache_misses: u64,
    /// Plans evicted to stay within `cache_capacity`.
    pub cache_evictions: u64,
    /// Plans evicted because a request failed with a persistent device
    /// fault (the next same-spec request rebuilds).
    pub quarantined: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Requests fast-failed by an open breaker without device work.
    pub breaker_fastfails: u64,
    /// Requests served degraded (method override or CPU fallback)
    /// while their breaker was open.
    pub brownouts: u64,
    /// Worker panics caught by the supervisor.
    pub worker_panics: u64,
    /// Worker respawns performed by the supervisor.
    pub worker_respawns: u64,
    /// Breakers currently open or half-open (a gauge, not cumulative).
    pub open_breakers: usize,
    /// Groups that reused the plan's already-set points (no re-sort).
    pub setpts_reuses: u64,
    /// `execute_many` launches issued.
    pub batches: u64,
    /// Requests that shared a launch with at least one other request.
    pub coalesced: u64,
    /// Deepest the queue has been.
    pub peak_queue_depth: usize,
}

impl ServeStats {
    /// Read the statistics out of a `serve.*` metric snapshot.
    pub(crate) fn from_metrics(m: &MetricSnapshot) -> ServeStats {
        ServeStats {
            accepted: m.counter("serve.accepted"),
            rejected: m.counter("serve.rejected"),
            shed: m.counter("serve.shed"),
            deadline_exceeded: m.counter("serve.deadline_exceeded"),
            cancelled: m.counter("serve.cancelled"),
            completed: m.counter("serve.completed"),
            failed: m.counter("serve.failed"),
            cache_hits: m.counter("serve.cache_hit"),
            cache_misses: m.counter("serve.cache_miss"),
            cache_evictions: m.counter("serve.cache_evict"),
            quarantined: m.counter("serve.quarantine"),
            breaker_opens: m.counter("serve.breaker_open"),
            breaker_fastfails: m.counter("serve.breaker_fastfail"),
            brownouts: m.counter("serve.brownout"),
            worker_panics: m.counter("serve.worker_panic"),
            worker_respawns: m.counter("serve.worker_respawn"),
            open_breakers: m.gauge("serve.breaker_state") as usize,
            setpts_reuses: m.counter("serve.setpts_reuse"),
            batches: m.counter("serve.batches"),
            coalesced: m.counter("serve.coalesced"),
            peak_queue_depth: m.gauge("serve.queue_peak") as usize,
        }
    }
}

/// Request metadata that rides beside the payload through the queue:
/// identity for trace correlation, submit time for latency/queue-wait
/// histograms, optional deadline in simulated seconds.
#[derive(Copy, Clone)]
struct ReqMeta {
    id: RequestId,
    submitted: Instant,
    deadline: Option<f64>,
}

/// One precision-typed request payload; the cell is fulfilled exactly
/// once when the request completes or fails.
struct Payload<T: Real> {
    meta: ReqMeta,
    points: Arc<Points<T>>,
    input: Vec<Complex<T>>,
    cell: Arc<ResponseCell<T>>,
}

impl<T: Real> Payload<T> {
    /// Resolve the request now, without device work, if it was
    /// cancelled or its deadline passed by `now` (simulated seconds);
    /// returns whether it is still live. Counts before it fulfills.
    fn still_live(&self, shared: &Shared, now: f64) -> bool {
        if self.cell.is_cancelled() {
            shared.metrics.counter("serve.cancelled").inc();
            self.cell.fulfill(Err(NufftError::Cancelled));
            return false;
        }
        match self.meta.deadline {
            Some(deadline) if now >= deadline => {
                shared.metrics.counter("serve.deadline_exceeded").inc();
                shared.metrics.counter("serve.failed").inc();
                self.cell
                    .fulfill(Err(NufftError::DeadlineExceeded { deadline, now }));
                false
            }
            _ => true,
        }
    }
}

/// Precision-erased payload so one queue and one worker serve both
/// `f32` and `f64` requests; the spec's [`Precision`] tag picks the
/// variant back out (enforced at submit time).
enum AnyPayload {
    F32(Payload<f32>),
    F64(Payload<f64>),
}

impl AnyPayload {
    fn points_match(&self, other: &AnyPayload) -> bool {
        match (self, other) {
            (AnyPayload::F32(a), AnyPayload::F32(b)) => points_eq(&a.points, &b.points),
            (AnyPayload::F64(a), AnyPayload::F64(b)) => points_eq(&a.points, &b.points),
            _ => false,
        }
    }

    fn fail(self, err: NufftError) {
        match self {
            AnyPayload::F32(p) => p.cell.fulfill(Err(err)),
            AnyPayload::F64(p) => p.cell.fulfill(Err(err)),
        }
    }

    fn meta(&self) -> ReqMeta {
        match self {
            AnyPayload::F32(p) => p.meta,
            AnyPayload::F64(p) => p.meta,
        }
    }

    fn is_cancelled(&self) -> bool {
        match self {
            AnyPayload::F32(p) => p.cell.is_cancelled(),
            AnyPayload::F64(p) => p.cell.is_cancelled(),
        }
    }

    fn still_live(&self, shared: &Shared, now: f64) -> bool {
        match self {
            AnyPayload::F32(p) => p.still_live(shared, now),
            AnyPayload::F64(p) => p.still_live(shared, now),
        }
    }

    fn is_settled(&self) -> bool {
        match self {
            AnyPayload::F32(p) => p.cell.is_settled(),
            AnyPayload::F64(p) => p.cell.is_settled(),
        }
    }

    fn cell_handle(&self) -> AnyCell {
        match self {
            AnyPayload::F32(p) => AnyCell::F32(Arc::clone(&p.cell)),
            AnyPayload::F64(p) => AnyCell::F64(Arc::clone(&p.cell)),
        }
    }

    fn into_typed<T: Real>(self) -> Payload<T> {
        match self {
            AnyPayload::F32(p) => cast_exact(p),
            AnyPayload::F64(p) => cast_exact(p),
        }
    }
}

/// Precision-erased handle to one response cell, kept in the
/// in-flight registry so the supervisor can fail a poisoned batch
/// after the worker (which owned the payloads) has died.
pub(crate) enum AnyCell {
    F32(Arc<ResponseCell<f32>>),
    F64(Arc<ResponseCell<f64>>),
}

impl AnyCell {
    /// Whether the cell already holds an outcome.
    pub(crate) fn is_settled(&self) -> bool {
        match self {
            AnyCell::F32(c) => c.is_settled(),
            AnyCell::F64(c) => c.is_settled(),
        }
    }

    /// Fulfill with `err` unless the cell already settled; returns
    /// whether this call delivered the failure (for stats accuracy).
    pub(crate) fn fail_if_unsettled(&self, err: NufftError) -> bool {
        match self {
            AnyCell::F32(c) => {
                if c.is_settled() {
                    return false;
                }
                c.fulfill(Err(err));
                true
            }
            AnyCell::F64(c) => {
                if c.is_settled() {
                    return false;
                }
                c.fulfill(Err(err));
                true
            }
        }
    }
}

/// Precision-erased cached plan; resolved back by the group's spec.
enum AnyPlan {
    F32(Plan<f32>),
    F64(Plan<f64>),
}

fn plan_mut<T: Real>(plan: &mut AnyPlan) -> &mut Plan<T> {
    let any: &mut dyn Any = match plan {
        AnyPlan::F32(p) => p,
        AnyPlan::F64(p) => p,
    };
    any.downcast_mut::<Plan<T>>()
        .expect("cache entry precision matches its spec key")
}

/// Move a value between two types the caller knows are identical (the
/// submit path matches `spec.precision` against `T` before erasing).
fn cast_exact<A: Any, B: Any>(value: A) -> B {
    let boxed: Box<dyn Any> = Box::new(value);
    *boxed
        .downcast::<B>()
        .expect("serve precision dispatch is exact")
}

struct CacheEntry {
    plan: AnyPlan,
    /// Fingerprint of the points currently set on the plan, if any.
    pts_fp: Option<u64>,
}

pub(crate) struct QueuedRequest {
    spec: TransformSpec,
    /// FNV-1a over the coordinate bits: cheap group key; exact equality
    /// is re-verified before requests actually coalesce.
    fp: u64,
    payload: AnyPayload,
}

impl QueuedRequest {
    /// Whether this request's response cell already holds an outcome.
    pub(crate) fn is_settled(&self) -> bool {
        self.payload.is_settled()
    }

    /// Fail this never-started request with [`NufftError::Shutdown`]
    /// (the supervisor's final sweep when the restart budget is spent).
    /// Returns whether this call delivered the failure.
    pub(crate) fn fail_shutdown(self) -> bool {
        if self.payload.is_settled() {
            return false;
        }
        self.payload.fail(NufftError::Shutdown);
        true
    }
}

/// Sliding window of recent queue-wait samples (wall-clock seconds)
/// feeding the shed controller's p90 estimate.
struct ShedWindow {
    samples: Vec<f64>,
    next: usize,
}

const SHED_WINDOW: usize = 64;

impl ShedWindow {
    fn new() -> Self {
        ShedWindow {
            samples: Vec::with_capacity(SHED_WINDOW),
            next: 0,
        }
    }

    fn push(&mut self, v: f64) {
        if self.samples.len() < SHED_WINDOW {
            self.samples.push(v);
        } else {
            self.samples[self.next] = v;
        }
        self.next = (self.next + 1) % SHED_WINDOW;
    }

    fn p90(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let idx = ((sorted.len() as f64) * 0.9).ceil() as usize;
        Some(sorted[idx.min(sorted.len()) - 1])
    }
}

/// State shared between the client-facing handle and the worker.
pub(crate) struct Shared {
    pub(crate) queue: Queue<QueuedRequest>,
    /// The one record of every `serve.*` counter, gauge and histogram:
    /// the attached trace, or else a private session that only ever
    /// holds metrics (it is never activated or handed to a plan, so it
    /// records no spans).
    pub(crate) metrics: Trace,
    /// The attached trace, for request spans and plan tracing.
    trace: Option<Trace>,
    next_id: AtomicU64,
    shed_window: Mutex<ShedWindow>,
    /// Response cells of the batch the worker currently holds; the
    /// supervisor blanket-fails these after a panic (first writer
    /// wins, so cells the worker already fulfilled are unaffected).
    pub(crate) in_flight: Mutex<Vec<AnyCell>>,
}

impl Shared {
    /// Record a completed request-lifecycle interval (admission, queue
    /// wait, execution) carrying the request's correlation id.
    fn request_span(&self, name: &str, id: RequestId, start: Instant, end: Instant) {
        if let Some(t) = &self.trace {
            t.record_span_at(
                name,
                "serve",
                start,
                end,
                &[(REQUEST_ID_ARG, id.to_string())],
            );
        }
    }

    fn depth_gauges(&self, depth: usize) {
        let depth = depth as f64;
        self.metrics.gauge("serve.queue_depth").set(depth);
        self.metrics.gauge("serve.queue_peak").max(depth);
        self.metrics
            .histogram("serve.queue_depth_hist")
            .observe(depth);
    }

    /// Count a request into the queue at `depth` and record its
    /// admission span.
    fn admitted(&self, meta: ReqMeta, depth: usize) {
        self.metrics.counter("serve.accepted").inc();
        self.depth_gauges(depth);
        self.request_span("serve.admit", meta.id, meta.submitted, Instant::now());
    }

    /// Record a queue-wait sample in both the `serve.queue_wait`
    /// histogram and the shed controller's window.
    fn observe_queue_wait(&self, v: f64) {
        self.metrics.histogram("serve.queue_wait").observe(v);
        self.shed_window.lock().unwrap().push(v);
    }

    /// The shed controller's current effective depth limit.
    fn shed_limit(&self, policy: &ShedPolicy, capacity: usize) -> usize {
        if !policy.enabled {
            return capacity;
        }
        match self.shed_window.lock().unwrap().p90() {
            Some(p90) if p90 > policy.target_queue_wait_p90 => {
                let scaled = (capacity as f64 * policy.target_queue_wait_p90 / p90) as usize;
                scaled.max(policy.min_limit).min(capacity)
            }
            _ => capacity,
        }
    }
}

/// An async NUFFT service over one simulated device.
///
/// See the crate docs for the full request lifecycle; in short:
/// [`submit`](NufftServer::submit) a [`TransformSpec`] + points +
/// strengths, get back a [`Response`] to `.await` or
/// [`wait`](Response::wait) on.
pub struct NufftServer {
    shared: Arc<Shared>,
    config: ServeConfig,
    dev: Device,
    worker: Option<JoinHandle<()>>,
}

impl NufftServer {
    /// Spawn the supervised worker thread and start serving on `dev`.
    pub fn start(dev: &Device, config: ServeConfig) -> Result<NufftServer> {
        config.validate()?;
        let shared = Arc::new(Shared {
            queue: Queue::new(config.queue_capacity),
            metrics: config.trace.clone().unwrap_or_default(),
            trace: config.trace.clone(),
            next_id: AtomicU64::new(1),
            shed_window: Mutex::new(ShedWindow::new()),
            in_flight: Mutex::new(Vec::new()),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            let dev = dev.clone();
            let cfg = config.clone();
            thread::Builder::new()
                .name("nufft-serve".into())
                .spawn(move || crate::supervisor::supervise(&shared, &dev, &cfg))
                .map_err(|e| NufftError::BadOptions(format!("cannot spawn serve worker: {e}")))?
        };
        Ok(NufftServer {
            shared,
            config,
            dev: dev.clone(),
            worker: Some(worker),
        })
    }

    /// Submit a transform request without blocking.
    ///
    /// Validates `spec` against the data (precision tag vs `T`,
    /// dimension vs `points`, strengths length vs the spec's input
    /// length for `points.len()` sources) and admission-controls
    /// against the shed controller and queue: overload returns
    /// [`NufftError::Overloaded`] or [`NufftError::QueueFull`]
    /// immediately.
    pub fn submit<T: Real>(
        &self,
        spec: &TransformSpec,
        points: &Arc<Points<T>>,
        input: Vec<Complex<T>>,
    ) -> Result<Response<T>> {
        self.submit_opts(spec, points, input, SubmitOptions::default())
    }

    /// [`submit`](NufftServer::submit) with per-request options
    /// (deadline).
    pub fn submit_opts<T: Real>(
        &self,
        spec: &TransformSpec,
        points: &Arc<Points<T>>,
        input: Vec<Complex<T>>,
        opts: SubmitOptions,
    ) -> Result<Response<T>> {
        self.check_deadline(opts)?;
        let limit = self
            .shared
            .shed_limit(&self.config.shed, self.config.queue_capacity);
        let depth = self.shared.queue.len();
        if depth >= limit && limit < self.config.queue_capacity {
            self.shared.metrics.counter("serve.shed").inc();
            return Err(NufftError::Overloaded {
                depth,
                limit,
                capacity: self.config.queue_capacity,
            });
        }
        let (req, response) = self.make_request(spec, points, input, opts)?;
        let meta = req.payload.meta();
        match self.shared.queue.try_push(req) {
            Ok(depth) => {
                self.shared.admitted(meta, depth);
                Ok(response)
            }
            Err(PushError::Full { depth }) => {
                self.shared.metrics.counter("serve.rejected").inc();
                Err(NufftError::QueueFull {
                    depth,
                    capacity: self.config.queue_capacity,
                })
            }
            Err(PushError::Shutdown) => Err(NufftError::Shutdown),
        }
    }

    /// [`submit`](NufftServer::submit), but park the caller until a
    /// queue slot frees up (blocking backpressure instead of
    /// [`NufftError::QueueFull`]). The shed controller does not apply
    /// here: a caller who opted into blocking has already accepted the
    /// wait.
    pub fn submit_wait<T: Real>(
        &self,
        spec: &TransformSpec,
        points: &Arc<Points<T>>,
        input: Vec<Complex<T>>,
    ) -> Result<Response<T>> {
        self.submit_wait_opts(spec, points, input, SubmitOptions::default())
    }

    /// [`submit_wait`](NufftServer::submit_wait) with per-request
    /// options (deadline).
    pub fn submit_wait_opts<T: Real>(
        &self,
        spec: &TransformSpec,
        points: &Arc<Points<T>>,
        input: Vec<Complex<T>>,
        opts: SubmitOptions,
    ) -> Result<Response<T>> {
        self.check_deadline(opts)?;
        let (req, response) = self.make_request(spec, points, input, opts)?;
        let meta = req.payload.meta();
        match self.shared.queue.push_wait(req) {
            Ok(depth) => {
                self.shared.admitted(meta, depth);
                Ok(response)
            }
            Err(_) => Err(NufftError::Shutdown),
        }
    }

    /// Admission-time deadline check: an already-expired request never
    /// allocates a response or touches the queue.
    fn check_deadline(&self, opts: SubmitOptions) -> Result<()> {
        if let Some(deadline) = opts.deadline {
            let now = self.dev.clock();
            if now >= deadline {
                self.shared.metrics.counter("serve.deadline_exceeded").inc();
                return Err(NufftError::DeadlineExceeded { deadline, now });
            }
            self.shared
                .metrics
                .histogram("serve.deadline_slack")
                .observe(deadline - now);
        }
        Ok(())
    }

    fn make_request<T: Real>(
        &self,
        spec: &TransformSpec,
        points: &Arc<Points<T>>,
        input: Vec<Complex<T>>,
        opts: SubmitOptions,
    ) -> Result<(QueuedRequest, Response<T>)> {
        spec.validate()?;
        if !spec.matches_precision::<T>() {
            return Err(NufftError::BadSpec(format!(
                "spec requests {} but the request data is {}",
                spec.precision,
                Precision::of::<T>(),
            )));
        }
        if points.dim != spec.dim() {
            return Err(NufftError::BadSpec(format!(
                "spec is {}D but the points are {}D",
                spec.dim(),
                points.dim,
            )));
        }
        let expected = spec.input_len(points.len());
        if input.len() != expected {
            return Err(NufftError::LengthMismatch {
                expected,
                got: input.len(),
            });
        }
        let cell = Arc::new(ResponseCell::<T>::default());
        let meta = ReqMeta {
            id: RequestId(self.shared.next_id.fetch_add(1, Ordering::Relaxed)),
            submitted: Instant::now(),
            deadline: opts.deadline,
        };
        let payload = Payload {
            meta,
            points: Arc::clone(points),
            input,
            cell: Arc::clone(&cell),
        };
        let payload = match spec.precision {
            Precision::F32 => AnyPayload::F32(cast_exact(payload)),
            Precision::F64 => AnyPayload::F64(cast_exact(payload)),
        };
        Ok((
            QueuedRequest {
                spec: spec.clone(),
                fp: points_fingerprint(points),
                payload,
            },
            Response::new(cell, meta.id),
        ))
    }

    /// Hold the worker off; submissions keep queueing up to capacity.
    /// Lets callers build a coalescable backlog deterministically.
    pub fn pause(&self) {
        self.shared.queue.pause();
    }

    /// Release a paused worker.
    pub fn resume(&self) {
        self.shared.queue.resume();
    }

    /// Requests queued but not yet picked up by the worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Snapshot of the cumulative serving statistics, read from the
    /// server's `serve.*` metrics.
    pub fn stats(&self) -> ServeStats {
        ServeStats::from_metrics(&self.shared.metrics.metrics())
    }

    /// SLO/health summary judged against [`SloThresholds::default`].
    pub fn report(&self) -> ServeReport {
        self.report_with(SloThresholds::default())
    }

    /// [`report`](NufftServer::report) with custom thresholds.
    pub fn report_with(&self, slo: SloThresholds) -> ServeReport {
        let metrics = self.shared.metrics.metrics();
        ServeReport::build(
            ServeStats::from_metrics(&metrics),
            self.config.queue_capacity,
            &metrics,
            slo,
        )
    }

    /// Stop accepting requests, fail everything still queued with
    /// [`NufftError::Shutdown`], and join the worker. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Graceful variant of [`shutdown`](NufftServer::shutdown): stop
    /// admission immediately, let the worker finish everything already
    /// queued, and hard-stop after `timeout` wall-clock time. Returns
    /// `true` when the backlog drained fully within the timeout;
    /// `false` when the timeout hit and leftovers were failed with
    /// [`NufftError::Shutdown`]. Either way, every outstanding
    /// [`Response`] resolves.
    pub fn drain(mut self, timeout: Duration) -> bool {
        self.shared.queue.close();
        let deadline = Instant::now() + timeout;
        let drained = loop {
            match &self.worker {
                None => break true,
                Some(h) if h.is_finished() => break true,
                Some(_) if Instant::now() >= deadline => break false,
                Some(_) => thread::sleep(Duration::from_millis(1)),
            }
        };
        // hard-stop: a no-op when the worker already exited cleanly
        self.shutdown_impl();
        drained
    }

    fn shutdown_impl(&mut self) {
        self.shared.queue.shutdown();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NufftServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// FNV-1a over the dimension, length, and coordinate bits: a cheap,
/// deterministic group key for "same nonuniform points".
fn points_fingerprint<T: Real>(points: &Points<T>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(points.dim as u64);
    mix(points.len() as u64);
    for d in 0..points.dim {
        for &x in &points.coords[d] {
            mix(x.to_f64().to_bits());
        }
    }
    h
}

/// Bit-exact point-set equality (fingerprint collisions must never
/// coalesce two genuinely different requests).
fn points_eq<T: Real>(a: &Arc<Points<T>>, b: &Arc<Points<T>>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    if a.dim != b.dim || a.len() != b.len() {
        return false;
    }
    (0..a.dim).all(|d| {
        a.coords[d]
            .iter()
            .zip(&b.coords[d])
            .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
    })
}

struct Group {
    spec: TransformSpec,
    fp: u64,
    payloads: Vec<AnyPayload>,
}

/// Partition one queue sweep into coalescable groups: same spec, same
/// points fingerprint, and bit-exact same points as the group's first
/// member. First-arrival order of groups is preserved.
fn coalesce(batch: Vec<QueuedRequest>) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    'next: for req in batch {
        for g in groups.iter_mut() {
            if g.spec == req.spec && g.fp == req.fp && g.payloads[0].points_match(&req.payload) {
                g.payloads.push(req.payload);
                continue 'next;
            }
        }
        groups.push(Group {
            spec: req.spec,
            fp: req.fp,
            payloads: vec![req.payload],
        });
    }
    groups
}

/// Whether `err`'s root cause should advance a circuit breaker, and if
/// so whether it counts as persistent. Validation errors and the like
/// return `None`: they indicate a bad request, not a poisoned device
/// path.
fn breaker_class(err: &NufftError) -> Option<bool> {
    match err.root_cause() {
        NufftError::DeviceFault { persistent, .. } => Some(*persistent),
        // an OOM streak poisons the spec just as surely: the same
        // allocation sizes will fail again
        NufftError::DeviceOom { .. } => Some(true),
        _ => None,
    }
}

/// Record `failed` requests going down with `err` against `spec`'s
/// breaker. The streak advances once per failed *request*, not per
/// group — otherwise coalescing would make opening depend on how
/// traffic happened to batch. Must run *before* the failing cells are
/// fulfilled, so a waiter the failure wakes already sees the breaker
/// counters and gauge it caused.
fn breaker_note_failure(
    shared: &Shared,
    breakers: &mut BreakerSet,
    spec: &TransformSpec,
    err: &NufftError,
    now: f64,
    failed: usize,
) {
    if let Some(persistent) = breaker_class(err) {
        for _ in 0..failed.max(1) {
            if breakers.on_failure(spec, persistent, now) {
                shared.metrics.counter("serve.breaker_open").inc();
            }
        }
    } else {
        // a non-device failure still proves the path works; don't
        // leave a half-open breaker stuck
        breakers.on_success(spec);
    }
    shared
        .metrics
        .gauge("serve.breaker_state")
        .set(breakers.open_count() as f64);
}

/// Record a successful execution against `spec`'s breaker. Must run
/// *before* the successful cells are fulfilled, for the same
/// visibility reason as [`breaker_note_failure`].
fn breaker_note_success(shared: &Shared, breakers: &mut BreakerSet, spec: &TransformSpec) {
    breakers.on_success(spec);
    shared
        .metrics
        .gauge("serve.breaker_state")
        .set(breakers.open_count() as f64);
}

pub(crate) fn worker_loop(shared: &Arc<Shared>, dev: &Device, cfg: &ServeConfig) {
    if let Some(t) = &shared.trace {
        // names the worker's row in the Chrome export ("nufft-serve")
        t.register_thread();
    }
    let mut cache: LruCache<TransformSpec, CacheEntry> = LruCache::new(cfg.cache_capacity);
    let mut breakers = BreakerSet::new(cfg.breaker);
    while let Some(batch) = shared.queue.pop_all() {
        shared.depth_gauges(shared.queue.len());
        // register the batch before any work: if the worker dies
        // mid-batch the supervisor fails exactly these cells
        {
            let mut inf = shared.in_flight.lock().unwrap();
            inf.clear();
            inf.extend(batch.iter().map(|r| r.payload.cell_handle()));
        }
        let picked = Instant::now();
        let now = dev.clock();
        let mut live = Vec::with_capacity(batch.len());
        for req in batch {
            let meta = req.payload.meta();
            shared.request_span("serve.queue", meta.id, meta.submitted, picked);
            shared.observe_queue_wait(
                picked
                    .saturating_duration_since(meta.submitted)
                    .as_secs_f64(),
            );
            // dequeue-time checks: cancelled or expired requests
            // resolve right here, without any device work
            if req.payload.still_live(shared, now) {
                live.push(req);
            }
        }
        for group in coalesce(live) {
            serve_group(shared, dev, cfg, &mut cache, &mut breakers, group);
        }
        shared.in_flight.lock().unwrap().clear();
    }
    // shutdown: fail everything that never started, so no Response
    // waiter is left hanging (cancelled requests resolve as cancelled,
    // already-settled ones are skipped so stats stay accurate)
    for req in shared.queue.drain() {
        if req.payload.is_settled() {
            continue;
        }
        if req.payload.is_cancelled() {
            shared.metrics.counter("serve.cancelled").inc();
            req.payload.fail(NufftError::Cancelled);
        } else {
            shared.metrics.counter("serve.failed").inc();
            req.payload.fail(NufftError::Shutdown);
        }
    }
}

/// Route one coalesced group through its spec's circuit breaker, then
/// record the outcome and refresh the breaker gauge.
fn serve_group(
    shared: &Shared,
    dev: &Device,
    cfg: &ServeConfig,
    cache: &mut LruCache<TransformSpec, CacheEntry>,
    breakers: &mut BreakerSet,
    group: Group,
) {
    let spec = group.spec.clone();
    match breakers.admit(&spec, dev.clock()) {
        BreakerDecision::Execute | BreakerDecision::Trial => match spec.precision {
            Precision::F32 => run_group::<f32>(shared, dev, cfg, cache, breakers, group),
            Precision::F64 => run_group::<f64>(shared, dev, cfg, cache, breakers, group),
        },
        BreakerDecision::FastFail { retry_after } => {
            brownout_group(shared, dev, cfg, cache, breakers, group, retry_after);
        }
    }
}

/// Serve a group whose breaker is open: degrade per the configured
/// [`Brownout`] mode, falling back to a typed fast-fail.
fn brownout_group(
    shared: &Shared,
    dev: &Device,
    cfg: &ServeConfig,
    cache: &mut LruCache<TransformSpec, CacheEntry>,
    breakers: &mut BreakerSet,
    group: Group,
    retry_after: f64,
) {
    let spec = group.spec.clone();
    let n = group.payloads.len();
    match cfg.breaker.brownout {
        Brownout::MethodOverride => {
            if let Some(method) = degraded_method_for(&spec) {
                // key the degraded plan under the degraded spec: the
                // original spec's cache slot stays empty/quarantined,
                // so post-cooldown requests rebuild the real plan and
                // stay bit-exact with a direct build
                let degraded = spec.clone().method(method);
                shared.metrics.counter("serve.brownout").add(n as i64);
                let group = Group {
                    spec: degraded.clone(),
                    fp: group.fp,
                    payloads: group.payloads,
                };
                match degraded.precision {
                    Precision::F32 => run_group::<f32>(shared, dev, cfg, cache, breakers, group),
                    Precision::F64 => run_group::<f64>(shared, dev, cfg, cache, breakers, group),
                }
                return;
            }
        }
        Brownout::Cpu => {
            // the CPU backend has no modeord support; other orderings
            // fall through to fast-fail
            if spec.modeord == ModeOrder::Centered {
                shared.metrics.counter("serve.brownout").add(n as i64);
                match spec.precision {
                    Precision::F32 => run_cpu_group::<f32>(shared, dev, &spec, group.payloads),
                    Precision::F64 => run_cpu_group::<f64>(shared, dev, &spec, group.payloads),
                }
                return;
            }
        }
        Brownout::FailFast => {}
    }
    shared
        .metrics
        .counter("serve.breaker_fastfail")
        .add(n as i64);
    shared.metrics.counter("serve.failed").add(n as i64);
    let err = NufftError::BreakerOpen {
        spec: spec.label(),
        retry_after,
    };
    for p in group.payloads {
        p.fail(err.clone());
    }
}

/// Serve one coalesced group at its concrete precision: resolve the
/// plan (cache hit or build), set points if they changed, then execute
/// in `max_batch`-sized stacked launches.
fn run_group<T: Real>(
    shared: &Shared,
    dev: &Device,
    cfg: &ServeConfig,
    cache: &mut LruCache<TransformSpec, CacheEntry>,
    breakers: &mut BreakerSet,
    group: Group,
) {
    let Group { spec, fp, payloads } = group;
    let mut payloads: Vec<Payload<T>> = payloads
        .into_iter()
        .map(AnyPayload::into_typed::<T>)
        .collect();

    // One open span per group, tagged with the representative (first)
    // request's id: every plan.* host span and device-lane kernel the
    // group triggers parents under it, so request_timeline reaches all
    // the way down to the device.
    let rep_id = payloads[0].meta.id;
    let _group_span = shared
        .trace
        .as_ref()
        .map(|t| t.span_with("serve.group", &[(REQUEST_ID_ARG, rep_id.to_string())]));

    if cache.contains(&spec) {
        shared.metrics.counter("serve.cache_hit").inc();
    } else {
        shared.metrics.counter("serve.cache_miss").inc();
        let built = PlanBuilder::<T>::from_spec(&spec).and_then(|builder| {
            let mut builder = builder
                .tuning(cfg.tuning)
                .recovery(cfg.recovery)
                .max_batch(cfg.max_batch);
            if let Some(t) = &shared.trace {
                builder = builder.tracing(t);
            }
            builder.build(dev)
        });
        match built {
            Ok(plan) => {
                let plan = match spec.precision {
                    Precision::F32 => AnyPlan::F32(cast_exact(plan)),
                    Precision::F64 => AnyPlan::F64(cast_exact(plan)),
                };
                if cache
                    .insert(spec.clone(), CacheEntry { plan, pts_fp: None })
                    .is_some()
                {
                    shared.metrics.counter("serve.cache_evict").inc();
                }
            }
            Err(e) => {
                breaker_note_failure(shared, breakers, &spec, &e, dev.clock(), payloads.len());
                fail_all(shared, payloads, e.at_stage("plan.build"));
                return;
            }
        }
    }

    let entry = cache
        .get_mut(&spec)
        .expect("plan was just resolved or inserted");

    let rep_points = Arc::clone(&payloads[0].points);
    if entry.pts_fp == Some(fp) {
        shared.metrics.counter("serve.setpts_reuse").inc();
    } else {
        entry.pts_fp = None;
        if let Err(e) = plan_mut::<T>(&mut entry.plan).set_pts(&rep_points) {
            quarantine_if_poisoned(shared, cache, &spec, &e);
            breaker_note_failure(shared, breakers, &spec, &e, dev.clock(), payloads.len());
            fail_all(shared, payloads, e.at_stage("plan.setpts"));
            return;
        }
        entry.pts_fp = Some(fp);
    }

    let out_per = spec.output_len(rep_points.len());
    while !payloads.is_empty() {
        let take = payloads.len().min(cfg.max_batch);
        let mut chunk: Vec<Payload<T>> = payloads.drain(..take).collect();
        // chunk-boundary checks: drop members that were cancelled or
        // expired while earlier chunks ran
        let now = dev.clock();
        chunk.retain(|p| p.still_live(shared, now));
        if chunk.is_empty() {
            continue;
        }
        let (input, mut output) = stack_chunk(shared, &chunk, out_per);
        if let Some(hook) = &cfg.chaos_hook {
            (hook.0)(&spec);
        }
        let chunk_start = Instant::now();
        let plan = plan_mut::<T>(&mut cache.get_mut(&spec).expect("plan stays resident").plan);
        match plan.execute_many(&input, &mut output) {
            Ok(()) => {
                breaker_note_success(shared, breakers, &spec);
                complete(shared, chunk, &output, out_per, chunk_start);
            }
            Err(e) => {
                // fail only this chunk; a transient fault leaves the
                // plan (and its recovery state) cached, a persistent
                // one quarantines it so the next request rebuilds
                quarantine_if_poisoned(shared, cache, &spec, &e);
                // if the plan was quarantined, remaining chunks would
                // re-fail identically off a rebuilt plan: take them
                // down now with the same cause
                let rest: Vec<Payload<T>> = if cache.contains(&spec) {
                    Vec::new()
                } else {
                    std::mem::take(&mut payloads)
                };
                let failed = chunk.len() + rest.len();
                breaker_note_failure(shared, breakers, &spec, &e, dev.clock(), failed);
                fail_all(shared, chunk, e.clone().at_stage("plan.execute"));
                if !rest.is_empty() {
                    fail_all(shared, rest, e.at_stage("plan.execute"));
                }
            }
        }
    }
}

/// Evict the cached plan when `err` proves it is poisoned (a
/// persistent device fault): the next same-spec request rebuilds from
/// scratch instead of re-failing off the cache.
fn quarantine_if_poisoned(
    shared: &Shared,
    cache: &mut LruCache<TransformSpec, CacheEntry>,
    spec: &TransformSpec,
    err: &NufftError,
) {
    if matches!(
        err.root_cause(),
        NufftError::DeviceFault {
            persistent: true,
            ..
        }
    ) && cache.remove(spec).is_some()
    {
        shared.metrics.counter("serve.quarantine").inc();
    }
}

/// CPU-brownout execution: serve the group on the `finufft-cpu`
/// backend via the cross-backend [`NufftPlan`] trait. Plans are built
/// per group (never cached — the GPU plan cache must keep serving
/// bit-exact GPU results once the breaker closes).
fn run_cpu_group<T: Real>(
    shared: &Shared,
    dev: &Device,
    spec: &TransformSpec,
    payloads: Vec<AnyPayload>,
) {
    let mut payloads: Vec<Payload<T>> = payloads
        .into_iter()
        .map(AnyPayload::into_typed::<T>)
        .collect();
    let rep_id = payloads[0].meta.id;
    let _group_span = shared
        .trace
        .as_ref()
        .map(|t| t.span_with("serve.group_cpu", &[(REQUEST_ID_ARG, rep_id.to_string())]));

    let opts = finufft_cpu::Opts {
        fine_sizing: spec.fine_sizing,
        ..finufft_cpu::Opts::default()
    };
    let mut plan =
        match finufft_cpu::Plan::<T>::new(spec.ttype, &spec.modes, spec.iflag, spec.eps, opts) {
            Ok(p) => p,
            Err(e) => {
                fail_all(shared, payloads, e.at_stage("plan.build"));
                return;
            }
        };
    let rep_points = Arc::clone(&payloads[0].points);
    if let Err(e) = plan.set_points(&rep_points) {
        fail_all(shared, payloads, e.at_stage("plan.setpts"));
        return;
    }
    let out_per = spec.output_len(rep_points.len());
    let now = dev.clock();
    payloads.retain(|p| p.still_live(shared, now));
    if payloads.is_empty() {
        return;
    }
    let (input, mut output) = stack_chunk(shared, &payloads, out_per);
    let chunk_start = Instant::now();
    match plan.execute_many(&input, &mut output) {
        Ok(()) => complete(shared, payloads, &output, out_per, chunk_start),
        Err(e) => {
            fail_all(shared, payloads, e.at_stage("plan.execute"));
        }
    }
}

/// One `execute_many` launch for `chunk`: its inputs stacked, and a
/// zeroed output of `out_per` values per request.
fn stack_chunk<T: Real>(
    shared: &Shared,
    chunk: &[Payload<T>],
    out_per: usize,
) -> (Vec<Complex<T>>, Vec<Complex<T>>) {
    let b = chunk.len();
    shared
        .metrics
        .histogram("serve.batch_size")
        .observe(b as f64);
    let input = chunk.iter().flat_map(|p| p.input.iter().copied()).collect();
    (input, vec![Complex::<T>::ZERO; out_per * b])
}

/// Finish a successfully executed chunk: count the launch, then hand
/// each request its `out_per` slice of `output`. Stats before fulfill:
/// a waiter woken by the fulfill must already see this chunk counted.
fn complete<T: Real>(
    shared: &Shared,
    chunk: Vec<Payload<T>>,
    output: &[Complex<T>],
    out_per: usize,
    start: Instant,
) {
    let done = Instant::now();
    let b = chunk.len();
    shared.metrics.counter("serve.batches").inc();
    if b > 1 {
        shared.metrics.counter("serve.coalesced").add(b as i64);
    }
    shared.metrics.counter("serve.completed").add(b as i64);
    for (i, p) in chunk.into_iter().enumerate() {
        shared.request_span("serve.execute", p.meta.id, start, done);
        shared.metrics.histogram("serve.latency").observe(
            done.saturating_duration_since(p.meta.submitted)
                .as_secs_f64(),
        );
        p.cell
            .fulfill(Ok(output[i * out_per..(i + 1) * out_per].to_vec()));
    }
}

fn fail_all<T: Real>(shared: &Shared, payloads: Vec<Payload<T>>, err: NufftError) {
    // stats before fulfill, for the same wake-ordering reason as the
    // success path
    shared
        .metrics
        .counter("serve.failed")
        .add(payloads.len() as i64);
    for p in payloads {
        p.cell.fulfill(Err(err.clone()));
    }
}
