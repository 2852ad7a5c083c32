//! Lightweight, zero-dependency tracing for the NUFFT stack.
//!
//! The paper's headline claims are *observability claims* — spreading
//! dominates a 3D type-1 exec (Table I), the SM scheme's subproblem cap
//! makes throughput insensitive to point distribution (Fig. 6). This
//! crate is the instrumentation that turns those claims into measurable
//! artifacts: the counterpart of what nvprof/NSight give cuFINUFFT users
//! on real hardware.
//!
//! Model:
//!
//! * A [`Trace`] is a cheap-to-clone session handle (shared `Arc`
//!   state). Code records into it through three channels:
//!   * **host spans** — RAII guards ([`Trace::span`] or the [`span!`]
//!     macro) timed with the host monotonic clock, nested via a
//!     per-thread span stack (each event carries its parent id);
//!   * **device events/spans** — explicit-timestamp events in
//!     *simulated* seconds, one [`Lane`] per device engine (compute,
//!     H2D, D2H, alloc) plus a `Plan` lane for stage-level spans;
//!   * **counters and gauges** — named atomics for load-balance
//!     statistics (bin histograms, subproblem counts, atomic-contention
//!     and occupancy readings).
//! * Completed events are buffered in a per-thread buffer and drained
//!   into the session's global sink when the thread's span stack
//!   empties, when the buffer fills, or at export.
//! * Exporters: Chrome trace-event JSON ([`TraceReport::chrome_json`],
//!   loadable in Perfetto / `chrome://tracing`, with the simulated GPU
//!   lanes and the host track as separate rows) and a Prometheus-style
//!   text dump ([`TraceReport::prometheus`]). [`Trace::metrics`] reads
//!   only the counters, gauges and histograms, without copying events.
//!
//! Tracing is strictly opt-in: with no active trace, [`span!`] is a
//! no-op and nothing allocates.

#![forbid(unsafe_code)]

pub mod bench;
pub mod chrome;
mod hist;
pub mod json;
pub mod prom;

pub use hist::{bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};

use std::cell::Cell;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Instant;

/// Poison-tolerant lock: a panicking recorder thread must not take the
/// whole tracing session down with it, so recover the inner data (the
/// sink holds append-only events and monotonic atomics — every state is
/// consistent mid-update).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which simulated-device engine an event occupies; rendered as one
/// timeline row ("lane") per variant in the Chrome export.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// Plan-level stage spans (build / setpts / execute / spread / fft).
    Plan,
    /// Kernel launches and bulk data-parallel passes (the SM array).
    Compute,
    /// Host-to-device transfers (upload copy engine).
    H2d,
    /// Device-to-host transfers (download copy engine).
    D2h,
    /// Simulated allocations.
    Alloc,
}

impl Lane {
    pub fn label(self) -> &'static str {
        match self {
            Lane::Plan => "plan stages",
            Lane::Compute => "gpu compute",
            Lane::H2d => "gpu h2d",
            Lane::D2h => "gpu d2h",
            Lane::Alloc => "gpu alloc",
        }
    }
}

/// Track an event belongs to: the host wall-clock timeline or one lane
/// of the simulated device timeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Track {
    Host,
    Device(Lane),
}

/// One completed span or instantaneous event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Unique id within the trace (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span at record time (0 for roots).
    pub parent: u64,
    /// Ordinal of the OS thread that recorded the event (process-wide,
    /// 1-based); keys into [`TraceReport::threads`] for the thread's
    /// name. Host events render one Chrome timeline row per tid.
    pub tid: u64,
    pub name: String,
    /// Category string (e.g. "kernel", "memcpy", "stage", "host").
    pub cat: String,
    pub track: Track,
    /// Start in microseconds: host-us since trace creation for
    /// [`Track::Host`], simulated-us since device creation for
    /// [`Track::Device`].
    pub ts_us: f64,
    pub dur_us: f64,
    /// Free-form key/value annotations (dim, method, M, ...).
    pub args: Vec<(String, String)>,
}

#[derive(Default)]
struct Sink {
    events: Vec<TraceEvent>,
}

struct Inner {
    t0: Instant,
    next_id: AtomicU64,
    sink: Mutex<Sink>,
    counters: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<hist::HistCell>>>,
    /// Thread ordinal → thread name, filled in as threads record.
    threads: Mutex<BTreeMap<u64, String>>,
}

/// A tracing session. Clones share the same sink.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("events", &lock(&self.inner.sink).events.len())
            .finish()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread state: the active-trace stack (for [`span!`] /
/// [`Trace::current`]), the open-span stack (parent ids), and the
/// pending-event buffer drained into the owning trace's sink.
struct ThreadState {
    active: Vec<Trace>,
    open_spans: Vec<u64>,
    buf: Vec<(Weak<Inner>, TraceEvent)>,
}

thread_local! {
    static TLS: RefCell<ThreadState> = const { RefCell::new(ThreadState {
        active: Vec::new(),
        open_spans: Vec::new(),
        buf: Vec::new(),
    }) };
}

/// Buffered events per thread before a forced drain into the sink.
const BUF_FLUSH_LEN: usize = 128;

/// Process-wide OS-thread ordinals (1-based; 0 = unassigned).
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORD: Cell<u64> = const { Cell::new(0) };
}

/// This thread's stable ordinal, assigned on first use.
fn thread_ord() -> u64 {
    THREAD_ORD.with(|c| {
        let mut ord = c.get();
        if ord == 0 {
            ord = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
            c.set(ord);
        }
        ord
    })
}

fn flush_thread_buffer() {
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        for (weak, ev) in tls.buf.drain(..) {
            if let Some(inner) = weak.upgrade() {
                lock(&inner.sink).events.push(ev);
            }
        }
    });
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            inner: Arc::new(Inner {
                t0: Instant::now(),
                next_id: AtomicU64::new(1),
                sink: Mutex::new(Sink::default()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                threads: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Note the calling thread in the session's thread table and return
    /// its ordinal (names come from `std::thread::Builder`, so e.g. the
    /// serve worker shows up as `nufft-serve` in the Chrome export).
    pub fn register_thread(&self) -> u64 {
        let tid = thread_ord();
        let mut threads = lock(&self.inner.threads);
        threads.entry(tid).or_insert_with(|| {
            std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"))
        });
        tid
    }

    /// The innermost trace activated on this thread, if any.
    pub fn current() -> Option<Trace> {
        TLS.with(|tls| tls.borrow().active.last().cloned())
    }

    /// Make this trace the thread's current one for the guard's
    /// lifetime, so [`span!`] and [`Trace::current`] find it.
    pub fn activate(&self) -> ActiveGuard {
        TLS.with(|tls| tls.borrow_mut().active.push(self.clone()));
        ActiveGuard { _priv: () }
    }

    /// True when `other` shares this trace's sink.
    pub fn same_session(&self, other: &Trace) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn next_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn parent_of_new_event() -> u64 {
        TLS.with(|tls| tls.borrow().open_spans.last().copied().unwrap_or(0))
    }

    /// Queue a completed event in the thread buffer; drain to the sink
    /// when the buffer fills or the thread's span stack is empty.
    fn push_event(&self, ev: TraceEvent) {
        let drain = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            tls.buf.push((Arc::downgrade(&self.inner), ev));
            tls.buf.len() >= BUF_FLUSH_LEN || tls.open_spans.is_empty()
        });
        if drain {
            flush_thread_buffer();
        }
    }

    /// Start a host-timed span; ends (and records) when the guard drops.
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, &[])
    }

    /// [`Trace::span`] with key/value annotations.
    pub fn span_with(&self, name: &str, args: &[(&str, String)]) -> Span {
        let id = self.next_id();
        let parent = Self::parent_of_new_event();
        let tid = self.register_thread();
        TLS.with(|tls| tls.borrow_mut().open_spans.push(id));
        Span {
            trace: self.clone(),
            id,
            parent,
            tid,
            name: name.to_string(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            start: Instant::now(),
        }
    }

    /// Record a span on a simulated-device lane with explicit simulated
    /// start/duration (seconds). The parent is the thread's innermost
    /// open host span, so device work stays attributable.
    pub fn device_span(
        &self,
        lane: Lane,
        name: &str,
        cat: &str,
        start_s: f64,
        dur_s: f64,
        args: &[(&str, String)],
    ) {
        let ev = TraceEvent {
            id: self.next_id(),
            parent: Self::parent_of_new_event(),
            tid: self.register_thread(),
            name: name.to_string(),
            cat: cat.to_string(),
            track: Track::Device(lane),
            ts_us: start_s * 1e6,
            dur_us: dur_s * 1e6,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.push_event(ev);
    }

    /// Record a completed host span retroactively, from explicit
    /// [`Instant`]s. Unlike [`Trace::span`], the interval is over by the
    /// time it is recorded, so nothing nests *under* it — it parents to
    /// the thread's innermost open span like any other event. This is
    /// how the serve layer records a request's queue-wait interval: the
    /// admission time is only known to be interesting once the worker
    /// picks the request up.
    pub fn record_span_at(
        &self,
        name: &str,
        cat: &str,
        start: Instant,
        end: Instant,
        args: &[(&str, String)],
    ) {
        let t0 = self.inner.t0;
        let ts_us = start.saturating_duration_since(t0).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        let ev = TraceEvent {
            id: self.next_id(),
            parent: Self::parent_of_new_event(),
            tid: self.register_thread(),
            name: name.to_string(),
            cat: cat.to_string(),
            track: Track::Host,
            ts_us,
            dur_us,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.push_event(ev);
    }

    /// Monotonically increasing counter, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: cell(&self.inner.counters, name),
        }
    }

    /// Log-bucketed histogram, created on first use. All histograms
    /// share one fixed √2 bucket grid (see [`HistogramSnapshot`]), so snapshots merge
    /// exactly across threads and sessions.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: cell(&self.inner.hists, name),
        }
    }

    /// Last-value / max gauge, created on first use (f64-valued, 0.0
    /// until set).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: cell(&self.inner.gauges, name),
        }
    }

    /// Snapshot the counter, gauge and histogram values. Unlike
    /// [`Trace::report`] this copies no events and creates no metric.
    pub fn metrics(&self) -> MetricSnapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&self.inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = lock(&self.inner.hists)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Snapshot the session (drains this thread's buffer first).
    pub fn report(&self) -> TraceReport {
        flush_thread_buffer();
        let events = lock(&self.inner.sink).events.clone();
        let m = self.metrics();
        TraceReport {
            events,
            counters: m.counters,
            gauges: m.gauges,
            histograms: m.histograms,
            threads: lock(&self.inner.threads).clone(),
        }
    }
}

/// The metric named `name`, created (zeroed) on first use.
fn cell<C: Default>(map: &Mutex<BTreeMap<String, Arc<C>>>, name: &str) -> Arc<C> {
    Arc::clone(lock(map).entry(name.to_string()).or_default())
}

/// Counter, gauge and histogram values of a [`Trace`] at one instant:
/// the metric half of a [`TraceReport`], without the events.
#[derive(Clone, Debug, Default)]
pub struct MetricSnapshot {
    pub counters: BTreeMap<String, i64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricSnapshot {
    /// Counter `name`; 0 when nothing recorded it (or it went negative).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map_or(0, |&v| u64::try_from(v).unwrap_or(0))
    }

    /// Gauge `name`; 0.0 when nothing set it.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

/// Keeps a trace on the thread's active stack; see [`Trace::activate`].
pub struct ActiveGuard {
    _priv: (),
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        TLS.with(|tls| {
            tls.borrow_mut().active.pop();
        });
        flush_thread_buffer();
    }
}

/// RAII host span; records a [`TraceEvent`] when dropped.
pub struct Span {
    trace: Trace,
    id: u64,
    parent: u64,
    tid: u64,
    name: String,
    args: Vec<(String, String)>,
    start: Instant,
}

impl Span {
    /// Attach an annotation after creation.
    pub fn arg(&mut self, key: &str, value: impl std::fmt::Display) {
        self.args.push((key.to_string(), value.to_string()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if let Some(pos) = tls.open_spans.iter().rposition(|&s| s == self.id) {
                tls.open_spans.remove(pos);
            }
        });
        let ts_us = self.start.duration_since(self.trace.inner.t0).as_secs_f64() * 1e6;
        let dur_us = self.start.elapsed().as_secs_f64() * 1e6;
        let ev = TraceEvent {
            id: self.id,
            parent: self.parent,
            tid: self.tid,
            name: std::mem::take(&mut self.name),
            cat: "host".to_string(),
            track: Track::Host,
            ts_us,
            dur_us,
            args: std::mem::take(&mut self.args),
        };
        self.trace.push_event(ev);
    }
}

/// Open a host span on the thread's current trace (no-op without one).
///
/// ```
/// use nufft_trace::{span, Trace};
/// let trace = Trace::new();
/// let _on = trace.activate();
/// {
///     let _s = span!("spread", dim = 3, method = "Sm");
///     // ... traced work ...
/// }
/// assert_eq!(trace.report().events.len(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Trace::current().map(|t| t.span($name))
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Trace::current().map(|t| {
            t.span_with($name, &[$((stringify!($key), format!("{}", $value))),+])
        })
    };
}

/// Handle to a named atomic counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicI64>,
}

impl Counter {
    pub fn add(&self, v: i64) {
        self.cell.fetch_add(v, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Handle to a named f64 gauge (atomic bit-cast storage).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if larger (compare-and-swap loop).
    pub fn max(&self, v: f64) {
        let mut cur = self.cell.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.cell.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// Immutable snapshot of a [`Trace`]: events plus counter, gauge, and
/// histogram values and the thread-name table.
#[derive(Clone, Debug)]
pub struct TraceReport {
    pub events: Vec<TraceEvent>,
    pub counters: BTreeMap<String, i64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Thread ordinal → name for every thread that recorded an event.
    pub threads: BTreeMap<u64, String>,
}

impl TraceReport {
    /// Chrome trace-event JSON (see [`chrome`]).
    pub fn chrome_json(&self) -> String {
        chrome::chrome_json(self)
    }

    /// Prometheus-style text dump (see [`prom`]).
    pub fn prometheus(&self) -> String {
        prom::prometheus(self)
    }

    /// Total busy time (seconds) per event name on the simulated GPU
    /// engine lanes (compute + transfers; the `Plan` stage lane is
    /// excluded to avoid double counting), sorted descending.
    pub fn device_busy_by_name(&self) -> Vec<(String, f64)> {
        let mut agg: BTreeMap<&str, f64> = BTreeMap::new();
        for ev in &self.events {
            match ev.track {
                Track::Device(Lane::Plan) | Track::Host => continue,
                Track::Device(_) => {
                    *agg.entry(ev.name.as_str()).or_default() += ev.dur_us * 1e-6;
                }
            }
        }
        let mut out: Vec<(String, f64)> =
            agg.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Events (host or device, spans or instants) with exactly this
    /// name, in record order. Useful for asserting a code path ran — or
    /// didn't: a served cache hit shows zero `"plan.build"` spans.
    pub fn spans_named(&self, name: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|ev| ev.name == name).collect()
    }

    /// Total duration (seconds) of device-lane spans whose name matches
    /// `name` exactly (e.g. the plan's `"stage.spread"` stage spans).
    pub fn device_span_total(&self, name: &str) -> f64 {
        self.events
            .iter()
            .filter(|ev| matches!(ev.track, Track::Device(_)) && ev.name == name)
            .map(|ev| ev.dur_us * 1e-6)
            .sum()
    }

    /// Map every event correlated with a request to that request's id.
    ///
    /// An event is correlated when it carries a
    /// [`REQUEST_ID_ARG`]`= <id>` annotation directly, or when any
    /// ancestor (via `parent` links) does — so the plan lifecycle spans
    /// and the device-lane kernels recorded *inside* a serve span
    /// inherit the request id without every layer knowing about
    /// requests. Returns event-id → request-id.
    pub fn request_correlation(&self) -> BTreeMap<u64, u64> {
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &self.events {
            if let Some(rid) = request_id_of(ev) {
                map.insert(ev.id, rid);
            }
        }
        // propagate down parent links to a fixpoint (events are recorded
        // child-before-parent, so one pass is not enough)
        loop {
            let mut changed = false;
            for ev in &self.events {
                if !map.contains_key(&ev.id) {
                    if let Some(&rid) = map.get(&ev.parent) {
                        map.insert(ev.id, rid);
                        changed = true;
                    }
                }
            }
            if !changed {
                return map;
            }
        }
    }

    /// Reconstruct one request's full lifecycle: every event correlated
    /// with request `id` (see [`TraceReport::request_correlation`]),
    /// host events first in timestamp order, then device-lane events in
    /// simulated-time order — admission → queue-wait → execution down to
    /// the kernel lanes. Empty when the id was never traced.
    pub fn request_timeline(&self, id: u64) -> Vec<&TraceEvent> {
        let corr = self.request_correlation();
        let mut out: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|ev| corr.get(&ev.id) == Some(&id))
            .collect();
        out.sort_by(|a, b| {
            let ka = matches!(a.track, Track::Device(_));
            let kb = matches!(b.track, Track::Device(_));
            ka.cmp(&kb)
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(a.id.cmp(&b.id))
        });
        out
    }
}

/// Annotation key marking an event as belonging to one served request;
/// the value is the decimal request id. Written by `nufft-serve`, read
/// by [`TraceReport::request_timeline`] and the Chrome exporter's flow
/// events.
pub const REQUEST_ID_ARG: &str = "request_id";

/// The request id an event carries directly, if any.
pub fn request_id_of(ev: &TraceEvent) -> Option<u64> {
    ev.args
        .iter()
        .find(|(k, _)| k == REQUEST_ID_ARG)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let trace = Trace::new();
        let _on = trace.activate();
        {
            let _outer = span!("outer", layer = "test");
            let _inner = span!("inner");
        }
        let report = trace.report();
        assert_eq!(report.events.len(), 2);
        // inner drops first, so it is recorded first
        let inner = &report.events[0];
        let outer = &report.events[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.args, vec![("layer".to_string(), "test".to_string())]);
    }

    #[test]
    fn span_macro_is_noop_without_active_trace() {
        let s = span!("orphan");
        assert!(s.is_none());
    }

    #[test]
    fn device_spans_carry_simulated_time() {
        let trace = Trace::new();
        trace.device_span(
            Lane::Compute,
            "spread_SM",
            "kernel",
            1.5e-3,
            2.5e-3,
            &[("blocks", "64".to_string())],
        );
        let report = trace.report();
        let ev = &report.events[0];
        assert_eq!(ev.track, Track::Device(Lane::Compute));
        assert!((ev.ts_us - 1500.0).abs() < 1e-9);
        assert!((ev.dur_us - 2500.0).abs() < 1e-9);
        let busy = report.device_busy_by_name();
        assert_eq!(busy[0].0, "spread_SM");
        assert!((busy[0].1 - 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn device_span_nests_under_open_host_span() {
        let trace = Trace::new();
        let _on = trace.activate();
        let outer = trace.span("host-stage");
        trace.device_span(Lane::Compute, "kernel", "kernel", 0.0, 1.0, &[]);
        let outer_id = outer.id;
        drop(outer);
        let report = trace.report();
        let dev = report.events.iter().find(|e| e.name == "kernel").unwrap();
        assert_eq!(dev.parent, outer_id);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let trace = Trace::new();
        trace.counter("bins.points").add(100);
        trace.counter("bins.points").add(23);
        trace.gauge("imbalance").max(2.0);
        trace.gauge("imbalance").max(1.0); // lower: ignored
        let r = trace.report();
        assert_eq!(r.counters["bins.points"], 123);
        assert_eq!(r.gauges["imbalance"], 2.0);
    }

    #[test]
    fn metrics_snapshot_reads_without_creating() {
        let trace = Trace::new();
        trace.counter("serve.accepted").add(3);
        trace.gauge("serve.queue_peak").max(4.0);
        trace.histogram("serve.latency").observe(1e-3);
        trace.device_span(Lane::Compute, "k", "kernel", 0.0, 1.0, &[]);
        let m = trace.metrics();
        let r = trace.report();
        assert_eq!(m.counters, r.counters);
        assert_eq!(m.gauges, r.gauges);
        assert_eq!(m.histograms.len(), r.histograms.len());
        assert_eq!(m.counter("serve.accepted"), 3);
        assert_eq!(m.gauge("serve.queue_peak"), 4.0);
        assert_eq!(m.histograms["serve.latency"].count, 1);
        // absent metrics read as zero and are not created by the read
        assert_eq!(m.counter("serve.shed"), 0);
        assert_eq!(m.gauge("serve.breaker_state"), 0.0);
        assert!(!m.histograms.contains_key("serve.queue_wait"));
        let again = trace.metrics();
        assert_eq!(again.counters.len(), 1);
        assert_eq!(again.gauges.len(), 1);
        assert_eq!(again.histograms.len(), 1);
    }

    #[test]
    fn clones_share_one_sink() {
        let trace = Trace::new();
        let clone = trace.clone();
        assert!(trace.same_session(&clone));
        clone.device_span(Lane::Alloc, "alloc:x", "alloc", 0.0, 1e-6, &[]);
        assert_eq!(trace.report().events.len(), 1);
    }

    #[test]
    fn thread_buffer_drains_at_flush_threshold() {
        let trace = Trace::new();
        let _on = trace.activate();
        // hold a span open so pushes don't auto-drain on empty stack
        let _outer = trace.span("outer");
        for i in 0..(BUF_FLUSH_LEN + 10) {
            trace.device_span(Lane::Compute, &format!("k{i}"), "kernel", 0.0, 1.0, &[]);
        }
        // the threshold drain must have moved at least one batch already
        assert!(trace.inner.sink.lock().unwrap().events.len() >= BUF_FLUSH_LEN);
    }

    #[test]
    fn spans_named_filters_exactly() {
        let trace = Trace::new();
        let _on = trace.activate();
        drop(trace.span("plan.build"));
        drop(trace.span("plan.execute"));
        drop(trace.span("plan.build"));
        let report = trace.report();
        assert_eq!(report.spans_named("plan.build").len(), 2);
        assert_eq!(report.spans_named("plan.execute").len(), 1);
        assert!(report.spans_named("plan.setpts").is_empty());
    }

    #[test]
    fn histograms_record_and_snapshot() {
        let trace = Trace::new();
        trace.histogram("serve.latency").observe(2e-3);
        trace.histogram("serve.latency").observe(8e-3);
        let r = trace.report();
        let h = &r.histograms["serve.latency"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 2e-3);
        assert_eq!(h.max, 8e-3);
        assert!(h.p50().unwrap() <= h.p99().unwrap());
    }

    #[test]
    fn events_carry_thread_ids_and_names() {
        let trace = Trace::new();
        drop(trace.span("main-side"));
        let t2 = trace.clone();
        std::thread::Builder::new()
            .name("obs-worker".into())
            .spawn(move || drop(t2.span("worker-side")))
            .unwrap()
            .join()
            .unwrap();
        let r = trace.report();
        let main_ev = r.spans_named("main-side")[0];
        let worker_ev = r.spans_named("worker-side")[0];
        assert_ne!(main_ev.tid, 0);
        assert_ne!(main_ev.tid, worker_ev.tid);
        assert_eq!(r.threads[&worker_ev.tid], "obs-worker");
    }

    #[test]
    fn record_span_at_uses_explicit_interval() {
        let trace = Trace::new();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let end = Instant::now();
        trace.record_span_at("serve.queue", "serve", start, end, &[]);
        let r = trace.report();
        let ev = r.spans_named("serve.queue")[0];
        assert_eq!(ev.track, Track::Host);
        assert!(ev.dur_us >= 1_000.0, "dur={}", ev.dur_us);
    }

    #[test]
    fn request_timeline_follows_parent_links() {
        let trace = Trace::new();
        let _on = trace.activate();
        {
            let _req = trace.span_with("serve.execute", &[(REQUEST_ID_ARG, "42".to_string())]);
            let _inner = trace.span("plan.execute");
            trace.device_span(Lane::Compute, "spread_SM", "kernel", 0.0, 1e-3, &[]);
        }
        drop(trace.span("unrelated"));
        let r = trace.report();
        let tl = r.request_timeline(42);
        let names: Vec<&str> = tl.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["serve.execute", "plan.execute", "spread_SM"]);
        assert!(r.request_timeline(43).is_empty());
        let corr = r.request_correlation();
        assert_eq!(corr.len(), 3);
        assert!(corr.values().all(|&rid| rid == 42));
    }

    #[test]
    fn report_snapshot_is_stable() {
        let trace = Trace::new();
        trace.device_span(Lane::Compute, "a", "kernel", 0.0, 1.0, &[]);
        let r1 = trace.report();
        trace.device_span(Lane::Compute, "b", "kernel", 1.0, 1.0, &[]);
        assert_eq!(r1.events.len(), 1);
        assert_eq!(trace.report().events.len(), 2);
    }
}
