//! NUFFT-as-a-service: an async front end over the workspace's GPU
//! NUFFT plans.
//!
//! The plan lifecycle (`plan` / `setpts` / `execute`) is the right API
//! for a single caller amortizing one geometry, but a *service* sees
//! interleaved requests from many callers. This crate adds the serving
//! layer the paper's library leaves to the user:
//!
//! * **Requests are [`TransformSpec`]s** — the canonical value type
//!   from `nufft-common` describing *what* to compute (type, modes,
//!   tolerance, precision, method, mode order, fine sizing). The same
//!   value is the plan-cache key and what `PlanBuilder::from_spec`
//!   consumes, so "request", "cache identity" and "plan recipe" cannot
//!   drift apart.
//! * **An LRU plan cache** keyed by spec: a repeated spec skips plan
//!   construction entirely (fine-grid sizing, kernel selection, FFT
//!   plan, device allocations), and repeated points on the same spec
//!   skip the bin-sort in `set_pts` too.
//! * **Request coalescing**: each queue sweep groups requests with the
//!   same spec and bit-identical points into stacked
//!   `execute_many` launches (at most `max_batch` per launch), riding
//!   the plan's two-stream pipeline. Batched results are bitwise
//!   identical to sequential execution.
//! * **Admission control and backpressure**: a bounded queue refuses
//!   overflow with [`NufftError::QueueFull`](nufft_common::NufftError)
//!   ([`NufftServer::submit`]) or parks the producer
//!   ([`NufftServer::submit_wait`]). Every statistic is an always-on
//!   `serve.*` counter, gauge or histogram: [`NufftServer::stats`] and
//!   [`NufftServer::report`] read them with or without a trace, and an
//!   attached trace exports them through the `nufft-trace` Prometheus
//!   dump.
//! * **Fault isolation**: device faults ride each plan's recovery
//!   layer; an unrecovered fault fails only the affected requests with
//!   a typed [`NufftError::Request`](nufft_common::NufftError) chain
//!   (stage + root cause) — the queue keeps serving. A *persistent*
//!   fault quarantines the cached plan (the next same-spec request
//!   rebuilds) and feeds the spec's circuit breaker.
//! * **Overload and fault containment** (see `DESIGN.md` §5k): a shed
//!   controller ([`ShedPolicy`]) rejects excess demand early once
//!   recent queue waits blow past target; per-request deadlines
//!   ([`SubmitOptions`]) and [`Response::cancel`] resolve doomed work
//!   without device time; per-spec circuit breakers
//!   ([`BreakerPolicy`]) fast-fail or degrade ([`Brownout`]) specs
//!   with persistent fault streaks; and a supervisor
//!   ([`SupervisorPolicy`]) catches worker panics, fails the poisoned
//!   batch typed, and respawns within a restart budget. Graceful
//!   shutdown ([`NufftServer::drain`]) finishes the backlog first.
//!
//! The async runtime is std-only: [`Response`] implements
//! `std::future::Future`, and [`block_on`] / [`join_all`] drive it
//! without an external executor (any other executor works too).
//!
//! ```
//! use std::sync::Arc;
//! use cufinufft::prelude::*;
//! use gpu_sim::Device;
//! use nufft_common::{gen_points, gen_strengths, PointDist, Shape};
//! use nufft_serve::{NufftServer, ServeConfig};
//!
//! let server = NufftServer::start(&Device::v100(), ServeConfig::default()).unwrap();
//! let spec = TransformSpec::type1(&[32, 32]).eps(1e-5).precision(Precision::F32);
//! let pts = Arc::new(gen_points::<f32>(
//!     PointDist::Rand, 2, 500, Shape::d2(64, 64), 7,
//! ));
//! let strengths = gen_strengths::<f32>(500, 8);
//!
//! let response = server.submit(&spec, &pts, strengths).unwrap();
//! let modes = nufft_serve::block_on(response).unwrap();
//! assert_eq!(modes.len(), 32 * 32);
//! ```

#![forbid(unsafe_code)]

mod breaker;
mod exec;
mod future;
mod lru;
mod queue;
mod report;
mod server;
mod supervisor;

pub use breaker::{BreakerDecision, BreakerPolicy, BreakerSet, BreakerState, Brownout};
pub use exec::{block_on, join_all};
pub use future::Response;
pub use lru::LruCache;
pub use report::{Health, ServeReport, SloThresholds};
pub use server::{
    ChaosHook, NufftServer, RequestId, ServeConfig, ServeStats, ShedPolicy, SubmitOptions,
};
pub use supervisor::SupervisorPolicy;

// The request vocabulary is nufft-common's; re-export it so a serve
// client needs only this crate.
pub use nufft_common::{Method, ModeOrder, Precision, TransformSpec, TransformType};
