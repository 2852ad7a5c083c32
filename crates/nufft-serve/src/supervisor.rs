//! Worker supervision: catch panics, fail the poisoned batch, respawn.
//!
//! The serve worker owns mutable state a panic can leave inconsistent —
//! the LRU plan cache, breaker map, and half-processed batch — so the
//! supervisor never tries to resume it. Instead each respawn runs
//! [`worker_loop`](crate::server::worker_loop) from scratch: a fresh
//! plan cache (plans rebuild on demand; the cache is an optimisation,
//! not state of record) and fresh breakers. Requests the dead worker
//! held in flight are failed with [`NufftError::WorkerPanic`] — unless
//! their cells already settled, so completed work is never retracted —
//! and requests still queued are simply served by the next incarnation.
//!
//! The restart budget bounds crash-looping: once `max_respawns` is
//! spent, the supervisor shuts the queue down, sweeps the backlog with
//! typed failures, and exits. Every outstanding `Response` still
//! resolves; nothing ever hangs.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use gpu_sim::Device;
use nufft_common::NufftError;

use crate::server::{worker_loop, ServeConfig, Shared};

/// Restart policy for the supervised serve worker.
#[derive(Copy, Clone, Debug)]
pub struct SupervisorPolicy {
    /// Worker respawns allowed over the server's lifetime; the budget
    /// exhausting shuts the server down rather than crash-looping.
    pub max_respawns: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy { max_respawns: 3 }
    }
}

/// Extract a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Body of the `nufft-serve` thread: run the worker loop, absorbing
/// panics up to the respawn budget.
pub(crate) fn supervise(shared: &Arc<Shared>, dev: &Device, cfg: &ServeConfig) {
    let mut respawns = 0u32;
    loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| worker_loop(shared, dev, cfg)));
        match outcome {
            // clean exit: shutdown or drain completed
            Ok(()) => return,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                shared.metrics.counter("serve.worker_panic").inc();
                let exhausted = respawns >= cfg.supervisor.max_respawns;
                if exhausted {
                    // budget exhausted: stop admission *before* failing
                    // the in-flight batch, so a client woken by its
                    // failure deterministically sees Shutdown on resubmit
                    shared.queue.shutdown();
                }
                // fail the batch the dead worker held; cells it already
                // fulfilled are skipped (first writer wins). Stats are
                // counted per cell *before* the fulfill so a waiter the
                // fulfill wakes never reads stale counters — safe from
                // overcounting because the only other fulfiller (the
                // worker) is dead.
                let cells = std::mem::take(&mut *shared.in_flight.lock().unwrap());
                for cell in cells {
                    if cell.is_settled() {
                        continue;
                    }
                    shared.metrics.counter("serve.failed").inc();
                    cell.fail_if_unsettled(NufftError::WorkerPanic(msg.clone()));
                }
                if exhausted {
                    // sweep the backlog so no Response waiter hangs
                    for req in shared.queue.drain() {
                        if req.is_settled() {
                            continue;
                        }
                        shared.metrics.counter("serve.failed").inc();
                        req.fail_shutdown();
                    }
                    return;
                }
                respawns += 1;
                shared.metrics.counter("serve.worker_respawn").inc();
            }
        }
    }
}
