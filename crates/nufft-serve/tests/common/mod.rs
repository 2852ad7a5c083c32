//! Assertion shared by the serve integration suites.

use nufft_serve::ServeStats;
use nufft_trace::TraceReport;

/// Assert that every [`ServeStats`] field equals the `serve.*` counter
/// or gauge it corresponds to in `report`; a metric nothing recorded
/// reads as zero. The destructuring names every field, so a new stat
/// without a metric fails to compile here.
pub fn assert_stats_match_trace(stats: &ServeStats, report: &TraceReport) {
    let ServeStats {
        accepted,
        rejected,
        shed,
        deadline_exceeded,
        cancelled,
        completed,
        failed,
        cache_hits,
        cache_misses,
        cache_evictions,
        quarantined,
        breaker_opens,
        breaker_fastfails,
        brownouts,
        worker_panics,
        worker_respawns,
        open_breakers,
        setpts_reuses,
        batches,
        coalesced,
        peak_queue_depth,
    } = stats.clone();
    let counters = [
        ("accepted", accepted, "serve.accepted"),
        ("rejected", rejected, "serve.rejected"),
        ("shed", shed, "serve.shed"),
        (
            "deadline_exceeded",
            deadline_exceeded,
            "serve.deadline_exceeded",
        ),
        ("cancelled", cancelled, "serve.cancelled"),
        ("completed", completed, "serve.completed"),
        ("failed", failed, "serve.failed"),
        ("cache_hits", cache_hits, "serve.cache_hit"),
        ("cache_misses", cache_misses, "serve.cache_miss"),
        ("cache_evictions", cache_evictions, "serve.cache_evict"),
        ("quarantined", quarantined, "serve.quarantine"),
        ("breaker_opens", breaker_opens, "serve.breaker_open"),
        (
            "breaker_fastfails",
            breaker_fastfails,
            "serve.breaker_fastfail",
        ),
        ("brownouts", brownouts, "serve.brownout"),
        ("worker_panics", worker_panics, "serve.worker_panic"),
        ("worker_respawns", worker_respawns, "serve.worker_respawn"),
        ("setpts_reuses", setpts_reuses, "serve.setpts_reuse"),
        ("batches", batches, "serve.batches"),
        ("coalesced", coalesced, "serve.coalesced"),
    ];
    for (field, value, metric) in counters {
        let recorded = report.counters.get(metric).copied().unwrap_or(0);
        assert_eq!(
            i64::try_from(value).ok(),
            Some(recorded),
            "ServeStats::{field} disagrees with counter {metric}"
        );
    }
    let gauges = [
        ("open_breakers", open_breakers, "serve.breaker_state"),
        ("peak_queue_depth", peak_queue_depth, "serve.queue_peak"),
    ];
    for (field, value, metric) in gauges {
        let recorded = report.gauges.get(metric).copied().unwrap_or(0.0);
        assert_eq!(
            value as f64, recorded,
            "ServeStats::{field} disagrees with gauge {metric}"
        );
    }
}
