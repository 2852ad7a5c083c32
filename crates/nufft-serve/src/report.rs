//! SLO summary and health verdict over a running [`NufftServer`].
//!
//! [`ServeReport`] condenses the server's `serve.*` metrics (the
//! cumulative [`ServeStats`] and the `serve.*` histograms) into the four
//! signals an operator watches: **availability** (fraction of finished
//! requests that succeeded), **latency** (end-to-end submit→fulfill
//! quantiles), **saturation** (queue-depth quantiles against capacity),
//! and **efficiency** (plan-cache hit ratio, device-fault recovery
//! rate). The configured [`SloThresholds`] turn those signals into a
//! [`Health`] verdict plus a human-readable list of breaches.
//!
//! [`NufftServer`]: crate::NufftServer
//! [`ServeStats`]: crate::ServeStats

use std::fmt;

use nufft_trace::chrome::escape;
use nufft_trace::MetricSnapshot;

use crate::server::ServeStats;

/// Three-state operator verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Health {
    /// All SLOs met.
    Healthy,
    /// Serving correctly but an operational SLO (latency or
    /// saturation) is breached.
    Degraded,
    /// The availability SLO is breached: requests are failing.
    Unhealthy,
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Unhealthy => "unhealthy",
        })
    }
}

/// Service-level objectives the report judges against.
#[derive(Copy, Clone, Debug)]
pub struct SloThresholds {
    /// Minimum fraction of finished requests that must have succeeded.
    pub min_availability: f64,
    /// Upper bound on the p99 end-to-end request latency, in seconds.
    pub max_p99_latency_s: f64,
    /// Upper bound on the p90 queue depth as a fraction of the queue
    /// capacity.
    pub max_saturation: f64,
    /// Upper bound on the fraction of arrivals refused by the shed
    /// controller (`shed / (accepted + rejected + shed)`).
    pub max_shed_rate: f64,
}

impl Default for SloThresholds {
    fn default() -> Self {
        SloThresholds {
            min_availability: 0.99,
            max_p99_latency_s: 0.5,
            max_saturation: 0.8,
            max_shed_rate: 0.05,
        }
    }
}

impl SloThresholds {
    pub fn validate_range(&self) -> bool {
        (0.0..=1.0).contains(&self.min_availability)
            && self.max_p99_latency_s > 0.0
            && self.max_saturation > 0.0
            && (0.0..=1.0).contains(&self.max_shed_rate)
    }
}

/// Latency quantile summary in seconds; `None` when the corresponding
/// histogram recorded no samples.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LatencySummary {
    pub p50: Option<f64>,
    pub p90: Option<f64>,
    pub p99: Option<f64>,
    pub p999: Option<f64>,
}

impl LatencySummary {
    fn from_hist(metrics: &MetricSnapshot, name: &str) -> LatencySummary {
        let Some(h) = metrics.histograms.get(name) else {
            return LatencySummary::default();
        };
        LatencySummary {
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            p999: h.p999(),
        }
    }
}

/// Point-in-time SLO/health summary of a server. Build via
/// [`NufftServer::report`](crate::NufftServer::report) or
/// [`ServeReport::build`] from parts.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Snapshot of the cumulative serving counters.
    pub stats: ServeStats,
    /// Completed / (completed + failed); `1.0` before anything finishes.
    pub availability: f64,
    /// Accepted / (accepted + rejected); `1.0` before anything arrives.
    pub admission_ratio: f64,
    /// Cache hits / (hits + misses); `1.0` before any lookup.
    pub cache_hit_ratio: f64,
    /// Recovered / (recovered + unrecovered) device faults from the
    /// `recovery.*` counters; `1.0` when no faults occurred. The
    /// server's plans write those counters only into an attached trace,
    /// so without one this stays `1.0`.
    pub recovery_rate: f64,
    /// Device-fault retries observed (`recovery.retries`).
    pub fault_retries: u64,
    /// End-to-end submit→fulfill latency quantiles (`serve.latency`).
    pub latency: LatencySummary,
    /// Queue-wait quantiles (`serve.queue_wait`).
    pub queue_wait: LatencySummary,
    /// Queue-depth quantiles at accept/sweep points
    /// (`serve.queue_depth_hist`); units are requests, not seconds.
    pub queue_depth: LatencySummary,
    /// p90 queue depth / queue capacity; `0.0` with no samples.
    pub saturation: f64,
    /// Shed / (accepted + rejected + shed); `0.0` before any arrival.
    pub shed_rate: f64,
    /// Circuit breakers open or half-open at snapshot time.
    pub open_breakers: usize,
    /// The thresholds this report was judged against.
    pub slo: SloThresholds,
    /// Human-readable description of each breached SLO.
    pub breaches: Vec<String>,
    /// The verdict: availability breach ⇒ [`Health::Unhealthy`];
    /// latency or saturation breach ⇒ [`Health::Degraded`].
    pub health: Health,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

impl ServeReport {
    /// Assemble a report from a stats snapshot, the server's queue
    /// capacity, and the metric snapshot that holds the `serve.*`
    /// histograms and `recovery.*` counters.
    pub fn build(
        stats: ServeStats,
        queue_capacity: usize,
        metrics: &MetricSnapshot,
        slo: SloThresholds,
    ) -> ServeReport {
        let availability = ratio(stats.completed, stats.completed + stats.failed);
        let admission_ratio = ratio(stats.accepted, stats.accepted + stats.rejected);
        let cache_hit_ratio = ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses);
        let recovered = metrics.counter("recovery.recovered");
        let unrecovered = metrics.counter("recovery.unrecovered");
        let recovery_rate = ratio(recovered, recovered + unrecovered);
        let fault_retries = metrics.counter("recovery.retries");

        let latency = LatencySummary::from_hist(metrics, "serve.latency");
        let queue_wait = LatencySummary::from_hist(metrics, "serve.queue_wait");
        let queue_depth = LatencySummary::from_hist(metrics, "serve.queue_depth_hist");
        let saturation = match queue_depth.p90 {
            Some(d) if queue_capacity > 0 => d / queue_capacity as f64,
            _ => 0.0,
        };
        let arrivals = stats.accepted + stats.rejected + stats.shed;
        let shed_rate = if arrivals == 0 {
            0.0
        } else {
            stats.shed as f64 / arrivals as f64
        };
        let open_breakers = stats.open_breakers;

        let mut breaches = Vec::new();
        let mut health = Health::Healthy;
        if availability < slo.min_availability {
            breaches.push(format!(
                "availability {:.4} < {:.4}",
                availability, slo.min_availability
            ));
            health = Health::Unhealthy;
        }
        if let Some(p99) = latency.p99 {
            if p99 > slo.max_p99_latency_s {
                breaches.push(format!(
                    "p99 latency {:.4}s > {:.4}s",
                    p99, slo.max_p99_latency_s
                ));
                if health == Health::Healthy {
                    health = Health::Degraded;
                }
            }
        }
        if saturation > slo.max_saturation {
            breaches.push(format!(
                "saturation {:.3} > {:.3} (p90 queue depth / capacity)",
                saturation, slo.max_saturation
            ));
            if health == Health::Healthy {
                health = Health::Degraded;
            }
        }
        if shed_rate > slo.max_shed_rate {
            breaches.push(format!(
                "shed rate {:.4} > {:.4} ({} shed of {} arrivals)",
                shed_rate, slo.max_shed_rate, stats.shed, arrivals
            ));
            if health == Health::Healthy {
                health = Health::Degraded;
            }
        }
        if open_breakers > 0 {
            breaches.push(format!(
                "{open_breakers} circuit breaker(s) open: some specs are fast-failing or degraded"
            ));
            if health == Health::Healthy {
                health = Health::Degraded;
            }
        }

        ServeReport {
            stats,
            availability,
            admission_ratio,
            cache_hit_ratio,
            recovery_rate,
            fault_retries,
            latency,
            queue_wait,
            queue_depth,
            saturation,
            shed_rate,
            open_breakers,
            slo,
            breaches,
            health,
        }
    }

    /// Machine-readable JSON rendering of the report (schema
    /// `nufft-serve-report/v1`), parseable with
    /// `nufft_trace::json::Json::parse`. Missing quantiles render as
    /// `null`.
    pub fn to_json(&self) -> String {
        fn q(v: Option<f64>) -> String {
            match v {
                Some(v) => format!("{v}"),
                None => "null".to_string(),
            }
        }
        fn quants(l: &LatencySummary) -> String {
            format!(
                "{{\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                q(l.p50),
                q(l.p90),
                q(l.p99),
                q(l.p999)
            )
        }
        let s = &self.stats;
        let breaches: Vec<String> = self
            .breaches
            .iter()
            .map(|b| format!("\"{}\"", escape(b)))
            .collect();
        format!(
            concat!(
                "{{\"schema\":\"nufft-serve-report/v1\",",
                "\"health\":\"{health}\",",
                "\"availability\":{availability},",
                "\"shed_rate\":{shed_rate},",
                "\"open_breakers\":{open_breakers},",
                "\"saturation\":{saturation},",
                "\"admission_ratio\":{admission_ratio},",
                "\"cache_hit_ratio\":{cache_hit_ratio},",
                "\"recovery_rate\":{recovery_rate},",
                "\"fault_retries\":{fault_retries},",
                "\"latency_s\":{latency},",
                "\"queue_wait_s\":{queue_wait},",
                "\"stats\":{{",
                "\"accepted\":{accepted},\"rejected\":{rejected},\"shed\":{shed},",
                "\"deadline_exceeded\":{deadline_exceeded},\"cancelled\":{cancelled},",
                "\"completed\":{completed},\"failed\":{failed},",
                "\"quarantined\":{quarantined},\"breaker_opens\":{breaker_opens},",
                "\"breaker_fastfails\":{breaker_fastfails},\"brownouts\":{brownouts},",
                "\"worker_panics\":{worker_panics},\"worker_respawns\":{worker_respawns},",
                "\"batches\":{batches},\"coalesced\":{coalesced},",
                "\"peak_queue_depth\":{peak_queue_depth}}},",
                "\"breaches\":[{breaches}]}}"
            ),
            health = self.health,
            availability = self.availability,
            shed_rate = self.shed_rate,
            open_breakers = self.open_breakers,
            saturation = self.saturation,
            admission_ratio = self.admission_ratio,
            cache_hit_ratio = self.cache_hit_ratio,
            recovery_rate = self.recovery_rate,
            fault_retries = self.fault_retries,
            latency = quants(&self.latency),
            queue_wait = quants(&self.queue_wait),
            accepted = s.accepted,
            rejected = s.rejected,
            shed = s.shed,
            deadline_exceeded = s.deadline_exceeded,
            cancelled = s.cancelled,
            completed = s.completed,
            failed = s.failed,
            quarantined = s.quarantined,
            breaker_opens = s.breaker_opens,
            breaker_fastfails = s.breaker_fastfails,
            brownouts = s.brownouts,
            worker_panics = s.worker_panics,
            worker_respawns = s.worker_respawns,
            batches = s.batches,
            coalesced = s.coalesced,
            peak_queue_depth = s.peak_queue_depth,
            breaches = breaches.join(","),
        )
    }
}

fn fmt_q(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.6}", v),
        None => "-".to_string(),
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "serve health: {}", self.health)?;
        writeln!(
            f,
            "  availability {:.4} (completed {} / failed {} / rejected {})",
            self.availability, self.stats.completed, self.stats.failed, self.stats.rejected
        )?;
        writeln!(
            f,
            "  latency s    p50 {} p90 {} p99 {} p999 {}",
            fmt_q(self.latency.p50),
            fmt_q(self.latency.p90),
            fmt_q(self.latency.p99),
            fmt_q(self.latency.p999),
        )?;
        writeln!(
            f,
            "  queue wait s p50 {} p99 {}",
            fmt_q(self.queue_wait.p50),
            fmt_q(self.queue_wait.p99),
        )?;
        writeln!(
            f,
            "  saturation   {:.3} (queue depth p50 {} p90 {}, peak {})",
            self.saturation,
            fmt_q(self.queue_depth.p50),
            fmt_q(self.queue_depth.p90),
            self.stats.peak_queue_depth,
        )?;
        writeln!(
            f,
            "  cache        hit ratio {:.3} ({} hits / {} misses / {} evictions)",
            self.cache_hit_ratio,
            self.stats.cache_hits,
            self.stats.cache_misses,
            self.stats.cache_evictions,
        )?;
        writeln!(
            f,
            "  recovery     rate {:.3} ({} retries)",
            self.recovery_rate, self.fault_retries,
        )?;
        writeln!(
            f,
            "  overload     shed rate {:.4} ({} shed), {} breaker(s) open, {} brownout(s)",
            self.shed_rate, self.stats.shed, self.open_breakers, self.stats.brownouts,
        )?;
        if self.stats.worker_panics > 0 {
            writeln!(
                f,
                "  supervision  {} worker panic(s), {} respawn(s)",
                self.stats.worker_panics, self.stats.worker_respawns,
            )?;
        }
        for b in &self.breaches {
            writeln!(f, "  breach: {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_trace::Trace;

    /// Metrics with nothing recorded.
    fn none() -> MetricSnapshot {
        MetricSnapshot::default()
    }

    fn stats(completed: u64, failed: u64) -> ServeStats {
        ServeStats {
            accepted: completed + failed,
            completed,
            failed,
            ..ServeStats::default()
        }
    }

    #[test]
    fn empty_server_is_healthy() {
        let r = ServeReport::build(ServeStats::default(), 64, &none(), SloThresholds::default());
        assert_eq!(r.health, Health::Healthy);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.latency.p99, None);
        assert!(r.breaches.is_empty());
    }

    #[test]
    fn failures_breach_availability_and_mark_unhealthy() {
        let r = ServeReport::build(stats(90, 10), 64, &none(), SloThresholds::default());
        assert_eq!(r.health, Health::Unhealthy);
        assert!((r.availability - 0.9).abs() < 1e-12);
        assert_eq!(r.breaches.len(), 1);
        assert!(r.breaches[0].contains("availability"));
    }

    #[test]
    fn slow_p99_marks_degraded_not_unhealthy() {
        let trace = Trace::new();
        let h = trace.histogram("serve.latency");
        for _ in 0..95 {
            h.observe(0.001);
        }
        for _ in 0..5 {
            h.observe(10.0);
        }
        let metrics = trace.metrics();
        let r = ServeReport::build(stats(100, 0), 64, &metrics, SloThresholds::default());
        assert_eq!(r.health, Health::Degraded);
        assert!(r.breaches[0].contains("p99 latency"));
    }

    #[test]
    fn deep_queue_breaches_saturation() {
        let trace = Trace::new();
        let h = trace.histogram("serve.queue_depth_hist");
        for _ in 0..20 {
            h.observe(60.0);
        }
        let metrics = trace.metrics();
        let r = ServeReport::build(stats(20, 0), 64, &metrics, SloThresholds::default());
        assert!(r.saturation > 0.8, "saturation = {}", r.saturation);
        assert_eq!(r.health, Health::Degraded);
    }

    #[test]
    fn recovery_counters_feed_the_rate() {
        let trace = Trace::new();
        trace.counter("recovery.recovered").add(3);
        trace.counter("recovery.unrecovered").add(1);
        trace.counter("recovery.retries").add(5);
        let metrics = trace.metrics();
        let r = ServeReport::build(stats(4, 0), 64, &metrics, SloThresholds::default());
        assert!((r.recovery_rate - 0.75).abs() < 1e-12);
        assert_eq!(r.fault_retries, 5);
    }

    #[test]
    fn display_renders_the_dashboard_lines() {
        let r = ServeReport::build(stats(0, 1), 64, &none(), SloThresholds::default());
        let text = r.to_string();
        assert!(text.contains("serve health: unhealthy"));
        assert!(text.contains("availability 0.0000"));
        assert!(text.contains("breach: availability"));
        assert!(text.contains("shed rate 0.0000"));
    }

    #[test]
    fn shed_rate_breach_marks_degraded() {
        let s = ServeStats {
            accepted: 80,
            shed: 20,
            completed: 80,
            ..ServeStats::default()
        };
        let r = ServeReport::build(s, 64, &none(), SloThresholds::default());
        assert!((r.shed_rate - 0.2).abs() < 1e-12);
        assert_eq!(r.health, Health::Degraded);
        assert!(r.breaches.iter().any(|b| b.contains("shed rate")));
    }

    #[test]
    fn open_breakers_mark_degraded() {
        let s = ServeStats {
            accepted: 10,
            completed: 10,
            open_breakers: 2,
            ..ServeStats::default()
        };
        let r = ServeReport::build(s, 64, &none(), SloThresholds::default());
        assert_eq!(r.health, Health::Degraded);
        assert!(r.breaches.iter().any(|b| b.contains("circuit breaker")));
    }

    #[test]
    fn availability_breach_outranks_overload_breaches() {
        let s = ServeStats {
            accepted: 50,
            shed: 50,
            completed: 10,
            failed: 40,
            open_breakers: 1,
            ..ServeStats::default()
        };
        let r = ServeReport::build(s, 64, &none(), SloThresholds::default());
        assert_eq!(r.health, Health::Unhealthy);
        assert!(r.breaches.len() >= 3);
    }

    #[test]
    fn json_round_trips_through_the_trace_parser() {
        let s = ServeStats {
            accepted: 9,
            shed: 1,
            completed: 8,
            failed: 1,
            breaker_opens: 1,
            open_breakers: 1,
            ..ServeStats::default()
        };
        let r = ServeReport::build(s, 8, &none(), SloThresholds::default());
        let json = r.to_json();
        let parsed = nufft_trace::json::Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("nufft-serve-report/v1")
        );
        assert_eq!(
            parsed.get("health").and_then(|v| v.as_str()),
            Some(r.health.to_string()).as_deref()
        );
        let shed_rate = parsed
            .get("shed_rate")
            .and_then(|v| v.as_f64())
            .expect("shed_rate present");
        assert!((shed_rate - 0.1).abs() < 1e-12);
        let stats = parsed.get("stats").expect("stats object");
        assert_eq!(stats.get("shed").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            parsed.get("open_breakers").and_then(|v| v.as_f64()),
            Some(1.0)
        );
        // missing quantiles render as null, not a parse error
        assert!(parsed.get("latency_s").unwrap().get("p99").is_some());
    }
}
