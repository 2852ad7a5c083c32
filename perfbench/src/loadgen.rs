//! Open-loop request generator for `NufftServer`.
//!
//! One thread submits every request at its due time, whether or not
//! earlier ones have finished. Completions are stamped by the waker of
//! each `Response` future, which the server fires on its worker thread
//! the moment the result is ready, so a completion is timed when it
//! happens, not when the generator gets round to it. Latency runs from
//! the request's due time, so a late generator or a stalled server
//! shows up in the requests that waited behind it.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use nufft_common::{Complex, NufftError, Points, Real, TransformSpec};
use nufft_serve::{NufftServer, Response};

/// Least time to the next send for the generator to count as idle.
pub const IDLE_GAP: Duration = Duration::from_millis(20);

/// One scheduled request.
pub struct Request<'a, T: Real> {
    /// Seconds after the start of the run at which the request is due.
    pub due_s: f64,
    pub spec: &'a TransformSpec,
    pub points: &'a Arc<Points<T>>,
    pub input: &'a [Complex<T>],
    /// Keep the response payload for a later correctness check.
    pub keep_output: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Status {
    /// Completed with an output of the expected length.
    Ok,
    /// Refused at admission (`QueueFull` or `Overloaded`).
    Refused,
    /// Any other error, a wrong output length, or no answer in time.
    Failed(String),
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Record<T: Real> {
    pub status: Status,
    /// When the request was due.
    pub due: Instant,
    /// Due time to completion (seconds); `None` unless completed.
    pub latency_s: Option<f64>,
    /// How late the generator started the submit (seconds, ≥ 0).
    pub lateness_s: f64,
    /// Time spent inside `NufftServer::submit` (seconds).
    pub admit_s: f64,
    pub output: Option<Vec<Complex<T>>>,
}

/// Fires on the server's worker thread when a response is fulfilled:
/// records the completion instant and wakes the generator.
struct Stamp {
    at: OnceLock<Instant>,
    generator: Thread,
    any: Arc<AtomicBool>,
}

impl Wake for Stamp {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let _ = self.at.set(Instant::now());
        self.any.store(true, Ordering::Release);
        self.generator.unpark();
    }
}

/// Status, latency and the kept output of a finished request.
type Finished<T> = (Status, Option<f64>, Option<Vec<Complex<T>>>);

struct Pending<T: Real> {
    index: usize,
    due: Instant,
    expected_len: usize,
    response: Response<T>,
    stamp: Arc<Stamp>,
    waker: Waker,
}

impl<T: Real> Pending<T> {
    /// Poll once; `Some` with the finished record when the response is
    /// ready.
    fn poll(&mut self, keep: bool) -> Option<Finished<T>> {
        let mut cx = Context::from_waker(&self.waker);
        let Poll::Ready(result) = Pin::new(&mut self.response).poll(&mut cx) else {
            return None;
        };
        // ready on the first poll: the waker never fired, so stamp now
        let done = *self.stamp.at.get_or_init(Instant::now);
        let latency = Some(done.saturating_duration_since(self.due).as_secs_f64());
        Some(match result {
            Ok(out) if out.len() == self.expected_len => (Status::Ok, latency, keep.then_some(out)),
            Ok(out) => (
                Status::Failed(format!(
                    "output length {} != {}",
                    out.len(),
                    self.expected_len
                )),
                None,
                None,
            ),
            Err(e) => (Status::Failed(e.to_string()), None, None),
        })
    }
}

/// Run `requests` (sorted by due time) against `server` on the calling
/// thread, then wait up to `drain` for the stragglers. `idle` runs in
/// the generator's idle time, at most once between two sends: when
/// nothing is in flight and the next request is [`IDLE_GAP`] or more
/// away. Returns one record per request, in order.
pub fn run<T: Real>(
    server: &NufftServer,
    requests: &[Request<'_, T>],
    drain: Duration,
    mut idle: impl FnMut(),
) -> Vec<Record<T>> {
    let any = Arc::new(AtomicBool::new(false));
    let mut records: Vec<Option<Record<T>>> = (0..requests.len()).map(|_| None).collect();
    let mut pending: Vec<Pending<T>> = Vec::new();
    let mut meta: Vec<(f64, f64)> = vec![(0.0, 0.0); requests.len()];

    let collect = |pending: &mut Vec<Pending<T>>,
                   records: &mut Vec<Option<Record<T>>>,
                   meta: &[(f64, f64)]| {
        if !any.swap(false, Ordering::Acquire) {
            return;
        }
        pending.retain_mut(|p| {
            if p.stamp.at.get().is_none() {
                return true;
            }
            let keep = requests[p.index].keep_output;
            match p.poll(keep) {
                Some((status, latency_s, output)) => {
                    let (lateness_s, admit_s) = meta[p.index];
                    records[p.index] = Some(Record {
                        status,
                        due: p.due,
                        latency_s,
                        lateness_s,
                        admit_s,
                        output,
                    });
                    false
                }
                None => true,
            }
        });
    };

    // a short lead so the first request is not late by construction
    let start = Instant::now() + Duration::from_millis(5);
    for (index, req) in requests.iter().enumerate() {
        let due = start + Duration::from_secs_f64(req.due_s);
        let mut idled = false;
        loop {
            collect(&mut pending, &mut records, &meta);
            let now = Instant::now();
            if now >= due {
                break;
            }
            if !idled && pending.is_empty() && due - now >= IDLE_GAP {
                idle();
                idled = true;
                continue;
            }
            thread::park_timeout(due - now);
        }
        let input = req.input.to_vec();
        let t0 = Instant::now();
        let submitted = server.submit(req.spec, req.points, input);
        let t1 = Instant::now();
        meta[index] = (
            t0.saturating_duration_since(due).as_secs_f64(),
            (t1 - t0).as_secs_f64(),
        );
        let failed = |status| Record {
            status,
            due,
            latency_s: None,
            lateness_s: meta[index].0,
            admit_s: meta[index].1,
            output: None,
        };
        match submitted {
            Ok(response) => {
                let stamp = Arc::new(Stamp {
                    at: OnceLock::new(),
                    generator: thread::current(),
                    any: Arc::clone(&any),
                });
                let mut p = Pending {
                    index,
                    due,
                    expected_len: req.spec.output_len(req.points.len()),
                    response,
                    waker: Waker::from(Arc::clone(&stamp)),
                    stamp,
                };
                // the first poll registers the waker
                match p.poll(req.keep_output) {
                    Some((status, latency_s, output)) => {
                        records[index] = Some(Record {
                            status,
                            latency_s,
                            output,
                            ..failed(Status::Ok)
                        })
                    }
                    None => pending.push(p),
                }
            }
            Err(NufftError::QueueFull { .. } | NufftError::Overloaded { .. }) => {
                records[index] = Some(failed(Status::Refused));
            }
            Err(e) => records[index] = Some(failed(Status::Failed(e.to_string()))),
        }
    }

    let deadline = Instant::now() + drain;
    while !pending.is_empty() {
        collect(&mut pending, &mut records, &meta);
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        thread::park_timeout((deadline - now).min(Duration::from_millis(50)));
    }
    for p in pending {
        p.response.cancel();
        records[p.index] = Some(Record {
            status: Status::Failed("no response before the drain timeout".into()),
            due: p.due,
            latency_s: None,
            lateness_s: meta[p.index].0,
            admit_s: meta[p.index].1,
            output: None,
        });
    }
    records
        .into_iter()
        .map(|r| r.expect("every request is recorded"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use nufft_common::{gen_points, gen_strengths, PointDist, Precision, Shape};
    use nufft_serve::ServeConfig;

    #[test]
    fn every_request_completes_and_latency_counts_from_due_time() {
        let dev = Device::v100();
        dev.set_record_timeline(false);
        let server = NufftServer::start(&dev, ServeConfig::default()).unwrap();
        let spec = TransformSpec::type1(&[16, 16])
            .eps(1e-4)
            .precision(Precision::F32);
        let pts = Arc::new(gen_points::<f32>(
            PointDist::Rand,
            2,
            200,
            Shape::d2(32, 32),
            1,
        ));
        let c = gen_strengths::<f32>(200, 2);
        let reqs: Vec<Request<'_, f32>> = (0..6)
            .map(|i| Request {
                due_s: 0.002 * f64::from(i / 2),
                spec: &spec,
                points: &pts,
                input: &c,
                keep_output: i == 0,
            })
            .collect();
        let t = Instant::now();
        let records = run(&server, &reqs, Duration::from_secs(30), || {});
        let wall = t.elapsed().as_secs_f64();
        server.shutdown();
        assert_eq!(records.len(), 6);
        for r in &records {
            assert_eq!(r.status, Status::Ok);
            let lat = r.latency_s.unwrap();
            assert!(lat > 0.0 && lat <= wall, "latency {lat} vs wall {wall}");
            assert!(r.lateness_s >= 0.0 && r.admit_s > 0.0);
        }
        assert_eq!(records[0].output.as_ref().unwrap().len(), 16 * 16);
        assert!(records[1].output.is_none());
    }
}
