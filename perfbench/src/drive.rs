//! Closed-loop and open-loop load generation over a pool or a cluster client.
//!
//! Both loops time every request from outside the system: `sent` and
//! `done` are taken around the public submit and completion calls. The
//! open loop also records when each request was *due*, so latency
//! includes any wait a stalled generator imposed on later requests.

use crate::spans::Recorder;
use apim_cluster::{ClusterClient, ClusterResponse, PendingSubmit};
use apim_serve::{JobHandle, Pool, Request, Response};
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

/// A system the load loops can send requests to.
pub trait Target: Sync {
    /// An accepted, not yet answered request.
    type Pending: Send;
    /// An answer.
    type Output: Send;
    /// Submits one request.
    ///
    /// # Errors
    ///
    /// A rendering of the rejection or transport failure.
    fn begin(&self, request: &Request) -> Result<Self::Pending, String>;
    /// The answer, if it has arrived.
    fn poll(&self, pending: &mut Self::Pending) -> Option<Result<Self::Output, String>>;
    /// How long to back off when a sweep over the pending requests found
    /// nothing new: well below the target's typical latency.
    fn idle(&self) -> Duration;
}

/// An in-process `apim-serve` pool.
#[derive(Debug)]
pub struct PoolTarget<'a>(pub &'a Pool);

impl Target for PoolTarget<'_> {
    type Pending = JobHandle;
    type Output = Response;

    fn begin(&self, request: &Request) -> Result<JobHandle, String> {
        self.0.submit(request.clone()).map_err(|e| e.to_string())
    }

    fn poll(&self, pending: &mut JobHandle) -> Option<Result<Response, String>> {
        pending.try_wait().map(Ok)
    }

    fn idle(&self) -> Duration {
        Duration::from_micros(500)
    }
}

/// A pipelined `apim-cluster` client.
#[derive(Debug)]
pub struct ClusterTarget<'a>(pub &'a ClusterClient);

impl Target for ClusterTarget<'_> {
    type Pending = PendingSubmit;
    type Output = ClusterResponse;

    fn begin(&self, request: &Request) -> Result<PendingSubmit, String> {
        self.0.begin_submit(request).map_err(|e| e.to_string())
    }

    fn poll(&self, pending: &mut PendingSubmit) -> Option<Result<ClusterResponse, String>> {
        pending.try_complete().map(|r| r.map_err(|e| e.to_string()))
    }

    fn idle(&self) -> Duration {
        Duration::from_micros(20)
    }
}

/// One finished request.
#[derive(Debug)]
pub struct Done<O> {
    /// Index into [`Phase::requests`].
    pub index: usize,
    /// When it was due (the send time in a closed loop).
    pub due: Instant,
    /// When the submit call began.
    pub sent: Instant,
    /// When the load loop saw the answer.
    pub done: Instant,
    /// The answer, or why there is none.
    pub outcome: Result<O, String>,
}

impl<O> Done<O> {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, ms.
    pub fn lag_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Everything one load phase sent and got back.
#[derive(Debug)]
pub struct Phase<O> {
    /// Every request sent, in send order.
    pub requests: Vec<Request>,
    /// One record per request, in completion order.
    pub done: Vec<Done<O>>,
    /// Phase start.
    pub start: Instant,
    /// End of the measured window (requests still in flight then are
    /// drained and checked, but not counted towards throughput).
    pub end: Instant,
}

impl<O> Phase<O> {
    /// Successful answers inside the measured window, per second.
    pub fn throughput_rps(&self, ok: impl Fn(&O) -> bool) -> f64 {
        let completed = self
            .done
            .iter()
            .filter(|d| d.done <= self.end && d.outcome.as_ref().is_ok_and(&ok))
            .count();
        completed as f64 / self.end.duration_since(self.start).as_secs_f64()
    }
}

/// A request in flight: index, due time, send time and the pending answer.
type InFlight<P> = (usize, Instant, Instant, P);

/// Sweeps `pending`, moving every answered request into `done`. Returns
/// whether anything completed.
fn harvest<T: Target>(
    target: &T,
    pending: &mut Vec<InFlight<T::Pending>>,
    done: &mut Vec<Done<T::Output>>,
) -> bool {
    let mut progressed = false;
    let mut i = 0;
    while i < pending.len() {
        if let Some(outcome) = target.poll(&mut pending[i].3) {
            let (index, due, sent, _) = pending.swap_remove(i);
            done.push(Done {
                index,
                due,
                sent,
                done: Instant::now(),
                outcome,
            });
            progressed = true;
        } else {
            i += 1;
        }
    }
    progressed
}

/// Submits one request, timing the call as a `loadgen.submit` span (request
/// id `base + index`) when traced. A rejected submit is finished on the spot.
fn send<T: Target>(
    target: &T,
    request: &Request,
    index: usize,
    due: Instant,
    trace: &mut Option<(&mut Recorder, u64)>,
) -> Result<InFlight<T::Pending>, Done<T::Output>> {
    let sent = Instant::now();
    let outcome = target.begin(request);
    if let Some((rec, base)) = trace {
        rec.record(
            "loadgen.submit",
            0,
            *base + index as u64,
            sent,
            Instant::now(),
            1,
        );
    }
    match outcome {
        Ok(pending) => Ok((index, due, sent, pending)),
        Err(e) => Err(Done {
            index,
            due,
            sent,
            done: Instant::now(),
            outcome: Err(e),
        }),
    }
}

/// Closed loop: keeps `window` requests outstanding for `duration`, sending
/// the next one as soon as one completes, then drains.
pub fn closed_loop<T: Target>(
    target: &T,
    window: usize,
    duration: Duration,
    mut next: impl FnMut() -> Request,
    mut trace: Option<(&mut Recorder, u64)>,
) -> Phase<T::Output> {
    let start = Instant::now();
    let end = start + duration;
    let mut requests = Vec::new();
    let mut pending = Vec::with_capacity(window);
    let mut done = Vec::new();
    loop {
        if Instant::now() < end {
            while pending.len() < window {
                let request = next();
                let now = Instant::now();
                match send(target, &request, requests.len(), now, &mut trace) {
                    Ok(p) => pending.push(p),
                    Err(d) => done.push(d),
                }
                requests.push(request);
            }
        } else if pending.is_empty() {
            break;
        }
        if !harvest(target, &mut pending, &mut done) {
            std::thread::sleep(target.idle());
        }
    }
    Phase {
        requests,
        done,
        start,
        end,
    }
}

/// Open loop: sends `count` requests at a fixed `rate` (requests/s), each
/// at its due time or as soon after as the generator can, while a second
/// thread collects the answers. Returns once every request is answered.
///
/// Both threads wait by yielding rather than sleeping. At an open-loop rate
/// the workers are idle most of the time, and a virtual CPU with nothing
/// runnable is halted; waking it again is up to the host. On a shared
/// 2-vCPU virtual machine that took milliseconds at times and tripled the
/// measured latency while saturated throughput moved by a few percent. A
/// yielding thread keeps the CPUs awake and gives way to any worker that
/// becomes runnable.
pub fn open_loop<T: Target>(
    target: &T,
    rate: f64,
    count: usize,
    mut next: impl FnMut() -> Request,
    mut trace: Option<(&mut Recorder, u64)>,
) -> Phase<T::Output> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(count as f64 / rate);
    let mut requests = Vec::with_capacity(count);
    let mut rejected = Vec::new();
    let (tx, rx) = mpsc::channel();
    let mut done = std::thread::scope(|scope| {
        let harvester = scope.spawn(move || {
            let mut pending = Vec::new();
            let mut done = Vec::with_capacity(count);
            let mut open = true;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(p) => pending.push(p),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                if !open && pending.is_empty() {
                    return done;
                }
                if !harvest(target, &mut pending, &mut done) {
                    std::thread::yield_now();
                }
            }
        });
        for index in 0..count {
            let request = next();
            let due = start + Duration::from_secs_f64(index as f64 / rate);
            while Instant::now() < due {
                std::thread::yield_now();
            }
            match send(target, &request, index, due, &mut trace) {
                Ok(p) => tx.send(p).expect("harvester outlives the generator"),
                Err(d) => rejected.push(d),
            }
            requests.push(request);
        }
        drop(tx);
        harvester.join().expect("harvester thread panicked")
    });
    done.append(&mut rejected);
    Phase {
        requests,
        done,
        start,
        end,
    }
}
