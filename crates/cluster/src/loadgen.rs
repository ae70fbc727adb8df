//! Cluster load generation and the kill-a-node smoke scenario.
//!
//! [`run`] drives the same seeded request mix as `apim-serve`'s loadgen
//! through a [`ClusterClient`] from a team of closed-loop submitter
//! threads, then pulls the fleet metrics. [`smoke`] wraps it in the CI
//! robustness gate: spawn a loopback fleet, kill a node once a quarter of
//! the responses are in, and require that **every** submitted request is
//! still answered successfully — failover must hide the loss completely.
//! [`soak`] is the sustained transport stressor: many thousands of echo
//! requests over many concurrent logical streams, driven either as a
//! pipelined window from a few threads or as the closed-loop baseline (one
//! thread per stream, each waiting out its RPC), so the two are directly
//! comparable over the same transport.

use crate::client::{ClusterClient, ClusterConfig, ClusterError, PendingSubmit};
use crate::fleet::FleetSnapshot;
use crate::harness::LoopbackCluster;
use apim_serve::{loadgen::request_mix, JobKind, PoolConfig, Request, TenantId};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of a cluster load-generation run.
#[derive(Debug, Clone)]
pub struct ClusterLoadgenConfig {
    /// Requests to offer.
    pub requests: u64,
    /// PRNG seed for the request mix (same mix as `apim-serve` loadgen).
    pub seed: u64,
    /// Closed-loop submitter threads.
    pub concurrency: usize,
    /// The client/router under test.
    pub cluster: ClusterConfig,
}

impl Default for ClusterLoadgenConfig {
    fn default() -> Self {
        ClusterLoadgenConfig {
            requests: 200,
            seed: 7,
            concurrency: 8,
            cluster: ClusterConfig::default(),
        }
    }
}

/// Outcome of a cluster load-generation run.
#[derive(Debug, Clone)]
pub struct ClusterLoadgenReport {
    /// Requests offered.
    pub offered: u64,
    /// Requests answered successfully (after any failover).
    pub succeeded: u64,
    /// Requests rejected by a node's admission control.
    pub rejected: u64,
    /// Requests lost: no node could answer within the retry budget.
    pub lost: u64,
    /// Requests that survived at least one transport failover.
    pub failovers: u64,
    /// Wall-clock time, first submission to last response.
    pub elapsed: Duration,
    /// Successful responses per second.
    pub throughput_rps: f64,
    /// XOR of every successful result digest — comparable to the
    /// single-pool loadgen checksum for the same seed and request count.
    pub checksum: u64,
    /// Fleet metrics pulled after the run.
    pub fleet: FleetSnapshot,
}

impl fmt::Display for ClusterLoadgenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster-loadgen: {} offered, {} succeeded, {} rejected, {} lost, {} failed over",
            self.offered, self.succeeded, self.rejected, self.lost, self.failovers
        )?;
        writeln!(
            f,
            "elapsed {:.3} s, throughput {:.1} req/s, checksum {:#018x}",
            self.elapsed.as_secs_f64(),
            self.throughput_rps,
            self.checksum
        )?;
        write!(f, "{}", self.fleet)
    }
}

/// Runs the seeded mix through a cluster client, invoking `on_response`
/// (with the running success count) after every answered request — the
/// smoke scenario's kill trigger hangs off this.
///
/// # Errors
///
/// Propagates client construction failures; per-request failures are
/// counted in the report instead.
pub fn run_with(
    config: &ClusterLoadgenConfig,
    on_response: impl Fn(u64) + Sync,
) -> Result<ClusterLoadgenReport, ClusterError> {
    let client = ClusterClient::connect(config.cluster.clone())?;
    let requests = request_mix(config.seed, config.requests);
    let offered = requests.len() as u64;
    let succeeded = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    let failovers = AtomicU64::new(0);
    let checksum = Mutex::new(0u64);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.concurrency.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(request): Option<&Request> = requests.get(index) else {
                    return;
                };
                match client.submit(request) {
                    Ok(response) => {
                        *checksum.lock().expect("checksum") ^= response.output.digest;
                        if response.failovers > 0 {
                            failovers.fetch_add(1, Ordering::Relaxed);
                        }
                        on_response(succeeded.fetch_add(1, Ordering::Relaxed) + 1);
                    }
                    Err(ClusterError::Rejected(_)) => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                        on_response(succeeded.load(Ordering::Relaxed));
                    }
                    Err(_) => {
                        lost.fetch_add(1, Ordering::Relaxed);
                        on_response(succeeded.load(Ordering::Relaxed));
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let fleet = client.pull_metrics()?;
    let succeeded = succeeded.into_inner();
    Ok(ClusterLoadgenReport {
        offered,
        succeeded,
        rejected: rejected.into_inner(),
        lost: lost.into_inner(),
        failovers: failovers.into_inner(),
        elapsed,
        throughput_rps: succeeded as f64 / elapsed.as_secs_f64().max(1e-9),
        checksum: checksum.into_inner().expect("checksum"),
        fleet,
    })
}

/// [`run_with`] without a response hook.
///
/// # Errors
///
/// See [`run_with`].
pub fn run(config: &ClusterLoadgenConfig) -> Result<ClusterLoadgenReport, ClusterError> {
    run_with(config, |_| {})
}

/// Configuration of the [`smoke`] scenario.
#[derive(Debug, Clone)]
pub struct SmokeConfig {
    /// Loopback nodes to spawn.
    pub nodes: usize,
    /// Requests to offer.
    pub requests: u64,
    /// Mix seed.
    pub seed: u64,
    /// Worker threads per node.
    pub workers: usize,
    /// Kill node 0 once this many responses are in (`None` = requests/4).
    pub kill_after: Option<u64>,
}

impl Default for SmokeConfig {
    fn default() -> Self {
        SmokeConfig {
            nodes: 2,
            requests: 200,
            seed: 7,
            workers: 2,
            kill_after: None,
        }
    }
}

/// Outcome of the smoke scenario.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// The load report against the degraded fleet.
    pub loadgen: ClusterLoadgenReport,
    /// Index of the node that was killed mid-run.
    pub killed_node: usize,
    /// Response count at which the kill fired.
    pub killed_after: u64,
}

impl SmokeReport {
    /// The CI gate: every offered request was answered (none rejected —
    /// queues are sized for the offered load — and none lost to the kill).
    pub fn passed(&self) -> bool {
        self.loadgen.lost == 0
            && self.loadgen.rejected == 0
            && self.loadgen.succeeded == self.loadgen.offered
    }
}

impl fmt::Display for SmokeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster-smoke: killed node {} after {} responses; {}",
            self.killed_node,
            self.killed_after,
            if self.passed() {
                "zero requests lost — PASS"
            } else {
                "LOST REQUESTS — FAIL"
            }
        )?;
        write!(f, "{}", self.loadgen)
    }
}

/// Spawns a loopback fleet, runs the mix, kills node 0 mid-run and
/// reports whether failover hid the loss.
///
/// # Errors
///
/// Propagates harness spawn and client construction failures.
pub fn smoke(config: &SmokeConfig) -> Result<SmokeReport, ClusterError> {
    let pool = PoolConfig {
        workers: config.workers.max(1),
        // Deep enough that admission control never rejects the offered
        // load, even after it all fails over to one node: the gate is
        // about losing accepted requests, not backpressure.
        queue_depth: usize::try_from(config.requests).unwrap_or(usize::MAX),
        ..PoolConfig::default()
    };
    let cluster = LoopbackCluster::spawn(config.nodes.max(1), &pool).map_err(ClusterError::Io)?;
    let kill_at = config
        .kill_after
        .unwrap_or(config.requests / 4)
        .min(config.requests.saturating_sub(1));
    let harness = Mutex::new(Some(cluster));
    let killed_after = AtomicU64::new(0);
    let loadgen_config = ClusterLoadgenConfig {
        requests: config.requests,
        seed: config.seed,
        concurrency: 8,
        cluster: harness
            .lock()
            .expect("harness")
            .as_ref()
            .expect("alive")
            .client_config(),
    };
    let report = run_with(&loadgen_config, |succeeded| {
        if succeeded >= kill_at {
            let mut slot = harness.lock().expect("harness");
            if let Some(fleet) = slot.as_mut() {
                if fleet.alive() == config.nodes.max(1) {
                    fleet.kill(0);
                    killed_after.store(succeeded, Ordering::Relaxed);
                }
            }
        }
    })?;
    if let Some(fleet) = harness.lock().expect("harness").take() {
        fleet.shutdown();
    }
    Ok(SmokeReport {
        loadgen: report,
        killed_node: 0,
        killed_after: killed_after.load(Ordering::Relaxed),
    })
}

/// Configuration of the sustained [`soak`] scenario.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Total requests to push through the fleet.
    pub requests: u64,
    /// Concurrent logical streams; each keeps one request in flight at all
    /// times, so this is the offered concurrency.
    pub streams: usize,
    /// Loopback nodes to spawn.
    pub nodes: usize,
    /// Worker threads per node pool.
    pub workers: usize,
    /// `true`: a pipelined window — every stream's request in flight at
    /// once via [`ClusterClient::begin_submit`]. `false`: the closed-loop
    /// baseline — one thread per stream (capped at
    /// [`SoakConfig::MAX_CLOSED_LOOP_THREADS`]) through
    /// [`ClusterClient::submit`].
    pub pipelined: bool,
    /// Driver threads sharing the logical streams (pipelined mode only —
    /// the whole point is that stream count and thread count decouple).
    pub driver_threads: usize,
}

impl SoakConfig {
    /// OS-thread cap for the closed-loop baseline driver.
    pub const MAX_CLOSED_LOOP_THREADS: usize = 256;
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            requests: 10_000,
            streams: 256,
            nodes: 1,
            workers: 2,
            pipelined: true,
            driver_threads: 4,
        }
    }
}

/// Outcome of a [`soak`] run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Requests offered.
    pub offered: u64,
    /// Requests answered successfully.
    pub succeeded: u64,
    /// Requests rejected by admission control (queues are sized so this
    /// should stay zero).
    pub rejected: u64,
    /// Requests lost: transport failure that even a failover retry
    /// through [`ClusterClient::submit`] could not recover.
    pub lost: u64,
    /// Concurrent logical streams driven.
    pub streams: usize,
    /// Which driver ran: the pipelined window or the closed loop.
    pub pipelined: bool,
    /// Wall-clock time, first submission to last response.
    pub elapsed: Duration,
    /// Successful responses per second.
    pub throughput_rps: f64,
    /// Median end-to-end request latency, µs.
    pub p50_us: u64,
    /// 99th-percentile end-to-end request latency, µs.
    pub p99_us: u64,
    /// XOR of every successful result digest — identical across drivers
    /// for the same request count, so the baseline comparison also checks
    /// bit-identity.
    pub checksum: u64,
    /// Fleet metrics pulled right before shutdown (includes the
    /// open-connection and in-flight-request gauges).
    pub fleet: FleetSnapshot,
}

impl SoakReport {
    /// The soak gate: every offered request answered successfully.
    pub fn passed(&self) -> bool {
        self.lost == 0 && self.rejected == 0 && self.succeeded == self.offered
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster-soak [{}]: {} offered over {} streams, {} succeeded, {} rejected, {} lost",
            if self.pipelined {
                "pipelined"
            } else {
                "closed-loop"
            },
            self.offered,
            self.streams,
            self.succeeded,
            self.rejected,
            self.lost
        )?;
        writeln!(
            f,
            "elapsed {:.3} s, throughput {:.1} req/s, p50 {} µs, p99 {} µs, checksum {:#018x}",
            self.elapsed.as_secs_f64(),
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.checksum
        )?;
        write!(f, "{}", self.fleet)
    }
}

/// Per-thread result accumulator, merged once at the end of the drive.
#[derive(Default)]
struct SoakTally {
    succeeded: u64,
    rejected: u64,
    lost: u64,
    checksum: u64,
    latencies: Vec<u64>,
}

impl SoakTally {
    fn record(
        &mut self,
        outcome: Result<crate::client::ClusterResponse, ClusterError>,
        started: Instant,
    ) {
        match outcome {
            Ok(response) => {
                self.succeeded += 1;
                self.checksum ^= response.output.digest;
                self.latencies
                    .push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
            }
            Err(ClusterError::Rejected(_)) => self.rejected += 1,
            Err(_) => self.lost += 1,
        }
    }

    fn merge_into(self, total: &Mutex<SoakTally>) {
        let mut t = total.lock().expect("soak tally");
        t.succeeded += self.succeeded;
        t.rejected += self.rejected;
        t.lost += self.lost;
        t.checksum ^= self.checksum;
        t.latencies.extend(self.latencies);
    }
}

/// The soak request for global index `index` on logical stream `stream`:
/// an echo probe, so the measurement isolates transport cost from
/// simulator work, with the payload doubling as an integrity check.
fn soak_request(index: u64, stream: usize) -> Request {
    Request::new(JobKind::Echo { payload: index }).tenant(TenantId(stream as u16))
}

/// Spawns a loopback fleet and pushes [`SoakConfig::requests`] echo
/// requests through it from [`SoakConfig::streams`] concurrent logical
/// streams.
///
/// Pipelined mode keeps every stream's request in flight from a handful
/// of driver threads via [`ClusterClient::begin_submit`]; a pipelined
/// transport failure is retried once through the failover path of
/// [`ClusterClient::submit`] before the request counts as lost.
/// Closed-loop mode is the thread-per-stream baseline, each thread
/// waiting out one [`ClusterClient::submit`] before issuing the next.
///
/// # Errors
///
/// Propagates harness spawn and client construction failures; per-request
/// failures are counted in the report instead.
pub fn soak(config: &SoakConfig) -> Result<SoakReport, ClusterError> {
    let streams = config.streams.max(1);
    let pool = PoolConfig {
        workers: config.workers.max(1),
        // Deep enough that the full stream concurrency never trips
        // admission control: the soak measures transport, not backpressure.
        queue_depth: (streams * 2 + 64).max(1024),
        ..PoolConfig::default()
    };
    let cluster = LoopbackCluster::spawn(config.nodes.max(1), &pool).map_err(ClusterError::Io)?;
    let mut client_config = cluster.client_config();
    // Spread heavy stream counts over more multiplexed sockets so no
    // single connection carries the whole pipeline.
    client_config.conns_per_node = (streams / 128).clamp(4, 32);
    client_config.rpc_timeout = Duration::from_secs(60);
    let client = ClusterClient::connect(client_config)?;

    let next = AtomicU64::new(0);
    let total = config.requests;
    let tally = Mutex::new(SoakTally::default());
    let started = Instant::now();
    if config.pipelined {
        drive_pipelined(config, streams, &client, &next, total, &tally);
    } else {
        drive_closed_loop(streams, &client, &next, total, &tally);
    }
    let elapsed = started.elapsed();
    let fleet = client.pull_metrics()?;
    cluster.shutdown();

    let mut tally = tally.into_inner().expect("soak tally");
    tally.latencies.sort_unstable();
    let percentile = |q: f64| -> u64 {
        if tally.latencies.is_empty() {
            return 0;
        }
        let rank = ((tally.latencies.len() as f64) * q).ceil() as usize;
        tally.latencies[rank.clamp(1, tally.latencies.len()) - 1]
    };
    Ok(SoakReport {
        offered: total,
        succeeded: tally.succeeded,
        rejected: tally.rejected,
        lost: tally.lost,
        streams,
        pipelined: config.pipelined,
        elapsed,
        throughput_rps: tally.succeeded as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        checksum: tally.checksum,
        fleet,
    })
}

/// Pipelined driver: each thread owns a window of logical streams and
/// keeps every one of them occupied, harvesting completions out of order.
fn drive_pipelined(
    config: &SoakConfig,
    streams: usize,
    client: &ClusterClient,
    next: &AtomicU64,
    total: u64,
    tally: &Mutex<SoakTally>,
) {
    let threads = config.driver_threads.clamp(1, streams);
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let my_streams = (streams / threads) + usize::from(thread < streams % threads);
            let base = (streams / threads) * thread + thread.min(streams % threads);
            scope.spawn(move || {
                let mut local = SoakTally::default();
                let mut window: Vec<Option<(Instant, u64, PendingSubmit)>> =
                    (0..my_streams).map(|_| None).collect();
                let mut exhausted = false;
                loop {
                    let mut progress = false;
                    let mut inflight = 0usize;
                    for (slot_index, slot) in window.iter_mut().enumerate() {
                        if let Some((begun, index, pending)) = slot {
                            if let Some(outcome) = pending.try_complete() {
                                let (begun, index) = (*begun, *index);
                                // A transport failure gets one recovery
                                // pass through the failover path of
                                // `submit` before it may count as lost.
                                let outcome = match outcome {
                                    Err(e) if !matches!(e, ClusterError::Rejected(_)) => {
                                        client.submit(&soak_request(index, base + slot_index))
                                    }
                                    settled => settled,
                                };
                                local.record(outcome, begun);
                                *slot = None;
                                progress = true;
                            } else {
                                inflight += 1;
                                continue;
                            }
                        }
                        if slot.is_none() && !exhausted {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= total {
                                exhausted = true;
                                continue;
                            }
                            let request = soak_request(index, base + slot_index);
                            let begun = Instant::now();
                            match client.begin_submit(&request) {
                                Ok(pending) => {
                                    *slot = Some((begun, index, pending));
                                    inflight += 1;
                                    progress = true;
                                }
                                // No connection right now: recover through
                                // the failover path of `submit` so the
                                // request is never lost silently.
                                Err(_) => {
                                    local.record(client.submit(&request), begun);
                                    progress = true;
                                }
                            }
                        }
                    }
                    if exhausted && inflight == 0 {
                        break;
                    }
                    if !progress {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                local.merge_into(tally);
            });
        }
    });
}

/// Closed-loop baseline driver: an OS thread per stream (capped), each
/// waiting out its RPC before issuing the next.
fn drive_closed_loop(
    streams: usize,
    client: &ClusterClient,
    next: &AtomicU64,
    total: u64,
    tally: &Mutex<SoakTally>,
) {
    let threads = streams.min(SoakConfig::MAX_CLOSED_LOOP_THREADS);
    std::thread::scope(|scope| {
        for thread in 0..threads {
            scope.spawn(move || {
                let mut local = SoakTally::default();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let begun = Instant::now();
                    local.record(client.submit(&soak_request(index, thread)), begun);
                }
                local.merge_into(tally);
            });
        }
    });
}
