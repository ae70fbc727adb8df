//! The four workloads: set-up, measured phases, oracle checks and metrics.
//!
//! An untraced run measures end-to-end metrics only. A traced run measures
//! the same phases with spans on, preceded by an untraced closed-loop phase
//! of equal length for the tracing overhead, then replays the workload's
//! requests through each layer's public functions for per-layer numbers.

use crate::drive::{closed_loop, open_loop, ClusterTarget, Done, Phase, PoolTarget, Target};
use crate::gen::{self, ExprGen, FleetGen, PixelGen, Rng};
use crate::layers::{self, SerialCounts, SerialItem};
use crate::oracle;
use crate::report::{
    mean, peak_rss_mb, quantile, ratio, sliced_quantile, Metrics, Outcome, PER_LAYER,
};
use crate::spans::{self, Recorder, Span};
use apim::{App, RunReport};
use apim_cluster::wire::{Message, Reply};
use apim_cluster::{ClusterClient, ClusterResponse, LoopbackCluster};
use apim_compile::Dag;
use apim_serve::{JobKind, JobOutput, MetricsSnapshot, Pool, PoolConfig, Request, Response};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A benchmark workload. The names are fixed; later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sharpen/Sobel pixel requests to a pool: full compile reuse, lane
    /// batching, lint-dominated batched passes.
    PixelStream,
    /// Distinct random expression programs to a pool: zero reuse.
    /// Runnable, but not listed in `BENCHMARK.json`: at its open-loop load
    /// the workers idle often, and on a shared virtual machine the latency
    /// tail then follows vCPU wake-ups and steal more than the code.
    ExprUnique,
    /// Echo/multiply/MAC through a two-node loopback cluster: transport.
    /// Not listed in `BENCHMARK.json` for the same reason, more strongly:
    /// its sub-millisecond tail is a few host stalls.
    FleetRpc,
    /// The paper's six-app sweep through `Pool::run_all`.
    PaperSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PixelStream,
        Workload::ExprUnique,
        Workload::FleetRpc,
        Workload::PaperSweep,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PixelStream => "pixel-stream",
            Workload::ExprUnique => "expr-unique",
            Workload::FleetRpc => "fleet-rpc",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Offered load of a workload's two phases: requests kept outstanding in
/// the closed loop, and the open-loop rate, fixed so later commits are
/// measured at the same offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Load {
    /// Closed-loop window, requests.
    pub window: usize,
    /// Open-loop rate, requests/s.
    pub rate: f64,
}

/// `pixel-stream`'s load: about a tenth of its closed-loop throughput, a
/// rate at which the two workers serve each pixel on arrival, so the open
/// loop times the per-pixel service path rather than a queue. At half the
/// closed-loop throughput the pool sits at the serial path's capacity and
/// flips between serial and lane-batched passes, and the latency followed
/// every slowdown of the host, amplified by the queue. The closed loop
/// keeps the coalescer's batched path at capacity.
const PIXEL_LOAD: Load = Load {
    window: 64,
    rate: 100.0,
};
/// `expr-unique`'s load: about a quarter of its closed-loop throughput, for
/// the same reason as `pixel-stream`'s.
const EXPR_LOAD: Load = Load {
    window: 16,
    rate: 150.0,
};
/// `fleet-rpc`'s load: about an eighth of its closed-loop throughput. At
/// half, a few-millisecond host stall queues more than a node's 256
/// in-flight requests per connection and they are rejected.
const FLEET_LOAD: Load = Load {
    window: 64,
    rate: 10_000.0,
};

/// The fixed load of each loop workload (`None`: `paper-sweep`, closed
/// loop only); `BENCHMARK.json` quotes these numbers.
pub fn load(workload: Workload) -> Option<Load> {
    match workload {
        Workload::PixelStream => Some(PIXEL_LOAD),
        Workload::ExprUnique => Some(EXPR_LOAD),
        Workload::FleetRpc => Some(FLEET_LOAD),
        Workload::PaperSweep => None,
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where a traced run writes its spans and self-time table.
    pub out_dir: Option<PathBuf>,
    /// Self-test hook: judges every output against a deliberately wrong
    /// reference, so a correct system must fail the run.
    pub corrupt_oracle: bool,
}

/// Worker threads of every pool and of the cluster, in total.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Requests sent one at a time during each set-up's warm-up (`fleet-rpc`
/// sends eight times as many: each costs well under a millisecond).
const WARMUP: usize = 32;
/// Serial instances replayed per layer (a fixed prefix of the open-loop
/// requests, so the exact counts repeat for a seed).
const SERIAL_REPLAY: usize = 16;
/// Pool-reported pixel groups replayed.
const GROUP_REPLAY: usize = 24;
/// Requests sent through the cluster probe by workloads that do not
/// otherwise reach the cluster tier.
const RPC_PROBE: usize = 48;
/// Operand pairs fed to the `apim.multiply` / `apim.mac` probe.
const APIM_PROBE: usize = 256;
/// Open-loop messages fed to the wire probe at most.
const WIRE_PROBE: usize = 4096;
/// Stream ids of the generators, so phases draw independent requests.
const STREAM_SETUP: u64 = 0;
const STREAM_CLOSED: u64 = 1;
const STREAM_OPEN: u64 = 2;
const STREAM_PROBE: u64 = 3;
/// Span request-id offset of open-loop requests.
const OPEN_BASE: u64 = 1 << 32;

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (pool or cluster construction) and replay failures; a
/// wrong output is not an error but an incorrect [`Outcome`].
pub fn run(workload: Workload, config: &RunConfig) -> Result<Outcome, String> {
    match workload {
        Workload::PixelStream => pixel_stream(config),
        Workload::ExprUnique => expr_unique(config),
        Workload::FleetRpc => fleet_rpc(config),
        Workload::PaperSweep => paper_sweep(config),
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, tearing down all but the last
/// system, and returns it with the median set-up time in seconds.
fn setup_median<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        drop(system.take());
        let start = Instant::now();
        system = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((system.expect("at least one set-up"), quantile(&times, 0.5)))
}

/// Sends the warm-up requests one at a time, each after the previous
/// answer, so every set-up does the same work in the same order. It waits
/// by yielding, as the open loop does.
fn warm_up<T: Target>(target: &T, requests: &[Request]) -> Result<(), String> {
    for request in requests {
        let mut pending = target.begin(request)?;
        loop {
            match target.poll(&mut pending) {
                Some(Ok(_)) => break,
                Some(Err(e)) => return Err(format!("warm-up request failed: {e}")),
                None => std::thread::yield_now(),
            }
        }
    }
    Ok(())
}

/// An oracle verdict, inverted into a mismatch when the reference is
/// deliberately corrupted (the benchmark's own self-test).
fn checked(corrupt: bool, check: Result<(), String>) -> Result<(), String> {
    match check {
        Ok(()) if corrupt => Err("output disagrees with the corrupted reference".into()),
        other => other,
    }
}

/// Tallies oracle verdicts and failures.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    wrong: u64,
    mismatches: Vec<String>,
    failures: Vec<String>,
}

impl Verdict {
    fn judge(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            self.wrong += 1;
            if self.mismatches.len() < 5 {
                self.mismatches.push(e);
            }
        }
    }

    fn fail(&mut self, reason: impl std::fmt::Display) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(reason.to_string());
        }
    }

    /// Judges every answer of a pool phase with `check`.
    fn pool_phase(
        &mut self,
        phase: &Phase<Response>,
        check: &dyn Fn(&Request, &JobOutput) -> Result<(), String>,
    ) {
        self.attempted += phase.requests.len() as u64;
        for d in &phase.done {
            match d.outcome.as_ref().map(|r| &r.result) {
                Ok(Ok(out)) => self.judge(check(&phase.requests[d.index], out)),
                Ok(Err(e)) => self.fail(e),
                Err(e) => self.fail(e),
            }
        }
    }

    fn outcome(self, metrics: Metrics) -> Outcome {
        Outcome {
            correct: self.wrong == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            mismatches: self.mismatches,
            failures: self.failures,
        }
    }
}

/// Phases of a closed + open loop measurement.
struct Measured<O> {
    /// Traced runs only: the untraced closed-loop phase.
    untraced: Option<Phase<O>>,
    closed: Phase<O>,
    open: Phase<O>,
    /// Pool metrics around the closed and open phases.
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl<O> Measured<O> {
    fn phases(&self) -> impl Iterator<Item = &Phase<O>> {
        self.untraced.iter().chain([&self.closed, &self.open])
    }
}

/// The closed-loop phase for a quarter of the run, then the open loop at
/// the workload's rate for the other three quarters (latency percentiles
/// need the samples). A traced run splits the closed quarter into an
/// untraced and a traced part.
fn measure<T: Target>(
    target: &T,
    config: &RunConfig,
    load: Load,
    closed_next: &mut dyn FnMut() -> Request,
    open_next: &mut dyn FnMut() -> Request,
    snapshot: &dyn Fn() -> MetricsSnapshot,
    mut rec: Option<&mut Recorder>,
) -> Measured<T::Output> {
    let closed_secs = config.seconds / 4.0;
    let untraced = rec.is_some().then(|| {
        closed_loop(
            target,
            load.window,
            Duration::from_secs_f64(closed_secs / 2.0),
            &mut *closed_next,
            None,
        )
    });
    let closed_secs = if untraced.is_some() {
        closed_secs / 2.0
    } else {
        closed_secs
    };
    let before = snapshot();
    let closed = closed_loop(
        target,
        load.window,
        Duration::from_secs_f64(closed_secs),
        &mut *closed_next,
        rec.as_deref_mut().map(|r| (r, 0)),
    );
    let count = ((load.rate * config.seconds * 3.0 / 4.0).round() as usize).max(1);
    let open = open_loop(
        target,
        load.rate,
        count,
        &mut *open_next,
        rec.map(|r| (r, OPEN_BASE)),
    );
    let after = snapshot();
    Measured {
        untraced,
        closed,
        open,
        before,
        after,
    }
}

/// The end-to-end metrics shared by the loop workloads.
fn loop_metrics<O>(
    m: &Measured<O>,
    setup_s: f64,
    ok: &dyn Fn(&O) -> bool,
    cycles: &[f64],
) -> Metrics {
    let mut answered: Vec<&Done<O>> = m
        .open
        .done
        .iter()
        .filter(|d| d.outcome.as_ref().is_ok_and(ok))
        .collect();
    answered.sort_by_key(|d| d.due);
    let latencies: Vec<f64> = answered.into_iter().map(Done::latency_ms).collect();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s);
    metrics.set("throughput_rps", m.closed.throughput_rps(ok));
    metrics.set("latency_p50_ms", sliced_quantile(&latencies, 0.50));
    metrics.set("latency_p99_ms", sliced_quantile(&latencies, 0.99));
    metrics.set("sim_cycles_per_op", mean(cycles));
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics
}

/// Serving metrics from two snapshots of one pool (or one fleet) taken
/// around the measured phases, `wall_s` apart.
fn serve_metrics(
    metrics: &mut Metrics,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    wall_s: f64,
) {
    let completed = after.completed.saturating_sub(before.completed) as f64;
    let batches = after.batches.saturating_sub(before.batches) as f64;
    let service_us = after
        .batch_service_sum_us
        .saturating_sub(before.batch_service_sum_us) as f64;
    metrics.set("serve.batch_size", ratio(completed, batches));
    metrics.set("serve.batch_service_ms", ratio(service_us, batches) / 1e3);
    metrics.set(
        "serve.busy_ratio",
        ratio(service_us / 1e6, wall_s * WORKERS as f64),
    );
    metrics.set(
        "serve.retries",
        after.retries.saturating_sub(before.retries) as f64,
    );
}

/// Pool service time per completed request, ns — the denominator of
/// `trace.coverage_ratio`.
fn service_ns_per_op(before: &MetricsSnapshot, after: &MetricsSnapshot) -> f64 {
    let completed = after.completed.saturating_sub(before.completed) as f64;
    let service_us = after
        .batch_service_sum_us
        .saturating_sub(before.batch_service_sum_us) as f64;
    ratio(service_us * 1e3, completed)
}

/// Records a phase's answered requests as `loadgen.request` spans (due to
/// done) with one child per request from `child`.
fn record_requests<O, F>(rec: &mut Recorder, phase: &Phase<O>, base: u64, child: &F)
where
    F: Fn(&mut Recorder, u64, u64, &Done<O>, &O),
{
    for d in &phase.done {
        if let Ok(out) = &d.outcome {
            let id = base + d.index as u64;
            let root = rec.record("loadgen.request", 0, id, d.due, d.done, 1);
            child(rec, root, id, d, out);
        }
    }
}

/// Records pool requests: the child `serve.pool` span covers submit to
/// answer.
fn record_pool_requests(rec: &mut Recorder, m: &Measured<Response>) {
    let child = |rec: &mut Recorder, root: u64, id: u64, d: &Done<Response>, _: &Response| {
        rec.record("serve.pool", root, id, d.sent, d.done, 1);
    };
    record_requests(rec, &m.closed, 0, &child);
    record_requests(rec, &m.open, OPEN_BASE, &child);
}

/// `loadgen.lag_p99_ms`, `fail_ratio` and `trace.overhead_ratio`.
fn loadgen_metrics<O>(
    metrics: &mut Metrics,
    m: &Measured<O>,
    verdict: &Verdict,
    ok: &dyn Fn(&O) -> bool,
) {
    let lags: Vec<f64> = m.open.done.iter().map(Done::lag_ms).collect();
    metrics.set("loadgen.lag_p99_ms", quantile(&lags, 0.99));
    metrics.set(
        "fail_ratio",
        ratio(verdict.failed as f64, verdict.attempted as f64),
    );
    let untraced = m.untraced.as_ref().map_or(0.0, |p| p.throughput_rps(ok));
    metrics.set(
        "trace.overhead_ratio",
        ratio(untraced, m.closed.throughput_rps(ok)),
    );
}

/// Pixel taps cut from the seed's image, for probes of layers a workload
/// does not reach.
fn probe_pixels(seed: u64, n: usize) -> Vec<(App, Vec<u64>)> {
    let mut pixels = PixelGen::new(seed, STREAM_PROBE);
    (0..n)
        .map(|_| match pixels.next_request().kind {
            JobKind::Pixel { app, taps } => (app, taps),
            _ => unreachable!("the pixel generator only makes pixels"),
        })
        .collect()
}

/// One 8-lane batched group of each kernel from the seed's image.
fn probe_groups(seed: u64) -> Vec<(App, Vec<Vec<u64>>)> {
    let pixels = probe_pixels(seed, 64);
    [App::Sharpen, App::Sobel]
        .into_iter()
        .map(|app| {
            let members: Vec<Vec<u64>> = pixels
                .iter()
                .filter(|(a, _)| *a == app)
                .take(8)
                .map(|(_, taps)| taps.clone())
                .collect();
            (app, members)
        })
        .collect()
}

/// Operand pairs for `Apim::multiply`, and pair lists for `multiply_batch`.
type Operands = (Vec<(u64, u64)>, Vec<Vec<(u64, u64)>>);

/// The pixel kernels' products as multiply/MAC operands: each tap against
/// its weight magnitude (`Q12` weights of `apim-workloads`).
fn pixel_operands(pixels: &[(App, Vec<u64>)]) -> Operands {
    const FX: u64 = 1 << 12;
    let weights = |app: App| -> Vec<u64> {
        if app == App::Sharpen {
            vec![5 * FX, FX, FX, FX, FX]
        } else {
            let w1 = FX / 6;
            vec![w1, w1, 2 * w1, 2 * w1, w1, w1]
        }
    };
    let macs: Vec<Vec<(u64, u64)>> = pixels
        .iter()
        .map(|(app, taps)| taps.iter().copied().zip(weights(*app)).collect())
        .collect();
    let multiplies = macs.iter().map(|pairs| pairs[0]).collect();
    (multiplies, macs)
}

/// The paper-sweep grid at its smallest size in exact mode: one run per
/// app, for the `arch.profile_us` / `apim.run_ms` probe.
fn probe_runs() -> Vec<(App, u64, apim::PrecisionMode)> {
    App::all()
        .into_iter()
        .map(|app| (app, gen::SWEEP_MB[0] << 20, apim::PrecisionMode::Exact))
        .collect()
}

/// Sum of the durations of every span whose parent is named `parent`.
fn children_ns(spans: &[Span], parent: &str) -> f64 {
    let parents: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| parents.contains(&s.parent))
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum()
}

/// Everything a traced run replays besides the workload's own phases.
struct Replay<'a> {
    /// Serial instances for the per-layer split (fixed prefix).
    serial: Vec<SerialItem>,
    /// Whether `serial` is the pool's own path (vs a probe).
    serial_on_pool_path: bool,
    /// Pool-path serial instances replayed without the layer split
    /// (pixel-stream's uncoalesced pixels).
    singles: Vec<SerialItem>,
    /// Pool-reported lane groups (pixel-stream) or probe groups.
    groups: Vec<(App, Vec<Vec<u64>>)>,
    groups_on_pool_path: bool,
    /// Wire messages.
    messages: Vec<Message>,
    /// Analytic multiply / MAC operands and whether they are the pool path.
    multiplies: Vec<(u64, u64)>,
    macs: Vec<Vec<(u64, u64)>>,
    apim_on_pool_path: bool,
    /// Pool-path ops the `apim` replay stands for (fleet-rpc: echoes too).
    apim_ops: u64,
    /// App runs and whether they are the pool path.
    runs: Vec<(App, u64, apim::PrecisionMode)>,
    runs_on_pool_path: bool,
    /// Requests for the cluster probe (empty: the workload has its own RPC
    /// spans).
    rpc_probe: &'a [Request],
    /// Pool service time per op, ns.
    service_ns_per_op: f64,
}

/// Runs the replay, derives every per-layer metric from the spans, and
/// writes spans and self times out.
fn replay_and_report(
    rec: &mut Recorder,
    replay: &Replay<'_>,
    metrics: &mut Metrics,
    workload: Workload,
    config: &RunConfig,
) -> Result<(), String> {
    let parent_of = |on_path: bool| -> &'static str {
        if on_path {
            "replay.pool"
        } else {
            "replay.probe"
        }
    };
    let mut pool_ops = 0u64;
    let counts: SerialCounts = layers::replay_serial(
        rec,
        parent_of(replay.serial_on_pool_path),
        &replay.serial,
        true,
    )?;
    if replay.serial_on_pool_path {
        pool_ops += counts.instances;
    }
    layers::replay_serial(rec, "replay.pool", &replay.singles, false)?;
    pool_ops += replay.singles.len() as u64;
    let lanes = layers::replay_batched(rec, parent_of(replay.groups_on_pool_path), &replay.groups)?;
    if replay.groups_on_pool_path {
        pool_ops += lanes;
    }
    layers::replay_wire(rec, &replay.messages)?;
    let apim_parent = rec.open(parent_of(replay.apim_on_pool_path), 0);
    layers::replay_apim(rec, apim_parent, &replay.multiplies, &replay.macs);
    rec.close(apim_parent);
    if replay.apim_on_pool_path {
        pool_ops += replay.apim_ops * layers::APIM_PASSES;
    }
    layers::replay_runs(rec, parent_of(replay.runs_on_pool_path), &replay.runs)?;
    if replay.runs_on_pool_path {
        pool_ops += replay.runs.len() as u64;
    }
    if !replay.rpc_probe.is_empty() {
        let rpc = layers::replay_rpc(rec, replay.rpc_probe)?;
        metrics.set("cluster.failovers", rpc.failovers as f64);
        metrics.set("cluster.transport_failures", rpc.transport_failures as f64);
    }

    let spans = rec.spans();
    let table = spans::self_times(spans);
    let t = |name: &str| table.get(name).copied().unwrap_or_default();
    let us = |name: &str| t(name).per_unit_ns() / 1e3;
    metrics.set("compile.parse_us", us("compile.parse"));
    metrics.set("compile.compile_us", us("compile.compile"));
    metrics.set("compile.batched_compile_us", us("compile.batched_compile"));
    metrics.set("compile.batched_run_us", us("compile.batched_run"));
    metrics.set("crossbar.exec_us", us("crossbar.exec"));
    metrics.set("verify.lint_us", us("verify.lint"));
    let (exec, lint) = (t("crossbar.exec").total_ns, t("verify.lint").total_ns);
    metrics.set("verify.lint_share", ratio(lint, exec + lint));
    let instances = counts.instances as f64;
    metrics.set(
        "crossbar.micro_ops",
        ratio(counts.micro_ops as f64, instances),
    );
    metrics.set("crossbar.energy_pj", ratio(counts.energy_pj, instances));
    metrics.set(
        "crossbar.ns_per_micro_op",
        ratio(exec, counts.micro_ops as f64),
    );
    metrics.set("wire.encode_ns", t("wire.encode").per_unit_ns());
    metrics.set("wire.decode_ns", t("wire.decode").per_unit_ns());
    metrics.set("net.frame_ns", t("net.frame").per_unit_ns());
    metrics.set("apim.multiply_us", us("apim.multiply"));
    metrics.set("apim.mac_us", us("apim.mac"));
    let (mut profile, mut run) = (Vec::new(), Vec::new());
    for app in App::all() {
        let key = layers::app_key(app);
        let p = us(&format!("arch.profile.{key}"));
        let r = t(&format!("apim.run.{key}")).per_unit_ns() / 1e6;
        metrics.set(&format!("arch.profile_us.{key}"), p);
        metrics.set(&format!("apim.run_ms.{key}"), r);
        profile.push(p);
        run.push(r);
    }
    metrics.set("arch.profile_us", mean(&profile));
    metrics.set("apim.run_ms", mean(&run));
    let overheads = spans::self_times_of(spans, "cluster.rpc");
    metrics.set("cluster.rpc_overhead_us", quantile(&overheads, 0.5) / 1e3);
    let replayed_per_op = ratio(children_ns(spans, "replay.pool"), pool_ops as f64);
    metrics.set(
        "trace.coverage_ratio",
        ratio(replayed_per_op, replay.service_ns_per_op),
    );

    if let Some(dir) = &config.out_dir {
        let write = |suffix: &str, body: String| {
            let path = dir.join(format!("{}.{suffix}", workload.name()));
            std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        write("spans.csv", spans::spans_csv(spans))?;
        write("selftime.csv", spans::self_time_csv(&table))?;
    }
    eprint!("{}", spans::self_time_csv(&table));
    debug_assert!(PER_LAYER.iter().all(|(n, _)| metrics.get(n).is_some()));
    Ok(())
}

/// Infers the coalesced groups of a pixel phase from the lane counts the
/// pool reported: members of one `(kernel, lanes)` key, in send order, are
/// chunked `lanes` at a time.
fn inferred_groups(phase: &Phase<Response>) -> Vec<(App, Vec<Vec<u64>>)> {
    let mut lanes_of: Vec<Option<usize>> = vec![None; phase.requests.len()];
    for d in &phase.done {
        if let Ok(Response {
            result: Ok(JobOutput::Pixel { lanes, .. }),
            ..
        }) = &d.outcome
        {
            lanes_of[d.index] = Some(*lanes);
        }
    }
    let mut open: HashMap<(App, usize), Vec<Vec<u64>>> = HashMap::new();
    let mut groups = Vec::new();
    for (request, lanes) in phase.requests.iter().zip(lanes_of) {
        let (JobKind::Pixel { app, taps }, Some(lanes)) = (&request.kind, lanes) else {
            continue;
        };
        let members = open.entry((*app, lanes)).or_default();
        members.push(taps.clone());
        if members.len() == lanes {
            groups.push((*app, std::mem::take(members)));
        }
    }
    groups
}

/// Share of compile calls whose `(program, lanes)` was already compiled
/// earlier in the run.
fn reuse_ratio(calls: impl Iterator<Item = (String, usize)>) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut reused) = (0u64, 0u64);
    for call in calls {
        total += 1;
        if !seen.insert(call) {
            reused += 1;
        }
    }
    ratio(reused as f64, total as f64)
}

fn pool(workers: usize) -> Result<Pool, String> {
    Pool::new(PoolConfig {
        workers,
        ..PoolConfig::default()
    })
    .map_err(|e| format!("pool: {e}"))
}

fn ok_response(r: &Response) -> bool {
    r.result.is_ok()
}

/// `pixel-stream`.
fn pixel_stream(config: &RunConfig) -> Result<Outcome, String> {
    let seed = config.seed;
    let (pool, setup_s) = setup_median(|| {
        let mut warm = PixelGen::new(seed, STREAM_SETUP);
        let pool = pool(WORKERS)?;
        let requests: Vec<Request> = (0..WARMUP).map(|_| warm.next_request()).collect();
        warm_up(&PoolTarget(&pool), &requests)?;
        Ok(pool)
    })?;
    let target = PoolTarget(&pool);
    let mut closed_gen = PixelGen::new(seed, STREAM_CLOSED);
    let mut open_gen = PixelGen::new(seed, STREAM_OPEN);
    let epoch = Instant::now();
    let mut rec = config.trace.then(|| Recorder::new(epoch));
    let m = measure(
        &target,
        config,
        PIXEL_LOAD,
        &mut || closed_gen.next_request(),
        &mut || open_gen.next_request(),
        &|| pool.metrics().snapshot(),
        rec.as_mut(),
    );
    let wall_s = m.closed.start.elapsed().as_secs_f64();

    let corrupt = config.corrupt_oracle;
    let mut verdict = Verdict::default();
    for phase in m.phases() {
        verdict.pool_phase(phase, &|request, out| {
            checked(corrupt, oracle::check_pixel(request, out))
        });
    }
    // Cycles per pixel of the closed loop, where the coalescer runs at
    // capacity: the open loop's pixels run one at a time.
    let cycles: Vec<f64> = m
        .closed
        .done
        .iter()
        .filter_map(|d| match d.outcome.as_ref().map(|r| &r.result) {
            Ok(Ok(JobOutput::Pixel { cycles, lanes, .. })) => Some(*cycles as f64 / *lanes as f64),
            _ => None,
        })
        .collect();
    let mut metrics = loop_metrics(&m, setup_s, &ok_response, &cycles);
    let Some(rec) = rec.as_mut() else {
        return Ok(verdict.outcome(metrics));
    };

    serve_metrics(&mut metrics, &m.before, &m.after, wall_s);
    let pixels: Vec<usize> = [&m.closed, &m.open]
        .into_iter()
        .flat_map(|phase| &phase.done)
        .filter_map(|d| match d.outcome.as_ref().map(|r| &r.result) {
            Ok(Ok(JobOutput::Pixel { lanes, .. })) => Some(*lanes),
            _ => None,
        })
        .collect();
    metrics.set(
        "serve.lane_batched_ratio",
        ratio(
            pixels.iter().filter(|&&l| l > 1).count() as f64,
            pixels.len() as f64,
        ),
    );
    let pool_latencies: Vec<f64> = m
        .open
        .done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    metrics.set("serve.pool_latency_ms", quantile(&pool_latencies, 0.5));
    loadgen_metrics(&mut metrics, &m, &verdict, &ok_response);
    let all_groups: Vec<(App, Vec<Vec<u64>>)> = m.phases().flat_map(inferred_groups).collect();
    metrics.set(
        "compile.reuse_ratio",
        reuse_ratio(
            all_groups
                .iter()
                .map(|(app, members)| (app.name().to_string(), members.len())),
        ),
    );
    record_pool_requests(rec, &m);

    let serial: Vec<SerialItem> = m
        .open
        .requests
        .iter()
        .take(SERIAL_REPLAY)
        .filter_map(|r| match &r.kind {
            JobKind::Pixel { app, taps } => Some(SerialItem::pixel(*app, taps)),
            _ => None,
        })
        .collect();
    let probe = probe_pixels(seed, APIM_PROBE);
    let (multiplies, macs) = pixel_operands(&probe);
    let messages = wire_messages(&m.open);
    // Pool-path replay: the first reported groups of each measured phase,
    // in send order. Singletons ran serially in the pool and replay as
    // serial instances.
    let groups: Vec<(App, Vec<Vec<u64>>)> = [&m.closed, &m.open]
        .into_iter()
        .flat_map(|phase| inferred_groups(phase).into_iter().take(GROUP_REPLAY / 2))
        .collect();
    let singles: Vec<SerialItem> = groups
        .iter()
        .filter(|(_, members)| members.len() == 1)
        .map(|(app, members)| SerialItem::pixel(*app, &members[0]))
        .collect();
    let batched: Vec<(App, Vec<Vec<u64>>)> =
        groups.into_iter().filter(|(_, m)| m.len() > 1).collect();
    let replay = Replay {
        serial,
        serial_on_pool_path: false,
        singles,
        groups: batched,
        groups_on_pool_path: true,
        messages,
        multiplies,
        macs,
        apim_on_pool_path: false,
        apim_ops: 0,
        runs: probe_runs(),
        runs_on_pool_path: false,
        rpc_probe: &m.open.requests[..RPC_PROBE.min(m.open.requests.len())],
        service_ns_per_op: service_ns_per_op(&m.before, &m.after),
    };
    replay_and_report(rec, &replay, &mut metrics, Workload::PixelStream, config)?;
    Ok(verdict.outcome(metrics))
}

/// Submit and reply messages of (at most [`WIRE_PROBE`]) answered pool
/// requests.
fn wire_messages(phase: &Phase<Response>) -> Vec<Message> {
    phase
        .done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok().map(|r| (d.index, r)))
        .take(WIRE_PROBE / 2)
        .flat_map(|(i, r)| layers::messages_for(i as u64, &phase.requests[i], r))
        .collect()
}

/// `expr-unique`.
fn expr_unique(config: &RunConfig) -> Result<Outcome, String> {
    let seed = config.seed;
    let (pool, setup_s) = setup_median(|| {
        let mut warm = ExprGen::new(seed, STREAM_SETUP);
        let pool = pool(WORKERS)?;
        let requests: Vec<Request> = (0..WARMUP)
            .map(|_| {
                let program = warm.next_program();
                warm.request(&program)
            })
            .collect();
        warm_up(&PoolTarget(&pool), &requests)?;
        Ok(pool)
    })?;
    let target = PoolTarget(&pool);
    // The generator's own DAG for every source sent (sources are distinct).
    let mut dags: HashMap<String, Dag> = HashMap::new();
    let mut closed_gen = ExprGen::new(seed, STREAM_CLOSED);
    let mut open_gen = ExprGen::new(seed, STREAM_OPEN);
    let mut closed_dags = Vec::new();
    let mut open_dags = Vec::new();
    let epoch = Instant::now();
    let mut rec = config.trace.then(|| Recorder::new(epoch));
    let m = measure(
        &target,
        config,
        EXPR_LOAD,
        &mut || {
            let program = closed_gen.next_program();
            let request = closed_gen.request(&program);
            closed_dags.push(program);
            request
        },
        &mut || {
            let program = open_gen.next_program();
            let request = open_gen.request(&program);
            open_dags.push(program);
            request
        },
        &|| pool.metrics().snapshot(),
        rec.as_mut(),
    );
    let wall_s = m.closed.start.elapsed().as_secs_f64();
    for program in closed_dags.iter().chain(&open_dags) {
        dags.insert(program.source.clone(), program.dag.clone());
    }

    let corrupt = config.corrupt_oracle;
    let mut verdict = Verdict::default();
    for phase in m.phases() {
        verdict.pool_phase(phase, &|request, out| {
            let JobKind::Compile { source } = &request.kind else {
                return Err(format!("unexpected request {request:?}"));
            };
            checked(corrupt, oracle::check_program(&dags[source], out))
        });
    }
    let cycles: Vec<f64> = m
        .open
        .done
        .iter()
        .filter_map(|d| match d.outcome.as_ref().map(|r| &r.result) {
            Ok(Ok(JobOutput::Compile { cycles, .. })) => Some(*cycles as f64),
            _ => None,
        })
        .collect();
    let mut metrics = loop_metrics(&m, setup_s, &ok_response, &cycles);
    let Some(rec) = rec.as_mut() else {
        return Ok(verdict.outcome(metrics));
    };

    serve_metrics(&mut metrics, &m.before, &m.after, wall_s);
    metrics.set("serve.lane_batched_ratio", 0.0);
    let pool_latencies: Vec<f64> = m
        .open
        .done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    metrics.set("serve.pool_latency_ms", quantile(&pool_latencies, 0.5));
    loadgen_metrics(&mut metrics, &m, &verdict, &ok_response);
    metrics.set(
        "compile.reuse_ratio",
        reuse_ratio(
            m.phases()
                .flat_map(|p| &p.requests)
                .filter_map(|r| match &r.kind {
                    JobKind::Compile { source } => Some((source.clone(), 1)),
                    _ => None,
                }),
        ),
    );
    record_pool_requests(rec, &m);

    let serial: Vec<SerialItem> = open_dags
        .iter()
        .take(SERIAL_REPLAY)
        .map(|p| SerialItem {
            source: Some(p.source.clone()),
            inputs: oracle::bind(
                &p.dag,
                &(1..=p.dag.inputs().len() as u64).collect::<Vec<_>>(),
            ),
            dag: p.dag.clone(),
        })
        .collect();
    let (multiplies, macs) = pixel_operands(&probe_pixels(seed, APIM_PROBE));
    let replay = Replay {
        serial,
        serial_on_pool_path: true,
        singles: Vec::new(),
        groups: probe_groups(seed),
        groups_on_pool_path: false,
        messages: wire_messages(&m.open),
        multiplies,
        macs,
        apim_on_pool_path: false,
        apim_ops: 0,
        runs: probe_runs(),
        runs_on_pool_path: false,
        rpc_probe: &m.open.requests[..RPC_PROBE.min(m.open.requests.len())],
        service_ns_per_op: service_ns_per_op(&m.before, &m.after),
    };
    replay_and_report(rec, &replay, &mut metrics, Workload::ExprUnique, config)?;
    Ok(verdict.outcome(metrics))
}

/// A fleet of `WORKERS` single-worker nodes and a client with one
/// connection per node.
struct Fleet {
    client: ClusterClient,
    cluster: Option<LoopbackCluster>,
}

impl Fleet {
    fn spawn() -> Result<Fleet, String> {
        let pool = PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        };
        let cluster =
            LoopbackCluster::spawn(WORKERS, &pool).map_err(|e| format!("cluster spawn: {e}"))?;
        let mut config = cluster.client_config();
        config.conns_per_node = 1;
        config.health_interval = None;
        let client = ClusterClient::connect(config).map_err(|e| format!("connect: {e}"))?;
        Ok(Fleet {
            client,
            cluster: Some(cluster),
        })
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.client
            .pull_metrics()
            .expect("pulling fleet metrics reports unreachable nodes, never fails")
            .merged
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
    }
}

/// `fleet-rpc`.
fn fleet_rpc(config: &RunConfig) -> Result<Outcome, String> {
    let seed = config.seed;
    let (fleet, setup_s) = setup_median(|| {
        let mut warm = FleetGen::new(seed, STREAM_SETUP);
        let fleet = Fleet::spawn()?;
        let requests: Vec<Request> = (0..WARMUP * 8).map(|_| warm.next_request()).collect();
        warm_up(&ClusterTarget(&fleet.client), &requests)?;
        Ok(fleet)
    })?;
    let target = ClusterTarget(&fleet.client);
    let mut closed_gen = FleetGen::new(seed, STREAM_CLOSED);
    let mut open_gen = FleetGen::new(seed, STREAM_OPEN);
    let epoch = Instant::now();
    let mut rec = config.trace.then(|| Recorder::new(epoch));
    let m = measure(
        &target,
        config,
        FLEET_LOAD,
        &mut || closed_gen.next_request(),
        &mut || open_gen.next_request(),
        &|| fleet.snapshot(),
        rec.as_mut(),
    );
    let wall_s = m.closed.start.elapsed().as_secs_f64();

    let corrupt = config.corrupt_oracle;
    let mut verdict = Verdict::default();
    for phase in m.phases() {
        verdict.attempted += phase.requests.len() as u64;
        for d in &phase.done {
            match &d.outcome {
                Ok(response) => verdict.judge(checked(
                    corrupt,
                    oracle::check_fleet(&phase.requests[d.index], response),
                )),
                Err(e) => verdict.fail(e),
            }
        }
    }
    // Modelled cycles per op: echoes cost none; a multiply costs what the
    // device's analytic model charges it; a MAC reply names its batch cost.
    let model = apim::Apim::new(apim::ApimConfig::default()).map_err(|e| e.to_string())?;
    let cycles: Vec<f64> = m
        .open
        .done
        .iter()
        .filter_map(|d| {
            let response = d.outcome.as_ref().ok()?;
            Some(match &m.open.requests[d.index].kind {
                JobKind::Multiply { a, b } => model
                    .multiply(*a, *b, apim::PrecisionMode::Exact)
                    .cost
                    .cycles
                    .get() as f64,
                JobKind::Mac { .. } => mac_cycles(&response.output.summary)?,
                _ => 0.0,
            })
        })
        .collect();
    let ok = |_: &ClusterResponse| true;
    let mut metrics = loop_metrics(&m, setup_s, &ok, &cycles);
    let Some(rec) = rec.as_mut() else {
        return Ok(verdict.outcome(metrics));
    };

    serve_metrics(&mut metrics, &m.before, &m.after, wall_s);
    metrics.set("serve.lane_batched_ratio", 0.0);
    let node_latencies: Vec<f64> = m
        .open
        .done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .map(|r| r.node_latency_us as f64 / 1e3)
        .collect();
    metrics.set("serve.pool_latency_ms", quantile(&node_latencies, 0.5));
    loadgen_metrics(&mut metrics, &m, &verdict, &ok);
    metrics.set("compile.reuse_ratio", 0.0);
    let stats = fleet.client.stats();
    metrics.set("cluster.failovers", stats.failovers as f64);
    metrics.set(
        "cluster.transport_failures",
        stats.transport_failures as f64,
    );
    let child =
        |rec: &mut Recorder, root: u64, id: u64, d: &Done<ClusterResponse>, r: &ClusterResponse| {
            layers::record_rpc(rec, root, id, d.sent, d.done, r.node_latency_us);
        };
    record_requests(rec, &m.closed, 0, &child);
    record_requests(rec, &m.open, OPEN_BASE, &child);

    let mut messages = Vec::new();
    let (mut multiplies, mut macs) = (Vec::new(), Vec::new());
    for d in m.open.done.iter().take(WIRE_PROBE / 2) {
        let request = &m.open.requests[d.index];
        match &request.kind {
            JobKind::Multiply { a, b } => multiplies.push((*a, *b)),
            JobKind::Mac { pairs } => macs.push(pairs.clone()),
            _ => {}
        }
        if let Ok(response) = &d.outcome {
            let seq = d.index as u64;
            messages.push(Message::Submit {
                seq,
                request: request.clone(),
            });
            messages.push(Message::Reply {
                seq,
                reply: Reply {
                    tenant: request.tenant,
                    attempts: response.attempts,
                    latency_us: response.node_latency_us,
                    result: Ok(response.output.clone()),
                },
            });
        }
    }
    let apim_ops = (WIRE_PROBE / 2).min(m.open.done.len()) as u64;
    let pixels = probe_pixels(seed, SERIAL_REPLAY);
    let replay = Replay {
        serial: pixels
            .iter()
            .map(|(app, taps)| SerialItem::pixel(*app, taps))
            .collect(),
        serial_on_pool_path: false,
        singles: Vec::new(),
        groups: probe_groups(seed),
        groups_on_pool_path: false,
        messages,
        multiplies,
        macs,
        apim_on_pool_path: true,
        apim_ops,
        runs: probe_runs(),
        runs_on_pool_path: false,
        rpc_probe: &[],
        service_ns_per_op: service_ns_per_op(&m.before, &m.after),
    };
    replay_and_report(rec, &replay, &mut metrics, Workload::FleetRpc, config)?;
    Ok(verdict.outcome(metrics))
}

/// The batch cycles a `Mac` reply's summary (`mac xN in C cycles`) names.
fn mac_cycles(summary: &str) -> Option<f64> {
    summary
        .split_whitespace()
        .nth(3)
        .and_then(|c| c.parse::<f64>().ok())
}

/// One closed-loop `run_all` round of the sweep; request `i` is campaign
/// row `i`.
struct Round {
    requests: Vec<Request>,
    responses: Vec<Response>,
    start: Instant,
    end: Instant,
}

/// Runs sweep rounds back to back until `seconds` have passed (at least
/// one round).
fn sweep_rounds(pool: &Pool, rng: &mut Rng, seconds: f64) -> Result<Vec<Round>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        let requests = gen::sweep_round(rng);
        let start = Instant::now();
        let responses = pool
            .run_all(requests.clone())
            .map_err(|e| format!("run_all: {e}"))?;
        rounds.push(Round {
            requests,
            responses,
            start,
            end: Instant::now(),
        });
    }
    Ok(rounds)
}

/// Completed sweep jobs per second of the rounds' wall time.
fn sweep_throughput(rounds: &[Round]) -> f64 {
    let jobs: usize = rounds
        .iter()
        .map(|r| r.responses.iter().filter(|x| x.result.is_ok()).count())
        .sum();
    let secs: f64 = rounds
        .iter()
        .map(|r| r.end.duration_since(r.start).as_secs_f64())
        .sum();
    ratio(jobs as f64, secs)
}

/// `paper-sweep`: closed-loop `run_all` rounds over the six-app grid.
fn paper_sweep(config: &RunConfig) -> Result<Outcome, String> {
    let seed = config.seed;
    let (pool, setup_s) = setup_median(|| {
        let pool = pool(WORKERS)?;
        let warm: Vec<Request> = probe_runs()
            .into_iter()
            .map(|(app, dataset_bytes, mode)| {
                Request::new(JobKind::Run { app, dataset_bytes }).mode(mode)
            })
            .collect();
        warm_up(&PoolTarget(&pool), &warm)?;
        Ok(pool)
    })?;
    let mut rng = Rng::new(seed, STREAM_CLOSED);
    let epoch = Instant::now();
    let mut rec = config.trace.then(|| Recorder::new(epoch));
    let untraced = if rec.is_some() {
        Some(sweep_rounds(&pool, &mut rng, config.seconds / 2.0)?)
    } else {
        None
    };
    let secs = if untraced.is_some() {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let before = pool.metrics().snapshot();
    let rounds = sweep_rounds(&pool, &mut rng, secs)?;
    let after = pool.metrics().snapshot();
    let wall_s = rounds[0].start.elapsed().as_secs_f64();

    // The oracle: the serial campaign, outside every timed window.
    let campaign = apim::campaign::Campaign::new()
        .apps(App::all())
        .dataset_mb(gen::SWEEP_MB)
        .modes(gen::sweep_modes())
        .run()
        .map_err(|e| format!("campaign: {e}"))?;
    let expected: &[RunReport] = campaign.rows();
    let corrupt = config.corrupt_oracle;
    let mut verdict = Verdict::default();
    let mut cycles = Vec::new();
    for round in untraced.iter().flatten().chain(&rounds) {
        verdict.attempted += round.requests.len() as u64;
        for (response, row) in round.responses.iter().zip(expected) {
            match &response.result {
                Ok(out) => verdict.judge(checked(corrupt, oracle::check_run(row, out))),
                Err(e) => verdict.fail(e),
            }
        }
    }
    let mut job_latencies = Vec::new();
    for round in &rounds {
        for response in &round.responses {
            if let Ok(JobOutput::Run(report)) = &response.result {
                cycles.push(report.apim.cycles.get() as f64);
                job_latencies.push(response.latency.as_secs_f64() * 1e3);
            }
        }
    }
    // The caller waits for a whole sweep: latency is per `run_all` round.
    let round_ms: Vec<f64> = rounds
        .iter()
        .map(|r| r.end.duration_since(r.start).as_secs_f64() * 1e3)
        .collect();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s);
    metrics.set("throughput_rps", sweep_throughput(&rounds));
    metrics.set("latency_p50_ms", quantile(&round_ms, 0.50));
    metrics.set("latency_p99_ms", quantile(&round_ms, 0.99));
    metrics.set("sim_cycles_per_op", mean(&cycles));
    metrics.set("peak_rss_mb", peak_rss_mb());
    let Some(rec) = rec.as_mut() else {
        return Ok(verdict.outcome(metrics));
    };

    serve_metrics(&mut metrics, &before, &after, wall_s);
    metrics.set("serve.lane_batched_ratio", 0.0);
    metrics.set("serve.pool_latency_ms", quantile(&job_latencies, 0.5));
    // The generator's lateness in a closed loop: the gap between one
    // round's answer and the next round's submission.
    let gaps: Vec<f64> = rounds
        .windows(2)
        .map(|w| w[1].start.duration_since(w[0].end).as_secs_f64() * 1e3)
        .collect();
    metrics.set("loadgen.lag_p99_ms", quantile(&gaps, 0.99));
    metrics.set(
        "fail_ratio",
        ratio(verdict.failed as f64, verdict.attempted as f64),
    );
    let untraced_rps = untraced.as_deref().map_or(0.0, sweep_throughput);
    metrics.set(
        "trace.overhead_ratio",
        ratio(untraced_rps, sweep_throughput(&rounds)),
    );
    metrics.set("compile.reuse_ratio", 0.0);
    for (i, round) in rounds.iter().enumerate() {
        let root = rec.record("loadgen.request", 0, i as u64, round.start, round.end, 1);
        rec.record(
            "serve.run_all",
            root,
            i as u64,
            round.start,
            round.end,
            round.requests.len() as u64,
        );
    }

    let jobs = gen::sweep_jobs();
    let messages: Vec<Message> = rounds[0]
        .requests
        .iter()
        .zip(&rounds[0].responses)
        .enumerate()
        .flat_map(|(i, (request, response))| layers::messages_for(i as u64, request, response))
        .collect();
    let pixels = probe_pixels(seed, APIM_PROBE);
    let (multiplies, macs) = pixel_operands(&pixels);
    let rpc_probe: Vec<Request> = rounds[0]
        .requests
        .iter()
        .filter(|r| matches!(r.kind, JobKind::Run { dataset_bytes, .. } if dataset_bytes == gen::SWEEP_MB[0] << 20))
        .cloned()
        .collect();
    let replay = Replay {
        serial: pixels
            .iter()
            .take(SERIAL_REPLAY)
            .map(|(app, taps)| SerialItem::pixel(*app, taps))
            .collect(),
        serial_on_pool_path: false,
        singles: Vec::new(),
        groups: probe_groups(seed),
        groups_on_pool_path: false,
        messages,
        multiplies,
        macs,
        apim_on_pool_path: false,
        apim_ops: 0,
        runs: jobs,
        runs_on_pool_path: true,
        rpc_probe: &rpc_probe,
        service_ns_per_op: service_ns_per_op(&before, &after),
    };
    replay_and_report(rec, &replay, &mut metrics, Workload::PaperSweep, config)?;
    Ok(verdict.outcome(metrics))
}
