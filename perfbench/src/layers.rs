//! The traced run's replay: the workload's own requests pushed through the
//! public function of each layer, one span per call (or per batch of calls
//! too short to time alone).
//!
//! Parent spans group the calls: `replay.pool` holds exactly the work the
//! pool does for a request (so its children's time per op can be set
//! against the pool's own batch service time), `replay.layers` holds the
//! extra calls that split a serial run into execution and lint, and
//! `replay.probe` holds calls into layers the workload does not reach.

use crate::gen::kernel_dag;
use crate::oracle::bind;
use crate::spans::Recorder;
use apim::{Apim, ApimConfig, App, PrecisionMode};
use apim_cluster::wire::{self, Message, Reply, WireFraming, WireOutput};
use apim_cluster::LoopbackCluster;
use apim_compile::{CompileOptions, Dag, Program};
use apim_net::RecvBuffer;
use apim_serve::{JobOutput, PoolConfig, Request, Response};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One serial compiled-program instance to replay.
#[derive(Debug, Clone)]
pub struct SerialItem {
    /// Source text, when the system parses one (`None`: a built-in kernel,
    /// whose rendered source is parsed instead).
    pub source: Option<String>,
    /// The program.
    pub dag: Dag,
    /// Input bindings.
    pub inputs: HashMap<String, u64>,
}

impl SerialItem {
    /// A pixel request's kernel and taps.
    pub fn pixel(app: App, taps: &[u64]) -> Self {
        let dag = kernel_dag(app);
        let inputs = bind(&dag, taps);
        SerialItem {
            source: None,
            dag,
            inputs,
        }
    }
}

/// Exact counts gathered while replaying serial instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialCounts {
    /// Instances replayed.
    pub instances: u64,
    /// Recorded micro-ops, summed.
    pub micro_ops: u64,
    /// Crossbar energy, summed, pJ.
    pub energy_pj: f64,
}

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("replay {what}: {e}")
}

/// Replays serial instances: parse, compile and run (exec + lint) under a
/// `pool_parent` span — the pool's own serial path — then, with `split`,
/// one `record` (exec alone) and one `verify_trace` (lint alone, four of
/// the five passes: allocator events are not public) under
/// `replay.layers`. Counts cover the split instances.
///
/// # Errors
///
/// Any compile, run or lint failure, or a value that disagrees with the
/// reference evaluator.
pub fn replay_serial(
    rec: &mut Recorder,
    pool_parent: &'static str,
    items: &[SerialItem],
    split: bool,
) -> Result<SerialCounts, String> {
    let options = CompileOptions::default();
    let mut counts = SerialCounts::default();
    for (i, item) in items.iter().enumerate() {
        let id = i as u64;
        // The pool parses compile requests; built-in kernels it does not,
        // so their rendered source is parsed as a probe, outside the pool path.
        let (parsed, parent) = match &item.source {
            Some(source) => {
                let parent = rec.open(pool_parent, id);
                let parsed = rec.time("compile.parse", parent, id, 1, || {
                    apim_compile::parse_program(source)
                });
                (parsed, parent)
            }
            None => {
                let source = apim_compile::render_program(&Program {
                    dag: item.dag.clone(),
                });
                let probe = rec.open("replay.probe", id);
                let parsed = rec.time("compile.parse", probe, id, 1, || {
                    apim_compile::parse_program(&source)
                });
                rec.close(probe);
                (parsed, rec.open(pool_parent, id))
            }
        };
        let parsed = parsed.map_err(|e| fail("parse", e))?;
        let program = rec
            .time("compile.compile", parent, id, 1, || {
                apim_compile::compile(&parsed.dag, &options)
            })
            .map_err(|e| fail("compile", e))?;
        let report = rec
            .time("compile.run", parent, id, 1, || program.run(&item.inputs))
            .map_err(|e| fail("run", e))?;
        rec.close(parent);
        let expected =
            apim_compile::evaluate(&item.dag, &item.inputs).map_err(|e| fail("eval", e))?;
        if report.value != expected {
            return Err(format!(
                "replay run: got {}, expected {expected}",
                report.value
            ));
        }
        if !split {
            continue;
        }
        let parent = rec.open("replay.layers", id);
        let (ops, _, _) = rec
            .time("crossbar.exec", parent, id, 1, || {
                program.record(&item.inputs)
            })
            .map_err(|e| fail("record", e))?;
        let lint = rec.time("verify.lint", parent, id, 1, || {
            apim_verify::verify_trace(&ops, &[], Some(report.expected_cycles))
        });
        rec.close(parent);
        if lint.error_count() > 0 {
            return Err(fail("lint", lint));
        }
        counts.instances += 1;
        counts.micro_ops += ops.len() as u64;
        counts.energy_pj += report.energy.as_picojoules();
    }
    Ok(counts)
}

/// Replays lane-batched pixel passes — one `compile_batched` and one batched
/// `run` per group, as the pool's coalescer issues them.
///
/// # Errors
///
/// Any compile or run failure, or a lane that disagrees with the reference
/// evaluator.
pub fn replay_batched(
    rec: &mut Recorder,
    parent_name: &'static str,
    groups: &[(App, Vec<Vec<u64>>)],
) -> Result<u64, String> {
    let options = CompileOptions::default();
    let mut lanes_total = 0;
    for (i, (app, members)) in groups.iter().enumerate() {
        let id = i as u64;
        let dag = kernel_dag(*app);
        let bindings: Vec<HashMap<String, u64>> =
            members.iter().map(|taps| bind(&dag, taps)).collect();
        let parent = rec.open(parent_name, id);
        let program = rec
            .time("compile.batched_compile", parent, id, 1, || {
                apim_compile::compile_batched(&dag, &options, members.len())
            })
            .map_err(|e| fail("compile_batched", e))?;
        let report = rec
            .time("compile.batched_run", parent, id, 1, || {
                program.run(&bindings)
            })
            .map_err(|e| fail("batched run", e))?;
        rec.close(parent);
        for (lane, inputs) in bindings.iter().enumerate() {
            let expected = apim_compile::evaluate(&dag, inputs).map_err(|e| fail("eval", e))?;
            if report.values[lane] != expected {
                return Err(format!(
                    "replay batched lane {lane}: got {}, expected {expected}",
                    report.values[lane]
                ));
            }
        }
        lanes_total += members.len() as u64;
    }
    Ok(lanes_total)
}

/// Passes over the frame set per wire measurement, so one span covers
/// enough calls to time.
const WIRE_PASSES: u64 = 5;
/// Bytes per simulated receive, roughly one Ethernet segment.
const SEGMENT: usize = 1448;

/// Times the wire codec and the receive framer over `messages`:
/// `encode_frame` on each, `decode_frame` on each encoding, and
/// `RecvBuffer::next_frame` reassembling the concatenated stream fed in
/// segment-sized pushes.
///
/// # Errors
///
/// A frame that does not decode back to its message, or a stream that does
/// not reassemble into the same number of frames.
pub fn replay_wire(rec: &mut Recorder, messages: &[Message]) -> Result<(), String> {
    let n = messages.len() as u64;
    if n == 0 {
        return Ok(());
    }
    let parent = rec.open("replay.probe", 0);
    let mut frames = Vec::new();
    rec.time("wire.encode", parent, 0, n * WIRE_PASSES, || {
        for _ in 0..WIRE_PASSES {
            frames = messages
                .iter()
                .map(|m| black_box(wire::encode_frame(m)))
                .collect();
        }
    });
    let decoded = rec.time("wire.decode", parent, 0, n * WIRE_PASSES, || {
        let mut out = Vec::new();
        for _ in 0..WIRE_PASSES {
            out = frames
                .iter()
                .map(|f| wire::decode_frame(black_box(f)))
                .collect::<Vec<_>>();
        }
        out
    });
    let stream: Vec<u8> = frames.concat();
    let framed = rec.time("net.frame", parent, 0, n * WIRE_PASSES, || {
        let mut count = 0u64;
        for _ in 0..WIRE_PASSES {
            let mut buffer = RecvBuffer::new();
            for segment in stream.chunks(SEGMENT) {
                buffer.push_bytes(segment);
                while let Ok(Some(frame)) = buffer.next_frame(&WireFraming) {
                    black_box(frame);
                    count += 1;
                }
            }
        }
        count
    });
    rec.close(parent);
    for (message, decoded) in messages.iter().zip(&decoded) {
        match decoded {
            Ok((m, _)) if m == message => {}
            other => return Err(format!("wire round trip of {message:?} gave {other:?}")),
        }
    }
    if framed != n * WIRE_PASSES {
        return Err(format!(
            "framer yielded {framed} frames, expected {}",
            n * WIRE_PASSES
        ));
    }
    Ok(())
}

/// The wire messages a request and its pool answer travel as.
pub fn messages_for(seq: u64, request: &Request, response: &Response) -> [Message; 2] {
    let result = response.result.as_ref().map_or_else(
        |e| Err(e.clone()),
        |out: &JobOutput| {
            Ok(WireOutput {
                digest: apim_serve::loadgen::output_digest(out),
                summary: out.summary(),
            })
        },
    );
    [
        Message::Submit {
            seq,
            request: request.clone(),
        },
        Message::Reply {
            seq,
            reply: Reply {
                tenant: response.tenant,
                attempts: response.attempts,
                latency_us: u64::try_from(response.latency.as_micros()).unwrap_or(u64::MAX),
                result,
            },
        },
    ]
}

/// Passes over the operand set per multiply measurement.
pub const APIM_PASSES: u64 = 20;

/// Times `Apim::multiply` over `multiplies` and `Apim::multiply_batch` over
/// `macs` (exact mode), each as one span under `parent`.
pub fn replay_apim(
    rec: &mut Recorder,
    parent: u64,
    multiplies: &[(u64, u64)],
    macs: &[Vec<(u64, u64)>],
) {
    let apim = Apim::new(ApimConfig::default()).expect("default device config is valid");
    let mode = PrecisionMode::Exact;
    if !multiplies.is_empty() {
        rec.time(
            "apim.multiply",
            parent,
            0,
            multiplies.len() as u64 * APIM_PASSES,
            || {
                for _ in 0..APIM_PASSES {
                    for &(a, b) in multiplies {
                        black_box(apim.multiply(black_box(a), black_box(b), mode));
                    }
                }
            },
        );
    }
    if !macs.is_empty() {
        rec.time(
            "apim.mac",
            parent,
            0,
            macs.len() as u64 * APIM_PASSES,
            || {
                for _ in 0..APIM_PASSES {
                    for pairs in macs {
                        black_box(apim.multiply_batch(black_box(pairs), mode));
                    }
                }
            },
        );
    }
}

/// Calls per analytic-profile span: one call takes well under a microsecond.
const PROFILE_REPS: u64 = 200;

/// Span-name suffix for an app (`apim.run.sobel`).
pub fn app_key(app: App) -> String {
    app.name().to_ascii_lowercase()
}

/// Times the architecture executor's analytic profile and a full
/// `Apim::run_with_mode` (profile + GPU baseline + quality run) for every
/// job; the runs sit under a `run_parent` span of their own.
///
/// # Errors
///
/// A simulator error.
pub fn replay_runs(
    rec: &mut Recorder,
    run_parent: &'static str,
    jobs: &[(App, u64, PrecisionMode)],
) -> Result<(), String> {
    let apim = Apim::new(ApimConfig::default()).expect("default device config is valid");
    for (i, &(app, bytes, mode)) in jobs.iter().enumerate() {
        let id = i as u64;
        let key = app_key(app);
        let profile = apim::profile_of(app);
        let parent = rec.open("replay.probe", id);
        rec.time(
            format!("arch.profile.{key}"),
            parent,
            id,
            PROFILE_REPS,
            || {
                for _ in 0..PROFILE_REPS {
                    let _ = black_box(apim.executor().run_profile_with_mode(
                        &profile,
                        black_box(bytes),
                        mode,
                    ));
                }
            },
        );
        rec.close(parent);
        let parent = rec.open(run_parent, id);
        rec.time(format!("apim.run.{key}"), parent, id, 1, || {
            apim.run_with_mode(app, bytes, mode)
        })
        .map_err(|e| fail("run_with_mode", e))?;
        rec.close(parent);
    }
    Ok(())
}

/// Outcome of sending requests through a one-node loopback cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct RpcCounts {
    /// Requests that failed over to another node.
    pub failovers: u64,
    /// Transport-level failures.
    pub transport_failures: u64,
}

/// Sends `requests` one at a time through a one-node, one-worker loopback
/// cluster on one connection, recording a `cluster.rpc` span per request
/// with a `serve.node` child covering the node-reported latency — for
/// workloads that do not otherwise reach the cluster tier.
///
/// # Errors
///
/// Cluster spawn failures and failed requests.
pub fn replay_rpc(rec: &mut Recorder, requests: &[Request]) -> Result<RpcCounts, String> {
    let pool = PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    };
    let cluster = LoopbackCluster::spawn(1, &pool).map_err(|e| fail("cluster spawn", e))?;
    let mut config = cluster.client_config();
    config.conns_per_node = 1;
    config.health_interval = None;
    let client = apim_cluster::ClusterClient::connect(config).map_err(|e| fail("connect", e))?;
    let mut outcome = Ok(());
    for (i, request) in requests.iter().enumerate() {
        let sent = Instant::now();
        let reply = client
            .begin_submit(request)
            .and_then(|pending| pending.wait(Duration::from_secs(60)));
        let done = Instant::now();
        match reply {
            Ok(response) => record_rpc(rec, 0, i as u64, sent, done, response.node_latency_us),
            Err(e) => {
                outcome = Err(fail("rpc", e));
                break;
            }
        }
    }
    let stats = client.stats();
    drop(client);
    cluster.shutdown();
    outcome.map(|()| RpcCounts {
        failovers: stats.failovers,
        transport_failures: stats.transport_failures,
    })
}

/// Records one RPC as a `cluster.rpc` span under `parent` with a
/// `serve.node` child: the node-reported latency, placed at the end of the
/// client interval.
pub fn record_rpc(
    rec: &mut Recorder,
    parent: u64,
    request: u64,
    sent: Instant,
    done: Instant,
    node_us: u64,
) {
    let rpc = rec.record("cluster.rpc", parent, request, sent, done, 1);
    let node_start = done
        .checked_sub(Duration::from_micros(node_us))
        .map_or(sent, |t| t.max(sent));
    rec.record("serve.node", rpc, request, node_start, done, 1);
}
