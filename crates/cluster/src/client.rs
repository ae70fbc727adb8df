//! The cluster client/router: sharding, health checks and failover.
//!
//! Requests shard by **consistent hashing on the tenant id**: every node
//! contributes `vnodes` points to a hash ring, and a tenant's requests
//! walk the ring from `hash(tenant)`, so (a) one tenant's traffic lands
//! on one *home* node — keeping that node's per-tenant quota meaningful
//! fleet-wide — and (b) losing a node only remaps the tenants it owned,
//! not the whole fleet.
//!
//! The transport is **multiplexed and pipelined**: each node gets up to
//! [`ClusterConfig::conns_per_node`] multiplexed (`mux`) connections,
//! each carrying any number of concurrent logical request streams tagged
//! by correlation id, so a caller never waits behind an unrelated request
//! for a socket. [`ClusterClient::begin_submit`] exposes the pipeline
//! directly: issue without waiting, harvest responses out of order.
//!
//! Failover is transport-level only: a connection failure (dead node,
//! severed mid-RPC) marks the node down and retries the request on the
//! next distinct node along the ring with capped exponential backoff.
//! *Admission* rejections (overload, quota, deadline) are answered to the
//! caller unchanged — forwarding a quota rejection to a non-home node
//! would silently defeat the quota it enforces.

use crate::mux::{MuxConn, PendingRpc};
use crate::wire::{self, Message, WireOutput};
use apim_serve::{Request, ServeError, TenantId};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`ClusterClient`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node addresses (`host:port`). Order is identity: metrics and
    /// routing report nodes by their index here.
    pub nodes: Vec<String>,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: usize,
    /// Total RPC attempts per request across distinct nodes.
    pub max_attempts: u32,
    /// Backoff before a failover retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
    /// Deadline for one RPC (a node slower than this counts as failed and
    /// the request fails over).
    pub rpc_timeout: Duration,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Background health-check period; `None` disables the checker (nodes
    /// are then only marked down by failed RPCs and revived by retries).
    pub health_interval: Option<Duration>,
    /// Multiplexed connections kept per node; RPCs round-robin over them.
    pub conns_per_node: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: Vec::new(),
            vnodes: 16,
            max_attempts: 4,
            retry_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            rpc_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(1),
            health_interval: Some(Duration::from_millis(100)),
            conns_per_node: 4,
        }
    }
}

impl ClusterConfig {
    /// A configuration for the given nodes with every knob at its default.
    pub fn new(nodes: Vec<String>) -> Self {
        ClusterConfig {
            nodes,
            ..ClusterConfig::default()
        }
    }
}

/// Structured failure modes of a cluster submission.
#[derive(Debug)]
pub enum ClusterError {
    /// The client was built with an empty node list.
    NoNodes,
    /// A node answered with an admission/execution rejection; not a
    /// transport failure, so no failover was attempted.
    Rejected(ServeError),
    /// Every eligible node failed at the transport level.
    Unavailable {
        /// RPC attempts made.
        attempts: u32,
        /// Rendering of the last transport error.
        last: String,
    },
    /// A node broke the protocol (bad frame, wrong correlation id).
    Protocol(String),
    /// An IO failure outside the RPC path (e.g. metrics pull).
    Io(io::Error),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "no nodes configured"),
            ClusterError::Rejected(e) => write!(f, "rejected by node: {e}"),
            ClusterError::Unavailable { attempts, last } => {
                write!(
                    f,
                    "all nodes unavailable after {attempts} attempt(s): {last}"
                )
            }
            ClusterError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClusterError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The answer to one successfully served cluster request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterResponse {
    /// Index (into [`ClusterConfig::nodes`]) of the node that answered.
    pub node: usize,
    /// Digest + summary of the result.
    pub output: WireOutput,
    /// Node-side execution attempts.
    pub attempts: u32,
    /// Node-side latency, µs.
    pub node_latency_us: u64,
    /// Transport-level failovers this request survived.
    pub failovers: u32,
}

/// Point-in-time counters of the client's own behaviour (the node-side
/// story lives in the fleet metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests answered successfully.
    pub succeeded: u64,
    /// Requests rejected by a node (admission/execution).
    pub rejected: u64,
    /// Transport-level RPC failures observed.
    pub transport_failures: u64,
    /// Requests that failed over to another node at least once.
    pub failovers: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    submitted: AtomicU64,
    succeeded: AtomicU64,
    rejected: AtomicU64,
    transport_failures: AtomicU64,
    failovers: AtomicU64,
}

/// One configured node: address, up/down belief, multiplexed connections.
struct NodeSlot {
    addr: String,
    up: AtomicBool,
    muxes: Mutex<Vec<Arc<MuxConn>>>,
    rr: AtomicU64,
}

struct ClientInner {
    config: ClusterConfig,
    nodes: Vec<NodeSlot>,
    /// `(ring position, node index)`, sorted by position.
    ring: Vec<(u64, usize)>,
    /// Correlation-id source for every RPC kind (submits, pings, metrics
    /// pulls): one counter keeps ids unique per connection, which the
    /// mux demultiplexer relies on.
    seq: AtomicU64,
    stats: StatsCells,
    stop: AtomicBool,
}

/// A sharding, health-checking, failing-over client over a static node
/// list. Cheap to clone behind an `Arc`; `submit` is safe from any number
/// of threads concurrently.
pub struct ClusterClient {
    inner: Arc<ClientInner>,
    health_thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterClient")
            .field("nodes", &self.inner.config.nodes)
            .finish()
    }
}

/// SplitMix64 finalizer: the ring's hash function.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ClusterClient {
    /// Builds the ring and starts the health checker (if configured).
    /// Connections open lazily on first use, so construction succeeds even
    /// while nodes are still coming up.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoNodes`] for an empty node list.
    pub fn connect(config: ClusterConfig) -> Result<ClusterClient, ClusterError> {
        if config.nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let nodes: Vec<NodeSlot> = config
            .nodes
            .iter()
            .map(|addr| NodeSlot {
                addr: addr.clone(),
                up: AtomicBool::new(true),
                muxes: Mutex::new(Vec::new()),
                rr: AtomicU64::new(0),
            })
            .collect();
        let mut ring = Vec::with_capacity(nodes.len() * config.vnodes.max(1));
        for (index, _) in nodes.iter().enumerate() {
            for replica in 0..config.vnodes.max(1) {
                ring.push((mix((index as u64) << 32 | replica as u64), index));
            }
        }
        ring.sort_unstable();
        let inner = Arc::new(ClientInner {
            config,
            nodes,
            ring,
            seq: AtomicU64::new(0),
            stats: StatsCells::default(),
            stop: AtomicBool::new(false),
        });
        let health_thread = inner.config.health_interval.map(|interval| {
            let health_inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("apim-cluster-health".into())
                .spawn(move || health_loop(&health_inner, interval))
                .expect("spawn health thread")
        });
        Ok(ClusterClient {
            inner,
            health_thread,
        })
    }

    /// The preferred node order for a tenant: ring successors of
    /// `hash(tenant)`, deduplicated, covering every node. Element 0 is the
    /// tenant's home node.
    pub fn route(&self, tenant: TenantId) -> Vec<usize> {
        let inner = &self.inner;
        let point = mix(0x007e_4a11 ^ u64::from(tenant.0));
        let start = inner
            .ring
            .partition_point(|&(position, _)| position < point);
        let mut order = Vec::with_capacity(inner.nodes.len());
        for i in 0..inner.ring.len() {
            let (_, node) = inner.ring[(start + i) % inner.ring.len()];
            if !order.contains(&node) {
                order.push(node);
                if order.len() == inner.nodes.len() {
                    break;
                }
            }
        }
        order
    }

    /// Whether the client currently believes a node is serving.
    pub fn node_up(&self, index: usize) -> bool {
        self.inner.nodes[index].up.load(Ordering::Relaxed)
    }

    /// Submits one request to the tenant's home node, failing over along
    /// the ring on transport errors.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] carries a node's own structured
    /// rejection; [`ClusterError::Unavailable`] means no node could be
    /// reached within the attempt budget.
    pub fn submit(&self, request: &Request) -> Result<ClusterResponse, ClusterError> {
        let inner = &self.inner;
        inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let order = self.route(request.tenant);
        let max_attempts = inner.config.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut failovers = 0u32;
        let mut last = String::from("no attempt made");
        while attempts < max_attempts {
            // Prefer up nodes; once everything is marked down, probe in
            // ring order anyway — a revived node answers, a dead one fails
            // fast.
            let position = attempts as usize % order.len();
            let all_down = order
                .iter()
                .all(|&n| !inner.nodes[n].up.load(Ordering::Relaxed));
            let node = order[position];
            if !all_down && !inner.nodes[node].up.load(Ordering::Relaxed) {
                attempts += 1;
                continue;
            }
            if attempts > 0 {
                let backoff = inner
                    .config
                    .retry_backoff
                    .saturating_mul(1 << (attempts - 1).min(16))
                    .min(inner.config.backoff_cap);
                std::thread::sleep(backoff);
            }
            attempts += 1;
            match rpc_submit(inner, node, request) {
                Ok(reply) => match reply.result {
                    Ok(output) => {
                        inner.stats.succeeded.fetch_add(1, Ordering::Relaxed);
                        if failovers > 0 {
                            inner.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        }
                        return Ok(ClusterResponse {
                            node,
                            output,
                            attempts: reply.attempts,
                            node_latency_us: reply.latency_us,
                            failovers,
                        });
                    }
                    Err(error) => {
                        inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(ClusterError::Rejected(error));
                    }
                },
                Err(e) => {
                    inner
                        .stats
                        .transport_failures
                        .fetch_add(1, Ordering::Relaxed);
                    inner.nodes[node].up.store(false, Ordering::Relaxed);
                    failovers += 1;
                    last = e;
                }
            }
        }
        Err(ClusterError::Unavailable { attempts, last })
    }

    /// Begins one pipelined request on the tenant's home node and returns
    /// without waiting for the answer — the caller harvests it later via
    /// [`PendingSubmit::try_complete`] or [`PendingSubmit::wait`]. Many
    /// pending submissions share one multiplexed connection, so a driver
    /// can keep thousands of logical streams in flight from a handful of
    /// threads.
    ///
    /// Unlike [`ClusterClient::submit`] this does **not** fail over: the
    /// outcome (including any transport error) is reported as-is, and the
    /// caller decides whether to re-submit.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unavailable`] when no connection to the home node
    /// could be opened.
    pub fn begin_submit(&self, request: &Request) -> Result<PendingSubmit, ClusterError> {
        let inner = &self.inner;
        inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let node = self.route(request.tenant)[0];
        let mux = mux_for(inner, node).map_err(|last| {
            inner
                .stats
                .transport_failures
                .fetch_add(1, Ordering::Relaxed);
            ClusterError::Unavailable { attempts: 1, last }
        })?;
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let message = Message::Submit {
            seq,
            request: request.clone(),
        };
        Ok(PendingSubmit {
            node,
            seq,
            rpc: mux.begin(seq, &message),
            inner: Arc::clone(inner),
        })
    }

    /// Pulls every node's metrics snapshot; unreachable nodes are listed,
    /// not fatal.
    ///
    /// # Errors
    ///
    /// This call itself cannot fail; the `Result` keeps the signature
    /// uniform with the submission path for callers that `?` through.
    pub fn pull_metrics(&self) -> Result<crate::fleet::FleetSnapshot, ClusterError> {
        let inner = &self.inner;
        let mut per_node = Vec::new();
        let mut unreachable = Vec::new();
        for (index, slot) in inner.nodes.iter().enumerate() {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            match rpc(inner, index, &Message::MetricsPull { seq }) {
                Ok(Message::Metrics { seq: got, snapshot }) if got == seq => {
                    per_node.push((slot.addr.clone(), *snapshot));
                }
                Ok(_) | Err(_) => unreachable.push(slot.addr.clone()),
            }
        }
        Ok(crate::fleet::FleetSnapshot::merge_from(
            per_node,
            unreachable,
        ))
    }

    /// The client's own counters.
    pub fn stats(&self) -> ClientStats {
        let s = &self.inner.stats;
        ClientStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            succeeded: s.succeeded.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            transport_failures: s.transport_failures.load(Ordering::Relaxed),
            failovers: s.failovers.load(Ordering::Relaxed),
        }
    }

    /// Per-tenant request counts grouped by home node — a quick view of
    /// how the ring spreads the tenant space.
    pub fn shard_map(&self, tenants: impl Iterator<Item = TenantId>) -> HashMap<usize, u64> {
        let mut map = HashMap::new();
        for tenant in tenants {
            *map.entry(self.route(tenant)[0]).or_insert(0) += 1;
        }
        map
    }
}

impl Drop for ClusterClient {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(health) = self.health_thread.take() {
            let _ = health.join();
        }
    }
}

/// One in-flight pipelined submission begun with
/// [`ClusterClient::begin_submit`].
pub struct PendingSubmit {
    node: usize,
    seq: u64,
    rpc: PendingRpc,
    inner: Arc<ClientInner>,
}

impl fmt::Debug for PendingSubmit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingSubmit")
            .field("node", &self.node)
            .field("seq", &self.seq)
            .finish()
    }
}

impl PendingSubmit {
    /// Index of the node this submission was sent to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The outcome, if the response (or a connection failure) already
    /// arrived. Consumes the outcome; a second call returns `None`.
    pub fn try_complete(&mut self) -> Option<Result<ClusterResponse, ClusterError>> {
        let outcome = self.rpc.try_complete()?;
        Some(settle(&self.inner, self.node, self.seq, outcome))
    }

    /// Blocks until the response arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] for a node-side rejection,
    /// [`ClusterError::Unavailable`] for a transport failure or timeout.
    pub fn wait(self, timeout: Duration) -> Result<ClusterResponse, ClusterError> {
        let PendingSubmit {
            node,
            seq,
            rpc,
            inner,
        } = self;
        let outcome = rpc.wait(timeout);
        settle(&inner, node, seq, outcome)
    }
}

/// Maps a raw mux outcome to the public response type, updating stats.
fn settle(
    inner: &ClientInner,
    node: usize,
    seq: u64,
    outcome: Result<Message, String>,
) -> Result<ClusterResponse, ClusterError> {
    match outcome {
        Ok(Message::Reply { seq: got, reply }) if got == seq => match reply.result {
            Ok(output) => {
                inner.stats.succeeded.fetch_add(1, Ordering::Relaxed);
                Ok(ClusterResponse {
                    node,
                    output,
                    attempts: reply.attempts,
                    node_latency_us: reply.latency_us,
                    failovers: 0,
                })
            }
            Err(error) => {
                inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ClusterError::Rejected(error))
            }
        },
        Ok(other) => {
            inner
                .stats
                .transport_failures
                .fetch_add(1, Ordering::Relaxed);
            Err(ClusterError::Protocol(format!(
                "unexpected answer kind {other:?}"
            )))
        }
        Err(last) => {
            inner
                .stats
                .transport_failures
                .fetch_add(1, Ordering::Relaxed);
            inner.nodes[node].up.store(false, Ordering::Relaxed);
            Err(ClusterError::Unavailable { attempts: 1, last })
        }
    }
}

fn health_loop(inner: &Arc<ClientInner>, interval: Duration) {
    while !inner.stop.load(Ordering::SeqCst) {
        for (index, slot) in inner.nodes.iter().enumerate() {
            let nonce = inner.seq.fetch_add(1, Ordering::Relaxed);
            let alive = matches!(
                rpc(inner, index, &Message::Ping { nonce }),
                Ok(Message::Pong { nonce: n, .. }) if n == nonce
            );
            slot.up.store(alive, Ordering::Relaxed);
        }
        // Sleep in small slices so Drop never waits a full interval.
        let mut remaining = interval;
        while remaining > Duration::ZERO && !inner.stop.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(10));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

/// Resolves a configured `host:port` string to one socket address.
fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no address"))
}

/// Picks a live multiplexed connection to `node` (round-robin), opening a
/// new one while the pool is below `conns_per_node` or every socket died.
fn mux_for(inner: &ClientInner, node: usize) -> Result<Arc<MuxConn>, String> {
    let slot = &inner.nodes[node];
    let mut muxes = slot.muxes.lock().expect("mux pool");
    muxes.retain(|m| !m.is_dead());
    if muxes.len() < inner.config.conns_per_node.max(1) {
        let opened = resolve(&slot.addr).and_then(|addr| {
            MuxConn::connect(addr, inner.config.connect_timeout)
                .map_err(|e| format!("connect {addr}: {e}"))
        });
        match opened {
            Ok(mux) => muxes.push(Arc::new(mux)),
            Err(e) if muxes.is_empty() => return Err(e),
            // Keep serving on the sockets we still have.
            Err(_) => {}
        }
    }
    let index = slot.rr.fetch_add(1, Ordering::Relaxed) as usize % muxes.len();
    Ok(Arc::clone(&muxes[index]))
}

/// The correlation id a request message expects its response to echo.
fn request_correlation(message: &Message) -> u64 {
    match message {
        Message::Submit { seq, .. } | Message::MetricsPull { seq } => *seq,
        Message::Ping { nonce } => *nonce,
        _ => 0,
    }
}

/// One request/response exchange on a multiplexed connection to `node`.
fn rpc(inner: &ClientInner, node: usize, message: &Message) -> Result<Message, String> {
    mux_for(inner, node)?.call(
        request_correlation(message),
        message,
        inner.config.rpc_timeout,
    )
}

/// A submit RPC with correlation-id checking.
fn rpc_submit(inner: &ClientInner, node: usize, request: &Request) -> Result<wire::Reply, String> {
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    let message = Message::Submit {
        seq,
        request: request.clone(),
    };
    match rpc(inner, node, &message)? {
        Message::Reply { seq: got, reply } if got == seq => Ok(reply),
        Message::Reply { seq: got, .. } => {
            Err(format!("correlation mismatch: sent {seq}, got {got}"))
        }
        other => Err(format!("unexpected answer kind {other:?}")),
    }
}
