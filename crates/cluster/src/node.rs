//! The node daemon: one `apim_serve::Pool` behind a TCP listener.
//!
//! The default transport is an `apim-net` event loop: **one** thread
//! drives every connection through a nonblocking readiness scan, so a
//! connection carries as many pipelined RPCs as the per-connection
//! in-flight cap allows. Frames are reassembled in each connection's
//! receive buffer and parsed in place (no per-frame copy); submits are
//! dispatched to the pool without waiting, and replies are written back
//! in completion order — out-of-order responses are the point, the `seq`
//! correlation id restores the pairing on the client.
//!
//! The pre-event-loop thread-per-connection transport is kept as
//! [`Transport::Blocking`], both as the soak benchmark's baseline and as
//! a debugging fallback. It serves one RPC at a time per connection.
//!
//! Protocol violations (bad magic, hostile length prefix, a client
//! sending server-only kinds) are answered with a structured
//! [`Message::ProtocolError`] frame and the connection is closed: once a
//! peer has sent bytes outside the protocol there is no trustworthy
//! framing left to keep serving on. Well-formed but rejected requests
//! (overload, quota, the per-connection pipeline cap) are answered with
//! structured errors, so admission control crosses the wire intact.

use crate::wire::{self, Message, RecvError, Reply, WireFraming, WireOutput};
use apim_net::{Connection, Interest, Poller, TimerWheel, Token};
use apim_serve::loadgen::output_digest;
use apim_serve::{JobHandle, Pool, PoolConfig, Response, ServeError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a node moves bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// One event-loop thread drives all connections (nonblocking I/O,
    /// multiplexed and pipelined). The default.
    #[default]
    EventLoop,
    /// One thread per connection over blocking I/O, one RPC at a time.
    /// The soak benchmark's baseline.
    Blocking,
}

/// Configuration of a [`Node`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Listen address; port 0 picks a free loopback port (the harness
    /// default).
    pub addr: String,
    /// The serving pool this node wraps.
    pub pool: PoolConfig,
    /// Which transport serves connections.
    pub transport: Transport,
    /// Per-connection cap on pipelined in-flight requests; submits beyond
    /// it are answered with [`ServeError::Overloaded`] instead of queued
    /// without bound. Ignored by [`Transport::Blocking`], which is capped
    /// at one by construction.
    pub max_inflight_per_conn: usize,
    /// Close a connection after this long without traffic (event loop
    /// only). `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig::default(),
            transport: Transport::EventLoop,
            max_inflight_per_conn: 256,
            idle_timeout: None,
        }
    }
}

struct NodeInner {
    pool: Pool,
    stop: AtomicBool,
    /// Clones of every live connection (blocking transport only), kept so
    /// shutdown/kill can unblock handler threads parked in blocking reads.
    conns: Mutex<Vec<TcpStream>>,
}

/// A running node daemon. Dropping the handle without calling
/// [`Node::shutdown`] or [`Node::kill`] kills the node abruptly.
pub struct Node {
    addr: SocketAddr,
    inner: Arc<NodeInner>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").field("addr", &self.addr).finish()
    }
}

impl Node {
    /// Binds the listener, spawns the pool and the transport thread(s).
    ///
    /// # Errors
    ///
    /// Propagates bind failures and invalid pool configurations (the
    /// latter as [`io::ErrorKind::InvalidInput`]).
    pub fn spawn(config: NodeConfig) -> io::Result<Node> {
        let pool = Pool::new(config.pool.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let inner = Arc::new(NodeInner {
            pool,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_inner = Arc::clone(&inner);
        let accept_handlers = Arc::clone(&handlers);
        let accept_thread = match config.transport {
            Transport::EventLoop => {
                let max_inflight = config.max_inflight_per_conn.max(1);
                let idle_timeout = config.idle_timeout;
                std::thread::Builder::new()
                    .name(format!("apim-node-loop-{addr}"))
                    .spawn(move || {
                        event_loop(&listener, &accept_inner, max_inflight, idle_timeout);
                    })?
            }
            Transport::Blocking => std::thread::Builder::new()
                .name(format!("apim-node-accept-{addr}"))
                .spawn(move || accept_loop(&listener, &accept_inner, &accept_handlers))?,
        };
        Ok(Node {
            addr,
            inner,
            accept_thread: Some(accept_thread),
            handlers,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's live metrics registry (also served over the wire).
    pub fn metrics(&self) -> &apim_serve::Metrics {
        self.inner.pool.metrics()
    }

    /// Graceful stop: finish the pool's backlog, let the transport write
    /// out pending replies, close connections, join every thread. Clients
    /// should quiesce first; replies racing the close may be cut off.
    pub fn shutdown(mut self) {
        self.inner.pool.drain();
        // The backlog's responses are filled; give the transport a window
        // to harvest them onto the wire before severing.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.inner.pool.metrics().inflight_requests.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(10));
        self.stop_threads();
    }

    /// Abrupt stop for failover testing: connections are severed
    /// immediately, mid-flight RPCs and all. Clients observe transport
    /// errors and must retry elsewhere.
    pub fn kill(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for conn in self.inner.conns.lock().expect("conn list").drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        let handlers: Vec<_> = self
            .handlers
            .lock()
            .expect("handler list")
            .drain(..)
            .collect();
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_threads();
        }
    }
}

/// Reduces a pool [`Response`] to its wire reply.
fn reply_of(response: &Response) -> Reply {
    Reply {
        tenant: response.tenant,
        attempts: response.attempts,
        latency_us: u64::try_from(response.latency.as_micros()).unwrap_or(u64::MAX),
        result: response
            .result
            .as_ref()
            .map(|output| WireOutput {
                digest: output_digest(output),
                summary: output.summary(),
            })
            .map_err(Clone::clone),
    }
}

/// A rejection reply carrying a structured error, no execution attempted.
fn rejection(seq: u64, tenant: apim_serve::TenantId, error: ServeError) -> Message {
    Message::Reply {
        seq,
        reply: Reply {
            tenant,
            attempts: 0,
            latency_us: 0,
            result: Err(error),
        },
    }
}

// ---------------------------------------------------------------------------
// Event-loop transport
// ---------------------------------------------------------------------------

/// Per-connection state the event loop iterates.
struct ConnState {
    conn: Connection,
    /// Pipelined submits dispatched to the pool and not yet answered on
    /// the wire, as `(seq, handle)` pairs.
    pending: Vec<(u64, JobHandle)>,
    last_activity: Instant,
}

/// The resolution of the idle-sweep timer wheel.
const WHEEL_TICK: Duration = Duration::from_millis(10);

fn event_loop(
    listener: &TcpListener,
    inner: &Arc<NodeInner>,
    max_inflight: usize,
    idle_timeout: Option<Duration>,
) {
    let framing = WireFraming;
    let metrics = inner.pool.metrics();
    let mut poller = Poller::new();
    let mut events = Vec::new();
    let mut wheel = TimerWheel::new(WHEEL_TICK);
    let mut expired: Vec<u64> = Vec::new();
    // Connection slab: the slot index is the poller token.
    let mut slots: Vec<Option<ConnState>> = Vec::new();
    while !inner.stop.load(Ordering::SeqCst) {
        // Accept everything waiting, then fall through to the scan so a
        // connect-then-send burst is served in one iteration.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let Ok(conn) = Connection::new(stream) else {
                        continue;
                    };
                    let token = slots.iter().position(Option::is_none).unwrap_or_else(|| {
                        slots.push(None);
                        slots.len() - 1
                    });
                    if poller
                        .register_stream(conn.stream(), Token(token), Interest::READABLE)
                        .is_err()
                    {
                        slots[token] = None;
                        continue;
                    }
                    metrics.connections_open.inc();
                    let now = Instant::now();
                    if let Some(idle) = idle_timeout {
                        wheel.schedule(now, idle, token as u64);
                    }
                    slots[token] = Some(ConnState {
                        conn,
                        pending: Vec::new(),
                        last_activity: now,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return,
            }
        }
        // Readiness scan. With replies pending the timeout stays short so
        // completions reach the wire quickly; an idle node naps longer.
        let busy = slots
            .iter()
            .flatten()
            .any(|s| !s.pending.is_empty() || s.conn.wants_write());
        let timeout = if busy {
            Duration::from_micros(200)
        } else {
            Duration::from_millis(2)
        };
        poller.poll(&mut events, timeout);
        for event in &events {
            let Some(state) = slots.get_mut(event.token.0).and_then(Option::as_mut) else {
                continue;
            };
            if !event.readable {
                continue;
            }
            if state.conn.fill().is_ok() {
                state.last_activity = Instant::now();
            }
            drain_frames(state, inner, max_inflight, &framing);
        }
        // Harvest completions: any pipelined submit whose response is
        // ready gets its reply queued, in completion order.
        for state in slots.iter_mut().flatten() {
            let mut i = 0;
            while i < state.pending.len() {
                if let Some(response) = state.pending[i].1.try_wait() {
                    let (seq, _) = state.pending.swap_remove(i);
                    state.conn.queue_frame(&wire::encode_frame(&Message::Reply {
                        seq,
                        reply: reply_of(&response),
                    }));
                    metrics.inflight_requests.dec();
                } else {
                    i += 1;
                }
            }
            if state.conn.wants_write() && !state.conn.is_closed() {
                let _ = state.conn.flush();
            }
        }
        // Idle sweep.
        expired.clear();
        wheel.poll(Instant::now(), &mut expired);
        for &payload in &expired {
            let token = payload as usize;
            let Some(idle) = idle_timeout else { continue };
            let Some(state) = slots.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            let quiet = state.last_activity.elapsed();
            if quiet >= idle && state.pending.is_empty() {
                state.conn.close();
            } else {
                // Active (or mid-request): re-arm for the remaining window.
                wheel.schedule(
                    Instant::now(),
                    idle.saturating_sub(quiet).max(WHEEL_TICK),
                    payload,
                );
            }
        }
        // Reap severed connections; their in-flight work is abandoned
        // (the pool still answers the handles, nobody is listening).
        for slot in &mut slots {
            let closed = slot.as_ref().is_some_and(|s| s.conn.is_closed());
            if closed {
                let state = slot.take().expect("checked above");
                for _ in &state.pending {
                    metrics.inflight_requests.dec();
                }
                metrics.connections_open.dec();
            }
        }
        let live: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        // Deregister tokens whose slots emptied this iteration.
        for token in 0..slots.len() {
            if !live.contains(&token) {
                poller.deregister(Token(token));
            }
        }
    }
    // Loop exit: drop the slab, closing every socket.
    for state in slots.into_iter().flatten() {
        for _ in &state.pending {
            metrics.inflight_requests.dec();
        }
        metrics.connections_open.dec();
    }
}

/// Pulls every complete frame out of the connection's receive buffer and
/// handles it. A framing error answers with [`Message::ProtocolError`]
/// and closes.
fn drain_frames(
    state: &mut ConnState,
    inner: &Arc<NodeInner>,
    max_inflight: usize,
    framing: &WireFraming,
) {
    loop {
        let message = match state.conn.next_frame(framing) {
            Ok(Some(frame)) => match wire::decode_frame(frame) {
                Ok((message, _consumed)) => message,
                Err(e) => {
                    protocol_error(state, &e.to_string());
                    return;
                }
            },
            Ok(None) => return,
            Err(e) => {
                protocol_error(state, &e.to_string());
                return;
            }
        };
        state.last_activity = Instant::now();
        handle_message(state, inner, max_inflight, message);
        if state.conn.is_closed() {
            return;
        }
    }
}

/// Best-effort structured goodbye: queue the error frame, try one flush,
/// close.
fn protocol_error(state: &mut ConnState, detail: &str) {
    state
        .conn
        .queue_frame(&wire::encode_frame(&Message::ProtocolError {
            detail: detail.to_string(),
        }));
    let _ = state.conn.flush();
    state.conn.close();
}

fn handle_message(
    state: &mut ConnState,
    inner: &Arc<NodeInner>,
    max_inflight: usize,
    message: Message,
) {
    let metrics = inner.pool.metrics();
    match message {
        Message::Submit { seq, request } => {
            let tenant = request.tenant;
            if state.pending.len() >= max_inflight {
                // Pipeline backpressure: same shape as pool admission
                // rejection, so clients treat it identically (and never
                // fail over on it).
                metrics.rejected.inc();
                metrics.tenant(tenant.0).rejected.inc();
                state.conn.queue_frame(&wire::encode_frame(&rejection(
                    seq,
                    tenant,
                    ServeError::Overloaded {
                        depth: state.pending.len(),
                    },
                )));
            } else {
                match inner.pool.submit(request) {
                    Ok(handle) => {
                        metrics.inflight_requests.inc();
                        state.pending.push((seq, handle));
                    }
                    Err(error) => {
                        state
                            .conn
                            .queue_frame(&wire::encode_frame(&rejection(seq, tenant, error)));
                    }
                }
            }
        }
        Message::Ping { nonce } => {
            state.conn.queue_frame(&wire::encode_frame(&Message::Pong {
                nonce,
                workers: u32::try_from(inner.pool.config().workers).unwrap_or(u32::MAX),
                queue_depth: inner.pool.queue_depth() as u64,
            }));
        }
        Message::MetricsPull { seq } => {
            state
                .conn
                .queue_frame(&wire::encode_frame(&Message::Metrics {
                    seq,
                    snapshot: Box::new(inner.pool.metrics().snapshot()),
                }));
        }
        // Clients never send server-only kinds; a peer that does is broken.
        Message::Reply { .. } | Message::Pong { .. } | Message::Metrics { .. } => {
            protocol_error(state, "client sent a server-only message kind");
        }
        // The peer told us our bytes confused it; nothing to answer.
        Message::ProtocolError { .. } => state.conn.close(),
    }
}

// ---------------------------------------------------------------------------
// Blocking (thread-per-connection) transport — the soak baseline
// ---------------------------------------------------------------------------

fn accept_loop(
    listener: &TcpListener,
    inner: &Arc<NodeInner>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    inner.conns.lock().expect("conn list").push(clone);
                }
                let conn_inner = Arc::clone(inner);
                let spawned = std::thread::Builder::new()
                    .name(format!("apim-node-conn-{peer}"))
                    .spawn(move || {
                        conn_inner.pool.metrics().connections_open.inc();
                        handle_connection(stream, &conn_inner);
                        conn_inner.pool.metrics().connections_open.dec();
                    });
                if let Ok(handle) = spawned {
                    handlers.lock().expect("handler list").push(handle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn handle_connection(mut stream: TcpStream, inner: &Arc<NodeInner>) {
    loop {
        let message = match wire::read_message(&mut stream) {
            Ok(message) => message,
            // Protocol violation: say why before hanging up. The decoder
            // guarantees malformed bytes land here as structured errors
            // rather than panics (a hostile length prefix included).
            Err(RecvError::Wire(e)) => {
                let _ = wire::write_message(
                    &mut stream,
                    &Message::ProtocolError {
                        detail: e.to_string(),
                    },
                );
                return;
            }
            Err(RecvError::Io(_)) => return,
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let metrics = inner.pool.metrics();
        let answer = match message {
            Message::Submit { seq, request } => {
                let tenant = request.tenant;
                match inner.pool.submit(request) {
                    Ok(handle) => {
                        metrics.inflight_requests.inc();
                        let response = handle.wait();
                        metrics.inflight_requests.dec();
                        Message::Reply {
                            seq,
                            reply: reply_of(&response),
                        }
                    }
                    Err(error) => rejection(seq, tenant, error),
                }
            }
            Message::Ping { nonce } => Message::Pong {
                nonce,
                workers: u32::try_from(inner.pool.config().workers).unwrap_or(u32::MAX),
                queue_depth: inner.pool.queue_depth() as u64,
            },
            Message::MetricsPull { seq } => Message::Metrics {
                seq,
                snapshot: Box::new(inner.pool.metrics().snapshot()),
            },
            // Clients never send server-only kinds; a peer that does is
            // broken, and the connection closes with a structured goodbye.
            Message::Reply { .. } | Message::Pong { .. } | Message::Metrics { .. } => {
                let _ = wire::write_message(
                    &mut stream,
                    &Message::ProtocolError {
                        detail: "client sent a server-only message kind".into(),
                    },
                );
                return;
            }
            Message::ProtocolError { .. } => return,
        };
        if wire::write_message(&mut stream, &answer).is_err() {
            return;
        }
    }
}
