//! The node daemon: one `apim_serve::Pool` behind a TCP listener.
//!
//! An `apim-net` event loop serves every connection: **one** thread
//! drives them all through a nonblocking readiness scan, so a connection
//! carries as many pipelined RPCs as the per-connection in-flight cap
//! allows. Frames are reassembled in each connection's receive buffer and
//! parsed in place (no per-frame copy); submits are dispatched to the
//! pool without waiting, and replies are written back in completion
//! order — out-of-order responses are the point, the `seq` correlation id
//! restores the pairing on the client.
//!
//! Protocol violations (bad magic, hostile length prefix, a client
//! sending server-only kinds) are answered with a structured
//! [`Message::ProtocolError`] frame and the connection is closed: once a
//! peer has sent bytes outside the protocol there is no trustworthy
//! framing left to keep serving on. Well-formed but rejected requests
//! (overload, quota, the per-connection pipeline cap) are answered with
//! structured errors, so admission control crosses the wire intact.

use crate::wire::{self, Message, Reply, WireFraming, WireOutput};
use apim_net::{Connection, Interest, Poller, Token};
use apim_serve::loadgen::output_digest;
use apim_serve::{JobHandle, Metrics, Pool, PoolConfig, Response, ServeError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Node`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Listen address; port 0 picks a free loopback port (the harness
    /// default).
    pub addr: String,
    /// The serving pool this node wraps.
    pub pool: PoolConfig,
    /// Per-connection cap on pipelined in-flight requests; submits beyond
    /// it are answered with [`ServeError::Overloaded`] instead of queued
    /// without bound.
    pub max_inflight_per_conn: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig::default(),
            max_inflight_per_conn: 256,
        }
    }
}

struct NodeInner {
    pool: Pool,
    stop: AtomicBool,
}

/// A running node daemon. Dropping the handle without calling
/// [`Node::shutdown`] or [`Node::kill`] kills the node abruptly.
pub struct Node {
    addr: SocketAddr,
    inner: Arc<NodeInner>,
    loop_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").field("addr", &self.addr).finish()
    }
}

impl Node {
    /// Binds the listener, spawns the pool and the event-loop thread.
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
        });
        let loop_inner = Arc::clone(&inner);
        let max_inflight = config.max_inflight_per_conn.max(1);
        let loop_thread = std::thread::Builder::new()
            .name(format!("apim-node-loop-{addr}"))
            .spawn(move || event_loop(&listener, &loop_inner, max_inflight))?;
        Ok(Node {
            addr,
            inner,
            loop_thread: Some(loop_thread),
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

    /// Graceful stop: finish the pool's backlog, let the event loop write
    /// out pending replies, close connections, join the loop thread.
    /// Clients should quiesce first; replies racing the close may be cut
    /// off.
    pub fn shutdown(mut self) {
        self.inner.pool.drain();
        // The backlog's responses are filled; give the event loop a window
        // to harvest them onto the wire before severing.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.inner.pool.metrics().inflight_requests.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(10));
        self.stop_loop();
    }

    /// Abrupt stop for failover testing: connections are severed
    /// immediately, mid-flight RPCs and all. Clients observe transport
    /// errors and must retry elsewhere.
    pub fn kill(mut self) {
        self.stop_loop();
    }

    /// Stops the event loop and joins it; the loop drops its connection
    /// slab on exit, which closes every socket.
    fn stop_loop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.loop_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.stop_loop();
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
// Event loop
// ---------------------------------------------------------------------------

/// Per-connection state the event loop iterates.
struct ConnState {
    conn: Connection,
    /// Pipelined submits dispatched to the pool and not yet answered on
    /// the wire, as `(seq, handle)` pairs.
    pending: Vec<(u64, JobHandle)>,
}

fn event_loop(listener: &TcpListener, inner: &Arc<NodeInner>, max_inflight: usize) {
    let framing = WireFraming;
    let metrics = inner.pool.metrics();
    let mut poller = Poller::new();
    let mut events = Vec::new();
    // Connection slab: the slot index is the poller token.
    let mut slots: Vec<Option<ConnState>> = Vec::new();
    while !inner.stop.load(Ordering::SeqCst) {
        // Accept everything waiting, then fall through to the scan so a
        // connect-then-send burst is served in one iteration.
        accept_burst(|| listener.accept(), &mut slots, &mut poller, metrics);
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
            let _ = state.conn.fill();
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

/// Registers every connection `accept` yields into the slab. Any error
/// ends this tick's burst, and only the burst: `WouldBlock` means the
/// backlog is empty, and anything else (`EMFILE` under fd pressure, a
/// connection aborted before it was accepted) must not take down the
/// node's one transport thread and every live connection with it — the
/// next tick simply tries again.
fn accept_burst(
    mut accept: impl FnMut() -> io::Result<(TcpStream, SocketAddr)>,
    slots: &mut Vec<Option<ConnState>>,
    poller: &mut Poller,
    metrics: &Metrics,
) {
    while let Ok((stream, _peer)) = accept() {
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
            continue;
        }
        metrics.connections_open.inc();
        slots[token] = Some(ConnState {
            conn,
            pending: Vec::new(),
        });
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_accept_error_ends_only_the_burst() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _clients: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        // The backlog as the event loop would see it on two ticks: one
        // connection, a hard error (EMFILE), then another connection.
        let mut backlog = vec![
            listener.accept(),
            Err(io::Error::from_raw_os_error(24)),
            listener.accept(),
        ]
        .into_iter();
        let mut next = || {
            backlog
                .next()
                .unwrap_or_else(|| Err(io::ErrorKind::WouldBlock.into()))
        };
        let (mut slots, mut poller, metrics) = (Vec::new(), Poller::new(), Metrics::default());
        accept_burst(&mut next, &mut slots, &mut poller, &metrics);
        assert_eq!(
            slots.iter().flatten().count(),
            1,
            "burst stops at the error"
        );
        accept_burst(&mut next, &mut slots, &mut poller, &metrics);
        assert_eq!(
            slots.iter().flatten().count(),
            2,
            "the next tick accepts again"
        );
        assert_eq!(metrics.connections_open.get(), 2);
    }
}
