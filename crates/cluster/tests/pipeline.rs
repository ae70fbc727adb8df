//! Integration tests for the event-loop node transport: request
//! pipelining, structured protocol-error handling, the per-connection
//! backpressure cap, severing on kill, and the sustained soak with both
//! drivers (pipelined window and closed-loop baseline).

use apim_cluster::loadgen::{soak, SoakConfig};
use apim_cluster::node::{Node, NodeConfig};
use apim_cluster::wire::{self, Message};
use apim_serve::{JobKind, PoolConfig, Request, ServeError, TenantId};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn echo_node(workers: usize, max_inflight: usize) -> Node {
    Node::spawn(NodeConfig {
        pool: PoolConfig {
            workers,
            queue_depth: 4096,
            ..PoolConfig::default()
        },
        max_inflight_per_conn: max_inflight,
        ..NodeConfig::default()
    })
    .expect("spawn node")
}

fn connect(node: &Node) -> TcpStream {
    let conn = TcpStream::connect(node.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    conn
}

/// Reads the node's structured goodbye, checks the connection closes
/// after it, and returns the error detail.
fn expect_goodbye(conn: &mut TcpStream) -> String {
    let detail = match wire::read_message(conn).expect("structured goodbye") {
        Message::ProtocolError { detail } => detail,
        other => panic!("expected ProtocolError, got {other:?}"),
    };
    // And the connection is closed — no further service on a broken peer.
    assert!(wire::read_message(conn).is_err());
    detail
}

#[test]
fn pipelined_submits_are_all_answered_whatever_the_order() {
    let node = echo_node(2, 4096);
    let mut conn = connect(&node);
    let n = 64u64;
    // All 64 submits leave in one write: the node must not require
    // request/response lockstep.
    let mut blob = Vec::new();
    for seq in 0..n {
        blob.extend_from_slice(&wire::encode_frame(&Message::Submit {
            seq,
            request: Request::new(JobKind::Echo { payload: seq * 3 }).tenant(TenantId(1)),
        }));
    }
    conn.write_all(&blob).expect("pipelined write");
    let mut seen = vec![false; usize::try_from(n).unwrap()];
    for _ in 0..n {
        match wire::read_message(&mut conn).expect("read reply") {
            Message::Reply { seq, reply } => {
                let index = usize::try_from(seq).unwrap();
                assert!(!seen[index], "duplicate reply for seq {seq}");
                seen[index] = true;
                let output = reply.result.expect("echo succeeds");
                assert_eq!(output.summary, format!("echo {}", seq * 3));
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "every pipelined request answered");
    node.shutdown();
}

#[test]
fn hostile_length_prefix_gets_a_structured_protocol_error() {
    let node = echo_node(1, 64);
    let mut conn = connect(&node);
    // A syntactically valid header whose length prefix declares ~4 GiB.
    let mut evil = Vec::new();
    evil.extend_from_slice(&wire::MAGIC);
    evil.push(wire::WIRE_VERSION);
    evil.push(3); // Ping
    evil.extend_from_slice(&[0, 0]);
    evil.extend_from_slice(&u32::MAX.to_le_bytes());
    conn.write_all(&evil).expect("write hostile frame");
    let detail = expect_goodbye(&mut conn);
    assert!(
        detail.contains("exceeds"),
        "detail names the length violation: {detail}"
    );
    node.shutdown();
}

#[test]
fn garbage_magic_gets_a_structured_protocol_error() {
    let node = echo_node(1, 64);
    let mut conn = connect(&node);
    conn.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    assert!(!expect_goodbye(&mut conn).is_empty(), "detail is populated");
    node.shutdown();
}

#[test]
fn server_only_message_kind_gets_a_structured_protocol_error() {
    let node = echo_node(1, 64);
    let mut conn = connect(&node);
    // A well-formed frame of a kind only a node may send.
    wire::write_message(
        &mut conn,
        &Message::Pong {
            nonce: 7,
            workers: 1,
            queue_depth: 0,
        },
    )
    .expect("write pong");
    let detail = expect_goodbye(&mut conn);
    assert!(
        detail.contains("server-only"),
        "detail names the kind: {detail}"
    );
    node.shutdown();
}

#[test]
fn kill_severs_an_idle_raw_connection() {
    let node = echo_node(1, 64);
    let mut conn = connect(&node);
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // One round trip proves the node accepted the connection into its
    // event loop before the kill.
    wire::write_message(&mut conn, &Message::Ping { nonce: 1 }).expect("ping");
    assert!(matches!(
        wire::read_message(&mut conn).expect("pong"),
        Message::Pong { nonce: 1, .. }
    ));
    node.kill();
    let mut buf = [0u8; 16];
    match conn.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("{n} unexpected bytes after kill"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            "expected EOF or a reset within the read timeout, got {e}"
        ),
    }
}

#[test]
fn pipeline_cap_answers_overflow_with_overloaded_not_unbounded_queueing() {
    let cap = 4usize;
    let node = Node::spawn(NodeConfig {
        pool: PoolConfig {
            // One worker on real (simulator) jobs keeps the pipeline
            // occupied long enough that the cap deterministically trips.
            workers: 1,
            queue_depth: 4096,
            ..PoolConfig::default()
        },
        max_inflight_per_conn: cap,
        ..NodeConfig::default()
    })
    .expect("spawn node");
    let mut conn = connect(&node);
    let n = 32u64;
    let mut blob = Vec::new();
    for seq in 0..n {
        blob.extend_from_slice(&wire::encode_frame(&Message::Submit {
            seq,
            request: Request::new(JobKind::Multiply { a: seq, b: 3 }),
        }));
    }
    conn.write_all(&blob).expect("pipelined write");
    let (mut ok, mut overloaded) = (0u64, 0u64);
    let mut answered = vec![false; usize::try_from(n).unwrap()];
    for _ in 0..n {
        match wire::read_message(&mut conn).expect("read reply") {
            Message::Reply { seq, reply } => {
                let index = usize::try_from(seq).unwrap();
                assert!(!answered[index], "duplicate reply for seq {seq}");
                answered[index] = true;
                match reply.result {
                    Ok(_) => ok += 1,
                    Err(ServeError::Overloaded { .. }) => overloaded += 1,
                    Err(other) => panic!("unexpected rejection {other:?}"),
                }
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }
    assert!(answered.iter().all(|&s| s), "every request answered");
    assert_eq!(ok + overloaded, n);
    assert!(
        u64::try_from(cap).unwrap() <= ok,
        "at least the cap's worth of requests were accepted (ok={ok})"
    );
    assert!(
        overloaded > 0,
        "the burst past the cap was shed with Overloaded (ok={ok})"
    );
    node.shutdown();
}

#[test]
fn short_soak_loses_nothing_and_transports_are_bit_identical() {
    let pipelined = soak(&SoakConfig {
        requests: 600,
        streams: 48,
        nodes: 2,
        workers: 2,
        pipelined: true,
        driver_threads: 2,
    })
    .expect("pipelined soak");
    assert!(pipelined.passed(), "pipelined soak gate:\n{pipelined}");

    let closed_loop = soak(&SoakConfig {
        requests: 600,
        streams: 16,
        nodes: 2,
        workers: 2,
        pipelined: false,
        driver_threads: 2,
    })
    .expect("closed-loop soak");
    assert!(
        closed_loop.passed(),
        "closed-loop soak gate:\n{closed_loop}"
    );

    // Same request set, either driver: bit-identical result digests.
    assert_eq!(pipelined.checksum, closed_loop.checksum);

    // The new gauges surface through the fleet snapshot in the report.
    let text = pipelined.to_string();
    assert!(text.contains("apim_cluster_connections_open"), "{text}");
    assert!(text.contains("apim_cluster_inflight_requests"), "{text}");
}
