//! Frame-reassembly properties for the zero-copy decode path: however
//! TCP fragments a valid multi-frame byte stream, feeding the fragments
//! through [`apim_net::RecvBuffer`] + [`apim_cluster::wire::WireFraming`]
//! yields exactly the messages a sequential decode of the unfragmented
//! stream yields — bit-identical, none lost, none duplicated.

use apim_cluster::wire::{decode_frame, encode_frame, Message, Reply, WireFraming, WireOutput};
use apim_net::RecvBuffer;
use apim_serve::{JobKind, Request, ServeError, TenantId};
use proptest::prelude::*;

/// A small pool covering every message kind and both reply polarities.
fn message_pool() -> Vec<Message> {
    vec![
        Message::Submit {
            seq: 1,
            request: Request::new(JobKind::Echo { payload: 99 }).tenant(TenantId(7)),
        },
        Message::Submit {
            seq: 2,
            request: Request::new(JobKind::Multiply { a: 21, b: 2 }),
        },
        Message::Reply {
            seq: 1,
            reply: Reply {
                tenant: TenantId(7),
                attempts: 1,
                latency_us: 17,
                result: Ok(WireOutput {
                    digest: 0xABCD_EF01,
                    summary: "echo 99".into(),
                }),
            },
        },
        Message::Reply {
            seq: 3,
            reply: Reply {
                tenant: TenantId(0),
                attempts: 0,
                latency_us: 0,
                result: Err(ServeError::Overloaded { depth: 5 }),
            },
        },
        Message::Ping { nonce: 1234 },
        Message::Pong {
            nonce: 1234,
            workers: 2,
            queue_depth: 0,
        },
        Message::MetricsPull { seq: 4 },
        Message::Metrics {
            seq: 4,
            snapshot: Box::new(apim_serve::Metrics::default().snapshot()),
        },
        Message::ProtocolError { detail: "x".into() },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_chunking_reassembles_bit_identically(
        picks in proptest::collection::vec(0usize..9, 1..12),
        cuts in proptest::collection::vec(1usize..64, 0..48),
    ) {
        let pool = message_pool();
        let stream: Vec<u8> = picks
            .iter()
            .flat_map(|&i| encode_frame(&pool[i % pool.len()]))
            .collect();

        // Reference: decode the unfragmented stream sequentially.
        let mut expected = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let (message, consumed) = decode_frame(&stream[offset..]).expect("valid stream");
            expected.push(message);
            offset += consumed;
        }

        // Under test: the same bytes split at arbitrary points, fed
        // fragment by fragment through the node's receive path.
        let framing = WireFraming;
        let mut buffer = RecvBuffer::new();
        let mut got = Vec::new();
        let mut position = 0;
        let mut cut = cuts.iter();
        while position < stream.len() {
            let step = cut
                .next()
                .copied()
                .unwrap_or(stream.len() - position)
                .min(stream.len() - position);
            buffer.push_bytes(&stream[position..position + step]);
            position += step;
            while let Some(frame) = buffer.next_frame(&framing).expect("valid fragments") {
                got.push(decode_frame(frame).expect("whole frame").0);
            }
        }
        prop_assert_eq!(got, expected);
    }
}
