//! Wire-protocol robustness properties: whatever bytes arrive, the
//! decoder returns a structured [`WireError`] or a valid message — it
//! never panics, and it never reads past the buffer.

use apim_cluster::wire::{
    decode_frame, decode_header, decode_payload, encode_frame, Message, Reply, WireError,
    WireOutput, HEADER_LEN, MAGIC, MAX_PAYLOAD, WIRE_VERSION,
};
use apim_serve::{JobKind, Request, ServeError, TenantId};
use proptest::prelude::*;

/// A frame for every message kind, so truncation/corruption properties
/// cover the whole protocol surface.
fn sample_frames() -> Vec<Vec<u8>> {
    let messages = [
        Message::Submit {
            seq: 7,
            request: Request::new(JobKind::Multiply { a: 12, b: 34 }).tenant(TenantId(3)),
        },
        Message::Submit {
            seq: 8,
            request: Request::new(JobKind::Compile {
                source: "width 8\nin a\nout a + 1".into(),
            }),
        },
        Message::Reply {
            seq: 7,
            reply: Reply {
                tenant: TenantId(3),
                attempts: 1,
                latency_us: 250,
                result: Ok(WireOutput {
                    digest: 0xDEAD_BEEF,
                    summary: "product 408".into(),
                }),
            },
        },
        Message::Reply {
            seq: 9,
            reply: Reply {
                tenant: TenantId(0),
                attempts: 0,
                latency_us: 0,
                result: Err(ServeError::Overloaded { depth: 64 }),
            },
        },
        Message::Ping { nonce: 42 },
        Message::Pong {
            nonce: 42,
            workers: 4,
            queue_depth: 9,
        },
        Message::MetricsPull { seq: 11 },
        Message::Metrics {
            seq: 11,
            snapshot: Box::new(apim_serve::Metrics::default().snapshot()),
        },
        Message::ProtocolError {
            detail: "client sent a server-only message kind".into(),
        },
    ];
    messages.iter().map(encode_frame).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine; reaching this line without a panic is the
        // property.
        let _ = decode_frame(&bytes);
        let _ = decode_header(&bytes);
        for kind in 0u8..=8 {
            let _ = decode_payload(kind, &bytes);
        }
    }

    #[test]
    fn truncations_of_valid_frames_error_structurally(frame_sel in 0usize..9, cut in 0usize..512) {
        let frames = sample_frames();
        let frame = &frames[frame_sel % frames.len()];
        let cut = cut % frame.len();
        match decode_frame(&frame[..cut]) {
            Err(_) => {}
            Ok((message, consumed)) => {
                // Only legal if a whole frame still fits in the prefix
                // (cannot happen for a single encoded frame).
                prop_assert!(consumed <= cut, "decoder overran the buffer");
                prop_assert!(false, "truncated frame decoded as {message:?}");
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected(frame_sel in 0usize..9, byte in 0usize..HEADER_LEN, flip in 1u8..=255) {
        let frames = sample_frames();
        let mut frame = frames[frame_sel % frames.len()].clone();
        frame[byte] ^= flip;
        // Whatever the corruption, no panic; and corrupt magic/version
        // must always be caught by name.
        match decode_frame(&frame) {
            Ok(_) => {
                prop_assert!(byte >= 4, "corrupt magic byte {byte} decoded");
            }
            Err(WireError::BadMagic(_)) => prop_assert!(byte < 4),
            Err(WireError::UnsupportedVersion(_)) => prop_assert_eq!(byte, 4),
            Err(_) => {}
        }
    }

    #[test]
    fn garbage_payload_under_a_valid_header_errors(kind in 1u8..=7, payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(kind);
        frame.extend_from_slice(&[0, 0]);
        frame.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&payload);
        // Random payloads occasionally parse (e.g. Ping is just a nonce);
        // the property is bounded, structured handling.
        if let Ok((_, consumed)) = decode_frame(&frame) {
            prop_assert_eq!(consumed, frame.len());
        }
    }
}

#[test]
fn oversized_length_is_rejected_before_any_allocation() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(3); // Ping
    frame.extend_from_slice(&[0, 0]);
    frame.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    frame.extend_from_slice(&[0u8; 16]);
    match decode_frame(&frame) {
        Err(WireError::FrameTooLarge(_)) => {}
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn every_truncation_of_a_submit_frame_errors() {
    let frame = encode_frame(&Message::Submit {
        seq: 1,
        request: Request::new(JobKind::Mac {
            pairs: vec![(1, 2), (3, 4), (5, 6)],
        })
        .tenant(TenantId(2)),
    });
    for cut in 0..frame.len() {
        assert!(
            decode_frame(&frame[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    let (message, consumed) = decode_frame(&frame).expect("full frame decodes");
    assert_eq!(consumed, frame.len());
    assert!(matches!(message, Message::Submit { seq: 1, .. }));
}
