//! Length-prefixed binary wire protocol between cluster clients and node
//! daemons.
//!
//! Every message travels as one *frame*: a fixed 12-byte header (magic,
//! protocol version, message kind, payload length) followed by the
//! payload. Decoding is strict and total — every read is bounds-checked,
//! every tag validated, and anything outside the protocol is rejected
//! with a structured [`WireError`]; the decoder never panics and never
//! allocates more than the declared (and capped) payload length.
//!
//! The payload encoding is fixed-width little-endian. Compactness matters
//! less than auditability here: requests are tiny compared to the
//! millisecond-scale simulator work they trigger, and the one bulky
//! payload — a metrics snapshot — reuses the varint codec from
//! `apim_serve::metrics`.

use apim::{App, PrecisionMode};
use apim_serve::metrics::{CodecError, MetricsSnapshot};
use apim_serve::{JobKind, Request, ServeError, TenantId};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"APCL";

/// Protocol version this build speaks.
///
/// Version 2 made every message correlatable for multiplexing: the
/// metrics pull/response pair gained a `seq`, and a structured
/// [`Message::ProtocolError`] (kind 7) was added so a node can tell a
/// peer *why* its connection is being closed instead of just dropping it.
pub const WIRE_VERSION: u8 = 2;

/// Fixed frame header length: magic (4), version (1), kind (1),
/// reserved (2), payload length (4).
pub const HEADER_LEN: usize = 12;

/// Hard cap on a frame payload; a declared length beyond this is rejected
/// before any allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Cap on an encoded string (compile programs, error reasons).
const MAX_STRING: u32 = 1 << 16;

/// Cap on a MAC pair list.
const MAX_MAC_PAIRS: u32 = 1 << 12;

/// Cap on a pixel tap list (the widest built-in kernel has 6 taps; the
/// cap leaves headroom without letting a frame claim an absurd length).
const MAX_PIXEL_TAPS: u32 = 64;

/// Why the decoder rejected a frame. Every variant is a protocol error,
/// not a crash: malformed input can only ever produce one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header or the declared payload requires.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    FrameTooLarge(u32),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A tag or enum code is out of range for its field.
    InvalidValue {
        /// Which field was malformed.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// Bytes remained in the payload after a complete message.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An embedded metrics snapshot failed to decode.
    Snapshot(CodecError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::FrameTooLarge(n) => write!(f, "declared payload {n} B exceeds cap"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::InvalidValue { what, value } => {
                write!(f, "invalid {what} value {value}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after message")
            }
            WireError::Snapshot(e) => write!(f, "embedded metrics snapshot: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Snapshot(e)
    }
}

/// A successfully served request, reduced to what the cluster tier needs:
/// a digest of the exact result bits (for checksums and bit-identity
/// assertions) plus a human-readable summary line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOutput {
    /// `apim_serve::loadgen::output_digest` of the node-side
    /// [`JobOutput`](apim_serve::JobOutput) — equal iff the results are bit-identical.
    pub digest: u64,
    /// One-line rendering of the result.
    pub summary: String,
}

/// The answer to one [`Message::Submit`].
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Tenant the node accounted the request to.
    pub tenant: TenantId,
    /// Node-side execution attempts (0 when rejected at admission).
    pub attempts: u32,
    /// Node-side latency in µs (submission to response on the node).
    pub latency_us: u64,
    /// Result digest + summary, or the node's structured error.
    pub result: Result<WireOutput, ServeError>,
}

/// Every message the protocol can carry. `Submit`/`Reply` do the serving
/// work, `Ping`/`Pong` back the router's health checks, and
/// `MetricsPull`/`Metrics` feed the fleet aggregator.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client request; `seq` correlates the eventual [`Message::Reply`].
    Submit {
        /// Client-chosen correlation id, echoed in the reply.
        seq: u64,
        /// The work.
        request: Request,
    },
    /// The node's answer to the `Submit` with the same `seq`.
    Reply {
        /// Correlation id of the originating submit.
        seq: u64,
        /// The outcome.
        reply: Reply,
    },
    /// Health probe.
    Ping {
        /// Echoed opaque value.
        nonce: u64,
    },
    /// Health answer with a thumbnail of the node's state.
    Pong {
        /// The probe's nonce.
        nonce: u64,
        /// Worker threads in the node's pool.
        workers: u32,
        /// Jobs currently queued on the node.
        queue_depth: u64,
    },
    /// Ask the node for its metrics snapshot.
    MetricsPull {
        /// Correlation id echoed by the [`Message::Metrics`] answer, so
        /// pulls can share a multiplexed connection with serving traffic.
        seq: u64,
    },
    /// The node's metrics snapshot.
    Metrics {
        /// Correlation id of the originating pull.
        seq: u64,
        /// The snapshot, merged fleet-wide by the aggregator (boxed: it is
        /// by far the largest payload, and every other message is small).
        snapshot: Box<MetricsSnapshot>,
    },
    /// The peer violated the protocol; sent as a last frame before the
    /// connection is closed so the failure is diagnosable on both ends.
    ProtocolError {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Submit { .. } => 1,
            Message::Reply { .. } => 2,
            Message::Ping { .. } => 3,
            Message::Pong { .. } => 4,
            Message::MetricsPull { .. } => 5,
            Message::Metrics { .. } => 6,
            Message::ProtocolError { .. } => 7,
        }
    }

    /// The correlation id a response message answers, when it is one.
    /// This is the demultiplexing key: a client running many logical
    /// streams over one socket routes each inbound response by this id.
    pub fn correlation_id(&self) -> Option<u64> {
        match self {
            Message::Reply { seq, .. } | Message::Metrics { seq, .. } => Some(*seq),
            Message::Pong { nonce, .. } => Some(*nonce),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload writer/reader primitives
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(MAX_STRING as usize)];
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Bounds-checked cursor over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()?;
        if len > MAX_STRING {
            return Err(WireError::InvalidValue {
                what: "string length",
                value: u64::from(len),
            });
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.bytes.len() - self.pos,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Domain field codecs
// ---------------------------------------------------------------------------

fn app_code(app: App) -> u8 {
    match app {
        App::Sobel => 0,
        App::Robert => 1,
        App::Fft => 2,
        App::DwtHaar1d => 3,
        App::Sharpen => 4,
        App::QuasiRandom => 5,
    }
}

fn app_from(code: u8) -> Result<App, WireError> {
    Ok(match code {
        0 => App::Sobel,
        1 => App::Robert,
        2 => App::Fft,
        3 => App::DwtHaar1d,
        4 => App::Sharpen,
        5 => App::QuasiRandom,
        other => {
            return Err(WireError::InvalidValue {
                what: "app",
                value: u64::from(other),
            })
        }
    })
}

fn put_mode(out: &mut Vec<u8>, mode: PrecisionMode) {
    match mode {
        PrecisionMode::Exact => {
            out.push(0);
            out.push(0);
        }
        PrecisionMode::FirstStage { masked_bits } => {
            out.push(1);
            out.push(masked_bits);
        }
        PrecisionMode::LastStage { relax_bits } => {
            out.push(2);
            out.push(relax_bits);
        }
    }
}

fn take_mode(r: &mut Reader<'_>) -> Result<PrecisionMode, WireError> {
    let tag = r.u8()?;
    let bits = r.u8()?;
    Ok(match tag {
        0 => PrecisionMode::Exact,
        1 => PrecisionMode::FirstStage { masked_bits: bits },
        2 => PrecisionMode::LastStage { relax_bits: bits },
        other => {
            return Err(WireError::InvalidValue {
                what: "precision mode",
                value: u64::from(other),
            })
        }
    })
}

fn put_request(out: &mut Vec<u8>, request: &Request) {
    put_u16(out, request.tenant.0);
    put_mode(out, request.mode);
    match request.deadline {
        None => out.push(0),
        Some(d) => {
            out.push(1);
            put_u64(out, u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        }
    }
    match &request.kind {
        JobKind::Run { app, dataset_bytes } => {
            out.push(0);
            out.push(app_code(*app));
            put_u64(out, *dataset_bytes);
        }
        JobKind::Multiply { a, b } => {
            out.push(1);
            put_u64(out, *a);
            put_u64(out, *b);
        }
        JobKind::Mac { pairs } => {
            out.push(2);
            put_u32(out, pairs.len().min(MAX_MAC_PAIRS as usize) as u32);
            for &(a, b) in pairs.iter().take(MAX_MAC_PAIRS as usize) {
                put_u64(out, a);
                put_u64(out, b);
            }
        }
        JobKind::Compile { source } => {
            out.push(3);
            put_str(out, source);
        }
        JobKind::Echo { payload } => {
            out.push(4);
            put_u64(out, *payload);
        }
        JobKind::Pixel { app, taps } => {
            out.push(5);
            out.push(app_code(*app));
            put_u32(out, taps.len().min(MAX_PIXEL_TAPS as usize) as u32);
            for &tap in taps.iter().take(MAX_PIXEL_TAPS as usize) {
                put_u64(out, tap);
            }
        }
    }
}

fn take_request(r: &mut Reader<'_>) -> Result<Request, WireError> {
    let tenant = TenantId(r.u16()?);
    let mode = take_mode(r)?;
    let deadline = match r.u8()? {
        0 => None,
        1 => Some(Duration::from_micros(r.u64()?)),
        other => {
            return Err(WireError::InvalidValue {
                what: "deadline tag",
                value: u64::from(other),
            })
        }
    };
    let kind = match r.u8()? {
        0 => JobKind::Run {
            app: app_from(r.u8()?)?,
            dataset_bytes: r.u64()?,
        },
        1 => JobKind::Multiply {
            a: r.u64()?,
            b: r.u64()?,
        },
        2 => {
            let n = r.u32()?;
            if n > MAX_MAC_PAIRS {
                return Err(WireError::InvalidValue {
                    what: "mac pair count",
                    value: u64::from(n),
                });
            }
            let mut pairs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                pairs.push((r.u64()?, r.u64()?));
            }
            JobKind::Mac { pairs }
        }
        3 => JobKind::Compile {
            source: r.string()?,
        },
        4 => JobKind::Echo { payload: r.u64()? },
        5 => {
            let app = app_from(r.u8()?)?;
            let n = r.u32()?;
            if n > MAX_PIXEL_TAPS {
                return Err(WireError::InvalidValue {
                    what: "pixel tap count",
                    value: u64::from(n),
                });
            }
            let mut taps = Vec::with_capacity(n as usize);
            for _ in 0..n {
                taps.push(r.u64()?);
            }
            JobKind::Pixel { app, taps }
        }
        other => {
            return Err(WireError::InvalidValue {
                what: "job kind",
                value: u64::from(other),
            })
        }
    };
    let mut request = Request::new(kind).tenant(tenant).mode(mode);
    request.deadline = deadline;
    Ok(request)
}

fn put_serve_error(out: &mut Vec<u8>, error: &ServeError) {
    match error {
        ServeError::Overloaded { depth } => {
            out.push(0);
            put_u64(out, *depth as u64);
        }
        ServeError::QuotaExceeded { tenant } => {
            out.push(1);
            put_u16(out, tenant.0);
        }
        ServeError::ShuttingDown => out.push(2),
        ServeError::DeadlineExceeded => out.push(3),
        ServeError::Failed { reason, attempts } => {
            out.push(4);
            put_u32(out, *attempts);
            put_str(out, reason);
        }
        ServeError::WorkerPanicked => out.push(5),
    }
}

fn take_serve_error(r: &mut Reader<'_>) -> Result<ServeError, WireError> {
    Ok(match r.u8()? {
        0 => ServeError::Overloaded {
            depth: usize::try_from(r.u64()?).map_err(|_| WireError::InvalidValue {
                what: "overload depth",
                value: u64::MAX,
            })?,
        },
        1 => ServeError::QuotaExceeded {
            tenant: TenantId(r.u16()?),
        },
        2 => ServeError::ShuttingDown,
        3 => ServeError::DeadlineExceeded,
        4 => {
            let attempts = r.u32()?;
            ServeError::Failed {
                reason: r.string()?,
                attempts,
            }
        }
        5 => ServeError::WorkerPanicked,
        other => {
            return Err(WireError::InvalidValue {
                what: "serve error tag",
                value: u64::from(other),
            })
        }
    })
}

fn put_reply(out: &mut Vec<u8>, reply: &Reply) {
    put_u16(out, reply.tenant.0);
    put_u32(out, reply.attempts);
    put_u64(out, reply.latency_us);
    match &reply.result {
        Ok(output) => {
            out.push(0);
            put_u64(out, output.digest);
            put_str(out, &output.summary);
        }
        Err(error) => {
            out.push(1);
            put_serve_error(out, error);
        }
    }
}

fn take_reply(r: &mut Reader<'_>) -> Result<Reply, WireError> {
    let tenant = TenantId(r.u16()?);
    let attempts = r.u32()?;
    let latency_us = r.u64()?;
    let result = match r.u8()? {
        0 => Ok(WireOutput {
            digest: r.u64()?,
            summary: r.string()?,
        }),
        1 => Err(take_serve_error(r)?),
        other => {
            return Err(WireError::InvalidValue {
                what: "reply result tag",
                value: u64::from(other),
            })
        }
    };
    Ok(Reply {
        tenant,
        attempts,
        latency_us,
        result,
    })
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

/// Encodes a message as one complete frame (header + payload).
pub fn encode_frame(message: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    match message {
        Message::Submit { seq, request } => {
            put_u64(&mut payload, *seq);
            put_request(&mut payload, request);
        }
        Message::Reply { seq, reply } => {
            put_u64(&mut payload, *seq);
            put_reply(&mut payload, reply);
        }
        Message::Ping { nonce } => put_u64(&mut payload, *nonce),
        Message::Pong {
            nonce,
            workers,
            queue_depth,
        } => {
            put_u64(&mut payload, *nonce);
            put_u32(&mut payload, *workers);
            put_u64(&mut payload, *queue_depth);
        }
        Message::MetricsPull { seq } => put_u64(&mut payload, *seq),
        Message::Metrics { seq, snapshot } => {
            put_u64(&mut payload, *seq);
            let bytes = snapshot.encode();
            put_u32(&mut payload, bytes.len() as u32);
            payload.extend_from_slice(&bytes);
        }
        Message::ProtocolError { detail } => put_str(&mut payload, detail),
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(message.kind());
    frame.extend_from_slice(&[0, 0]); // reserved
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Validates a frame header, returning `(kind, payload_len)`.
///
/// # Errors
///
/// [`WireError::Truncated`] for a short header and the specific structured
/// error for bad magic, version, kind or length.
pub fn decode_header(header: &[u8]) -> Result<(u8, u32), WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let magic: [u8; 4] = header[0..4].try_into().expect("len 4");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[4] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(header[4]));
    }
    let kind = header[5];
    if !(1..=7).contains(&kind) {
        return Err(WireError::UnknownKind(kind));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().expect("len 4"));
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge(len));
    }
    Ok((kind, len))
}

/// Decodes one message payload of an already-validated kind.
///
/// # Errors
///
/// A structured [`WireError`]; never panics on any input.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let message = match kind {
        1 => Message::Submit {
            seq: r.u64()?,
            request: take_request(&mut r)?,
        },
        2 => Message::Reply {
            seq: r.u64()?,
            reply: take_reply(&mut r)?,
        },
        3 => Message::Ping { nonce: r.u64()? },
        4 => Message::Pong {
            nonce: r.u64()?,
            workers: r.u32()?,
            queue_depth: r.u64()?,
        },
        5 => Message::MetricsPull { seq: r.u64()? },
        6 => {
            let seq = r.u64()?;
            let len = r.u32()?;
            if len > MAX_PAYLOAD {
                return Err(WireError::FrameTooLarge(len));
            }
            let bytes = r.take(len as usize)?;
            Message::Metrics {
                seq,
                snapshot: Box::new(MetricsSnapshot::decode(bytes)?),
            }
        }
        7 => Message::ProtocolError {
            detail: r.string()?,
        },
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(message)
}

/// Decodes one complete frame from the front of `buf`, returning the
/// message and the total bytes consumed.
///
/// # Errors
///
/// A structured [`WireError`] for anything malformed: short buffers,
/// wrong magic/version, unknown kinds, oversized or underfilled payloads,
/// garbage payload bytes. Never panics.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let (kind, len) = decode_header(buf)?;
    let end = HEADER_LEN + len as usize;
    let payload = buf.get(HEADER_LEN..end).ok_or(WireError::Truncated)?;
    Ok((decode_payload(kind, payload)?, end))
}

/// The `APCL` protocol's [`apim_net::Framing`]: lets an `apim-net`
/// receive buffer reassemble frames across arbitrary TCP chunk
/// boundaries and hand them out as zero-copy slices that
/// [`decode_frame`] parses in place. Header validation (magic, version,
/// kind, length cap) happens here, so a hostile length prefix is a
/// structured [`FrameError`](apim_net::FrameError) before any
/// allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireFraming;

impl apim_net::Framing for WireFraming {
    fn header_len(&self) -> usize {
        HEADER_LEN
    }

    fn max_frame(&self) -> usize {
        HEADER_LEN + MAX_PAYLOAD as usize
    }

    fn frame_len(&self, header: &[u8]) -> Result<u64, apim_net::FrameError> {
        match decode_header(header) {
            Ok((_kind, len)) => Ok(HEADER_LEN as u64 + u64::from(len)),
            Err(WireError::FrameTooLarge(len)) => Err(apim_net::FrameError::TooLarge {
                declared: HEADER_LEN as u64 + u64::from(len),
                max: self.max_frame(),
            }),
            Err(e) => Err(apim_net::FrameError::Malformed(e.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream IO
// ---------------------------------------------------------------------------

/// A failure receiving a message from a stream: transport or protocol.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying stream failed (closed, reset, timed out).
    Io(io::Error),
    /// The peer sent bytes outside the protocol.
    Wire(WireError),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport: {e}"),
            RecvError::Wire(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Writes one message as a frame.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_message(w: &mut impl Write, message: &Message) -> io::Result<()> {
    let frame = encode_frame(message);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads exactly one message from a stream.
///
/// # Errors
///
/// [`RecvError::Io`] on transport failure (including clean EOF, surfaced
/// as `UnexpectedEof`), [`RecvError::Wire`] on protocol violations.
pub fn read_message(r: &mut impl Read) -> Result<Message, RecvError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(RecvError::Io)?;
    let (kind, len) = decode_header(&header).map_err(RecvError::Wire)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(RecvError::Io)?;
    decode_payload(kind, &payload).map_err(RecvError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(message: Message) {
        let frame = encode_frame(&message);
        let (decoded, consumed) = decode_frame(&frame).expect("round trip");
        assert_eq!(decoded, message);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn every_message_kind_round_trips() {
        let mut request = Request::new(JobKind::Run {
            app: App::Fft,
            dataset_bytes: 64 << 20,
        })
        .tenant(TenantId(3))
        .mode(PrecisionMode::LastStage { relax_bits: 8 });
        request.deadline = Some(Duration::from_millis(250));
        round_trip(Message::Submit { seq: 42, request });
        round_trip(Message::Submit {
            seq: 1,
            request: Request::new(JobKind::Mac {
                pairs: vec![(1, 2), (3, 4), (u64::MAX, 0)],
            }),
        });
        round_trip(Message::Submit {
            seq: 2,
            request: Request::new(JobKind::Compile {
                source: "width 16\nin a\nout a * 3".into(),
            }),
        });
        round_trip(Message::Submit {
            seq: 3,
            request: Request::new(JobKind::Echo {
                payload: u64::MAX - 1,
            }),
        });
        round_trip(Message::Submit {
            seq: 4,
            request: Request::new(JobKind::Pixel {
                app: App::Sharpen,
                taps: vec![10, 20, 30, 40, 50],
            }),
        });
        round_trip(Message::Reply {
            seq: 42,
            reply: Reply {
                tenant: TenantId(3),
                attempts: 2,
                latency_us: 1234,
                result: Ok(WireOutput {
                    digest: 0xDEAD_BEEF,
                    summary: "product 42".into(),
                }),
            },
        });
        for error in [
            ServeError::Overloaded { depth: 256 },
            ServeError::QuotaExceeded {
                tenant: TenantId(7),
            },
            ServeError::ShuttingDown,
            ServeError::DeadlineExceeded,
            ServeError::Failed {
                reason: "injected".into(),
                attempts: 3,
            },
            ServeError::WorkerPanicked,
        ] {
            round_trip(Message::Reply {
                seq: 9,
                reply: Reply {
                    tenant: TenantId(0),
                    attempts: 0,
                    latency_us: 0,
                    result: Err(error),
                },
            });
        }
        round_trip(Message::Ping { nonce: 7 });
        round_trip(Message::Pong {
            nonce: 7,
            workers: 4,
            queue_depth: 17,
        });
        round_trip(Message::MetricsPull { seq: 11 });
        round_trip(Message::Metrics {
            seq: 11,
            snapshot: Box::new(apim_serve::Metrics::default().snapshot()),
        });
        round_trip(Message::ProtocolError {
            detail: "declared payload 1048577 B exceeds cap".into(),
        });
    }

    #[test]
    fn correlation_ids_cover_every_response_kind() {
        assert_eq!(
            Message::Reply {
                seq: 9,
                reply: Reply {
                    tenant: TenantId(0),
                    attempts: 1,
                    latency_us: 1,
                    result: Err(ServeError::ShuttingDown),
                },
            }
            .correlation_id(),
            Some(9)
        );
        assert_eq!(
            Message::Pong {
                nonce: 4,
                workers: 1,
                queue_depth: 0
            }
            .correlation_id(),
            Some(4)
        );
        assert_eq!(
            Message::Metrics {
                seq: 6,
                snapshot: Box::new(apim_serve::Metrics::default().snapshot()),
            }
            .correlation_id(),
            Some(6)
        );
        // Requests and terminal errors correlate to nothing.
        assert_eq!(Message::Ping { nonce: 4 }.correlation_id(), None);
        assert_eq!(Message::MetricsPull { seq: 6 }.correlation_id(), None);
        assert_eq!(
            Message::ProtocolError { detail: "x".into() }.correlation_id(),
            None
        );
    }

    #[test]
    fn wire_framing_reassembles_and_rejects_like_decode_frame() {
        use apim_net::{Framing, RecvBuffer};
        let framing = WireFraming;
        let messages = [
            Message::Ping { nonce: 1 },
            Message::Submit {
                seq: 2,
                request: Request::new(JobKind::Echo { payload: 7 }),
            },
            Message::MetricsPull { seq: 3 },
        ];
        let stream: Vec<u8> = messages.iter().flat_map(encode_frame).collect();
        let mut recv = RecvBuffer::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(5) {
            recv.push_bytes(chunk);
            while let Some(frame) = recv.next_frame(&framing).expect("valid stream") {
                let (message, consumed) = decode_frame(frame).expect("in-place parse");
                assert_eq!(consumed, frame.len());
                decoded.push(message);
            }
        }
        assert_eq!(decoded, messages);
        // A hostile length prefix surfaces as a structured TooLarge.
        let mut hostile = encode_frame(&Message::Ping { nonce: 1 });
        hostile[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            framing.frame_len(&hostile),
            Err(apim_net::FrameError::TooLarge { .. })
        ));
        // Bad magic is malformed, not a length problem.
        hostile[0] = b'X';
        assert!(matches!(
            framing.frame_len(&hostile),
            Err(apim_net::FrameError::Malformed(_))
        ));
    }

    #[test]
    fn header_rejections_are_structured() {
        let good = encode_frame(&Message::Ping { nonce: 1 });
        assert_eq!(decode_frame(&good[..4]), Err(WireError::Truncated));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad), Err(WireError::BadMagic(_))));
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(decode_frame(&bad), Err(WireError::UnsupportedVersion(99)));
        let mut bad = good.clone();
        bad[5] = 200;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownKind(200)));
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::FrameTooLarge(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn payload_rejections_are_structured() {
        // Declared length beyond the buffer.
        let mut frame = encode_frame(&Message::Ping { nonce: 1 });
        let declared = frame.len() - HEADER_LEN + 1;
        frame[8..12].copy_from_slice(&(declared as u32).to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(WireError::Truncated));
        // Payload longer than the message needs.
        let mut frame = encode_frame(&Message::Ping { nonce: 1 });
        frame.push(0xAB);
        let declared = frame.len() - HEADER_LEN;
        frame[8..12].copy_from_slice(&(declared as u32).to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        // Garbage enum tags inside a Submit.
        let mut frame = encode_frame(&Message::Submit {
            seq: 0,
            request: Request::new(JobKind::Multiply { a: 1, b: 2 }),
        });
        let mode_tag = HEADER_LEN + 8 + 2; // seq + tenant
        frame[mode_tag] = 77;
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::InvalidValue {
                what: "precision mode",
                value: 77
            })
        );
    }
}
