//! The length-prefixed frame codec.
//!
//! Every message on a 3LC connection is one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"3LCN"
//!      4     1  version      protocol version (1 or 2)
//!      5     1  msg type     MsgType discriminant
//!      6     2  tensor id    u16 LE (0 where not applicable)
//!      8     8  step         u64 LE training step (0 during handshake)
//!     16     4  payload len  u32 LE (payload only, extension excluded)
//!     20     4  crc32        u32 LE over bytes 0..20, the extension
//!                            (if any), and the payload
//!     24    16  trace ext    version 2 only: trace id (u64 LE) +
//!                            span id (u64 LE) — the sender's trace
//!                            context ([`TraceContext`])
//!      …     …  payload      `len` bytes (a `threelc` wire payload,
//!                            raw f32 LE values, or protocol metadata)
//! ```
//!
//! Version 1 frames have no extension; version 2 frames carry the 16-byte
//! trace-context extension between header and payload. The encoder emits
//! version 1 whenever the trace context is [`TraceContext::NONE`] (so a
//! run without tracing is byte-identical to the pre-trace protocol) and
//! version 2 only when context is present; the decoder accepts both.
//!
//! The CRC covers the header fields, the extension, *and* the payload, so
//! any single corrupted byte anywhere in the frame is rejected. Decoding
//! validates the magic, version, message type, and length cap before
//! allocating or reading payload bytes, so a malicious length field
//! cannot trigger a huge allocation and a truncated stream yields a clean
//! error — never a panic, never an over-read.

use crate::crc32::Crc32;
use std::io::{self, Read, Write};

/// Frame magic: distinguishes the network protocol from `.3lc` files.
pub const MAGIC: [u8; 4] = *b"3LCN";

/// Highest protocol version this build emits (2 = trace-context frames).
pub const PROTOCOL_VERSION: u8 = 2;

/// Lowest protocol version this build still decodes.
pub const MIN_PROTOCOL_VERSION: u8 = 1;

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 24;

/// Length of the version-2 trace-context extension.
pub const TRACE_EXT_LEN: usize = 16;

/// Hard cap on payload length (64 MiB) — far above any tensor this
/// workspace trains, low enough that a corrupted length field cannot
/// exhaust memory.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Message types of the parameter-server protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Worker → server: `payload = worker id (u16 LE)`.
    Hello = 1,
    /// Server → worker: the join grant; `payload = ExperimentConfig JSON`,
    /// header `step` = the step to resume at. Followed by a replay of
    /// that many completed steps' pull batches — step 0 and none for a
    /// worker's first join, every completed step for a rejoin.
    HelloAck = 2,
    /// Worker → server: one compressed gradient tensor.
    PushTensor = 3,
    /// Worker → server: one uncompressed gradient tensor (f32 LE).
    PushRaw = 4,
    /// Worker → server: end of push; `payload = loss (f32 LE) +
    /// codec seconds (f64 LE) + residual slot (f64 LE, written 0.0) +
    /// step seconds (f64 LE)`, 28 bytes.
    PushDone = 5,
    /// Server → worker: one compressed model-delta tensor.
    PullTensor = 6,
    /// Server → worker: one uncompressed model-delta tensor (f32 LE).
    PullRaw = 7,
    /// Server → worker: end of pull.
    PullDone = 8,
    /// Server → worker: training complete, close after acking.
    Shutdown = 9,
    /// Worker → server: shutdown acknowledged.
    ShutdownAck = 10,
    /// Scraper → server, or server → worker at shutdown: request one
    /// observability view; `payload = kind (u8)`, see
    /// [`ScrapeKind`](crate::protocol::ScrapeKind).
    Scrape = 11,
    /// Reply to [`MsgType::Scrape`]: `payload = the view as JSON`.
    ScrapeReply = 12,
    /// Server → worker: the compression-policy decisions for the *next*
    /// step, broadcast with the pull batch; `payload = count (u16 LE) +
    /// count × [s (f32 LE) + reason (u8)]`. Only emitted when an adaptive
    /// policy is active, so static runs stay byte-identical to the
    /// pre-policy protocol.
    PolicyUpdate = 17,
}

impl MsgType {
    /// Parses a wire discriminant.
    pub fn from_u8(v: u8) -> Option<MsgType> {
        match v {
            1 => Some(MsgType::Hello),
            2 => Some(MsgType::HelloAck),
            3 => Some(MsgType::PushTensor),
            4 => Some(MsgType::PushRaw),
            5 => Some(MsgType::PushDone),
            6 => Some(MsgType::PullTensor),
            7 => Some(MsgType::PullRaw),
            8 => Some(MsgType::PullDone),
            9 => Some(MsgType::Shutdown),
            10 => Some(MsgType::ShutdownAck),
            11 => Some(MsgType::Scrape),
            12 => Some(MsgType::ScrapeReply),
            17 => Some(MsgType::PolicyUpdate),
            _ => None,
        }
    }
}

/// The trace context a frame carries in its version-2 extension: the
/// sender's run-wide trace id plus the span under which the frame was
/// sent, letting the receiver parent its own spans under the sender's.
///
/// The all-zero value means "no context" and is never emitted on the
/// wire — such frames encode as version 1 instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Run-wide trace identifier (0 = none).
    pub trace_id: u64,
    /// Sending span identifier (0 = none).
    pub span_id: u64,
}

impl TraceContext {
    /// The absent context; frames with this context encode as version 1.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this is the absent context.
    pub fn is_none(&self) -> bool {
        *self == TraceContext::NONE
    }

    /// Captures the calling thread's active trace scope (if tracing is
    /// enabled and a [`threelc_obs::TraceScope`] is live), else
    /// [`TraceContext::NONE`].
    pub fn current() -> TraceContext {
        match threelc_obs::current_ctx() {
            Some(ctx) => TraceContext {
                trace_id: ctx.trace,
                span_id: ctx.span,
            },
            None => TraceContext::NONE,
        }
    }

    /// The obs-side view of this context, or `None` if absent.
    pub fn to_obs(self) -> Option<threelc_obs::TraceCtx> {
        if self.is_none() {
            None
        } else {
            Some(threelc_obs::TraceCtx {
                trace: self.trace_id,
                span: self.span_id,
            })
        }
    }

    /// Serializes the 16-byte wire extension.
    fn to_bytes(self) -> [u8; TRACE_EXT_LEN] {
        let mut b = [0u8; TRACE_EXT_LEN];
        b[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        b[8..16].copy_from_slice(&self.span_id.to_le_bytes());
        b
    }

    /// Parses the 16-byte wire extension.
    fn from_bytes(b: &[u8]) -> TraceContext {
        TraceContext {
            trace_id: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            span_id: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type.
    pub msg: MsgType,
    /// Tensor index (0 where not applicable).
    pub tensor: u16,
    /// Training step (0 during handshake).
    pub step: u64,
    /// Trace context carried in the version-2 extension
    /// ([`TraceContext::NONE`] for version-1 frames).
    pub trace: TraceContext,
    /// Message payload.
    pub payload: Vec<u8>,
}

/// Frame codec failures.
#[derive(Debug)]
pub enum FrameError {
    /// The magic bytes did not match.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message type discriminant.
    BadMsgType(u8),
    /// Payload length above [`MAX_PAYLOAD`].
    Oversize {
        /// Claimed payload length.
        len: usize,
    },
    /// Checksum mismatch (corrupted frame).
    CrcMismatch {
        /// Checksum carried in the header.
        expected: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
    /// Not enough bytes for the declared frame.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the frame needs.
        need: usize,
    },
    /// Underlying socket/stream error (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadMsgType(t) => write!(f, "unknown message type {t}"),
            FrameError::Oversize { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            FrameError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "frame checksum {actual:08x} != header checksum {expected:08x}"
                )
            }
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Builds the 24-byte header (including the CRC over header, extension,
/// and payload). An empty `ext` selects version 1; a 16-byte trace
/// extension selects version 2.
fn header_bytes(
    msg: MsgType,
    tensor: u16,
    step: u64,
    ext: &[u8],
    payload: &[u8],
) -> [u8; HEADER_LEN] {
    debug_assert!(ext.is_empty() || ext.len() == TRACE_EXT_LEN);
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4] = if ext.is_empty() {
        MIN_PROTOCOL_VERSION
    } else {
        PROTOCOL_VERSION
    };
    h[5] = msg as u8;
    h[6..8].copy_from_slice(&tensor.to_le_bytes());
    h[8..16].copy_from_slice(&step.to_le_bytes());
    h[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&h[..20]);
    crc.update(ext);
    crc.update(payload);
    h[20..24].copy_from_slice(&crc.finish().to_le_bytes());
    h
}

/// Extension length implied by a (validated) version byte.
fn ext_len_for(version: u8) -> usize {
    if version >= 2 {
        TRACE_EXT_LEN
    } else {
        0
    }
}

impl Frame {
    /// Constructs a frame with no trace context (encodes as version 1).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`]; senders control
    /// their payload sizes, so that is a programming error.
    pub fn new(msg: MsgType, tensor: u16, step: u64, payload: Vec<u8>) -> Frame {
        assert!(payload.len() <= MAX_PAYLOAD, "payload above MAX_PAYLOAD");
        Frame {
            msg,
            tensor,
            step,
            trace: TraceContext::NONE,
            payload,
        }
    }

    /// Attaches a trace context (a non-NONE context encodes as version 2).
    pub fn with_trace(mut self, trace: TraceContext) -> Frame {
        self.trace = trace;
        self
    }

    /// Total encoded length.
    pub fn encoded_len(&self) -> usize {
        let ext = if self.trace.is_none() {
            0
        } else {
            TRACE_EXT_LEN
        };
        HEADER_LEN + ext + self.payload.len()
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let ext_buf = self.trace.to_bytes();
        let ext: &[u8] = if self.trace.is_none() { &[] } else { &ext_buf };
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&header_bytes(
            self.msg,
            self.tensor,
            self.step,
            ext,
            &self.payload,
        ));
        out.extend_from_slice(ext);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses one frame from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] for truncation, bad magic/version/type, an
    /// oversize length field, or a checksum mismatch. Never reads past
    /// the declared frame length.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                have: bytes.len(),
                need: HEADER_LEN,
            });
        }
        let header = &bytes[..HEADER_LEN];
        validate_fixed_header(header)?;
        let ext_len = ext_len_for(header[4]);
        let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversize { len });
        }
        let total = HEADER_LEN + ext_len + len;
        if bytes.len() < total {
            return Err(FrameError::Truncated {
                have: bytes.len(),
                need: total,
            });
        }
        let ext = &bytes[HEADER_LEN..HEADER_LEN + ext_len];
        let payload = &bytes[HEADER_LEN + ext_len..total];
        check_crc(header, ext, payload)?;
        Ok((
            Frame {
                msg: MsgType::from_u8(header[5]).expect("validated above"),
                tensor: u16::from_le_bytes(header[6..8].try_into().expect("2 bytes")),
                step: u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")),
                trace: if ext.is_empty() {
                    TraceContext::NONE
                } else {
                    TraceContext::from_bytes(ext)
                },
                payload: payload.to_vec(),
            },
            total,
        ))
    }
}

/// Validates magic, version, and message type (everything before the
/// length field).
fn validate_fixed_header(header: &[u8]) -> Result<(), FrameError> {
    if header[0..4] != MAGIC {
        return Err(FrameError::BadMagic(
            header[0..4].try_into().expect("4 bytes"),
        ));
    }
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&header[4]) {
        return Err(FrameError::BadVersion(header[4]));
    }
    if MsgType::from_u8(header[5]).is_none() {
        return Err(FrameError::BadMsgType(header[5]));
    }
    Ok(())
}

/// Verifies the header CRC against header bytes 0..20 plus the extension
/// and payload.
fn check_crc(header: &[u8], ext: &[u8], payload: &[u8]) -> Result<(), FrameError> {
    let expected = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
    let mut crc = Crc32::new();
    crc.update(&header[..20]);
    crc.update(ext);
    crc.update(payload);
    let actual = crc.finish();
    if actual != expected {
        return Err(FrameError::CrcMismatch { expected, actual });
    }
    Ok(())
}

/// Writes one frame without copying the payload into an owned [`Frame`],
/// stamping it with the calling thread's current trace context (a live
/// [`threelc_obs::TraceScope`] makes every outgoing frame a version-2
/// frame automatically; with tracing off the wire bytes are identical to
/// protocol version 1). Returns the number of bytes written.
///
/// # Errors
///
/// Propagates stream write failures (including write timeouts).
pub fn write_frame<W: Write>(
    w: &mut W,
    msg: MsgType,
    tensor: u16,
    step: u64,
    payload: &[u8],
) -> io::Result<usize> {
    write_frame_traced(w, msg, tensor, step, payload, TraceContext::current())
}

/// [`write_frame`] with an explicit trace context instead of the
/// thread-ambient one.
///
/// # Errors
///
/// Propagates stream write failures (including write timeouts).
pub fn write_frame_traced<W: Write>(
    w: &mut W,
    msg: MsgType,
    tensor: u16,
    step: u64,
    payload: &[u8],
    trace: TraceContext,
) -> io::Result<usize> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload above MAX_PAYLOAD");
    let ext_buf = trace.to_bytes();
    let ext: &[u8] = if trace.is_none() { &[] } else { &ext_buf };
    w.write_all(&header_bytes(msg, tensor, step, ext, payload))?;
    w.write_all(ext)?;
    w.write_all(payload)?;
    Ok(HEADER_LEN + ext.len() + payload.len())
}

/// Reads exactly one frame from a stream.
///
/// Reads the fixed header first, validates it (so a bogus length is
/// rejected before any allocation), then reads the version-implied
/// extension and exactly the declared payload. A peer that closes
/// mid-frame produces [`FrameError::Io`]/[`FrameError::Truncated`]-style
/// errors via `read_exact`, never a panic.
///
/// # Errors
///
/// Returns a [`FrameError`] for I/O failures (including read timeouts)
/// and every malformed-frame condition [`Frame::decode`] reports.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    validate_fixed_header(&header)?;
    let ext_len = ext_len_for(header[4]);
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize { len });
    }
    let mut ext = [0u8; TRACE_EXT_LEN];
    let ext = &mut ext[..ext_len];
    r.read_exact(ext)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    check_crc(&header, ext, &payload)?;
    Ok(Frame {
        msg: MsgType::from_u8(header[5]).expect("validated above"),
        tensor: u16::from_le_bytes(header[6..8].try_into().expect("2 bytes")),
        step: u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")),
        trace: if ext.is_empty() {
            TraceContext::NONE
        } else {
            TraceContext::from_bytes(ext)
        },
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(MsgType::PushTensor, 7, 42, vec![1, 2, 3, 4, 5])
    }

    fn sample_traced() -> Frame {
        sample().with_trace(TraceContext {
            trace_id: 0xDEAD_BEEF_0BAD_CAFE,
            span_id: 0x0123_4567_89AB_CDEF,
        })
    }

    /// Hand-builds a version-1 frame the way a pre-trace peer would.
    fn v1_bytes(msg: MsgType, tensor: u16, step: u64, payload: &[u8]) -> Vec<u8> {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC);
        h[4] = 1;
        h[5] = msg as u8;
        h[6..8].copy_from_slice(&tensor.to_le_bytes());
        h[8..16].copy_from_slice(&step.to_le_bytes());
        h[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&h[..20]);
        crc.update(payload);
        h[20..24].copy_from_slice(&crc.finish().to_le_bytes());
        let mut out = h.to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn roundtrip_via_slice_and_stream() {
        let f = sample();
        let bytes = f.encode();
        let (back, used) = Frame::decode(&bytes).expect("decode");
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).expect("read"), f);
    }

    #[test]
    fn write_frame_matches_encode() {
        let f = sample();
        let mut out = Vec::new();
        let n = write_frame(&mut out, f.msg, f.tensor, f.step, &f.payload).expect("write");
        assert_eq!(out, f.encode());
        assert_eq!(n, f.encoded_len());
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(&[0xAA; 10]);
        let (_, used) = Frame::decode(&bytes).expect("decode");
        assert_eq!(used, bytes.len() - 10);
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_errors() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(Frame::decode(&corrupt).is_err(), "flip at byte {i} decoded");
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut bytes = sample().encode();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        match Frame::decode(&bytes) {
            Err(FrameError::Oversize { len }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected Oversize, got {other:?}"),
        }
        // Streaming path too: the reader must not try to allocate 4 GiB.
        let mut cursor = io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn specific_error_variants() {
        let good = sample().encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            Frame::decode(&bad_version),
            Err(FrameError::BadVersion(9))
        ));

        let mut bad_type = good.clone();
        bad_type[5] = 200;
        assert!(matches!(
            Frame::decode(&bad_type),
            Err(FrameError::BadMsgType(200))
        ));

        let mut bad_payload = good.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bad_payload),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_tensor_and_step_fields_are_caught() {
        // tensor id and step are covered by the CRC — a flipped routing
        // field must not deliver the payload to the wrong tensor.
        let bytes = sample().encode();
        for i in 6..16 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x80;
            assert!(matches!(
                Frame::decode(&corrupt),
                Err(FrameError::CrcMismatch { .. })
            ));
        }
    }

    #[test]
    fn empty_payload_frames_work() {
        let f = Frame::new(MsgType::PullDone, 0, 3, Vec::new());
        let (back, used) = Frame::decode(&f.encode()).expect("decode");
        assert_eq!(back, f);
        assert_eq!(used, HEADER_LEN);
    }

    #[test]
    fn msg_type_roundtrip() {
        let mut known = 0;
        for v in 0..=u8::MAX {
            if let Some(m) = MsgType::from_u8(v) {
                assert_eq!(m as u8, v);
                known += 1;
            }
        }
        assert_eq!(known, 13);
        // 0, the retired per-view scrape types and the retired rejoin pair
        // are unknown.
        for v in [0, 13, 14, 15, 16, 18, 19, 20] {
            assert!(MsgType::from_u8(v).is_none(), "type byte {v}");
        }
    }

    #[test]
    fn contextless_frames_stay_version_1_on_the_wire() {
        // A trace-free frame must be byte-identical to what a pre-trace
        // build would emit: old peers keep decoding us.
        let f = sample();
        let bytes = f.encode();
        assert_eq!(bytes[4], 1, "contextless frames must carry version 1");
        assert_eq!(bytes, v1_bytes(f.msg, f.tensor, f.step, &f.payload));
    }

    #[test]
    fn version_1_frames_from_old_peers_decode() {
        let bytes = v1_bytes(MsgType::PushDone, 0, 9, &[7, 8, 9]);
        let (f, used) = Frame::decode(&bytes).expect("v1 decode");
        assert_eq!(used, bytes.len());
        assert_eq!(f.msg, MsgType::PushDone);
        assert_eq!(f.step, 9);
        assert!(f.trace.is_none());
        assert_eq!(f.payload, vec![7, 8, 9]);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).expect("v1 stream"), f);
    }

    #[test]
    fn traced_frames_roundtrip_with_context() {
        let f = sample_traced();
        let bytes = f.encode();
        assert_eq!(bytes[4], 2, "traced frames must carry version 2");
        assert_eq!(bytes.len(), HEADER_LEN + TRACE_EXT_LEN + f.payload.len());
        let (back, used) = Frame::decode(&bytes).expect("decode");
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).expect("read"), f);
    }

    #[test]
    fn write_frame_traced_matches_encode() {
        let f = sample_traced();
        let mut out = Vec::new();
        let n = write_frame_traced(&mut out, f.msg, f.tensor, f.step, &f.payload, f.trace)
            .expect("write");
        assert_eq!(out, f.encode());
        assert_eq!(n, f.encoded_len());
    }

    #[test]
    fn traced_frame_corruption_and_truncation_error() {
        // The CRC must cover the trace extension too: flipping any byte
        // of a v2 frame — header, extension, or payload — is rejected,
        // and so is every truncated prefix.
        let bytes = sample_traced().encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(Frame::decode(&corrupt).is_err(), "flip at byte {i} decoded");
        }
        for cut in 0..bytes.len() {
            assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = sample_traced().encode();
        bytes[4] = PROTOCOL_VERSION + 1;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadVersion(_))
        ));
    }
}
