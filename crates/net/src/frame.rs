//! The length-prefixed frame codec.
//!
//! Every message on a 3LC connection is one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"3LCN"
//!      4     1  version      protocol version (1 or 2)
//!      5     1  msg type     MsgType discriminant
//!      6     2  tensor id    u16 LE (0 everywhere the runtime writes it)
//!      8     8  step         u64 LE training step (0 during handshake)
//!     16     4  payload len  u32 LE (payload only, extension excluded)
//!     20     4  crc32        u32 LE over bytes 0..20, the extension
//!                            (if any), and the payload
//!     24    16  trace ext    version 2 only: trace id (u64 LE) +
//!                            span id (u64 LE) — the sender's trace
//!                            context ([`TraceCtx`])
//!      …     …  payload      `len` bytes: one BSP step's push or pull
//!                            (`protocol::StepPayload`), or protocol
//!                            metadata
//! ```
//!
//! Version 1 frames have no extension; version 2 frames carry the 16-byte
//! trace-context extension between header and payload. The encoder emits
//! version 1 whenever the trace context is absent ([`TraceCtx::is_none`], so a
//! run without tracing is byte-identical to the pre-trace protocol) and
//! version 2 only when context is present; the decoder accepts both.
//!
//! One writer and one reader. [`write_frame_parts`] writes a frame whose
//! payload is its parts laid end to end: the CRC over the parts, then the
//! header, then each part, so a step's tensors go out without being
//! copied into one buffer. [`read_frame_with`] validates the header, hands
//! the payload to a parser through a length-limited, CRC-folding
//! [`Payload`], and checks the CRC before it returns anything, so a step's
//! tensors are built straight from the stream. [`write_frame`] and
//! [`read_frame`] are their one-part and whole-payload cases.
//!
//! The CRC covers the header fields, the extension, *and* the payload, so
//! any single corrupted byte anywhere in the frame is rejected. Decoding
//! validates the magic, version, message type, and length cap before
//! allocating or reading payload bytes, so a malicious length field
//! cannot trigger a huge allocation and a truncated stream yields a clean
//! error — never a panic, never an over-read.

use crate::crc32::Crc32;
use std::io::{self, Read, Write};
pub use threelc_obs::TraceCtx;

/// Frame magic: distinguishes the network protocol from `.3lc` files.
const MAGIC: [u8; 4] = *b"3LCN";

/// Highest protocol version this build emits (2 = trace-context frames).
const PROTOCOL_VERSION: u8 = 2;

/// Lowest protocol version this build still decodes.
const MIN_PROTOCOL_VERSION: u8 = 1;

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 24;

/// Length of the version-2 trace-context extension.
pub const TRACE_EXT_LEN: usize = 16;

/// Hard cap on payload length (64 MiB), and so on one step's push or
/// pull: low enough that a corrupted length field cannot exhaust memory.
/// The writer refuses a payload above it ([`FrameError::Oversize`]).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Message types of the parameter-server protocol.
///
/// A BSP step is one [`MsgType::PushDone`] and one [`MsgType::PullDone`].
/// The runtime neither sends nor accepts the four per-tensor kinds; they
/// stay only for the step ledger's replay (`ledger/src/replay.rs`), until
/// ROADMAP 1(h).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Worker → server: `payload = worker id (u16 LE)`.
    Hello = 1,
    /// Server → worker: the join grant; `payload = ExperimentConfig JSON`,
    /// header `step` = the step to resume at. Followed by a replay of
    /// that many completed steps' `PullDone` frames — step 0 and none for
    /// a worker's first join, every completed step for a rejoin.
    HelloAck = 2,
    /// Ledger-only: one compressed gradient tensor.
    PushTensor = 3,
    /// Ledger-only: one uncompressed gradient tensor (f32 LE).
    PushRaw = 4,
    /// Worker → server: one step's whole push. `payload = loss (f32 LE) +
    /// codec seconds (f64 LE) + residual slot (f64 LE, written 0.0) +
    /// step seconds (f64 LE)`, 28 bytes, then each tensor's payload behind
    /// its `u32 LE` length, in parameter order.
    PushDone = 5,
    /// Ledger-only: one compressed model-delta tensor.
    PullTensor = 6,
    /// Ledger-only: one uncompressed model-delta tensor (f32 LE).
    PullRaw = 7,
    /// Server → worker: one step's whole pull. `payload =` each tensor's
    /// payload behind its `u32 LE` length, in parameter order, then — under
    /// an adaptive policy only — the next step's decisions,
    /// `count (u16 LE) + count × [s (f32 LE) + reason (u8)]`.
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
            _ => None,
        }
    }
}

/// A validated frame header: everything but the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHead {
    /// Message type.
    pub msg: MsgType,
    /// Tensor index (0 where not applicable).
    pub tensor: u16,
    /// Training step (0 during handshake).
    pub step: u64,
    /// Trace context carried in the version-2 extension (absent, all
    /// zero, for version-1 frames).
    pub trace: TraceCtx,
    /// Bytes the whole frame occupies on the wire: header, extension and
    /// payload.
    pub wire_len: usize,
}

/// One frame read whole ([`read_frame`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type.
    pub msg: MsgType,
    /// Tensor index (0 where not applicable).
    pub tensor: u16,
    /// Training step (0 during handshake).
    pub step: u64,
    /// Trace context carried in the version-2 extension (absent, all
    /// zero, for version-1 frames).
    pub trace: TraceCtx,
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
    /// Payload length above [`MAX_PAYLOAD`], read from a header or asked
    /// of the writer.
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
    /// Underlying socket/stream error (including read timeouts and a
    /// stream that ends mid-frame).
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

/// For [`write_frame`]'s `io::Result`: a stream error is itself, anything
/// else (an oversize payload) is `InvalidInput`.
impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidInput, other),
        }
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

/// Writes one frame whose payload is `parts` laid end to end, with trace
/// context `trace` (a non-NONE context makes it a version-2 frame).
/// Returns the number of bytes written. This is the one frame writer:
/// every other write goes through it.
///
/// # Errors
///
/// [`FrameError::Oversize`] — before a byte is written — when the parts
/// total more than [`MAX_PAYLOAD`]; [`FrameError::Io`] for a stream
/// failure (including write timeouts).
pub fn write_frame_parts<W: Write>(
    w: &mut W,
    msg: MsgType,
    tensor: u16,
    step: u64,
    trace: TraceCtx,
    parts: &[&[u8]],
) -> Result<usize, FrameError> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize { len });
    }
    let mut ext_buf = [0u8; TRACE_EXT_LEN];
    ext_buf[..8].copy_from_slice(&trace.trace.to_le_bytes());
    ext_buf[8..].copy_from_slice(&trace.span.to_le_bytes());
    let ext: &[u8] = if trace.is_none() { &[] } else { &ext_buf };
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
    h[16..20].copy_from_slice(&(len as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&h[..20]);
    crc.update(ext);
    for part in parts {
        crc.update(part);
    }
    h[20..24].copy_from_slice(&crc.finish().to_le_bytes());
    w.write_all(&h)?;
    w.write_all(ext)?;
    for part in parts {
        w.write_all(part)?;
    }
    Ok(HEADER_LEN + ext.len() + len)
}

/// Writes one frame with a one-part payload, stamped with the calling
/// thread's trace context ([`write_frame_parts`]), for the step ledger,
/// the scrapes and the tests.
///
/// # Errors
///
/// Propagates stream write failures (including write timeouts); an
/// oversize payload is `InvalidInput`.
pub fn write_frame<W: Write>(
    w: &mut W,
    msg: MsgType,
    tensor: u16,
    step: u64,
    payload: &[u8],
) -> io::Result<usize> {
    let trace = threelc_obs::current_ctx().unwrap_or_default();
    Ok(write_frame_parts(w, msg, tensor, step, trace, &[payload])?)
}

/// A frame's payload as its parser reads it ([`read_frame_with`]): never
/// more than the header declared, every byte folded into the frame's CRC
/// on its way through. At the declared end it reads as end of stream.
pub struct Payload<'a, R> {
    inner: &'a mut R,
    left: usize,
    crc: Crc32,
}

impl<R> Payload<'_, R> {
    /// Payload bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.left
    }
}

impl<R: Read> Read for Payload<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.left);
        if n == 0 {
            // Never ask the stream for nothing: a socket's zero-byte read
            // blocks until data arrives.
            return Ok(0);
        }
        let n = self.inner.read(&mut buf[..n])?;
        self.crc.update(&buf[..n]);
        self.left -= n;
        Ok(n)
    }
}

/// Reads exactly one frame from a stream, handing its payload to `parse`:
/// the one frame reader. The header is validated first (so a bogus length
/// is rejected before any allocation); what the parser leaves unread is
/// read and discarded, and the CRC is checked before anything — the
/// parser's value or its error — is returned, so a corrupted frame reads
/// as [`FrameError::CrcMismatch`] whatever its bytes made the parser
/// think. A peer that closes mid-frame is a [`FrameError::Io`].
///
/// # Errors
///
/// Returns a [`FrameError`] for I/O failures (including read timeouts)
/// and every malformed frame, or the parser's error for a frame whose
/// checksum holds.
pub fn read_frame_with<R: Read, T, E: From<FrameError>>(
    r: &mut R,
    parse: impl FnOnce(&FrameHead, &mut Payload<'_, R>) -> Result<T, E>,
) -> Result<(FrameHead, T), E> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(FrameError::Io)?;
    validate_fixed_header(&header)?;
    let ext_len = if header[4] >= 2 { TRACE_EXT_LEN } else { 0 };
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize { len }.into());
    }
    // A version-1 frame leaves the extension zero: the absent context.
    let mut ext = [0u8; TRACE_EXT_LEN];
    r.read_exact(&mut ext[..ext_len]).map_err(FrameError::Io)?;
    let u64_le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let head = FrameHead {
        msg: MsgType::from_u8(header[5]).expect("validated above"),
        tensor: u16::from_le_bytes(header[6..8].try_into().expect("2 bytes")),
        step: u64_le(&header[8..16]),
        trace: TraceCtx {
            trace: u64_le(&ext[..8]),
            span: u64_le(&ext[8..]),
        },
        wire_len: HEADER_LEN + ext_len + len,
    };
    let mut crc = Crc32::new();
    crc.update(&header[..20]);
    crc.update(&ext[..ext_len]);
    let mut payload = Payload {
        inner: r,
        left: len,
        crc,
    };
    let parsed = parse(&head, &mut payload);
    io::copy(&mut payload, &mut io::sink()).map_err(FrameError::Io)?;
    if payload.left > 0 {
        let err = io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended mid-frame");
        return Err(FrameError::Io(err).into());
    }
    let expected = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
    let actual = payload.crc.finish();
    if actual != expected {
        return Err(FrameError::CrcMismatch { expected, actual }.into());
    }
    Ok((head, parsed?))
}

/// The whole-payload parser: the payload as one `Vec`.
///
/// # Errors
///
/// [`FrameError::Io`] if the stream ends or fails first.
pub fn whole<R: Read>(_: &FrameHead, body: &mut Payload<'_, R>) -> Result<Vec<u8>, FrameError> {
    let mut payload = vec![0u8; body.remaining()];
    body.read_exact(&mut payload)?;
    Ok(payload)
}

/// Reads exactly one frame, payload and all ([`read_frame_with`] with
/// [`whole`]), for the step ledger, the scrapes and the tests.
///
/// # Errors
///
/// Every [`FrameError`] [`read_frame_with`] reports.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let (head, payload) = read_frame_with(r, whole)?;
    Ok(Frame {
        msg: head.msg,
        tensor: head.tensor,
        step: head.step,
        trace: head.trace,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            msg: MsgType::PushDone,
            tensor: 7,
            step: 42,
            trace: TraceCtx::default(),
            payload: vec![1, 2, 3, 4, 5],
        }
    }

    fn sample_traced() -> Frame {
        Frame {
            trace: TraceCtx {
                trace: 0xDEAD_BEEF_0BAD_CAFE,
                span: 0x0123_4567_89AB_CDEF,
            },
            ..sample()
        }
    }

    /// `f` through the one writer.
    fn encode(f: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        let n = write_frame_parts(&mut out, f.msg, f.tensor, f.step, f.trace, &[&f.payload])
            .expect("write");
        assert_eq!(n, out.len());
        out
    }

    /// One frame off the front of `bytes` through the one reader, and the
    /// bytes it consumed.
    fn decode(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
        let mut rest = bytes;
        let frame = read_frame(&mut rest)?;
        Ok((frame, bytes.len() - rest.len()))
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
        let bytes = encode(&f);
        let (back, used) = decode(&bytes).expect("decode");
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).expect("read"), f);
    }

    #[test]
    fn write_frame_matches_encode() {
        // Outside a trace scope `write_frame` is the one-part, context-free
        // case of the parts writer, and any split of the payload into parts
        // writes the same bytes.
        let f = sample();
        let mut out = Vec::new();
        let n = write_frame(&mut out, f.msg, f.tensor, f.step, &f.payload).expect("write");
        assert_eq!(out, encode(&f));
        assert_eq!(n, out.len());
        for cut in 0..=f.payload.len() {
            let (a, b) = f.payload.split_at(cut);
            let mut split = Vec::new();
            write_frame_parts(&mut split, f.msg, f.tensor, f.step, f.trace, &[a, &[], b])
                .expect("write");
            assert_eq!(split, out, "split at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut bytes = encode(&sample());
        bytes.extend_from_slice(&[0xAA; 10]);
        let (_, used) = decode(&bytes).expect("decode");
        assert_eq!(used, bytes.len() - 10);
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_errors() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(decode(&corrupt).is_err(), "flip at byte {i} decoded");
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut bytes = encode(&sample());
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        // The reader must not try to allocate 4 GiB.
        match decode(&bytes) {
            Err(FrameError::Oversize { len }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected Oversize, got {other:?}"),
        }
        // Nor may the writer send one: a step one byte over the cap is a
        // typed error before anything reaches the stream.
        let mib = vec![0u8; 1 << 20];
        let mut parts: Vec<&[u8]> = vec![&mib; MAX_PAYLOAD >> 20];
        let mut out = Vec::new();
        let at_cap = write_frame_parts(
            &mut out,
            MsgType::PushDone,
            0,
            0,
            TraceCtx::default(),
            &parts,
        )
        .expect("a payload at the cap is written");
        assert_eq!(at_cap, HEADER_LEN + MAX_PAYLOAD);
        parts.push(&[0]);
        let mut out = Vec::new();
        match write_frame_parts(
            &mut out,
            MsgType::PushDone,
            0,
            0,
            TraceCtx::default(),
            &parts,
        ) {
            Err(FrameError::Oversize { len }) => assert_eq!(len, MAX_PAYLOAD + 1),
            other => panic!("expected Oversize, got {other:?}"),
        }
        assert!(
            out.is_empty(),
            "an oversize frame wrote {} bytes",
            out.len()
        );
        let err = write_frame(&mut out, MsgType::PushDone, 0, 0, &vec![0; MAX_PAYLOAD + 1])
            .expect_err("the one-part case refuses too");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn specific_error_variants() {
        let good = encode(&sample());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(FrameError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            decode(&bad_version),
            Err(FrameError::BadVersion(9))
        ));

        let mut bad_type = good.clone();
        bad_type[5] = 200;
        assert!(matches!(
            decode(&bad_type),
            Err(FrameError::BadMsgType(200))
        ));

        let mut bad_payload = good.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0xFF;
        assert!(matches!(
            decode(&bad_payload),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_tensor_and_step_fields_are_caught() {
        // tensor id and step are covered by the CRC — a flipped routing
        // field must not deliver the payload to the wrong step.
        let bytes = encode(&sample());
        for i in 6..16 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x80;
            assert!(matches!(
                decode(&corrupt),
                Err(FrameError::CrcMismatch { .. })
            ));
        }
    }

    #[test]
    fn empty_payload_frames_work() {
        let f = Frame {
            msg: MsgType::PullDone,
            tensor: 0,
            step: 3,
            trace: TraceCtx::default(),
            payload: Vec::new(),
        };
        let (back, used) = decode(&encode(&f)).expect("decode");
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
        assert_eq!(known, 12);
        // 0, the retired per-view scrape types, the retired rejoin pair
        // and the retired policy frame (17, now the pull's tail) are
        // unknown.
        for v in [0, 13, 14, 15, 16, 17, 18, 19, 20] {
            assert!(MsgType::from_u8(v).is_none(), "type byte {v}");
        }
    }

    #[test]
    fn contextless_frames_stay_version_1_on_the_wire() {
        // A trace-free frame must be byte-identical to what a pre-trace
        // build would emit: old peers keep decoding us.
        let f = sample();
        let bytes = encode(&f);
        assert_eq!(bytes[4], 1, "contextless frames must carry version 1");
        assert_eq!(bytes, v1_bytes(f.msg, f.tensor, f.step, &f.payload));
    }

    #[test]
    fn version_1_frames_from_old_peers_decode() {
        let bytes = v1_bytes(MsgType::PushDone, 0, 9, &[7, 8, 9]);
        let (f, used) = decode(&bytes).expect("v1 decode");
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
        let bytes = encode(&f);
        assert_eq!(bytes[4], 2, "traced frames must carry version 2");
        assert_eq!(bytes.len(), HEADER_LEN + TRACE_EXT_LEN + f.payload.len());
        let (back, used) = decode(&bytes).expect("decode");
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).expect("read"), f);
    }

    #[test]
    fn write_frame_traced_matches_encode() {
        // A traced frame is the version-1 frame with the version byte 2,
        // the context behind the header and a CRC that covers it.
        let f = sample_traced();
        let bytes = encode(&f);
        let v1 = v1_bytes(f.msg, f.tensor, f.step, &f.payload);
        assert_eq!(bytes[..4], v1[..4]);
        assert_eq!(bytes[5..20], v1[5..20]);
        assert_eq!(
            bytes[HEADER_LEN..HEADER_LEN + 8],
            f.trace.trace.to_le_bytes()
        );
        assert_eq!(bytes[HEADER_LEN + 8..][..8], f.trace.span.to_le_bytes());
        assert_eq!(bytes[HEADER_LEN + TRACE_EXT_LEN..], f.payload[..]);
        let mut crc = Crc32::new();
        crc.update(&bytes[..20]);
        crc.update(&bytes[HEADER_LEN..]);
        assert_eq!(bytes[20..24], crc.finish().to_le_bytes());
    }

    #[test]
    fn traced_frame_corruption_and_truncation_error() {
        // The CRC must cover the trace extension too: flipping any byte
        // of a v2 frame — header, extension, or payload — is rejected,
        // and so is every truncated prefix.
        let bytes = encode(&sample_traced());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(decode(&corrupt).is_err(), "flip at byte {i} decoded");
        }
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = encode(&sample_traced());
        bytes[4] = PROTOCOL_VERSION + 1;
        assert!(matches!(decode(&bytes), Err(FrameError::BadVersion(_))));
    }

    #[test]
    fn a_parser_is_answered_only_after_the_checksum_holds() {
        #[derive(Debug)]
        enum Either {
            Frame(FrameError),
            Parser(&'static str),
        }
        impl From<FrameError> for Either {
            fn from(e: FrameError) -> Self {
                Either::Frame(e)
            }
        }
        let mut two = encode(&sample());
        let first = two.len();
        two.extend(encode(&sample_traced()));
        // A parser that reads one byte and fails: its error stands only on
        // a frame whose checksum holds, and the stream is left at the next
        // frame either way.
        let refuse = |_: &FrameHead, body: &mut Payload<'_, &[u8]>| -> Result<(), Either> {
            body.read_exact(&mut [0u8])
                .map_err(|e| Either::Frame(e.into()))?;
            Err(Either::Parser("refused"))
        };
        let mut rest = &two[..];
        assert!(matches!(
            read_frame_with(&mut rest, refuse),
            Err(Either::Parser("refused"))
        ));
        assert_eq!(rest.len(), two.len() - first);
        assert_eq!(read_frame(&mut rest).expect("next frame"), sample_traced());
        let mut corrupt = two.clone();
        corrupt[first - 1] ^= 0x40;
        let mut rest = &corrupt[..];
        assert!(matches!(
            read_frame_with(&mut rest, refuse),
            Err(Either::Frame(FrameError::CrcMismatch { .. }))
        ));
        assert_eq!(rest.len(), two.len() - first);
        // What a parser does not read is still read and checked.
        let mut rest = &two[..];
        let (head, ()) =
            read_frame_with(&mut rest, |_, _| Ok::<_, FrameError>(())).expect("an unread payload");
        assert_eq!(head.wire_len, first);
        assert!(matches!(
            read_frame_with(&mut &corrupt[..], |_, _| Ok::<_, FrameError>(())),
            Err(FrameError::CrcMismatch { .. })
        ));
    }
}
