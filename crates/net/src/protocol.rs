//! Payload encodings shared by server and worker, and the runtime error
//! type.
//!
//! A BSP step is one frame each way, laid out by one segment encoder
//! ([`StepPayload`]) and read by one segment parser (behind [`read_push`]
//! and [`read_pull`]).

use crate::frame::{FrameError, FrameHead, MsgType, Payload, MAX_PAYLOAD};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{self, Read};
use threelc_distsim::engine::TensorPayload;
use threelc_policy::Decision;
use threelc_tensor::{Shape, Tensor};

/// Failures of the networked runtime.
#[derive(Debug)]
pub enum NetError {
    /// Frame codec failure (corruption, truncation, bad header).
    Frame(FrameError),
    /// Socket-level failure outside frame parsing.
    Io(io::Error),
    /// The peer violated the protocol (wrong message, wrong step, bad
    /// payload contents).
    Protocol(String),
    /// The configuration cannot run on this runtime.
    Config(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Io(e) => write!(f, "I/O error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::Config(m) => write!(f, "unsupported configuration: {m}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Frame(e) => Some(e),
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Serializes a tensor as little-endian `f32`s (the raw-tensor payload).
///
/// Ledger-only: the same bytes as [`Tensor::to_le_bytes`], which this
/// crate calls directly; the name stays for the ledger's replay and kernel
/// rows, which import it, until ROADMAP 1(c).
pub fn tensor_to_bytes(t: &Tensor) -> Vec<u8> {
    t.to_le_bytes()
}

/// Rebuilds a tensor of a known shape from little-endian `f32` bytes (a
/// raw segment; the ledger's replay calls it too).
///
/// # Errors
///
/// Returns [`NetError::Protocol`] when the byte count does not match the
/// shape.
pub fn bytes_to_tensor(bytes: &[u8], shape: &Shape) -> Result<Tensor, NetError> {
    let n = shape.num_elements();
    if bytes.len() != n * 4 {
        return Err(NetError::Protocol(format!(
            "raw tensor payload is {} bytes, shape {shape} needs {}",
            bytes.len(),
            n * 4
        )));
    }
    let data: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Ok(Tensor::from_vec(data, shape.clone()))
}

/// Encodes the `Hello` payload: the worker's id.
pub fn encode_hello(worker: u16) -> Vec<u8> {
    worker.to_le_bytes().to_vec()
}

/// Decodes the `Hello` payload.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] on a malformed payload.
pub fn decode_hello(payload: &[u8]) -> Result<u16, NetError> {
    let bytes: [u8; 2] = payload.try_into().map_err(|_| {
        NetError::Protocol(format!("hello payload is {} bytes, want 2", payload.len()))
    })?;
    Ok(u16::from_le_bytes(bytes))
}

/// A stable fingerprint of a model: CRC-32 (IEEE) over every parameter
/// tensor's little-endian `f32` bytes, in parameter order. Bit-identical
/// models hash identically, so a networked run — even one that survived
/// worker faults — can be compared against the in-process simulator with
/// a single number (the chaos gate in `ci.sh` does exactly that).
///
/// The bytes go to the CRC 16 KiB at a time: one `update` per float cost
/// 54 ms over a width-1024 model, at the end of every `serve`.
pub fn model_crc32(model: &threelc_learning::Network) -> u32 {
    let mut crc = crate::crc32::Crc32::new();
    let mut bytes = [0u8; 16 * 1024];
    for param in model.params() {
        for values in param.as_slice().chunks(bytes.len() / 4) {
            let bytes = &mut bytes[..values.len() * 4];
            for (b, x) in bytes.chunks_exact_mut(4).zip(values) {
                b.copy_from_slice(&x.to_le_bytes());
            }
            crc.update(bytes);
        }
    }
    crc.finish()
}

/// Encodes the 28 done-field bytes that head a push ([`StepPayload`]):
/// local loss, worker codec seconds, a residual slot, and the wall-clock
/// seconds the worker spent computing + encoding the step (its delta's
/// `step_seconds` in the run's recent steps). The worker writes `0.0` into
/// the residual slot and the server reads neither it nor the codec
/// seconds; the slot and this signature stay because the step ledger
/// (`ledger/`) writes them into its own `PushDone` frame and counts its
/// bytes, until ROADMAP 1(h).
pub fn encode_push_done(
    loss: f32,
    codec_seconds: f64,
    residual_l2: f64,
    step_seconds: f64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(28);
    out.extend_from_slice(&loss.to_le_bytes());
    out.extend_from_slice(&codec_seconds.to_le_bytes());
    out.extend_from_slice(&residual_l2.to_le_bytes());
    out.extend_from_slice(&step_seconds.to_le_bytes());
    out
}

/// Decodes a push's done fields into the two the server reads: the loss
/// and the step seconds.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] unless the payload is exactly the
/// 28 bytes [`encode_push_done`] writes and both durations (codec and
/// step seconds) are finite and non-negative: the frame is input from
/// outside the program, a time is never either, and the step seconds feed
/// the worker's recent-step deltas, where one NaN would poison every
/// view of them.
pub fn decode_push_done(payload: &[u8]) -> Result<(f32, f64), NetError> {
    if payload.len() != PUSH_DONE_LEN {
        return Err(NetError::Protocol(format!(
            "push-done payload is {} bytes, want {PUSH_DONE_LEN}",
            payload.len()
        )));
    }
    let f64_at = |at: usize| f64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    let loss = f32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
    let (codec_seconds, step_seconds) = (f64_at(4), f64_at(20));
    for (name, v) in [("codec", codec_seconds), ("step", step_seconds)] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(NetError::Protocol(format!(
                "push-done {name} seconds are {v}, want a finite non-negative time"
            )));
        }
    }
    Ok((loss, step_seconds))
}

/// Encodes a pull's policy tail ([`StepPayload`]): the per-tensor
/// decisions for the next step as `count (u16 LE) + count × [s (f32 LE) +
/// reason (u8)]`.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] when `decisions` exceeds the wire
/// format's `u16` count field. A plain `as u16` cast here would silently
/// truncate (65 536 decisions encode as 0) and every worker would then
/// reject the frame as a body-length mismatch — or worse, apply a prefix.
/// Models with that many tensors are beyond this format; failing at
/// encode time names the real limit.
pub fn encode_policy_update(decisions: &[threelc_policy::Decision]) -> Result<Vec<u8>, NetError> {
    let count = u16::try_from(decisions.len()).map_err(|_| {
        NetError::Protocol(format!(
            "policy update has {} decisions; the wire format caps at {}",
            decisions.len(),
            u16::MAX
        ))
    })?;
    let mut out = Vec::with_capacity(2 + decisions.len() * 5);
    out.extend_from_slice(&count.to_le_bytes());
    for d in decisions {
        out.extend_from_slice(&d.s.value().to_le_bytes());
        out.push(d.reason.code());
    }
    Ok(out)
}

/// Decodes a pull's policy tail, validating every multiplier
/// through [`threelc::SparsityMultiplier::new`] and every reason code —
/// a worker never applies an out-of-range or NaN multiplier no matter
/// what arrives on the wire.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] on a malformed payload, an invalid
/// multiplier, or an unknown reason code.
pub fn decode_policy_update(payload: &[u8]) -> Result<Vec<threelc_policy::Decision>, NetError> {
    if payload.len() < 2 {
        return Err(NetError::Protocol(format!(
            "policy update payload is {} bytes, want at least 2",
            payload.len()
        )));
    }
    let count = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes")) as usize;
    let body = &payload[2..];
    if body.len() != count * 5 {
        return Err(NetError::Protocol(format!(
            "policy update body is {} bytes, {count} decisions need {}",
            body.len(),
            count * 5
        )));
    }
    let mut decisions = Vec::with_capacity(count);
    for rec in body.chunks_exact(5) {
        let raw = f32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let s = threelc::SparsityMultiplier::new(raw)
            .map_err(|e| NetError::Protocol(format!("policy update: {e}")))?;
        let reason = threelc_policy::Reason::from_code(rec[4]).ok_or_else(|| {
            NetError::Protocol(format!("policy update: unknown reason code {}", rec[4]))
        })?;
        decisions.push(threelc_policy::Decision { s, reason });
    }
    Ok(decisions)
}

/// Length of a push's done fields ([`encode_push_done`]).
const PUSH_DONE_LEN: usize = 28;

/// One step's payload in one direction (a `PushDone` or `PullDone` frame),
/// as the segment encoder lays it out: a head — a push's done fields
/// ([`encode_push_done`]) — then each tensor's payload behind its `u32 LE`
/// length in parameter order, then a tail — an adaptive pull's next
/// decisions ([`encode_policy_update`]). Whether a segment is raw `f32`s
/// is not on the wire: both ends read it off the plan
/// (`Problem::compressible`).
pub struct StepPayload {
    head: Vec<u8>,
    segments: Vec<([u8; 4], Vec<u8>)>,
    tail: Vec<u8>,
}

impl StepPayload {
    /// Lays out `payloads` between `head` and `tail`, consuming them, so no
    /// more than one raw tensor is ever held twice.
    pub fn new(head: Vec<u8>, payloads: Vec<TensorPayload>, tail: Vec<u8>) -> StepPayload {
        let segments = payloads
            .into_iter()
            .map(|payload| {
                let bytes = match payload {
                    TensorPayload::Compressed(wire) => wire,
                    TensorPayload::Raw(t) => t.to_le_bytes(),
                };
                // Past `u32` is past the frame cap: the writer refuses it.
                let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
                (len.to_le_bytes(), bytes)
            })
            .collect();
        StepPayload {
            head,
            segments,
            tail,
        }
    }

    /// The frame's payload parts, in wire order
    /// ([`write_frame_parts`](crate::frame::write_frame_parts)).
    pub fn parts(&self) -> Vec<&[u8]> {
        let mut parts = Vec::with_capacity(2 * self.segments.len() + 2);
        parts.push(&self.head[..]);
        for (len, bytes) in &self.segments {
            parts.push(&len[..]);
            parts.push(bytes);
        }
        parts.push(&self.tail);
        parts
    }
}

/// Reads `len` more payload bytes, refusing — before allocating — a length
/// beyond what the frame has left; `what` names the field in the error.
fn take<R: Read>(
    body: &mut Payload<'_, R>,
    len: usize,
    what: impl FnOnce() -> String,
) -> Result<Vec<u8>, NetError> {
    if len > body.remaining() {
        return Err(NetError::Protocol(format!(
            "{} is {len} bytes, the frame has {} left",
            what(),
            body.remaining()
        )));
    }
    let mut bytes = vec![0u8; len];
    body.read_exact(&mut bytes).map_err(FrameError::Io)?;
    Ok(bytes)
}

/// The segment parser: one segment per tensor of the plan — a codec's wire
/// bytes, or exactly `4·n` bytes of `f32`s built into the tensor here —
/// then, only where `tail`, whatever is left. Every length is checked
/// against the bytes left before anything is allocated for it.
fn read_step<R: Read>(
    body: &mut Payload<'_, R>,
    (shapes, compressible): (&[Shape], &[bool]),
    tail: bool,
) -> Result<(Vec<TensorPayload>, Vec<u8>), NetError> {
    let mut payloads = Vec::with_capacity(shapes.len());
    for (i, (shape, &compressed)) in shapes.iter().zip(compressible).enumerate() {
        let len = take(body, 4, || format!("tensor {i}'s length"))?;
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        let bytes = take(body, len, || format!("tensor {i}'s segment"))?;
        payloads.push(if compressed {
            TensorPayload::Compressed(bytes)
        } else {
            TensorPayload::Raw(bytes_to_tensor(&bytes, shape)?)
        });
    }
    match body.remaining() {
        left if left > 0 && !tail => Err(NetError::Protocol(format!(
            "{left} bytes past the last of {} tensors",
            shapes.len()
        ))),
        left => Ok((payloads, take(body, left, String::new)?)),
    }
}

/// One worker's push, as its frame carried it.
pub struct Push {
    /// One payload per tensor, in parameter order.
    pub payloads: Vec<TensorPayload>,
    /// The worker's local training loss.
    pub loss: f32,
    /// Seconds the worker spent computing and encoding the step.
    pub step_seconds: f64,
}

/// Refuses a frame that is not step `step`'s `msg`; `who` names the
/// sender in the error.
///
/// # Errors
///
/// [`NetError::Protocol`] naming what was sent instead.
pub fn expect_step(head: &FrameHead, msg: MsgType, step: u64, who: &str) -> Result<(), NetError> {
    if head.msg != msg {
        return Err(NetError::Protocol(format!(
            "{who} sent {:?} during step {step}",
            head.msg
        )));
    }
    if head.step != step {
        return Err(NetError::Protocol(format!(
            "{who} sent step {} during step {step}",
            head.step
        )));
    }
    Ok(())
}

/// Parses a push frame's payload: the done fields, then one segment per
/// tensor, then nothing.
///
/// # Errors
///
/// [`NetError::Protocol`] for bad done fields, a segment length beyond the
/// bytes left, a raw segment that is not `4·n` bytes, or trailing bytes.
pub fn read_push<R: Read>(
    body: &mut Payload<'_, R>,
    shapes: &[Shape],
    compressible: &[bool],
) -> Result<Push, NetError> {
    let done = take(body, PUSH_DONE_LEN, || "the push's done fields".into())?;
    let (loss, step_seconds) = decode_push_done(&done)?;
    let (payloads, _) = read_step(body, (shapes, compressible), false)?;
    Ok(Push {
        payloads,
        loss,
        step_seconds,
    })
}

/// Parses a pull frame's payload: one segment per tensor, then — exactly
/// when `adaptive` — one policy update with a decision per tensor.
///
/// # Errors
///
/// [`NetError::Protocol`] for a segment [`read_push`] would refuse, or a
/// policy tail that is not exactly one valid update of every tensor.
#[allow(clippy::type_complexity)]
pub fn read_pull<R: Read>(
    body: &mut Payload<'_, R>,
    shapes: &[Shape],
    compressible: &[bool],
    adaptive: bool,
) -> Result<(Vec<TensorPayload>, Option<Vec<Decision>>), NetError> {
    let (payloads, tail) = read_step(body, (shapes, compressible), adaptive)?;
    match adaptive.then(|| decode_policy_update(&tail)).transpose()? {
        Some(d) if d.len() != shapes.len() => Err(NetError::Protocol(format!(
            "policy update carries {} decisions for {} tensors",
            d.len(),
            shapes.len()
        ))),
        decisions => Ok((payloads, decisions)),
    }
}

/// Refuses a plan whose step frame would pass [`MAX_PAYLOAD`], counting
/// the bytes the plan fixes: lengths, heads, tails and raw tensors — every
/// tensor where the design sends `f32`s (`f32_wire`).
///
/// # Errors
///
/// [`NetError::Config`] naming the step's size and the cap.
pub(crate) fn check_step_size(
    shapes: &[Shape],
    compressible: &[bool],
    f32_wire: bool,
    adaptive: bool,
) -> Result<(), NetError> {
    let fixed = |(shape, &compressed): (&Shape, &bool)| {
        4 + if compressed && !f32_wire {
            0
        } else {
            4 * shape.num_elements()
        }
    };
    let tail = if adaptive { 2 + 5 * shapes.len() } else { 0 };
    let bytes = shapes.iter().zip(compressible).map(fixed).sum::<usize>() + tail.max(PUSH_DONE_LEN);
    if bytes > MAX_PAYLOAD {
        return Err(NetError::Config(format!(
            "a step of this model is at least {bytes} bytes a direction, \
             above the {MAX_PAYLOAD}-byte frame cap"
        )));
    }
    Ok(())
}

/// Which observability view a [`MsgType::Scrape`]
/// frame asks for; the discriminant is the frame's one payload byte.
/// Byte 0 named the retired metrics-registry view and is now unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ScrapeKind {
    /// The answering node's span buffer (`threelc_obs::NodeTrace`): a
    /// non-draining snapshot from a server, the drained buffer from a
    /// worker at shutdown.
    Trace = 1,
    /// The run's recent steps (`threelc_obs::RecentSteps`).
    Series = 2,
}

/// Decodes the `Scrape` payload.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] unless the payload is one byte naming
/// a known [`ScrapeKind`].
pub fn decode_scrape(payload: &[u8]) -> Result<ScrapeKind, NetError> {
    match payload {
        [1] => Ok(ScrapeKind::Trace),
        [2] => Ok(ScrapeKind::Series),
        [kind] => Err(NetError::Protocol(format!("unknown scrape kind {kind}"))),
        _ => Err(NetError::Protocol(format!(
            "scrape payload is {} bytes, want 1",
            payload.len()
        ))),
    }
}

/// Encodes the `ScrapeReply` payload: the requested view as JSON.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] if the view does not serialize (which
/// would indicate a non-finite value slipped into a metric).
pub fn encode_scrape_reply<T: Serialize>(view: &T) -> Result<Vec<u8>, NetError> {
    serde_json::to_string(view)
        .map(String::into_bytes)
        .map_err(|e| NetError::Protocol(format!("scrape reply does not serialize: {e}")))
}

/// Decodes the `ScrapeReply` payload as the view the caller asked for.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] on a malformed payload.
pub fn decode_scrape_reply<T: DeserializeOwned>(payload: &[u8]) -> Result<T, NetError> {
    let json = std::str::from_utf8(payload)
        .map_err(|_| NetError::Protocol("scrape reply payload is not UTF-8".into()))?;
    serde_json::from_str(json)
        .map_err(|e| NetError::Protocol(format!("scrape reply does not parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_bytes_roundtrip_exactly() {
        let t = Tensor::from_vec(vec![0.1, -2.5, f32::MIN_POSITIVE, 0.0], [2, 2]);
        let bytes = t.to_le_bytes();
        let back = bytes_to_tensor(&bytes, t.shape()).expect("roundtrip");
        assert_eq!(back, t);
    }

    #[test]
    fn tensor_bytes_length_checked() {
        let shape = Shape::new(&[3]);
        assert!(bytes_to_tensor(&[0u8; 11], &shape).is_err());
        assert!(bytes_to_tensor(&[0u8; 16], &shape).is_err());
    }

    #[test]
    fn hello_and_push_done_roundtrip() {
        assert_eq!(decode_hello(&encode_hello(513)).unwrap(), 513);
        assert!(decode_hello(&[1, 2, 3]).is_err());
        let done = encode_push_done(0.75, 1.5, 2.25, 0.125);
        assert_eq!(done.len(), 28);
        assert_eq!(decode_push_done(&done).unwrap(), (0.75, 0.125));
    }

    #[test]
    fn push_done_of_any_other_length_is_rejected() {
        // Including the 12- and 20-byte forms older builds sent.
        for len in [0, 11, 12, 16, 20, 21, 27, 29] {
            let err = decode_push_done(&vec![0u8; len]).unwrap_err();
            assert!(err.to_string().contains("want 28"), "{len} bytes: {err}");
        }
    }

    /// Writes `payload` as one frame and parses it back with `parse`.
    fn through_a_frame<T>(
        payload: &StepPayload,
        parse: impl FnOnce(&mut Payload<'_, &[u8]>) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut wire = Vec::new();
        let none = crate::frame::TraceCtx::default();
        let msg = MsgType::PullDone;
        crate::frame::write_frame_parts(&mut wire, msg, 0, 4, none, &payload.parts())?;
        let (_, parsed) = crate::frame::read_frame_with(&mut &wire[..], |_, body| parse(body))?;
        Ok(parsed)
    }

    #[test]
    fn a_step_round_trips_through_one_frame_and_its_plan() {
        use threelc_policy::{Decision, Reason};
        let shapes = [Shape::new(&[2, 3]), Shape::new(&[3]), Shape::new(&[1])];
        let compressible = [true, false, false];
        let raw = Tensor::from_vec(vec![0.5, -1.25, 3.0], [3]);
        let one = Tensor::from_vec(vec![7.0], [1]);
        let payloads = || {
            vec![
                TensorPayload::Compressed(vec![9, 8, 7, 6, 5]),
                TensorPayload::Raw(raw.clone()),
                TensorPayload::Raw(one.clone()),
            ]
        };
        let same = |got: &[TensorPayload]| match got {
            [TensorPayload::Compressed(w), TensorPayload::Raw(a), TensorPayload::Raw(b)] => {
                *w == [9, 8, 7, 6, 5] && *a == raw && *b == one
            }
            _ => false,
        };
        let done = encode_push_done(0.5, 1.0, 0.0, 2.0);
        let push = StepPayload::new(done, payloads(), Vec::new());
        let got = through_a_frame(&push, |body| read_push(body, &shapes, &compressible)).unwrap();
        assert_eq!((got.loss, got.step_seconds), (0.5, 2.0));
        assert!(same(&got.payloads));

        let pull = StepPayload::new(Vec::new(), payloads(), Vec::new());
        let (got, policy) =
            through_a_frame(&pull, |body| read_pull(body, &shapes, &compressible, false)).unwrap();
        assert!(same(&got) && policy.is_none());
        let hold = Decision {
            s: threelc::SparsityMultiplier::new(1.5).unwrap(),
            reason: Reason::Hold,
        };
        let tail = encode_policy_update(&[hold; 3]).unwrap();
        let adaptive = StepPayload::new(Vec::new(), payloads(), tail);
        let (got, policy) = through_a_frame(&adaptive, |body| {
            read_pull(body, &shapes, &compressible, true)
        })
        .unwrap();
        assert!(same(&got));
        assert_eq!(policy, Some(vec![hold; 3]));
        // A tail where the plan has none, and none where it has one, are
        // both refused.
        assert!(through_a_frame(&adaptive, |body| {
            read_pull(body, &shapes, &compressible, false)
        })
        .is_err());
        assert!(
            through_a_frame(&pull, |body| read_pull(body, &shapes, &compressible, true)).is_err()
        );
    }

    #[test]
    fn a_plan_whose_step_passes_the_frame_cap_is_refused_before_it_runs() {
        // 4 100² f32s are 67.2 MB, 64 MiB is 67.1 MB.
        let big = [Shape::new(&[4100, 4100]), Shape::new(&[10])];
        let small = [Shape::new(&[4000, 4000]), Shape::new(&[10])];
        let too_big = |shapes: &[Shape], compressible: &[bool], f32_wire| {
            matches!(
                check_step_size(shapes, compressible, f32_wire, false),
                Err(NetError::Config(m)) if m.contains("frame cap")
            )
        };
        assert!(too_big(&big, &[false, false], false), "raw is 4·n bytes");
        assert!(
            too_big(&big, &[true, false], true),
            "float32 sends 4·n bytes"
        );
        assert!(
            !too_big(&big, &[true, false], false),
            "a codec's size is the data's"
        );
        assert!(!too_big(&small, &[false, false], false));
        assert!(!too_big(&small, &[true, false], true));
    }

    #[test]
    fn model_crc32_distinguishes_models() {
        use threelc_learning::{models, DataSpec};
        let spec = DataSpec {
            channels: 1,
            height: 4,
            width: 4,
            classes: 3,
        };
        let a = models::mlp(&spec, &[8], 11);
        let b = models::mlp(&spec, &[8], 11);
        let c = models::mlp(&spec, &[8], 12);
        // Same seed, same bits, same hash; a different seed changes it.
        assert_eq!(model_crc32(&a), model_crc32(&b));
        assert_ne!(model_crc32(&a), model_crc32(&c));
    }

    #[test]
    fn model_crc32_hashes_every_parameter_byte_in_order() {
        use threelc_learning::{models, DataSpec};
        let spec = DataSpec {
            channels: 1,
            height: 8,
            width: 8,
            classes: 3,
        };
        // A 64 × 130 weight is two 16 KiB blocks and a ragged third.
        let net = models::mlp(&spec, &[130], 5);
        let bytes: Vec<u8> = net.params().iter().flat_map(|p| p.to_le_bytes()).collect();
        assert_eq!(model_crc32(&net), crate::crc32::crc32(&bytes));
    }

    #[test]
    fn scrape_reply_rejects_what_is_not_the_requested_view() {
        // Round trips of both views through real frames, and the kind
        // byte's rejections, live in tests/frame_proptests.rs.
        let trace = threelc_obs::NodeTrace {
            clock: "server".into(),
            spans: Vec::new(),
            dropped: 4,
        };
        let bytes = encode_scrape_reply(&trace).unwrap();
        assert_eq!(
            decode_scrape_reply::<threelc_obs::NodeTrace>(&bytes).unwrap(),
            trace
        );
        assert!(decode_scrape_reply::<threelc_obs::NodeTrace>(b"not json").is_err());
        assert!(decode_scrape_reply::<threelc_obs::NodeTrace>(&[0xFF, 0xFE]).is_err());
        // A well-formed reply of another shape is a mismatch, not a default.
        assert!(decode_scrape_reply::<threelc_obs::RecentSteps>(b"[1,2]").is_err());
    }

    #[test]
    fn policy_update_roundtrip() {
        use threelc::SparsityMultiplier;
        use threelc_policy::{Decision, Reason};
        let decisions = vec![
            Decision {
                s: SparsityMultiplier::new(1.0).unwrap(),
                reason: Reason::Init,
            },
            Decision {
                s: SparsityMultiplier::new(1.75).unwrap(),
                reason: Reason::RatioLow,
            },
        ];
        let payload = encode_policy_update(&decisions).unwrap();
        assert_eq!(payload.len(), 2 + 2 * 5);
        let back = decode_policy_update(&payload).unwrap();
        assert_eq!(back, decisions);
        // Empty decision lists are valid (a model of zero tensors is not,
        // but the codec does not decide that).
        assert_eq!(
            decode_policy_update(&encode_policy_update(&[]).unwrap()).unwrap(),
            []
        );
    }

    #[test]
    fn policy_update_rejects_counts_beyond_the_u16_field() {
        use threelc::SparsityMultiplier;
        use threelc_policy::{Decision, Reason};
        let d = Decision {
            s: SparsityMultiplier::new(1.5).unwrap(),
            reason: Reason::Hold,
        };
        // Exactly at the field's capacity: encodes and roundtrips.
        let at_cap = vec![d; usize::from(u16::MAX)];
        let payload = encode_policy_update(&at_cap).unwrap();
        assert_eq!(payload.len(), 2 + at_cap.len() * 5);
        assert_eq!(decode_policy_update(&payload).unwrap().len(), at_cap.len());
        // One past it: a typed encode-time error, not a silent `as u16`
        // truncation (which would write count=0 over 65 536 records).
        let over = vec![d; usize::from(u16::MAX) + 1];
        let err = encode_policy_update(&over).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("65536"), "error should name the count: {msg}");
        assert!(msg.contains("65535"), "error should name the cap: {msg}");
    }

    #[test]
    fn policy_update_rejects_bad_wire_data() {
        use threelc::SparsityMultiplier;
        use threelc_policy::{Decision, Reason};
        let good = encode_policy_update(&[Decision {
            s: SparsityMultiplier::new(1.5).unwrap(),
            reason: Reason::Hold,
        }])
        .unwrap();
        // Truncated / length-mismatched payloads.
        assert!(decode_policy_update(&[]).is_err());
        assert!(decode_policy_update(&good[..good.len() - 1]).is_err());
        let mut extra = good.clone();
        extra.push(0);
        assert!(decode_policy_update(&extra).is_err());
        // An out-of-range multiplier is a typed rejection, not an apply.
        let mut bad_s = good.clone();
        bad_s[2..6].copy_from_slice(&2.5f32.to_le_bytes());
        let err = decode_policy_update(&bad_s).unwrap_err();
        assert!(err.to_string().contains("sparsity"), "got: {err}");
        // NaN likewise.
        let mut nan_s = good.clone();
        nan_s[2..6].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(decode_policy_update(&nan_s).is_err());
        // Unknown reason codes are rejected, the retired policies' among
        // them.
        for code in [0, 2, 6, 7, 99] {
            let mut bad_reason = good.clone();
            bad_reason[6] = code;
            let err = decode_policy_update(&bad_reason).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unknown reason code {code}")),
                "got: {err}"
            );
        }
    }
}
