//! Payload encodings shared by server and worker, and the runtime error
//! type.

use crate::frame::FrameError;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io;
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
/// The same bytes as [`Tensor::to_le_bytes`], which this crate calls
/// directly; the name stays for the ledger's replay and kernel rows, which
/// import it.
pub fn tensor_to_bytes(t: &Tensor) -> Vec<u8> {
    t.to_le_bytes()
}

/// Rebuilds a tensor of a known shape from little-endian `f32` bytes.
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

/// Encodes the 28-byte `PushDone` payload: local loss, worker codec
/// seconds, a residual slot, and the wall-clock seconds the worker spent
/// computing + encoding the step (the per-worker latency series the run
/// recorder folds). The worker writes `0.0` into the residual slot and the
/// server reads neither it nor the codec seconds; the slot and this
/// signature stay because the step ledger (`ledger/`) writes them and
/// counts the frame's bytes.
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

/// Decodes the `PushDone` payload into the two fields the server reads:
/// the loss and the step seconds.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] unless the payload is exactly the
/// 28 bytes [`encode_push_done`] writes and both durations (codec and
/// step seconds) are finite and non-negative: the frame is input from
/// outside the program, a time is never either, and the step seconds feed
/// the worker's latency series, where one NaN would poison every view
/// after it.
pub fn decode_push_done(payload: &[u8]) -> Result<(f32, f64), NetError> {
    if payload.len() != 28 {
        return Err(NetError::Protocol(format!(
            "push-done payload is {} bytes, want 28",
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

/// Encodes the `PolicyUpdate` payload: the per-tensor decisions for the
/// next step as `count (u16 LE) + count × [s (f32 LE) + reason (u8)]`.
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

/// Decodes the `PolicyUpdate` payload, validating every multiplier
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

/// Which observability view a [`MsgType::Scrape`](crate::MsgType::Scrape)
/// frame asks for; the discriminant is the frame's one payload byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ScrapeKind {
    /// The global metrics registry (`threelc_obs::Snapshot`).
    Metrics = 0,
    /// The answering node's span buffer (`threelc_obs::NodeTrace`): a
    /// non-draining snapshot from a server, the drained buffer from a
    /// worker at shutdown.
    Trace = 1,
    /// The run's time-series store (`threelc_obs::RunSeries`).
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
        [0] => Ok(ScrapeKind::Metrics),
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
        // Round trips of all three views through real frames, and the
        // kind byte's rejections, live in tests/frame_proptests.rs.
        let reg = threelc_obs::Registry::new();
        reg.counter("frames").add(4);
        let snap = reg.snapshot();
        let bytes = encode_scrape_reply(&snap).unwrap();
        assert_eq!(
            decode_scrape_reply::<threelc_obs::Snapshot>(&bytes).unwrap(),
            snap
        );
        assert!(decode_scrape_reply::<threelc_obs::Snapshot>(b"not json").is_err());
        assert!(decode_scrape_reply::<threelc_obs::Snapshot>(&[0xFF, 0xFE]).is_err());
        // A well-formed reply of another shape is a mismatch, not a default.
        assert!(decode_scrape_reply::<threelc_obs::RunSeries>(b"[1,2]").is_err());
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
