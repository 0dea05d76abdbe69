//! Property tests for the frame codec and the step frame's segments:
//! roundtrips, and robustness against truncation, corruption, and
//! arbitrary garbage (never panic, never over-read, never over-allocate).

use proptest::prelude::*;
use serde::{de::DeserializeOwned, Serialize};
use threelc_distsim::TensorPayload;
use threelc_net::frame::{
    self, read_frame_with, write_frame_parts, Frame, FrameError, MsgType, TraceCtx, HEADER_LEN,
    MAX_PAYLOAD,
};
use threelc_net::protocol::{
    decode_hello, decode_policy_update, decode_push_done, decode_scrape, decode_scrape_reply,
    encode_hello, encode_policy_update, encode_push_done, encode_scrape_reply, read_pull,
    read_push, StepPayload,
};
use threelc_net::{NetError, ScrapeKind};
use threelc_obs::{RecentSteps, WorkerDelta};
use threelc_tensor::{Shape, Tensor};

/// Every type byte the protocol defines.
const MSG_BYTES: [u8; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

/// Type bytes of the per-view scrape frames `Scrape`/`ScrapeReply`
/// replaced, of the rejoin pair `Hello`/`HelloAck` absorbed and of the
/// policy frame a pull's tail replaced; unknown types now.
const RETIRED_MSG_BYTES: [u8; 7] = [13, 14, 15, 16, 17, 18, 19];

fn arb_msg() -> impl Strategy<Value = MsgType> {
    (0..MSG_BYTES.len()).prop_map(|i| MsgType::from_u8(MSG_BYTES[i]).expect("defined type"))
}

/// `frame` through the one writer.
fn encode(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    let parts = [&frame.payload[..]];
    write_frame_parts(
        &mut wire,
        frame.msg,
        frame.tensor,
        frame.step,
        frame.trace,
        &parts,
    )
    .expect("writes");
    wire
}

/// One frame off the front of `bytes` through the one reader, and the
/// bytes it consumed.
fn decode(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    let mut rest = bytes;
    let frame = frame::read_frame(&mut rest)?;
    Ok((frame, bytes.len() - rest.len()))
}

/// Sends `view` through a `ScrapeReply` frame and back.
fn reply_roundtrip<T: Serialize + DeserializeOwned>(view: &T, step: u64) -> T {
    let payload = encode_scrape_reply(view).expect("serializes");
    let frame = Frame {
        msg: MsgType::ScrapeReply,
        tensor: 0,
        step,
        trace: TraceCtx::default(),
        payload,
    };
    let (back, _) = decode(&encode(&frame)).expect("own encoding decodes");
    assert_eq!(back.msg, MsgType::ScrapeReply);
    decode_scrape_reply(&back.payload).expect("parses")
}

/// Any trace context, including the absent one (which makes the frame a
/// version-1 frame on the wire).
fn arb_trace() -> impl Strategy<Value = TraceCtx> {
    (any::<u64>(), any::<u64>()).prop_map(|(trace_id, span_id)| TraceCtx {
        trace: trace_id,
        span: span_id,
    })
}

/// What a hostile float field can hold: NaN, ±∞, ±0, denormals of both
/// signs, the extremes, and ordinary values.
const F64_EDGES: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 4.0,
    -f64::MIN_POSITIVE / 4.0,
    f64::MAX,
    f64::MIN,
    1.5,
];

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..F64_EDGES.len()).prop_map(|i| F64_EDGES[i]),
        -10.0f64..10.0
    ]
}

/// A sparsity multiplier's wire value: any edge (as `f32`) or one near
/// the valid `[1, 2)` range.
fn arb_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        (0..F64_EDGES.len()).prop_map(|i| F64_EDGES[i] as f32),
        0.5f32..2.5
    ]
}

/// `bytes` cut to `len`, or padded to it with `fill`: a truncation or a
/// length lie.
fn resize(mut bytes: Vec<u8>, len: usize, fill: u8) -> Vec<u8> {
    bytes.resize(len, fill);
    bytes
}

/// The plan the step-frame properties parse against: a compressed 2×3
/// tensor, then raw 3- and 1-value ones.
fn plan() -> (Vec<Shape>, Vec<bool>) {
    let shapes = vec![Shape::new(&[2, 3]), Shape::new(&[3]), Shape::new(&[1])];
    (shapes, vec![true, false, false])
}

/// A step payload laid out by hand: `head`, then each segment behind its
/// `u32 LE` length, then `tail`.
fn step_bytes(head: &[u8], segments: &[Vec<u8>], tail: &[u8]) -> Vec<u8> {
    let mut bytes = head.to_vec();
    for segment in segments {
        bytes.extend_from_slice(&(segment.len() as u32).to_le_bytes());
        bytes.extend_from_slice(segment);
    }
    bytes.extend_from_slice(tail);
    bytes
}

/// The plan's segments: `wire` for the compressed tensor, the raw ones'
/// `f32`s.
fn segments(wire: Vec<u8>) -> Vec<Vec<u8>> {
    let raw = |v: &[f32]| Tensor::from_slice(v).to_le_bytes();
    vec![wire, raw(&[0.5, -1.0, 2.0]), raw(&[3.0])]
}

/// `payload` sent as one frame whose checksum holds, parsed by `parse`:
/// what a peer that lies in its payload, not on the wire, gets.
fn parse_step<T>(
    msg: MsgType,
    payload: &[u8],
    parse: impl FnOnce(&mut frame::Payload<'_, &[u8]>) -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut wire = Vec::new();
    write_frame_parts(&mut wire, msg, 0, 0, TraceCtx::default(), &[payload]).expect("writes");
    read_frame_with(&mut wire.as_slice(), |_, body| parse(body)).map(|(_, parsed)| parsed)
}

fn parse_push(payload: &[u8]) -> Result<threelc_net::protocol::Push, NetError> {
    let (shapes, compressible) = plan();
    parse_step(MsgType::PushDone, payload, |body| {
        read_push(body, &shapes, &compressible)
    })
}

#[allow(clippy::type_complexity)]
fn parse_pull(
    payload: &[u8],
    adaptive: bool,
) -> Result<(Vec<TensorPayload>, Option<Vec<threelc_policy::Decision>>), NetError> {
    let (shapes, compressible) = plan();
    parse_step(MsgType::PullDone, payload, |body| {
        read_pull(body, &shapes, &compressible, adaptive)
    })
}

/// The next step's decisions for the plan's three tensors.
fn decisions(s: f32) -> Vec<u8> {
    let d = threelc_policy::Decision {
        s: threelc::SparsityMultiplier::new(s).expect("valid"),
        reason: threelc_policy::Reason::Hold,
    };
    encode_policy_update(&[d; 3]).expect("encodes")
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        arb_msg(),
        any::<u16>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..600),
        arb_trace(),
    )
        .prop_map(|(msg, tensor, step, payload, trace)| Frame {
            msg,
            tensor,
            step,
            trace,
            payload,
        })
}

proptest! {
    #[test]
    fn roundtrip_arbitrary_frames(frame in arb_frame()) {
        let encoded = encode(&frame);
        let ext = if frame.trace.is_none() { 0 } else { frame::TRACE_EXT_LEN };
        prop_assert_eq!(encoded.len(), HEADER_LEN + ext + frame.payload.len());

        let (decoded, consumed) = decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(consumed, encoded.len());
        prop_assert_eq!(&decoded, &frame);

        // A reader handed the payload in pieces sees the same frame.
        let (head, payload) = read_frame_with(&mut encoded.as_slice(), frame::whole)
            .expect("stream decodes");
        prop_assert_eq!(head.wire_len, encoded.len());
        prop_assert_eq!((head.msg, head.step, head.trace), (frame.msg, frame.step, frame.trace));
        prop_assert_eq!(payload, frame.payload);
    }

    #[test]
    fn trailing_bytes_are_not_consumed(frame in arb_frame(), extra in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut wire = encode(&frame);
        let frame_len = wire.len();
        wire.extend_from_slice(&extra);
        let (decoded, consumed) = decode(&wire).expect("prefix decodes");
        prop_assert_eq!(consumed, frame_len);
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn every_truncation_errors(frame in arb_frame(), cut in any::<u16>()) {
        let encoded = encode(&frame);
        let cut = (cut as usize) % encoded.len(); // strictly shorter
        prop_assert!(decode(&encoded[..cut]).is_err());
    }

    #[test]
    fn every_single_byte_corruption_errors(frame in arb_frame(), pos in any::<u32>(), flip in 1u8..=255) {
        let mut wire = encode(&frame);
        let pos = (pos as usize) % wire.len();
        wire[pos] ^= flip;
        // Any change — header or payload — must be rejected, not
        // reinterpreted: the CRC covers both.
        prop_assert!(decode(&wire).is_err());
    }

    #[test]
    fn garbage_never_panics_and_never_over_reads(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok((frame, consumed)) = decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
            prop_assert!(consumed >= HEADER_LEN + frame.payload.len());
            prop_assert_eq!(encode(&frame), bytes[..consumed].to_vec());
        }
    }

    #[test]
    fn scrape_pair_roundtrips_every_kind(
        step in any::<u64>(),
        count in any::<u64>(),
        seconds in 0.0f64..100.0,
        clock_i in 0usize..4,
        dropped in any::<u64>(),
        spans in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), 0usize..8, any::<u64>(), -1i64..64, any::<u64>(), any::<u64>()),
            0..20,
        ),
    ) {
        for kind in [ScrapeKind::Trace, ScrapeKind::Series] {
            let request = Frame {
                msg: MsgType::Scrape,
                tensor: 0,
                step,
                trace: TraceCtx::default(),
                payload: vec![kind as u8],
            };
            let (back, _) = decode(&encode(&request)).expect("own encoding decodes");
            prop_assert_eq!(back.msg, MsgType::Scrape);
            prop_assert_eq!(decode_scrape(&back.payload).expect("known kind"), kind);
        }

        let names = ["quantize", "encode", "serialize", "network", "pull", "recv_push", "send_pull", "barrier"];
        let clock: String = ["server", "worker0", "worker1", "sim"][clock_i].into();
        let node = threelc_obs::NodeTrace {
            clock: clock.clone(),
            spans: spans
                .into_iter()
                .map(|(trace, span, parent, name, step, worker, start, dur)| threelc_obs::SpanRecord {
                    trace,
                    span,
                    parent,
                    name: names[name].into(),
                    node: clock.clone(),
                    step,
                    worker,
                    tensor: worker,
                    start_ns: start,
                    end_ns: start.saturating_add(dur % 1_000_000),
                })
                .collect(),
            dropped,
        };
        prop_assert_eq!(reply_roundtrip(&node, step), node);

        let mut recent = RecentSteps::new(2);
        recent.record(
            0,
            &[WorkerDelta {
                worker: clock_i % 2,
                wire_bytes: count % (1 << 40),
                ratio: 1.0 + seconds,
                loss: seconds,
                rejoins: 0,
                step_seconds: seconds / 1000.0,
                barrier_wait_seconds: 0.0,
            }],
        );
        prop_assert_eq!(&reply_roundtrip(&recent, step), &recent);
    }

    #[test]
    fn retired_scrape_types_are_rejected_from_the_header_alone(
        which in 0..RETIRED_MSG_BYTES.len(),
        claimed_len in 0u32..=(MAX_PAYLOAD as u32),
    ) {
        // A bare header — nothing behind it — naming a retired type and
        // claiming up to the payload cap. `BadMsgType` (not `Truncated`,
        // not an I/O error) shows the type check ran before anything was
        // allocated or read for the claimed length.
        let retired = RETIRED_MSG_BYTES[which];
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, MsgType::Scrape, 0, 0, &[]).expect("writes");
        wire[5] = retired;
        wire[16..20].copy_from_slice(&claimed_len.to_le_bytes());
        prop_assert_eq!(wire.len(), HEADER_LEN);
        prop_assert!(matches!(decode(&wire), Err(FrameError::BadMsgType(b)) if b == retired));
    }

    #[test]
    fn malformed_scrape_kinds_are_typed_errors(kind in 3u8..=255, extra in prop::collection::vec(any::<u8>(), 1..8)) {
        prop_assert!(matches!(decode_scrape(&[kind]), Err(NetError::Protocol(_))));
        // Byte 0 asked for the retired metrics-registry view.
        prop_assert!(matches!(decode_scrape(&[0]), Err(NetError::Protocol(_))));
        prop_assert!(matches!(decode_scrape(&[]), Err(NetError::Protocol(_))));
        let mut long = vec![ScrapeKind::Trace as u8];
        long.extend_from_slice(&extra);
        prop_assert!(matches!(decode_scrape(&long), Err(NetError::Protocol(_))));
    }

    #[test]
    fn hostile_length_fields_never_allocate(claimed_len in any::<u32>(), msg in arb_msg()) {
        // Forge a header claiming an arbitrary payload length with a valid
        // CRC but no payload bytes behind it. Decoding must error without
        // trying to allocate or read `claimed_len` bytes.
        let real = Frame { msg, tensor: 3, step: 9, trace: TraceCtx::default(), payload: vec![] };
        let mut wire = encode(&real);
        wire[16..20].copy_from_slice(&claimed_len.to_le_bytes());
        if claimed_len != 0 {
            prop_assert!(decode(&wire).is_err());
        }
    }

    #[test]
    fn hello_decodes_exactly_two_bytes(id in any::<u16>(), len in 0usize..6, fill in any::<u8>()) {
        let bytes = resize(encode_hello(id), len, fill);
        match decode_hello(&bytes) {
            Ok(back) => prop_assert!(len == 2 && back == id, "{len} bytes decoded to {back}"),
            Err(NetError::Protocol(_)) => prop_assert!(len != 2),
            Err(e) => prop_assert!(false, "untyped error {e}"),
        }
    }

    #[test]
    fn push_done_accepts_only_finite_non_negative_times(
        loss in arb_f32(),
        codec in arb_f64(),
        residual in arb_f64(),
        step in arb_f64(),
        len in 20usize..36,
        fill in any::<u8>(),
    ) {
        let bytes = resize(encode_push_done(loss, codec, residual, step), len, fill);
        let time = |v: f64| v.is_finite() && v >= 0.0;
        let valid = len == 28 && time(codec) && time(step);
        match decode_push_done(&bytes) {
            Ok((l, s)) => {
                prop_assert!(valid, "accepted codec {codec}, step {step}, {len} bytes");
                prop_assert_eq!((l.to_bits(), s.to_bits()), (loss.to_bits(), step.to_bits()));
            }
            Err(NetError::Protocol(_)) => prop_assert!(!valid, "rejected a valid payload"),
            Err(e) => prop_assert!(false, "untyped error {e}"),
        }
    }

    #[test]
    fn policy_update_accepts_only_an_exact_count_of_valid_decisions(
        decisions in prop::collection::vec((arb_f32(), 0u8..10), 0..12),
        count_lie in prop_oneof![Just(0i32), -2i32..3],
        cut in prop_oneof![Just(0usize), 1usize..8],
    ) {
        // The count field lies by `count_lie` (wrapping, so 0 - 1 claims
        // 65 535); the body loses its last `cut` bytes.
        let count = (decisions.len() as i32 + count_lie) as u16;
        let mut bytes = count.to_le_bytes().to_vec();
        for (s, reason) in &decisions {
            bytes.extend_from_slice(&s.to_le_bytes());
            bytes.push(*reason);
        }
        let full = bytes.len();
        let bytes = resize(bytes, full.saturating_sub(cut), 0);
        let valid = bytes.len() == full
            && usize::from(count) == decisions.len()
            && decisions.iter().all(|(s, r)| {
                s.is_finite() && (1.0..2.0).contains(s) && threelc_policy::Reason::from_code(*r).is_some()
            });
        match decode_policy_update(&bytes) {
            Ok(back) => {
                prop_assert!(valid, "accepted {} bytes claiming {count}", bytes.len());
                prop_assert_eq!(back.len(), decisions.len());
                for (d, (s, r)) in back.iter().zip(&decisions) {
                    prop_assert_eq!((d.s.value().to_bits(), d.reason.code()), (s.to_bits(), *r));
                }
            }
            Err(NetError::Protocol(_)) => prop_assert!(!valid, "rejected a valid update"),
            Err(e) => prop_assert!(false, "untyped error {e}"),
        }
    }
    #[test]
    fn a_step_frame_round_trips_its_segments(
        wire in prop::collection::vec(any::<u8>(), 0..64),
        adaptive in any::<bool>(),
    ) {
        let head = encode_push_done(0.25, 0.0, 0.0, 1.0);
        let laid = |head: Vec<u8>, tail: Vec<u8>| {
            let payloads = vec![
                TensorPayload::Compressed(wire.clone()),
                TensorPayload::Raw(Tensor::from_slice(&[0.5, -1.0, 2.0])),
                TensorPayload::Raw(Tensor::from_slice(&[3.0])),
            ];
            StepPayload::new(head, payloads, tail).parts().concat()
        };
        let push = laid(head.clone(), Vec::new());
        prop_assert_eq!(&push, &step_bytes(&head, &segments(wire.clone()), &[]));
        let parsed = parse_push(&push).expect("a push parses");
        prop_assert_eq!((parsed.loss, parsed.step_seconds), (0.25, 1.0));
        let payloads = parsed.payloads;
        prop_assert!(matches!(&payloads[0], TensorPayload::Compressed(w) if *w == wire));
        prop_assert!(matches!(&payloads[2], TensorPayload::Raw(t) if t.as_slice() == [3.0]));
        let tail = if adaptive { decisions(1.25) } else { Vec::new() };
        let pull = laid(Vec::new(), tail);
        let (payloads, policy) = parse_pull(&pull, adaptive).expect("a pull parses");
        prop_assert_eq!(payloads.len(), 3);
        prop_assert_eq!(policy.is_some(), adaptive);
    }

    #[test]
    fn a_segment_length_beyond_the_bytes_left_is_a_typed_error(
        wire in prop::collection::vec(any::<u8>(), 0..64),
        which in 0usize..3,
        past in 1u32..=u32::MAX,
    ) {
        // The length field of segment `which` claims `past` more bytes
        // than the frame has left behind it — up to 4 GiB more, which a
        // parser that allocated before checking would try to hold.
        let head = encode_push_done(0.25, 0.0, 0.0, 1.0);
        let segs = segments(wire);
        let mut bytes = step_bytes(&head, &segs, &[]);
        let at = head.len() + segs[..which].iter().map(|s| 4 + s.len()).sum::<usize>();
        let left = (bytes.len() - at - 4) as u64;
        let lie = (left + u64::from(past)).min(u64::from(u32::MAX)) as u32;
        bytes[at..at + 4].copy_from_slice(&lie.to_le_bytes());
        let err = parse_push(&bytes).err().expect("a lying length parsed");
        prop_assert!(matches!(&err, NetError::Protocol(m) if m.contains("left")), "{}", err);
    }

    #[test]
    fn a_truncated_step_is_a_typed_error(
        wire in prop::collection::vec(any::<u8>(), 0..64),
        cut in any::<u16>(),
        adaptive in any::<bool>(),
    ) {
        let head = encode_push_done(0.25, 0.0, 0.0, 1.0);
        let push = step_bytes(&head, &segments(wire.clone()), &[]);
        let at = usize::from(cut) % push.len();
        prop_assert!(matches!(parse_push(&push[..at]), Err(NetError::Protocol(_))));
        let tail = if adaptive { decisions(1.5) } else { Vec::new() };
        let pull = step_bytes(&[], &segments(wire), &tail);
        let at = usize::from(cut) % pull.len();
        prop_assert!(matches!(parse_pull(&pull[..at], adaptive), Err(NetError::Protocol(_))));
    }

    #[test]
    fn a_segment_count_that_disagrees_with_the_model_is_a_typed_error(
        wire in prop::collection::vec(any::<u8>(), 0..64),
        keep in 0usize..3,
        extra in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..3),
    ) {
        // Fewer segments than the model has tensors, or more.
        let head = encode_push_done(0.25, 0.0, 0.0, 1.0);
        let mut fewer = segments(wire.clone());
        fewer.truncate(keep);
        let mut more = segments(wire);
        more.extend(extra);
        for segs in [fewer, more] {
            let push = step_bytes(&head, &segs, &[]);
            prop_assert!(matches!(parse_push(&push), Err(NetError::Protocol(_))));
            let pull = step_bytes(&[], &segs, &[]);
            prop_assert!(matches!(parse_pull(&pull, false), Err(NetError::Protocol(_))));
        }
    }

    #[test]
    fn a_raw_segment_that_is_not_four_bytes_a_value_is_a_typed_error(
        which in 1usize..3,
        len in 0usize..24,
        fill in any::<u8>(),
    ) {
        let mut segs = segments(vec![1, 2, 3]);
        if len == segs[which].len() {
            return Ok(());
        }
        segs[which] = vec![fill; len];
        let push = step_bytes(&encode_push_done(0.25, 0.0, 0.0, 1.0), &segs, &[]);
        let err = parse_push(&push).err().expect("a misshapen raw tensor parsed");
        prop_assert!(matches!(&err, NetError::Protocol(m) if m.contains("raw tensor")), "{}", err);
        let err = parse_pull(&step_bytes(&[], &segs, &[]), false).err().expect("parsed");
        prop_assert!(matches!(&err, NetError::Protocol(m) if m.contains("raw tensor")), "{}", err);
    }

    #[test]
    fn a_policy_tail_that_is_not_exactly_one_valid_update_is_a_typed_error(
        form in 0usize..6,
        s in arb_f32(),
        extra in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let one = decisions(1.5);
        let tail = match form {
            0 => Vec::new(),                                   // missing
            1 => [one.clone(), one.clone()].concat(),          // two
            2 => [one.clone(), extra].concat(),                // trailing bytes
            3 => one[..one.len() - 1].to_vec(),                // cut short
            4 => {
                // One update for two tensors of three.
                let d = decode_policy_update(&one).expect("valid");
                encode_policy_update(&d[..2]).expect("encodes")
            }
            _ => {
                // A multiplier no encoder may use.
                let mut bad = one.clone();
                let s = if (1.0..2.0).contains(&s) { s + 1.0 } else { s };
                bad[2..6].copy_from_slice(&s.to_le_bytes());
                bad
            }
        };
        let pull = step_bytes(&[], &segments(vec![4, 5]), &tail);
        prop_assert!(matches!(parse_pull(&pull, true), Err(NetError::Protocol(_))));
        // And a valid update where the plan has none.
        let pull = step_bytes(&[], &segments(vec![4, 5]), &one);
        prop_assert!(matches!(parse_pull(&pull, false), Err(NetError::Protocol(_))));
    }
}
