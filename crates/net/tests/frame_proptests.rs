//! Property tests for the frame codec: roundtrips, and robustness against
//! truncation, corruption, and arbitrary garbage (never panic, never
//! over-read, never over-allocate).

use proptest::prelude::*;
use serde::{de::DeserializeOwned, Serialize};
use threelc_net::frame::{self, Frame, FrameError, MsgType, TraceContext, HEADER_LEN, MAX_PAYLOAD};
use threelc_net::protocol::{
    decode_hello, decode_policy_update, decode_push_done, decode_scrape, decode_scrape_reply,
    encode_hello, encode_push_done, encode_scrape_reply,
};
use threelc_net::{NetError, ScrapeKind};
use threelc_obs::timeseries::{RunRecorder, WorkerDelta};

/// Every type byte the protocol defines.
const MSG_BYTES: [u8; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 17];

/// Type bytes of the per-view scrape frames `Scrape`/`ScrapeReply`
/// replaced and of the rejoin pair `Hello`/`HelloAck` absorbed; unknown
/// types now.
const RETIRED_MSG_BYTES: [u8; 6] = [13, 14, 15, 16, 18, 19];

fn arb_msg() -> impl Strategy<Value = MsgType> {
    (0..MSG_BYTES.len()).prop_map(|i| MsgType::from_u8(MSG_BYTES[i]).expect("defined type"))
}

/// Sends `view` through a `ScrapeReply` frame and back.
fn reply_roundtrip<T: Serialize + DeserializeOwned>(view: &T, step: u64) -> T {
    let payload = encode_scrape_reply(view).expect("serializes");
    let frame = Frame::new(MsgType::ScrapeReply, 0, step, payload);
    let (back, _) = Frame::decode(&frame.encode()).expect("own encoding decodes");
    assert_eq!(back.msg, MsgType::ScrapeReply);
    decode_scrape_reply(&back.payload).expect("parses")
}

/// Any trace context, including the absent one (which makes the frame a
/// version-1 frame on the wire).
fn arb_trace() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>()).prop_map(|(trace_id, span_id)| TraceContext { trace_id, span_id })
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

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        arb_msg(),
        any::<u16>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..600),
        arb_trace(),
    )
        .prop_map(|(msg, tensor, step, payload, trace)| {
            Frame::new(msg, tensor, step, payload).with_trace(trace)
        })
}

proptest! {
    #[test]
    fn roundtrip_arbitrary_frames(frame in arb_frame()) {
        let encoded = frame.encode();
        prop_assert_eq!(encoded.len(), frame.encoded_len());

        let (decoded, consumed) = Frame::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(consumed, encoded.len());
        prop_assert_eq!(&decoded, &frame);

        // The streaming reader agrees with the slice decoder.
        let streamed = frame::read_frame(&mut encoded.as_slice()).expect("stream decodes");
        prop_assert_eq!(&streamed, &frame);
    }

    #[test]
    fn trailing_bytes_are_not_consumed(frame in arb_frame(), extra in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut wire = frame.encode();
        let frame_len = wire.len();
        wire.extend_from_slice(&extra);
        let (decoded, consumed) = Frame::decode(&wire).expect("prefix decodes");
        prop_assert_eq!(consumed, frame_len);
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn every_truncation_errors(frame in arb_frame(), cut in any::<u16>()) {
        let encoded = frame.encode();
        let cut = (cut as usize) % encoded.len(); // strictly shorter
        prop_assert!(Frame::decode(&encoded[..cut]).is_err());
        prop_assert!(frame::read_frame(&mut &encoded[..cut]).is_err());
    }

    #[test]
    fn every_single_byte_corruption_errors(frame in arb_frame(), pos in any::<u32>(), flip in 1u8..=255) {
        let mut wire = frame.encode();
        let pos = (pos as usize) % wire.len();
        wire[pos] ^= flip;
        // Any change — header or payload — must be rejected, not
        // reinterpreted: the CRC covers both.
        prop_assert!(Frame::decode(&wire).is_err());
    }

    #[test]
    fn garbage_never_panics_and_never_over_reads(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok((frame, consumed)) = Frame::decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
            prop_assert_eq!(consumed, frame.encoded_len());
            prop_assert!(consumed >= HEADER_LEN + frame.payload.len());
        }
        let _ = frame::read_frame(&mut bytes.as_slice());
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
            let request = Frame::new(MsgType::Scrape, 0, step, vec![kind as u8]);
            let (back, _) = Frame::decode(&request.encode()).expect("own encoding decodes");
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

        let mut recorder = RunRecorder::new(2);
        recorder.record_step(
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
        prop_assert_eq!(&reply_roundtrip(recorder.store(), step), recorder.store());
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
        let mut wire = Frame::new(MsgType::Scrape, 0, 0, vec![]).encode();
        wire[5] = retired;
        wire[16..20].copy_from_slice(&claimed_len.to_le_bytes());
        prop_assert_eq!(wire.len(), HEADER_LEN);
        prop_assert!(matches!(Frame::decode(&wire), Err(FrameError::BadMsgType(b)) if b == retired));
        prop_assert!(matches!(
            frame::read_frame(&mut wire.as_slice()),
            Err(FrameError::BadMsgType(b)) if b == retired
        ));
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
        let real = Frame::new(msg, 3, 9, vec![]);
        let mut wire = real.encode();
        wire[16..20].copy_from_slice(&claimed_len.to_le_bytes());
        if claimed_len != 0 {
            prop_assert!(Frame::decode(&wire).is_err());
            prop_assert!(frame::read_frame(&mut wire.as_slice()).is_err());
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
}
