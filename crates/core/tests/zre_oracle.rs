//! The zero-run code against the paper's byte-at-a-time loops (§3.3).
//!
//! The oracle below is the encoder and decoder as the paper states them —
//! one byte at a time, a run counter flushed at 14 and at the first
//! non-zero byte — kept here and nowhere else. Every tier's encoder (bytes,
//! run reports, `InvalidQuarticByte` offsets) and the shared expander are
//! held to it on streams built from runs, so that every multiple of 14 and
//! every 16-, 32- and 64-byte window edge falls inside a run and across
//! one, and on hostile bodies that claim more bytes than the tensor has.

use proptest::prelude::*;
use threelc::quartic::{MAX_QUARTIC_BYTE, ZERO_BYTE};
use threelc::zrle::{self, ESCAPE_BASE, MAX_RUN, MIN_RUN};
use threelc::{CodecImpl, DecodeError};

fn available_tiers() -> Vec<CodecImpl> {
    CodecImpl::ALL
        .into_iter()
        .filter(|i| i.is_available())
        .collect()
}

/// The paper's encoder: bytes and the runs it emitted, or the first
/// invalid byte.
fn oracle_encode(input: &[u8]) -> Result<(Vec<u8>, Vec<usize>), DecodeError> {
    let mut out = Vec::new();
    let mut runs = Vec::new();
    let mut run = 0;
    let mut flush = |run: &mut usize, out: &mut Vec<u8>| {
        match *run {
            0 => return,
            1 => out.push(ZERO_BYTE),
            k => out.push(ESCAPE_BASE + (k - MIN_RUN) as u8),
        }
        runs.push(*run);
        *run = 0;
    };
    for (offset, &byte) in input.iter().enumerate() {
        if byte > MAX_QUARTIC_BYTE {
            return Err(DecodeError::InvalidQuarticByte { byte, offset });
        }
        if byte == ZERO_BYTE {
            run += 1;
            if run == MAX_RUN {
                flush(&mut run, &mut out);
            }
        } else {
            flush(&mut run, &mut out);
            out.push(byte);
        }
    }
    flush(&mut run, &mut out);
    Ok((out, runs))
}

/// The paper's decoder.
fn oracle_decode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for &b in input {
        if b >= ESCAPE_BASE {
            out.extend(std::iter::repeat_n(
                ZERO_BYTE,
                (b - ESCAPE_BASE) as usize + MIN_RUN,
            ));
        } else {
            out.push(b);
        }
    }
    out
}

/// A literal quartic byte: anything valid but the zero byte.
fn literal() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..ZERO_BYTE, ZERO_BYTE + 1..=MAX_QUARTIC_BYTE]
}

/// Quartic streams built from runs: up to 100 zero bytes, then up to 40
/// literals, repeated up to 4 KiB.
fn run_stream() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (0usize..=100, prop::collection::vec(literal(), 0..41)),
        0..80,
    )
    .prop_map(|runs| {
        let mut out = Vec::new();
        for (zeros, literals) in runs {
            out.extend(std::iter::repeat_n(ZERO_BYTE, zeros));
            out.extend(literals);
        }
        out.truncate(4096);
        out
    })
}

/// A run stream, sometimes with an invalid byte (243–255) dropped in.
fn maybe_corrupt_stream() -> impl Strategy<Value = Vec<u8>> {
    (run_stream(), any::<usize>(), 243u8..=255, 0..3).prop_map(|(mut s, at, bad, corrupt)| {
        if corrupt == 0 && !s.is_empty() {
            let i = at % s.len();
            s[i] = bad;
        }
        s
    })
}

/// Asserts every tier's encoder reproduces the oracle on `stream`, and that
/// appending behind existing bytes keeps them (and appends nothing on
/// error).
fn assert_tiers_match_oracle(stream: &[u8]) {
    let want = oracle_encode(stream);
    for imp in available_tiers() {
        let mut runs = Vec::new();
        let got = zrle::encode_with_runs_impl(imp, stream, |r| runs.push(r));
        match &want {
            Ok((bytes, want_runs)) => {
                assert_eq!(got.as_ref(), Ok(bytes), "{imp}: bytes of {stream:?}");
                assert_eq!(&runs, want_runs, "{imp}: runs of {stream:?}");
            }
            Err(e) => assert_eq!(got.as_ref(), Err(e), "{imp}: error of {stream:?}"),
        }
        let mut out = vec![7u8, 8, 9];
        let res = zrle::encode_into_impl(imp, stream, &mut out, |_| {});
        match &want {
            Ok((bytes, _)) => {
                assert_eq!(res, Ok(()));
                assert_eq!(&out[..3], &[7, 8, 9], "{imp}: prefix kept");
                assert_eq!(&out[3..], &bytes[..], "{imp}: appended bytes");
            }
            Err(e) => {
                assert_eq!(res.as_ref(), Err(e), "{imp}");
                assert_eq!(out, [7, 8, 9], "{imp}: appended on error");
            }
        }
    }
}

proptest! {
    #[test]
    fn every_tier_encodes_as_the_paper_loop(stream in maybe_corrupt_stream()) {
        assert_tiers_match_oracle(&stream);
    }

    #[test]
    fn the_expander_inverts_the_paper_encoder(stream in run_stream()) {
        let (body, _) = oracle_encode(&stream).expect("valid stream");
        prop_assert_eq!(zrle::decoded_len(&body), stream.len());
        // A reused buffer, longer and shorter than the result.
        for stale in [vec![1u8; stream.len() + 40], vec![2u8; 5]] {
            let mut out = stale;
            zrle::decode_exact_into(&body, stream.len(), &mut out).expect("exact length");
            prop_assert_eq!(&out, &stream);
        }
        prop_assert_eq!(zrle::decode(&body), stream.clone());
        prop_assert_eq!(zrle::decode_exact(&body, stream.len()), Ok(stream));
    }

    #[test]
    fn the_expander_decodes_any_body_as_the_paper_loop(
        body in prop::collection::vec(
            prop_oneof![any::<u8>(), ESCAPE_BASE..=u8::MAX, literal()],
            0..600,
        ),
    ) {
        let want = oracle_decode(&body);
        prop_assert_eq!(zrle::decode(&body), want.clone());
        prop_assert_eq!(zrle::decode_exact(&body, want.len()), Ok(want));
    }

    #[test]
    fn a_last_escape_that_overruns_is_refused_with_nothing_written(
        stream in run_stream(),
        run in MIN_RUN..=MAX_RUN,
        over in 1usize..=MAX_RUN,
    ) {
        let over = over.min(run);
        let (mut body, _) = oracle_encode(&stream).expect("valid stream");
        body.push(ESCAPE_BASE + (run - MIN_RUN) as u8);
        let expected = stream.len() + run - over;
        let mismatch = DecodeError::BodyLengthMismatch {
            decoded: stream.len() + run,
            expected,
        };
        let mut out = Vec::with_capacity(expected + 64);
        out.extend(std::iter::repeat_n(0xA5u8, expected));
        let capacity = out.capacity();
        prop_assert_eq!(zrle::decode_exact_into(&body, expected, &mut out), Err(mismatch.clone()));
        prop_assert!(out.len() == expected && out.iter().all(|&b| b == 0xA5));
        prop_assert_eq!(out.capacity(), capacity);
        prop_assert_eq!(zrle::decode_exact(&body, expected), Err(mismatch));
    }
}

#[test]
fn every_run_length_at_every_alignment_matches_the_oracle() {
    // Literals before the run place it at every offset of a 64-byte
    // window; literals after it end it at every offset too, or the stream
    // ends inside it.
    for lead in 0..=64 {
        for zeros in 0..=100 {
            for trail in [0, 1, 17] {
                let mut stream: Vec<u8> = (0..lead).map(|i| (i % 100) as u8).collect();
                stream.extend(std::iter::repeat_n(ZERO_BYTE, zeros));
                stream.extend((0..trail).map(|i| 200 + i as u8));
                assert_tiers_match_oracle(&stream);
            }
        }
    }
}

#[test]
fn runs_longer_than_every_window_match_the_oracle() {
    // Whole-window skips back to back, with the 14-count carried across
    // them and into the mixed windows after.
    for zeros in [1000, 1001, 1013, 1024, 4095, 4096, 4097] {
        for lead in [0, 5, 31] {
            let mut stream = vec![3u8; lead];
            stream.extend(std::iter::repeat_n(ZERO_BYTE, zeros));
            stream.push(9);
            stream.extend(std::iter::repeat_n(ZERO_BYTE, zeros / 3));
            assert_tiers_match_oracle(&stream);
        }
    }
}
