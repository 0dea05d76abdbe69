//! The stateful 3LC compression context and its wire format.

use crate::kernels::{self, CodecImpl, DequantOp};
use crate::tlq::SparsityMultiplier;
use crate::{quartic, sizing, zrle, CompressError, Compressor, DecodeError};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use threelc_obs::TraceSpan;
use threelc_tensor::{Shape, Tensor};

/// Wire-format header: 1 flags byte + 4-byte `f32` scale + 4-byte `u32`
/// element count.
const HEADER_LEN: usize = 9;

/// Flags bit: the body is zero-run encoded.
const FLAG_ZRE: u8 = crate::sizing::WIRE_FLAG_ZRE;

/// Configuration for a [`ThreeLcCompressor`].
///
/// The defaults reproduce the paper's full design: error accumulation on,
/// zero-run encoding on, `s = 1.0`. The switches exist for the ablations the
/// evaluation reports (Table 2's "No ZRE" row; the stochastic-quantization
/// comparison uses a separate scheme in `threelc-baselines`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreeLcOptions {
    /// The sparsity multiplier `s` (compression-level knob).
    pub sparsity: SparsityMultiplier,
    /// Apply zero-run encoding after quartic encoding.
    pub zero_run_encoding: bool,
    /// Correct quantization errors with a per-tensor accumulation buffer.
    pub error_accumulation: bool,
}

impl ThreeLcOptions {
    /// Options with a given sparsity multiplier and everything else default.
    pub fn with_sparsity(sparsity: SparsityMultiplier) -> Self {
        ThreeLcOptions {
            sparsity,
            ..Default::default()
        }
    }
}

impl Default for ThreeLcOptions {
    fn default() -> Self {
        ThreeLcOptions {
            sparsity: SparsityMultiplier::default(),
            zero_run_encoding: true,
            error_accumulation: true,
        }
    }
}

/// A 3LC compression context for one tensor (paper §3, Figure 3).
///
/// Owns the error-accumulation buffer and the quartic-byte scratch, both
/// allocated on first use and kept for the context's life, so a
/// steady-state encode allocates only the payload it returns and a
/// context that only ever decodes never holds a residual buffer. An
/// encode is the paper's five steps, in order:
///
/// 1. the input is added into the buffer — by whoever produced it, into
///    the buffer [`Compressor::take_accumulator`] lent: a weight
///    gradient's GEMM, the server's sweep, or [`Compressor::compress`];
/// 2. 3-value quantization with sparsity multiplication of the buffer,
/// 3. local dequantization and storing the remaining error back into the
///    buffer,
/// 4. quartic encoding,
/// 5. zero-run encoding (if enabled),
///
/// steps 2–5 being [`Compressor::compress_accumulator`], the one encoder.
/// Without error accumulation the buffer is a scratch the input is written
/// over instead, and the error step 3 leaves in it is overwritten at the
/// next lend.
///
/// ```
/// use threelc::{Compressor, SparsityMultiplier, ThreeLcCompressor};
/// use threelc_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cx = ThreeLcCompressor::new((&[512usize]).into(), SparsityMultiplier::new(1.75)?);
/// let zeros = Tensor::zeros(&[512]);
/// let wire = cx.compress(&zeros)?;
/// // An all-zero tensor compresses to the 9-byte header plus a handful of
/// // run bytes — the paper's hypothetical 280× case.
/// assert!(wire.len() < 512 * 4 / 100);
/// assert_eq!(cx.decompress(&wire)?, zeros);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ThreeLcCompressor {
    shape: Shape,
    options: ThreeLcOptions,
    /// The buffer [`Compressor::take_accumulator`] lends: `None` until the
    /// first lend allocates it, and while it is lent. The error-accumulation
    /// buffer, or without error accumulation a scratch.
    buffer: Option<Tensor>,
    /// The tensor's `⌈n / 5⌉` quartic bytes: the pack output on encode,
    /// zero-run encoded over itself before it is copied to the wire, and
    /// the zero-run expansion on decode — kept from [`Compressor::stage`]
    /// to the last [`Compressor::decode_strip`]. One buffer for both,
    /// allocated by whichever runs first; the mutex is only there because
    /// decoding takes `&self` (the encoder reaches it through `&mut self`
    /// without locking).
    quartic: Mutex<Vec<u8>>,
    /// Codec implementation tier the encode kernels run on. Every tier is
    /// bit-identical (see [`crate::kernels`]); this is purely a speed knob.
    codec: CodecImpl,
}

impl ThreeLcCompressor {
    /// Creates a context for tensors of `shape` with default options and
    /// the given sparsity multiplier.
    pub fn new(shape: Shape, sparsity: SparsityMultiplier) -> Self {
        Self::with_options(shape, ThreeLcOptions::with_sparsity(sparsity))
    }

    /// Creates a context with explicit options.
    pub fn with_options(shape: Shape, options: ThreeLcOptions) -> Self {
        ThreeLcCompressor {
            shape,
            options,
            buffer: None,
            quartic: Mutex::new(Vec::new()),
            codec: kernels::active(),
        }
    }

    /// Returns the context pinned to an explicit codec implementation
    /// tier instead of the process-wide selection. A testing and
    /// benchmarking hook — every tier produces bit-identical output, so
    /// production code should let [`crate::kernels::active`] pick.
    ///
    /// # Panics
    ///
    /// Panics if this host cannot run `imp` (see
    /// [`CodecImpl::is_available`]).
    pub fn with_codec_impl(mut self, imp: CodecImpl) -> Self {
        assert!(
            imp.is_available(),
            "codec tier {imp} is not available on this host"
        );
        self.codec = imp;
        self
    }

    /// The codec implementation tier this context encodes with.
    pub fn codec_impl(&self) -> CodecImpl {
        self.codec
    }

    /// The options this context was created with.
    pub fn options(&self) -> &ThreeLcOptions {
        &self.options
    }

    fn check_shape(&self, input: &Tensor) -> Result<(), CompressError> {
        if input.shape() != &self.shape {
            return Err(CompressError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                actual: input.shape().dims().to_vec(),
            });
        }
        Ok(())
    }
}

impl Clone for ThreeLcCompressor {
    /// Clones the stream state (options, residual); the clone allocates
    /// its own scratch on first use.
    fn clone(&self) -> Self {
        ThreeLcCompressor {
            shape: self.shape.clone(),
            options: self.options,
            buffer: self.buffer.clone(),
            quartic: Mutex::new(Vec::new()),
            codec: self.codec,
        }
    }
}

impl Compressor for ThreeLcCompressor {
    fn name(&self) -> String {
        let mut name = format!("3LC (s={:.2})", self.options.sparsity.value());
        if !self.options.zero_run_encoding {
            name.push_str(" no-ZRE");
        }
        if !self.options.error_accumulation {
            name.push_str(" no-EA");
        }
        name
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Lends the error-accumulation buffer under `Add`; without error
    /// accumulation the same field is a scratch, lent under `Assign`.
    fn take_accumulator(&mut self) -> (Tensor, DequantOp) {
        let buffer = self
            .buffer
            .take()
            .unwrap_or_else(|| Tensor::zeros(self.shape.clone()));
        if self.options.error_accumulation {
            (buffer, DequantOp::Add)
        } else {
            (buffer, DequantOp::Assign)
        }
    }

    fn compress_accumulator(
        &mut self,
        accumulator: Tensor,
        max_abs: f32,
    ) -> Result<Vec<u8>, CompressError> {
        self.check_shape(&accumulator)?;
        // Distributed-tracing phase spans: inert unless the caller
        // installed a `TraceScope` (see `threelc_obs::trace`). The
        // accumulate was the producer's, and the per-element quantization
        // is fused into the quartic pack, so "quantize" covers the max
        // reduction a scratch needs and the scale, "encode" the fused
        // pack and ZRE.
        let quantize_span = TraceSpan::start("quantize");
        let max_abs = if self.options.error_accumulation {
            max_abs
        } else {
            match kernels::max_abs_finite(self.codec, accumulator.as_slice()) {
                (max_abs, true) => max_abs,
                (_, false) => f32::INFINITY,
            }
        };
        self.buffer = Some(accumulator);
        self.encode(quantize_span, max_abs)
    }

    fn records_spans(&self) -> bool {
        true
    }

    fn decompress(&self, payload: &[u8]) -> Result<Tensor, DecodeError> {
        self.decompress_inner(payload)
    }

    fn stage(&self, payload: &[u8]) -> Result<(), DecodeError> {
        self.with_quartic_bytes(
            payload,
            |_, quartic_bytes| match kernels::find_invalid_quartic(self.codec, quartic_bytes) {
                Some(offset) => Err(DecodeError::InvalidQuarticByte {
                    byte: quartic_bytes[offset],
                    offset,
                }),
                None => Ok(()),
            },
        )
    }

    fn decode_strip(
        &self,
        payload: &[u8],
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
    ) {
        let ranges = sizing::strip_planes(self.shape.num_elements(), bytes.clone());
        assert!(
            planes.iter().zip(ranges).all(|(p, r)| p.len() == r.len()),
            "a plane whose length is not its range's"
        );
        let (zre, scale, body) = self
            .parse_header(payload)
            .expect("a staged payload has a valid header");
        let scratch;
        let quartic_bytes: &[u8] = if zre {
            scratch = self.quartic.lock().unwrap_or_else(PoisonError::into_inner);
            &scratch
        } else {
            body
        };
        kernels::unpack_dequant_planes(self.codec, &quartic_bytes[bytes], scale, op, planes);
    }

    fn decompress_symbols(
        &self,
        payload: &[u8],
        out: &mut Vec<i8>,
    ) -> Result<Option<f32>, DecodeError> {
        self.decode_symbols_inner(payload, out).map(Some)
    }

    /// Without error accumulation the buffer is a scratch, not a residual.
    fn residual(&self) -> Option<&Tensor> {
        self.buffer
            .as_ref()
            .filter(|_| self.options.error_accumulation)
    }

    fn set_sparsity(&mut self, s: SparsityMultiplier) {
        self.options.sparsity = s;
    }
}

impl ThreeLcCompressor {
    /// The encode pipeline after the accumulate, over the buffer the
    /// producer folded its input into: the scale, fused quantize + error
    /// write-back + quartic pack, then zero-run encoding — the paper's
    /// steps, each one sequential pass on this context's codec tier
    /// ([`Self::codec_impl`]). `max_abs` is the largest magnitude in the
    /// buffer, or a non-finite value if it holds one. Returns the complete
    /// wire payload: the quartic bytes land in this context's scratch, are
    /// zero-run encoded there in place, and the body is copied once, into
    /// a payload allocated at its exact length. Output is bit-for-bit
    /// independent of the tier ([`crate::kernels`]' bit-identity
    /// contract).
    fn encode(&mut self, quantize_span: TraceSpan, max_abs: f32) -> Result<Vec<u8>, CompressError> {
        let imp = self.codec;
        let n = self.shape.num_elements();
        if !max_abs.is_finite() {
            return Err(CompressError::NonFiniteInput);
        }
        let scale = max_abs * self.options.sparsity.value();
        quantize_span.finish();

        let encode_span = TraceSpan::start("encode");
        // Steps 2–4: fused quantize + error write-back + quartic pack. A
        // zero scale makes `inv = 0`: every finite `x · 0 = ±0` quantizes
        // to digit 1 (byte 121) and the write-back `x − 0·scale` returns
        // `x` bit-exactly, so no special casing is needed — including the
        // subnormal-scale corner where `inv` overflows to infinity (the
        // kernels clamp to valid ternary digits there; see
        // `crate::kernels`). The partition length `L`: quartic partition
        // `j` is elements `[j·L, (j+1)·L) ∩ [0, n)`.
        let bl = n.div_ceil(quartic::VALUES_PER_BYTE);
        // Every byte is overwritten by the pack, so the scratch is only
        // ever sized, not cleared.
        let quartic_bytes = self
            .quartic
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        quartic_bytes.resize(bl, 0);
        let inv = if scale != 0.0 { 1.0 / scale } else { 0.0 };
        let buffer = self.buffer.as_mut().expect("the encoder keeps the buffer");
        let mut five = kernels::planes_mut(buffer.as_mut_slice(), bl);
        // A value that turned non-finite after `max_abs` was folded (a
        // caller writing into a lent buffer) is refused all the same.
        if !kernels::pack_chunk_ea(imp, &mut five, inv, scale, quartic_bytes) {
            return Err(CompressError::NonFiniteInput);
        }

        // Step 5 and the payload, allocated once at its final length.
        let zre = self.options.zero_run_encoding;
        let body = if zre {
            let len = zrle::encode_in_place(imp, quartic_bytes)
                .expect("quartic output is always in range 0..=242");
            &quartic_bytes[..len]
        } else {
            &quartic_bytes[..]
        };
        let mut wire = Vec::with_capacity(HEADER_LEN + body.len());
        wire.push(if zre { FLAG_ZRE } else { 0 });
        wire.extend_from_slice(&scale.to_le_bytes());
        wire.extend_from_slice(&(n as u32).to_le_bytes());
        wire.extend_from_slice(body);
        encode_span.finish();
        Ok(wire)
    }

    /// Validates the 9-byte header against this context's shape and
    /// returns `(zero-run encoded?, scale, body)`.
    fn parse_header<'a>(&self, payload: &'a [u8]) -> Result<(bool, f32, &'a [u8]), DecodeError> {
        if payload.len() < HEADER_LEN {
            return Err(DecodeError::TruncatedHeader {
                have: payload.len(),
                need: HEADER_LEN,
            });
        }
        let flags = payload[0];
        if flags & !FLAG_ZRE != 0 {
            return Err(DecodeError::UnknownFormat { flags });
        }
        let scale = f32::from_le_bytes(payload[1..5].try_into().expect("4 bytes"));
        if !scale.is_finite() {
            return Err(DecodeError::NonFiniteScale);
        }
        let count = u32::from_le_bytes(payload[5..9].try_into().expect("4 bytes")) as usize;
        if count != self.shape.num_elements() {
            return Err(DecodeError::ElementCountMismatch {
                payload: count,
                expected: self.shape.num_elements(),
            });
        }
        Ok((flags & FLAG_ZRE != 0, scale, &payload[HEADER_LEN..]))
    }

    /// Header check, then zero-run expansion into this context's scratch
    /// (or the body itself without ZRE): hands `consume` the payload's
    /// scale and its quartic bytes, not yet scanned for invalid ones.
    fn with_quartic_bytes<T>(
        &self,
        payload: &[u8],
        consume: impl FnOnce(f32, &[u8]) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let (zre, scale, body) = self.parse_header(payload)?;
        let count = self.shape.num_elements();
        let quartic_len = count.div_ceil(quartic::VALUES_PER_BYTE);
        let mut scratch;
        let quartic_bytes: &[u8] = if zre {
            // A poisoned scratch is still a valid one: it is overwritten
            // whole before it is read.
            scratch = self.quartic.lock().unwrap_or_else(PoisonError::into_inner);
            zrle::decode_exact_into(body, quartic_len, &mut scratch)?;
            &scratch
        } else {
            if body.len() != quartic_len {
                return Err(DecodeError::BodyLengthMismatch {
                    decoded: body.len() * quartic::VALUES_PER_BYTE,
                    expected: count,
                });
            }
            body
        };
        consume(scale, quartic_bytes)
    }

    /// The two-pass oracle's first half: the payload's ternary symbols in
    /// `out`, its scale returned.
    fn decode_symbols_inner(&self, payload: &[u8], out: &mut Vec<i8>) -> Result<f32, DecodeError> {
        let count = self.shape.num_elements();
        self.with_quartic_bytes(payload, |scale, quartic_bytes| {
            quartic::decode_into_impl(self.codec, quartic_bytes, count, out)?;
            Ok(scale)
        })
    }

    /// The dense decode: the symbols, then one multiply per element
    /// (`sym as f32 · scale`, Equation 3) — the two-pass oracle, kept off
    /// the fused kernel so that tests comparing `decode_into` with it
    /// compare two implementations.
    fn decompress_inner(&self, payload: &[u8]) -> Result<Tensor, DecodeError> {
        let mut syms = Vec::new();
        let scale = self.decode_symbols_inner(payload, &mut syms)?;
        let mut values = vec![0f32; syms.len()];
        kernels::dequant_assign(self.codec, &syms, scale, &mut values);
        Ok(Tensor::from_vec(values, self.shape.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_tensor::add_max_abs;

    fn ctx(n: usize, s: f32) -> ThreeLcCompressor {
        ThreeLcCompressor::new(Shape::new(&[n]), SparsityMultiplier::new(s).unwrap())
    }

    #[test]
    fn roundtrip_shape_and_error_bound() {
        let input = Tensor::from_vec(vec![0.31, -0.17, 0.05, 0.44, -0.29, 0.0], [2, 3]);
        let mut cx = ThreeLcCompressor::new(input.shape().clone(), SparsityMultiplier::default());
        let wire = cx.compress(&input).unwrap();
        let out = cx.decompress(&wire).unwrap();
        assert_eq!(out.shape(), input.shape());
        let m = input.max_abs();
        assert!(input.sub(&out).unwrap().max_abs() <= m / 2.0 + 1e-6);
    }

    #[test]
    fn zero_tensor_280x_compression() {
        // §3.3: "In a hypothetical case of compressing a zero 32-bit
        // floating-point tensor, the combination of all techniques in 3LC
        // reaches a compression ratio of 280×." One escape byte covers 14
        // quartic bytes = 70 values = 280 input bytes.
        let n = 70 * 1000;
        let mut cx = ctx(n, 1.0);
        let wire = cx.compress(&Tensor::zeros([n])).unwrap();
        let body = wire.len() - HEADER_LEN;
        assert_eq!(body, 1000, "all-zero body should be exactly n/70 bytes");
        let ratio = (n * 4) as f64 / body as f64;
        assert!((ratio - 280.0).abs() < 1e-9);
    }

    #[test]
    fn set_sparsity_changes_later_payloads_without_rebuilding() {
        // The adaptive-policy hook: raising s mid-stream must change the
        // next payload (more zeros, fewer bytes), keep the accumulation
        // buffer, and match a compressor built at the new setting from
        // the same buffer state. Decode stays oblivious — the scale
        // travels in the payload.
        let n = 4096;
        let mut r = threelc_tensor::rng(7);
        let input = threelc_tensor::Initializer::Normal {
            mean: 0.0,
            std_dev: 0.1,
        }
        .init(&mut r, [n]);
        let mut adaptive = ctx(n, 1.0);
        let mut fixed_hi = ctx(n, 1.9);
        let w1 = adaptive.compress(&input).unwrap();
        let w1_hi = fixed_hi.compress(&input).unwrap();
        assert_ne!(w1, w1_hi, "s=1.0 and s=1.9 should differ");
        adaptive.set_sparsity(SparsityMultiplier::new(1.9).unwrap());
        let w2 = adaptive.compress(&input).unwrap();
        let w2_hi = fixed_hi.compress(&input).unwrap();
        // Same options, same accumulated residual history? No — the first
        // step ran at different settings, so buffers differ. What must
        // hold: the boundary values (s=1.0 floor, largest-below-2.0
        // ceiling) are accepted, the switched context now reports the new
        // setting, and decode still roundtrips every payload.
        assert_eq!(adaptive.options().sparsity.value(), 1.9);
        for wire in [&w1, &w2, &w1_hi, &w2_hi] {
            assert_eq!(adaptive.decompress(wire).unwrap().len(), n);
        }
        adaptive.set_sparsity(SparsityMultiplier::new(1.0).unwrap());
        adaptive
            .set_sparsity(SparsityMultiplier::new(f32::from_bits(2.0f32.to_bits() - 1)).unwrap());
        let w3 = adaptive.compress(&input).unwrap();
        assert_eq!(adaptive.decompress(&w3).unwrap().len(), n);
        // A fresh pair driven identically after the switch IS bit-equal:
        // switching is equivalent to having been built at the setting.
        let mut a = ctx(n, 1.0);
        a.set_sparsity(SparsityMultiplier::new(1.9).unwrap());
        let mut b = ctx(n, 1.9);
        assert_eq!(a.compress(&input).unwrap(), b.compress(&input).unwrap());
    }

    #[test]
    fn error_accumulation_recovers_dropped_updates() {
        // A persistent small signal below the quantization threshold must
        // eventually be transmitted thanks to the accumulation buffer.
        let n = 8;
        let mut cx = ctx(n, 1.0);
        // One big value sets M; the small values individually quantize to 0.
        let mut input = vec![0.04f32; n];
        input[0] = 1.0;
        let input = Tensor::from_vec(input, [n]);
        let mut recovered = Tensor::zeros([n]);
        for _ in 0..30 {
            let wire = cx.compress(&input).unwrap();
            recovered
                .add_assign(&cx.decompress(&wire).unwrap())
                .unwrap();
        }
        // After 30 steps the cumulative transmitted sum approximates the
        // cumulative input sum (30 × 0.04 = 1.2 at index 1..n).
        let total_in = input.scale(30.0);
        let err = total_in.sub(&recovered).unwrap().max_abs();
        assert!(err <= 1.0, "cumulative error {err} should stay bounded");
        assert!(
            recovered.as_slice()[1] > 0.0,
            "small values must eventually transmit"
        );
    }

    #[test]
    fn no_error_accumulation_never_sends_small_values() {
        let n = 8;
        let opts = ThreeLcOptions {
            error_accumulation: false,
            ..Default::default()
        };
        let mut cx = ThreeLcCompressor::with_options(Shape::new(&[n]), opts);
        let mut input = vec![0.04f32; n];
        input[0] = 1.0;
        let input = Tensor::from_vec(input, [n]);
        for _ in 0..5 {
            let wire = cx.compress(&input).unwrap();
            let out = cx.decompress(&wire).unwrap();
            assert_eq!(out.as_slice()[1], 0.0);
        }
        assert!(cx.residual().is_none());
    }

    /// The paper's steps one by one, as the oracle of the fused encoder:
    /// the 9-byte header, `TernaryTensor::quantize_impl` of the
    /// accumulated buffer, `quartic::encode_impl`, then `zrle::encode` (the
    /// raw quartic body without ZRE), and the residual `acc − q·scale`.
    fn paper_steps(imp: CodecImpl, options: &ThreeLcOptions, acc: &Tensor) -> (Vec<u8>, Vec<u32>) {
        let q = crate::TernaryTensor::quantize_impl(imp, acc, options.sparsity).unwrap();
        let quartic = quartic::encode_impl(imp, q.values());
        let zre = options.zero_run_encoding;
        let body = if zre {
            zrle::encode(&quartic).unwrap()
        } else {
            quartic
        };
        let mut wire = vec![if zre { FLAG_ZRE } else { 0 }];
        wire.extend_from_slice(&q.scale().to_le_bytes());
        wire.extend_from_slice(&(acc.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        let residual = acc
            .iter()
            .zip(q.values())
            .map(|(&x, &v)| (x - v as f32 * q.scale()).to_bits())
            .collect();
        (wire, residual)
    }

    #[test]
    fn a_lent_accumulator_encodes_as_the_paper_steps_do() {
        use rand::Rng as _;
        let n = 1037;
        let mut r = threelc_tensor::rng(19);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::from_fn([n], |_| r.gen_range(-1.0f32..1.0).powi(3)))
            .collect();
        let bits = |t: &Tensor| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for imp in CodecImpl::ALL.into_iter().filter(|i| i.is_available()) {
            for (error_accumulation, zero_run_encoding) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let options = ThreeLcOptions {
                    zero_run_encoding,
                    error_accumulation,
                    ..ThreeLcOptions::with_sparsity(SparsityMultiplier::new(1.5).unwrap())
                };
                let what = format!("{imp}, ea {error_accumulation}, zre {zero_run_encoding}");
                let mut cx =
                    ThreeLcCompressor::with_options(Shape::new(&[n]), options).with_codec_impl(imp);
                // The oracle's own error-accumulation buffer.
                let mut residual = Tensor::zeros([n]);
                for (step, input) in inputs.iter().enumerate() {
                    let (mut acc, op) = cx.take_accumulator();
                    let want_op = if error_accumulation {
                        DequantOp::Add
                    } else {
                        DequantOp::Assign
                    };
                    assert_eq!(op, want_op, "{what}");
                    let max_abs = if error_accumulation {
                        assert_eq!(bits(&acc), bits(&residual), "{what}: lends its residual");
                        add_max_abs(acc.as_mut_slice(), input.as_slice())
                    } else {
                        op.apply(input.iter().copied(), acc.as_mut_slice());
                        // The max is the context's to measure: a wrong one
                        // is not read.
                        [f32::NAN, 1.0e30, 0.0][step % 3]
                    };
                    let (want, want_residual) = paper_steps(imp, &options, &acc);
                    let got = cx.compress_accumulator(acc, max_abs).unwrap();
                    assert_eq!(got, want, "{what}, step {step}");
                    if error_accumulation {
                        let kept = cx.residual().expect("a residual after an encode");
                        assert_eq!(bits(kept), want_residual, "{what}, step {step}");
                        residual = kept.clone();
                    } else {
                        assert!(cx.residual().is_none(), "{what}");
                    }
                }
                // Written into after its max was folded: still refused.
                let (mut acc, _) = cx.take_accumulator();
                let max_abs = add_max_abs(acc.as_mut_slice(), inputs[0].as_slice());
                acc.as_mut_slice()[n - 1] = f32::NAN;
                assert_eq!(
                    cx.compress_accumulator(acc, max_abs),
                    Err(CompressError::NonFiniteInput),
                    "{what}"
                );
                if error_accumulation {
                    let (acc, _) = cx.take_accumulator();
                    assert_eq!(
                        cx.compress_accumulator(acc, f32::INFINITY),
                        Err(CompressError::NonFiniteInput),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_context_without_error_accumulation_lends_a_scratch_to_overwrite() {
        let n = 103;
        let options = ThreeLcOptions {
            error_accumulation: false,
            ..ThreeLcOptions::with_sparsity(SparsityMultiplier::new(1.5).unwrap())
        };
        for imp in CodecImpl::ALL.into_iter().filter(|i| i.is_available()) {
            let mut cx =
                ThreeLcCompressor::with_options(Shape::new(&[n]), options).with_codec_impl(imp);
            let mut lent = None;
            for step in 0..3 {
                let input = Tensor::from_fn([n], |i| ((i * 7 + step) % 11) as f32 - 5.0);
                let (mut scratch, op) = cx.take_accumulator();
                assert_eq!(op, DequantOp::Assign);
                // One scratch, lent again and again.
                let at = scratch.as_slice().as_ptr();
                assert_eq!(*lent.get_or_insert(at), at, "{imp}, step {step}");
                op.apply(input.iter().copied(), scratch.as_mut_slice());
                let got = cx.compress_accumulator(scratch, f32::NAN).unwrap();
                assert_eq!(
                    got,
                    paper_steps(imp, &options, &input).0,
                    "{imp}, step {step}"
                );
                // `compress` is the same lend: the same bytes.
                assert_eq!(cx.compress(&input).unwrap(), got, "{imp}, step {step}");
                assert!(cx.residual().is_none());
            }
            // A non-finite input is refused, and the scratch is kept.
            let mut bad = Tensor::zeros([n]);
            bad.as_mut_slice()[7] = f32::INFINITY;
            assert_eq!(cx.compress(&bad), Err(CompressError::NonFiniteInput));
            assert_eq!(Some(cx.take_accumulator().0.as_slice().as_ptr()), lent);
            // A buffer of another shape is refused, and not lent again.
            let wrong = cx.compress_accumulator(Tensor::zeros([n + 1]), 0.0);
            assert!(matches!(wrong, Err(CompressError::ShapeMismatch { .. })));
            assert_eq!(cx.take_accumulator().0.len(), n);
        }
    }

    #[test]
    fn residual_tracks_quantization_error() {
        let input = Tensor::from_slice(&[0.3, 0.1, -0.06, 0.0]);
        let mut cx = ctx(4, 1.0);
        let wire = cx.compress(&input).unwrap();
        let out = cx.decompress(&wire).unwrap();
        let expected_residual = input.sub(&out).unwrap();
        assert!(cx.residual().unwrap().approx_eq(&expected_residual, 1e-7));
    }

    #[test]
    fn zre_flag_roundtrip_both_ways() {
        let input = Tensor::from_vec(
            (0..100)
                .map(|i| if i % 10 == 0 { 0.5 } else { 0.0 })
                .collect(),
            [100],
        );
        for zre in [true, false] {
            let opts = ThreeLcOptions {
                zero_run_encoding: zre,
                ..Default::default()
            };
            let mut cx = ThreeLcCompressor::with_options(Shape::new(&[100]), opts);
            let wire = cx.compress(&input).unwrap();
            let out = cx.decompress(&wire).unwrap();
            assert_eq!(out.shape().dims(), &[100]);
            if !zre {
                assert_eq!(wire.len(), HEADER_LEN + 20);
            }
        }
    }

    #[test]
    fn zre_shrinks_sparse_payloads() {
        let n = 1000;
        let mut sparse = vec![0.0f32; n];
        sparse[500] = 1.0;
        let sparse = Tensor::from_vec(sparse, [n]);
        let mut with = ctx(n, 1.0);
        let mut without = ThreeLcCompressor::with_options(
            Shape::new(&[n]),
            ThreeLcOptions {
                zero_run_encoding: false,
                ..Default::default()
            },
        );
        let w = with.compress(&sparse).unwrap();
        let wo = without.compress(&sparse).unwrap();
        assert!(
            w.len() * 2 < wo.len(),
            "ZRE ({}) should at least halve no-ZRE ({})",
            w.len(),
            wo.len()
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut cx = ctx(4, 1.0);
        let err = cx.compress(&Tensor::zeros([5])).unwrap_err();
        assert!(matches!(err, CompressError::ShapeMismatch { .. }));
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        let cx = ctx(10, 1.0);
        // Truncated header.
        assert!(matches!(
            cx.decompress(&[1, 2, 3]),
            Err(DecodeError::TruncatedHeader { .. })
        ));
        // Unknown flags.
        let mut bad = vec![0x80u8];
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        bad.extend_from_slice(&10u32.to_le_bytes());
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::UnknownFormat { .. })
        ));
        // Wrong element count.
        let mut bad = vec![0u8];
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        bad.extend_from_slice(&11u32.to_le_bytes());
        bad.extend(vec![121u8; 3]);
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::ElementCountMismatch { .. })
        ));
        // Non-finite scale.
        let mut bad = vec![0u8];
        bad.extend_from_slice(&f32::NAN.to_le_bytes());
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.extend(vec![121u8; 2]);
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::NonFiniteScale)
        ));
        // Body too short (no ZRE flag set).
        let mut bad = vec![0u8];
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.push(121);
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::BodyLengthMismatch { .. })
        ));
        // Invalid quartic byte inside a non-ZRE body.
        let mut bad = vec![0u8];
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.extend([250u8, 121]);
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::InvalidQuarticByte { .. })
        ));
    }

    #[test]
    fn name_reflects_options() {
        assert_eq!(ctx(1, 1.0).name(), "3LC (s=1.00)");
        let cx = ThreeLcCompressor::with_options(
            Shape::new(&[1]),
            ThreeLcOptions {
                sparsity: SparsityMultiplier::new(1.75).unwrap(),
                zero_run_encoding: false,
                error_accumulation: false,
            },
        );
        assert_eq!(cx.name(), "3LC (s=1.75) no-ZRE no-EA");
    }

    #[test]
    fn sparsity_multiplier_reduces_wire_size_on_gaussian_input() {
        let mut r = threelc_tensor::rng(42);
        let input = threelc_tensor::Initializer::Normal {
            mean: 0.0,
            std_dev: 0.05,
        }
        .init(&mut r, [10000]);
        let mut sizes = Vec::new();
        for s in [1.0, 1.5, 1.75, 1.9] {
            let mut cx =
                ThreeLcCompressor::new(input.shape().clone(), SparsityMultiplier::new(s).unwrap());
            sizes.push(cx.compress(&input).unwrap().len());
        }
        assert!(
            sizes.windows(2).all(|w| w[1] <= w[0]),
            "sizes should be non-increasing in s: {sizes:?}"
        );
    }
}
