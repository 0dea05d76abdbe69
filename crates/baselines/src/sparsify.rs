//! Magnitude sparsification (the paper's `25%` / `5% sparsification`).

use crate::wire;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use threelc::kernels::DequantOp;
use threelc::{CompressError, Compressor, DecodeError};
use threelc_tensor::{Shape, Tensor};

/// Header: 4-byte `u32` element count + 4-byte `u32` selected count.
const HEADER_LEN: usize = 8;

/// Number of values sampled when estimating the magnitude threshold
/// (the paper avoids exhaustive sorting by sorting sampled values, after
/// Aji & Heafield's gradient dropping).
const THRESHOLD_SAMPLES: usize = 1024;

/// Values per entry of the table [`Compressor::stage`] keeps (64 bitmap
/// bytes): a strip's plane counts at most 511 bits to find its first
/// value.
const BLOCK: usize = 512;

/// Top-magnitude sparsification with error accumulation, reproducing the
/// common sparsification designs the paper compares against (§5.1):
///
/// - selects approximately `fraction` of the largest-magnitude state
///   changes per tensor (absolute magnitude, not relative — the paper
///   found this more accurate for its workload);
/// - estimates the selection threshold from a sorted sample instead of a
///   full sort;
/// - accumulates unsent changes in a buffer for later transmission;
/// - transmits a bitmap (1 bit per state change) plus the selected values
///   as 32-bit floats.
#[derive(Debug)]
pub struct SparsifyCompressor {
    shape: Shape,
    fraction: f64,
    /// The error-accumulation buffer: `None` until first used, and while lent.
    buffer: Option<Tensor>,
    /// What [`Compressor::stage`] keeps for the strips: per block of
    /// [`BLOCK`] values, how many values the bitmap selects before it —
    /// where the block's values start in the packed ones. The mutex is
    /// only there because decoding takes `&self`.
    starts: Mutex<Vec<u32>>,
}

impl SparsifyCompressor {
    /// Creates a context selecting `fraction` (e.g. `0.25` or `0.05`) of
    /// state changes per tensor.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn new(shape: Shape, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        SparsifyCompressor {
            shape,
            fraction,
            buffer: None,
            starts: Mutex::new(Vec::new()),
        }
    }

    /// Estimates the magnitude threshold above which roughly
    /// `fraction` of `data`'s values lie, by sorting a strided sample.
    fn estimate_threshold(&self, data: &[f32]) -> f32 {
        let n = data.len();
        if n == 0 {
            return 0.0;
        }
        let stride = (n / THRESHOLD_SAMPLES).max(1);
        let mut sample: Vec<f32> = data.iter().step_by(stride).map(|x| x.abs()).collect();
        sample.sort_by(|a, b| a.partial_cmp(b).expect("magnitudes are finite"));
        let keep = ((sample.len() as f64) * self.fraction).ceil() as usize;
        let idx = sample.len().saturating_sub(keep.max(1));
        sample[idx]
    }

    /// Sends the buffer's largest values, input already added, and keeps
    /// the rest in it.
    fn encode(&mut self, mut buffer: Tensor) -> Vec<u8> {
        let threshold = self.estimate_threshold(buffer.as_slice());
        let n = buffer.len();
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        let mut selected = Vec::new();
        for (i, x) in buffer.as_mut_slice().iter_mut().enumerate() {
            // Send anything at/above the threshold; a zero threshold still
            // skips exact zeros (nothing to send).
            if x.abs() >= threshold && *x != 0.0 {
                bitmap[i / 8] |= 1 << (i % 8);
                selected.push(*x);
                *x = 0.0; // transmitted in full; residual is zero
            }
        }
        self.buffer = Some(buffer);

        let mut wire = Vec::with_capacity(HEADER_LEN + bitmap.len() + selected.len() * 4);
        wire.extend_from_slice(&(n as u32).to_le_bytes());
        wire.extend_from_slice(&(selected.len() as u32).to_le_bytes());
        wire.extend_from_slice(&bitmap);
        for v in &selected {
            wire.extend_from_slice(&v.to_le_bytes());
        }
        wire
    }
}

impl Compressor for SparsifyCompressor {
    fn name(&self) -> String {
        format!("{}% sparsification", (self.fraction * 100.0).round() as u32)
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn take_accumulator(&mut self) -> (Tensor, DequantOp) {
        let zeros = || Tensor::zeros(self.shape.clone());
        (self.buffer.take().unwrap_or_else(zeros), DequantOp::Add)
    }

    fn compress_accumulator(
        &mut self,
        accumulator: Tensor,
        max_abs: f32,
    ) -> Result<Vec<u8>, CompressError> {
        wire::check_shape(&self.shape, &accumulator)?;
        if !max_abs.is_finite() {
            self.buffer = Some(accumulator);
            return Err(CompressError::NonFiniteInput);
        }
        Ok(self.encode(accumulator))
    }

    fn stage(&self, payload: &[u8]) -> Result<(), DecodeError> {
        let count = wire::read_u32(payload, 0)?;
        let k = wire::read_u32(payload, 4)? as usize;
        let n = self.shape.num_elements();
        wire::check_count(count, n)?;
        let bitmap_len = n.div_ceil(8);
        let expected_len = HEADER_LEN + bitmap_len + k * 4;
        if payload.len() != expected_len {
            return Err(DecodeError::Malformed {
                reason: format!(
                    "sparsified payload is {} bytes, expected {expected_len}",
                    payload.len()
                ),
            });
        }
        let bitmap = &payload[HEADER_LEN..HEADER_LEN + bitmap_len];
        let mut starts = self.starts.lock().unwrap_or_else(PoisonError::into_inner);
        starts.clear();
        let mut popcount = 0usize;
        for block in bitmap.chunks(BLOCK / 8) {
            starts.push(popcount as u32);
            popcount += block.iter().map(|b| b.count_ones() as usize).sum::<usize>();
        }
        if popcount != k {
            return Err(DecodeError::Malformed {
                reason: format!("bitmap selects {popcount} values, header says {k}"),
            });
        }
        Ok(())
    }

    /// A selected element takes the next packed value, counted from where
    /// the staged table says its block's values start; the rest are zero.
    fn decode_strip(
        &self,
        payload: &[u8],
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
    ) {
        let n = self.shape.num_elements();
        let bitmap_len = n.div_ceil(8);
        let bitmap = &payload[HEADER_LEN..HEADER_LEN + bitmap_len];
        let values = &payload[HEADER_LEN + bitmap_len..];
        let starts = self.starts.lock().unwrap_or_else(PoisonError::into_inner);
        wire::apply_strip(n, bytes, op, planes, |r| {
            // The packed index of element `r.start`: its block's, plus the
            // selected elements between the block's start and it.
            let block = r.start / BLOCK;
            let first = starts.get(block).map_or(0, |&at| at as usize)
                + (block * BLOCK..r.start)
                    .filter(|&i| wire::bit(bitmap, i))
                    .count();
            let mut packed = wire::floats(&values[4 * first..]);
            r.map(move |i| {
                if wire::bit(bitmap, i) {
                    packed.next().expect("the bitmap's count was staged")
                } else {
                    0.0
                }
            })
        });
    }

    fn residual(&self) -> Option<&Tensor> {
        self.buffer.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian(n: usize, seed: u64) -> Tensor {
        let mut r = threelc_tensor::rng(seed);
        threelc_tensor::Initializer::Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .init(&mut r, [n])
    }

    #[test]
    fn selects_roughly_the_requested_fraction() {
        let t = gaussian(8192, 1);
        for frac in [0.25, 0.05] {
            let mut cx = SparsifyCompressor::new(t.shape().clone(), frac);
            let wire = cx.compress(&t).unwrap();
            let out = cx.decompress(&wire).unwrap();
            let sent = out.len() - out.count_zeros();
            let got = sent as f64 / t.len() as f64;
            assert!(
                (got - frac).abs() < frac * 0.5 + 0.02,
                "frac {frac}: selected {got}"
            );
        }
    }

    #[test]
    fn selected_values_are_largest() {
        let t = Tensor::from_slice(&[0.9, 0.01, -0.8, 0.02, 0.03, -0.04, 0.05, 0.7]);
        let mut cx = SparsifyCompressor::new(t.shape().clone(), 0.25);
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        // ceil(0.25 · 8) = 2 values survive the threshold: the two largest
        // magnitudes, transmitted exactly.
        assert_eq!(out.as_slice()[0], 0.9);
        assert_eq!(out.as_slice()[2], -0.8);
        assert_eq!(out.len() - out.count_zeros(), 2);
        // 0.7 is deferred to the accumulation buffer and tops the next
        // step's selection once it accumulates to 1.4.
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        assert_eq!(out.as_slice()[7], 1.4);
    }

    #[test]
    fn transmitted_values_are_exact_and_residual_holds_rest() {
        let t = gaussian(512, 2);
        let mut cx = SparsifyCompressor::new(t.shape().clone(), 0.05);
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        let resid = cx.residual().unwrap();
        // transmitted + residual == input (sparsification is exact on the
        // values it sends and defers the rest).
        let sum = out.add(resid).unwrap();
        assert!(sum.approx_eq(&t, 1e-6));
    }

    /// A tensor of many staged blocks, whose planes start inside blocks:
    /// every sent value comes back where it was, and only those.
    #[test]
    fn a_payload_of_many_blocks_decodes_what_was_sent() {
        let t = gaussian(5 * BLOCK + 37, 3);
        let mut cx = SparsifyCompressor::new(t.shape().clone(), 0.25);
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        let resid = cx.residual().unwrap();
        for ((&x, &o), &r) in t.iter().zip(out.iter()).zip(resid.iter()) {
            assert_eq!((o, r), if o != 0.0 { (x, 0.0) } else { (0.0, x) });
        }
        assert!(out.count_zeros() < t.len(), "something was sent");
    }

    #[test]
    fn unsent_values_accumulate_and_eventually_send() {
        let n = 64;
        let mut data = vec![0.01f32; n];
        data[0] = 1.0;
        let t = Tensor::from_vec(data, [n]);
        let mut cx = SparsifyCompressor::new(t.shape().clone(), 0.02);
        let mut total = Tensor::zeros(t.shape().clone());
        for _ in 0..300 {
            let wire = cx.compress(&t).unwrap();
            total.add_assign(&cx.decompress(&wire).unwrap()).unwrap();
        }
        assert!(
            total.as_slice()[1] > 0.0,
            "accumulated small values must eventually transmit"
        );
    }

    #[test]
    fn wire_overhead_is_one_bit_per_value() {
        let t = Tensor::zeros([8000]);
        let mut cx = SparsifyCompressor::new(t.shape().clone(), 0.25);
        // Zero tensor: nothing selected, only header + bitmap.
        let wire = cx.compress(&t).unwrap();
        assert_eq!(wire.len(), HEADER_LEN + 1000);
    }

    #[test]
    fn malformed_payload_errors() {
        let cx = SparsifyCompressor::new(Shape::new(&[16]), 0.25);
        assert!(cx.decompress(&[0u8; 3]).is_err());
        // Bitmap popcount disagreeing with header.
        let mut bad = Vec::new();
        bad.extend_from_slice(&16u32.to_le_bytes());
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0b1, 0b0]); // only 1 bit set
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        bad.extend_from_slice(&2.0f32.to_le_bytes());
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::Malformed { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_panics() {
        SparsifyCompressor::new(Shape::new(&[4]), 0.0);
    }

    #[test]
    fn name_formats_percentage() {
        assert_eq!(
            SparsifyCompressor::new(Shape::new(&[4]), 0.25).name(),
            "25% sparsification"
        );
        assert_eq!(
            SparsifyCompressor::new(Shape::new(&[4]), 0.05).name(),
            "5% sparsification"
        );
    }
}
