//! Elias gamma coding and the bit-stream primitives it needs.
//!
//! The paper's related work (§6) notes that quantization methods often
//! pair with entropy coders such as Huffman and **Elias coding** for
//! compact binary representations — QSGD (Alistarh et al.) being the
//! canonical example. This module provides Elias gamma codes over a
//! simple MSB-first bit stream; the `threelc-baselines` crate uses it to
//! implement a QSGD-style comparator, and the encoding ablation uses it
//! as a second entropy-coding reference point next to [`huffman`](crate::huffman).

use crate::DecodeError;

/// An MSB-first bit writer over a growable byte buffer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the trailing partial byte (0–7).
    used: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "at most 32 bits per write");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if self.used == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= (bit as u8) << (7 - self.used);
            self.used = (self.used + 1) % 8;
        }
    }

    /// Number of bits written so far.
    #[cfg(test)]
    fn bit_len(&self) -> usize {
        self.bytes.len() * 8
            - if self.used == 0 {
                0
            } else {
                (8 - self.used) as usize
            }
    }

    /// Finishes the stream and returns the bytes (zero-padded tail).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// An MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns an error at end of stream.
    pub fn read_bit(&mut self) -> Result<u32, DecodeError> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err(DecodeError::Malformed {
                reason: "bit stream exhausted".to_owned(),
            });
        }
        let bit = (self.bytes[byte] >> (7 - self.pos % 8)) & 1;
        self.pos += 1;
        Ok(bit as u32)
    }

    /// Reads `count` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `count` bits remain.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, DecodeError> {
        let mut v = 0u32;
        for _ in 0..count {
            v = (v << 1) | self.read_bit()?;
        }
        Ok(v)
    }
}

/// Writes the Elias gamma code of a **positive** integer.
///
/// The code is `⌊log₂ n⌋` zero bits followed by the binary representation
/// of `n` (which starts with a 1).
///
/// # Panics
///
/// Panics if `n == 0` (gamma codes only cover positive integers; use
/// [`encode_u32`] for values that may be zero).
pub fn encode_gamma(writer: &mut BitWriter, n: u32) {
    assert!(n > 0, "elias gamma requires a positive integer");
    let bits = 32 - n.leading_zeros(); // position of the highest set bit
    writer.write_bits(0, bits - 1);
    writer.write_bits(n, bits);
}

/// Reads an Elias gamma code.
///
/// # Errors
///
/// Returns an error on a truncated or malformed stream.
pub fn decode_gamma(reader: &mut BitReader<'_>) -> Result<u32, DecodeError> {
    let mut zeros = 0u32;
    while reader.read_bit()? == 0 {
        zeros += 1;
        if zeros >= 32 {
            return Err(DecodeError::Malformed {
                reason: "elias gamma prefix too long".to_owned(),
            });
        }
    }
    let rest = reader.read_bits(zeros)?;
    Ok((1u32 << zeros) | rest)
}

/// Gamma-codes an arbitrary `u32` by shifting the domain (`n + 1`).
pub fn encode_u32(writer: &mut BitWriter, n: u32) {
    assert!(n < u32::MAX, "value too large for shifted gamma");
    encode_gamma(writer, n + 1);
}

/// Inverse of [`encode_u32`].
///
/// # Errors
///
/// Returns an error on a truncated or malformed stream.
pub fn decode_u32(reader: &mut BitReader<'_>) -> Result<u32, DecodeError> {
    Ok(decode_gamma(reader)? - 1)
}

/// Maps a signed integer to an unsigned one with small magnitudes first
/// (zigzag), so gamma codes stay short for near-zero values.
pub fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwriter_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b0110, 4);
        w.write_bits(0xABCD, 16);
        assert_eq!(w.bit_len(), 23);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(4).unwrap(), 0b0110);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
    }

    #[test]
    fn gamma_known_codes() {
        // γ(1) = "1", γ(2) = "010", γ(3) = "011", γ(4) = "00100".
        let code_of = |n: u32| {
            let mut w = BitWriter::new();
            encode_gamma(&mut w, n);
            (w.bit_len(), w.into_bytes())
        };
        assert_eq!(code_of(1), (1, vec![0b1000_0000]));
        assert_eq!(code_of(2), (3, vec![0b0100_0000]));
        assert_eq!(code_of(3), (3, vec![0b0110_0000]));
        assert_eq!(code_of(4), (5, vec![0b0010_0000]));
    }

    #[test]
    fn gamma_roundtrip_range() {
        let mut w = BitWriter::new();
        for n in 1..200u32 {
            encode_gamma(&mut w, n);
        }
        encode_gamma(&mut w, u32::MAX);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for n in 1..200u32 {
            assert_eq!(decode_gamma(&mut r).unwrap(), n);
        }
        assert_eq!(decode_gamma(&mut r).unwrap(), u32::MAX);
    }

    #[test]
    fn shifted_u32_handles_zero() {
        let mut w = BitWriter::new();
        for n in [0u32, 1, 7, 1000] {
            encode_u32(&mut w, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for n in [0u32, 1, 7, 1000] {
            assert_eq!(decode_u32(&mut r).unwrap(), n);
        }
    }

    #[test]
    fn zigzag_roundtrip_and_ordering() {
        for v in [-5i32, -1, 0, 1, 5, i32::MIN + 1, i32::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v, "v = {v}");
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = BitWriter::new();
        encode_gamma(&mut w, 1000); // long code
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes[..1]);
        assert!(decode_gamma(&mut r).is_err());
        let mut r = BitReader::new(&[]);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn all_zero_bytes_rejected() {
        // 32+ zero bits without a terminating 1 is malformed.
        let mut r = BitReader::new(&[0u8; 8]);
        assert!(matches!(
            decode_gamma(&mut r),
            Err(DecodeError::Malformed { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_zero_panics() {
        encode_gamma(&mut BitWriter::new(), 0);
    }
}
