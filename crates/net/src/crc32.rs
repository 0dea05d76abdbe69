//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Frame integrity checking needs nothing fancier: CRC-32 detects all
//! single- and double-bit errors, all odd numbers of bit errors, and all
//! burst errors up to 32 bits — the failure modes of a torn or corrupted
//! TCP bytestream boundary.
//!
//! Every payload byte of every frame passes through here twice (sender and
//! receiver), so the loop is slicing-by-8: eight bytes per step through
//! eight tables built at compile time, where `TABLES[k][b]` is the CRC of
//! byte `b` followed by `k` zero bytes. The eight lookups of a step are
//! independent, unlike the byte-at-a-time recurrence they replace, whose
//! every lookup waits for the one before it.

const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32 over multiple slices (header, then payload).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut state = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ state;
            let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
        }
        self.state = state;
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `update` replaced, kept as the reference.
    fn bytewise(data: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in data {
            state = TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
        }
        !state
    }

    proptest! {
        /// Slicing-by-8 against the bytewise loop, over lengths up to
        /// 4 KiB at every start alignment within a word, and with `update`
        /// fed the data in two pieces split at every position — so the
        /// 8-byte steps resume from every state at every offset and every
        /// remainder length occurs. The splits stop at 512 bytes: what a
        /// split adds to the one-shot checks is the resumed state, which
        /// no longer depends on the length, and every split of 4 KiB is
        /// 16 MiB of unoptimised CRC per case.
        #[test]
        fn sliced_update_matches_the_bytewise_loop(
            padded in prop::collection::vec(any::<u8>(), 8..4104),
        ) {
            for start in 0..8 {
                let data = &padded[start..padded.len() - (8 - start)];
                prop_assert!(crc32(data) == bytewise(data), "start alignment {start}");
            }
            let data = &padded[8..padded.len().min(8 + 512)];
            let want = bytewise(data);
            for split in 0..=data.len() {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..]);
                prop_assert!(c.finish() == want, "split at {split} of {}", data.len());
            }
        }
    }

    #[test]
    fn known_check_value() {
        // The standard CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0u8..=255).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
