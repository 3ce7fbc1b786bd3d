//! CRC-32 (IEEE 802.3 polynomial) for storage-frame integrity checks.
//!
//! The durable-storage subsystem protects every WAL record and snapshot
//! with a checksum so torn or bit-flipped frames are detected *before*
//! decoding. A cryptographic digest would be overkill there — the threat
//! model is media corruption, not an adversary (the adversarial checks
//! are the content hashes re-verified against the chain after recovery)
//! — so this is the standard reflected CRC-32 with the `0xEDB88320`
//! polynomial. Recovery checksums every chain and WAL byte, so the loop
//! is slicing-by-8: eight lookup tables, computed at compile time, fold
//! eight input bytes per step instead of one. The value is bit-identical
//! to the byte-at-a-time loop (kept in the tests as the oracle).

/// Reflected polynomial of CRC-32/ISO-HDLC (zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// The slicing tables, computed once at compile time. `TABLES[0]` is the
/// classic byte table; `TABLES[k][i]` is the CRC of byte `i` followed by
/// `k` zero bytes, so one step can fold a byte `k` positions ahead.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
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
};

/// Streaming CRC-32 accumulator.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let (words, rest) = data.as_chunks::<8>();
        for w in words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[((hi >> 8) & 0xFF) as usize]
                ^ t1[((hi >> 16) & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &b in rest {
            crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finishes and returns the checksum value.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The byte-at-a-time loop over the classic table: the oracle the
    /// slicing-by-8 loop must match bit for bit.
    fn bytewise_crc32(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise_crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn classic_table_is_the_standard_one() {
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello durable world";
        let mut c = Crc32::new();
        c.update(&data[..5]);
        c.update(&data[5..]);
        assert_eq!(c.finalize(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        data[40] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any data, fed whole or in two parts at any split point (so the
        /// 8-byte steps start at every alignment), matches the oracle.
        #[test]
        fn slicing_by_8_matches_bytewise(data in vec(any::<u8>(), 0..300),
                                         split in any::<usize>()) {
            let expected = bytewise_crc32(&data);
            prop_assert_eq!(crc32(&data), expected);
            let split = split % (data.len() + 1);
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            prop_assert_eq!(c.finalize(), expected);
        }
    }
}
