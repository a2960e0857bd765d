//! CRC-32 (IEEE 802.3 polynomial, reflected) implemented in-repo.
//!
//! The checksum runs **slicing-by-8**: eight 256-entry tables, where
//! `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
//! zero bytes. Each loop iteration folds the running CRC into the next
//! eight input bytes and resolves all eight with independent table
//! lookups, instead of one dependent lookup per byte. The tables are
//! built in a `const` context, so there is no lazy initialisation, and
//! the output is bit-identical to the textbook bytewise algorithm (a
//! differential test below pins that) — the committed journal fixtures
//! depend on it.
//!
//! The SSE4.2 / ARMv8 `crc32` instructions are not an option: they
//! compute CRC-32C (the Castagnoli polynomial), a different checksum, so
//! every existing journal and snapshot would fail validation.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
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
}

const TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE polynomial, init `!0`, final xor `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_rng::{RngCore, SeedableRng, StdRng};

    /// The textbook byte-at-a-time CRC-32 over the first table: the
    /// reference slicing-by-8 must match bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"journal record");
        let mut flipped = b"journal record".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn slicing_by_8_matches_bytewise_reference() {
        // Every length 0..=64 at every start offset 0..8 covers each
        // alignment of the 8-byte body and each remainder length.
        let buf = seeded_bytes(64 + 8, 0x00C3_C32E);
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
        let big = seeded_bytes(1 << 20, 0x1F1E_D00D);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }
}
