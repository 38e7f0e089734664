//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-segment
//! and index integrity check of the `.pqa` format.
//!
//! Implemented locally because the build environment vendors no checksum
//! crate. Every sealed and every decoded segment is checksummed whole
//! (over a megabyte at dense polling), so the walk is slice-by-8: eight
//! table lookups fold eight input bytes per step, with the classic
//! byte-at-a-time walk left for the unaligned tail.

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xffff_ffff }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
            state = TABLES[7][(lo & 0xff) as usize]
                ^ TABLES[6][((lo >> 8) & 0xff) as usize]
                ^ TABLES[5][((lo >> 16) & 0xff) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][usize::from(c[4])]
                ^ TABLES[2][usize::from(c[5])]
                ^ TABLES[1][usize::from(c[6])]
                ^ TABLES[0][usize::from(c[7])];
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = state;
    }

    /// Final checksum.
    pub fn finish(self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut crc = Crc32::new();
        crc.update(&data[..10]);
        crc.update(&data[10..]);
        assert_eq!(crc.finish(), crc32(data));
    }

    /// The byte-at-a-time walk the sliced one replaced.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut state = 0xffff_ffffu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xff) as usize];
        }
        state ^ 0xffff_ffff
    }

    #[test]
    fn more_known_vectors() {
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xffu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn every_split_offset_matches_oneshot() {
        let data: Vec<u8> = (0u32..17).map(|i| (i * 37 + 11) as u8).collect();
        for split in 0..=17 {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn sliced_walk_agrees_with_bytewise_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC4C);
        for round in 0..300 {
            let len = if round < 40 {
                round
            } else {
                rng.gen_range(0..=4096)
            };
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc32(&data), bytewise(&data), "len {len}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"PrintQueue checkpoint segment".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
