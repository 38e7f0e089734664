//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-segment
//! and index integrity check of the `.pqa` format.
//!
//! Implemented locally because the build environment vendors no checksum
//! crate. Every sealed and every decoded segment is checksummed whole
//! (over a megabyte at dense polling), so the checksum is most of what a
//! seal costs and there are two walks:
//!
//! * **Folded** (x86-64 with `pclmulqdq` + `sse4.1`, inputs of 128 bytes
//!   and more): four 128-bit accumulators each absorb 16 input bytes a
//!   step with two carry-less multiplies — 64 bytes a step — then fold
//!   into one, which takes the remaining whole 16-byte blocks, and a
//!   Barrett reduction brings the 128 bits down to the 32-bit state. This
//!   is the Intel "Fast CRC Computation Using PCLMULQDQ" scheme with the
//!   constants zlib and crc32fast use for this polynomial. It leaves at
//!   most 15 bytes.
//! * **Sliced** (everything else): slice-by-8 — eight table lookups fold
//!   eight input bytes per step, with the classic byte-at-a-time walk for
//!   the unaligned tail. It is the whole checksum on other targets and
//!   older CPUs, the tail handler behind the folded walk, and the
//!   reference the tests hold the folded walk to.
//!
//! Which walk runs is decided by the hardware alone, on every `update`:
//! `is_x86_feature_detected!` is one relaxed load of a word std fills in
//! once, far below the 128 bytes of work it gates, so there is no cached
//! function pointer, feature flag or setting to keep in step with it.

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

/// The slice-by-8 walk over all of `bytes`, from and to the raw
/// (uninverted) state.
fn sliced(mut state: u32, bytes: &[u8]) -> u32 {
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
    state
}

/// Shortest input the folded walk takes: its four accumulators load 64
/// bytes before the first fold, and below two such steps the table walk is
/// as fast.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 128;

/// The folded walk over `blocks`, from and to the raw state.
///
/// `K1`/`K2` are x^(4·128+32) and x^(4·128−32) mod P (bit-reflected), the
/// multipliers that carry an accumulator over the 64 bytes the other three
/// cover; `K3`/`K4` are x^(128±32) mod P and carry it over 16 bytes; `K5`
/// is x^64 mod P; `P_X` is the polynomial and `U_PRIME` its Barrett
/// inverse ⌊x^64 / P⌋.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse4.1`.
///
/// # Panics
/// If `blocks` is shorter than 64 bytes or not a multiple of 16.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn fold(state: u32, blocks: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// `acc` carried forward by the distance `keys` encode, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn step(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }
    #[inline]
    unsafe fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        // SAFETY: the assert makes 16 bytes readable, and `loadu` needs no
        // alignment.
        _mm_loadu_si128(block.as_ptr().cast())
    }

    assert!(blocks.len() >= 64 && blocks.len() & 15 == 0);
    let (first, rest) = blocks.split_at(64);
    let mut x3 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(state as i32));
    let mut x2 = load(&first[16..]);
    let mut x1 = load(&first[32..]);
    let mut x0 = load(&first[48..]);
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut fours = rest.chunks_exact(64);
    for c in &mut fours {
        x3 = step(x3, load(c), k1k2);
        x2 = step(x2, load(&c[16..]), k1k2);
        x1 = step(x1, load(&c[32..]), k1k2);
        x0 = step(x0, load(&c[48..]), k1k2);
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = step(x3, x2, k3k4);
    x = step(x, x1, k3k4);
    x = step(x, x0, k3k4);
    for c in fours.remainder().chunks_exact(16) {
        x = step(x, load(c), k3k4);
    }

    // 128 → 64 bits, 64 → 32 + 32 bits, then Barrett: the quotient estimate
    // T1 = ⌊x mod x^32⌋·μ, T2 = ⌊T1 mod x^32⌋·P, and the remainder is the
    // upper word of x ^ T2 (upper, because everything is bit-reflected).
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xffff_ffff }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = if bytes.len() >= FOLD_MIN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            let (blocks, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: the two CPU features `fold` is compiled for were
            // detected on this processor just above.
            self.state = unsafe { fold(self.state, blocks) };
            tail
        } else {
            bytes
        };
        self.state = sliced(self.state, bytes);
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

    /// Both walks against the reference: the dispatching `crc32` (the
    /// folded walk wherever the CPU has it) and the sliced walk called
    /// directly, so an x86 run covers the portable path as well.
    fn check(data: &[u8], what: impl std::fmt::Display) {
        let want = bytewise(data);
        assert_eq!(crc32(data), want, "crc32, {what}");
        assert_eq!(sliced(!0, data) ^ !0, want, "sliced, {what}");
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        use rand::{RngCore, SeedableRng};
        let mut data = vec![0u8; len];
        rand::rngs::SmallRng::seed_from_u64(seed).fill_bytes(&mut data);
        data
    }

    #[test]
    fn every_length_to_1024_matches_the_reference() {
        let data = random_bytes(1024, 0xF01D);
        for len in 0..=1024 {
            check(&data[..len], format_args!("len {len}"));
        }
    }

    #[test]
    fn every_start_alignment_matches_the_reference() {
        let data = random_bytes(4096 + 16, 0xA119);
        for start in 0..16 {
            check(&data[start..start + 4096], format_args!("start {start}"));
            check(&data[start..4096], format_args!("start {start} to 4096"));
        }
    }

    #[test]
    fn random_lengths_to_2_mib_match_the_reference() {
        use rand::{Rng, SeedableRng};
        let data = random_bytes((2 << 20) + 64, 0x2_0000);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5EED);
        for _ in 0..12 {
            let start = rng.gen_range(0..64);
            let len = rng.gen_range(0..=2usize << 20);
            check(
                &data[start..start + len],
                format_args!("start {start} len {len}"),
            );
        }
        check(&data[..2 << 20], "2 MiB");
    }

    #[test]
    fn streaming_across_every_split_of_300_bytes_matches_oneshot() {
        // Splits put 0..=300 bytes on one side and the rest on the other:
        // every combination of folded, sliced-only and empty updates around
        // the 16-, 64- and 128-byte thresholds.
        let data = random_bytes(300, 0x300);
        let want = bytewise(&data);
        for split in 0..=300 {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), want, "split {split}");
        }
        // And in three pieces, so a folded update also starts from a state
        // another folded update left.
        let data = random_bytes(1000, 0x1000);
        let want = bytewise(&data);
        for (a, b) in [(128, 256), (129, 500), (333, 334), (500, 1000)] {
            let mut crc = Crc32::new();
            crc.update(&data[..a]);
            crc.update(&data[a..b]);
            crc.update(&data[b..]);
            assert_eq!(crc.finish(), want, "pieces {a}, {b}");
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
