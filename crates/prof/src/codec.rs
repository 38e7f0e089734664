//! The workspace's one byte codec (DESIGN.md §8 "Byte codec"): LEB128
//! varints, zigzag, little-endian integers and a bounded cursor over
//! untrusted bytes. `.pqa` segments, the serve wire, `RttReport` and PQPF
//! encode and decode every primitive here; each format keeps only its
//! layout.
//!
//! Encoders push onto a `Vec<u8>` and cannot fail. Decoders take a
//! `&mut &[u8]` cursor, consume from its front, and fail with
//! [`Malformed`] instead of panicking: a read past the end, a varint above
//! `u64::MAX`, a length above its bound, or a count above its cap or above
//! what the remaining bytes can hold. [`count`] is the guard to call
//! before sizing anything from a peer's count.

use std::{fmt, io};

/// Longest encoding of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Why untrusted bytes failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

const TRUNCATED: Malformed = Malformed("input truncated");

impl fmt::Display for Malformed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Malformed {}

/// Archive readers report corrupt bytes as `InvalidData`.
impl From<Malformed> for io::Error {
    fn from(m: Malformed) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, m.0)
    }
}

impl From<Malformed> for String {
    fn from(m: Malformed) -> String {
        m.0.to_string()
    }
}

/// Append `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append `v` zigzag-mapped (0, -1, 1, -2, … → 0, 1, 2, 3, …), so small
/// magnitudes of either sign stay one byte.
#[inline]
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Encoded length of `v` as a varint.
pub const fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Consume exactly `n` bytes.
#[inline]
pub fn take<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8], Malformed> {
    if cur.len() < n {
        return Err(TRUNCATED);
    }
    let (head, rest) = cur.split_at(n);
    *cur = rest;
    Ok(head)
}

/// Consume one byte.
#[inline]
pub fn u8(cur: &mut &[u8]) -> Result<u8, Malformed> {
    let (&b, rest) = cur.split_first().ok_or(TRUNCATED)?;
    *cur = rest;
    Ok(b)
}

#[inline]
fn array<const N: usize>(cur: &mut &[u8]) -> Result<[u8; N], Malformed> {
    take(cur, N)?.try_into().map_err(|_| TRUNCATED)
}

macro_rules! le_ints {
    ($($t:ident $put:ident;)*) => {$(
        #[doc = concat!("Append a little-endian `", stringify!($t), "`.")]
        #[inline]
        pub fn $put(out: &mut Vec<u8>, v: $t) {
            out.extend_from_slice(&v.to_le_bytes());
        }

        #[doc = concat!("Consume a little-endian `", stringify!($t), "`.")]
        #[inline]
        pub fn $t(cur: &mut &[u8]) -> Result<$t, Malformed> {
            array(cur).map($t::from_le_bytes)
        }
    )*};
}
le_ints!(u16 put_u16; u32 put_u32; u64 put_u64; u128 put_u128;);

/// Consume an unsigned LEB128 varint: at most [`MAX_VARINT_LEN`] bytes,
/// the last carrying no bit above bit 63.
#[inline]
pub fn varint(cur: &mut &[u8]) -> Result<u64, Malformed> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = u8(cur)?;
        if shift == 63 && byte > 1 {
            return Err(Malformed("varint overflows u64"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Consume a zigzag varint.
#[inline]
pub fn zigzag(cur: &mut &[u8]) -> Result<i64, Malformed> {
    varint(cur).map(|v| ((v >> 1) as i64) ^ -((v & 1) as i64))
}

/// Consume a varint length, refused above `max`: the bound the structure
/// it indexes into sets.
#[inline]
pub fn len(cur: &mut &[u8], max: usize) -> Result<usize, Malformed> {
    match varint(cur)? {
        v if v > max as u64 => Err(Malformed("length exceeds its bound")),
        v => Ok(v as usize),
    }
}

/// Admit an element count `n`, already read, before anything is sized
/// from it: refused above `cap`, and above what the bytes left in `cur`
/// can hold at `min_elem` bytes an element.
#[inline]
pub fn count(cur: &[u8], n: usize, cap: usize, min_elem: usize) -> Result<usize, Malformed> {
    if n > cap {
        return Err(Malformed("count exceeds its cap"));
    }
    if n.saturating_mul(min_elem) > cur.len() {
        return Err(Malformed("count exceeds bytes present"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, u64::MAX >> shift] {
                let bytes = encoded(v);
                assert_eq!(varint_len(v), bytes.len(), "length of {v}");
                assert!(bytes.len() <= MAX_VARINT_LEN);
                let mut cur = bytes.as_slice();
                assert_eq!(varint(&mut cur), Ok(v));
                assert!(cur.is_empty());
            }
        }
        assert_eq!(encoded(300), [0xac, 0x02]);
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        for (v, byte) in [(0i64, 0u8), (-1, 1), (1, 2), (-64, 127), (63, 126)] {
            let mut out = Vec::new();
            put_zigzag(&mut out, v);
            assert_eq!(out, [byte]);
        }
        for v in [i64::MIN, i64::MAX, -1_000_000, 1_000_000] {
            let mut out = Vec::new();
            put_zigzag(&mut out, v);
            assert_eq!(zigzag(&mut out.as_slice()), Ok(v));
        }
    }

    #[test]
    fn truncated_and_overlong_varints_are_refused() {
        assert_eq!(varint(&mut &[0x80][..]), Err(TRUNCATED));
        assert!(varint(&mut &[0x80; 10][..]).is_err());
        // Ten bytes, the last with payload above bit 63.
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(varint(&mut &over[..]).is_err());
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(varint(&mut &max[..]), Ok(u64::MAX));
    }

    #[test]
    fn fixed_width_integers_are_little_endian_and_bounded() {
        let mut out = Vec::new();
        put_u16(&mut out, 0x0102);
        put_u32(&mut out, 0x0304_0506);
        put_u64(&mut out, 7);
        put_u128(&mut out, u128::MAX - 1);
        assert_eq!(out[..6], [0x02, 0x01, 0x06, 0x05, 0x04, 0x03]);
        let mut cur = out.as_slice();
        assert_eq!(u16(&mut cur), Ok(0x0102));
        assert_eq!(u32(&mut cur), Ok(0x0304_0506));
        assert_eq!(u64(&mut cur), Ok(7));
        assert_eq!(u128(&mut cur), Ok(u128::MAX - 1));
        assert_eq!(u8(&mut cur), Err(TRUNCATED));
        // A failed read consumes nothing.
        let mut cur: &[u8] = &[1, 2, 3];
        assert_eq!(u32(&mut cur), Err(TRUNCATED));
        assert_eq!(take(&mut cur, 4), Err(TRUNCATED));
        assert_eq!(cur, [1, 2, 3]);
        assert_eq!(take(&mut cur, 2), Ok(&[1u8, 2][..]));
    }

    #[test]
    fn lengths_and_counts_are_bounded_before_allocation() {
        let bytes = encoded(1_000_000);
        assert!(len(&mut bytes.as_slice(), 4096).is_err());
        assert_eq!(len(&mut bytes.as_slice(), 1_000_000), Ok(1_000_000));
        let rest = [0u8; 12];
        assert_eq!(count(&rest, 3, 8, 4), Ok(3));
        assert!(count(&rest, 4, 8, 4).is_err(), "more than the bytes hold");
        assert!(count(&rest, 9, 100, 0).is_ok());
        assert!(count(&rest, 9, 8, 0).is_err(), "over the cap");
        assert!(count(&rest, usize::MAX, usize::MAX, 2).is_err());
    }

    #[test]
    fn errors_map_onto_each_codec_s_type() {
        let io: io::Error = Malformed("bad").into();
        assert_eq!(io.kind(), io::ErrorKind::InvalidData);
        assert_eq!(io.to_string(), "bad");
        assert_eq!(String::from(Malformed("bad")), "bad");
    }
}
