//! LEB128 varints and zigzag deltas — the primitive encoding of `.pqa`
//! segment bodies.
//!
//! All decoders take `&mut &[u8]` cursors and fail with `InvalidData`
//! instead of panicking: segment bodies are untrusted (torn writes, bit
//! rot), so every length and every continuation bit is validated against
//! the remaining input.

use std::io::{self, Write};

/// Longest encoding of a `u64`.
pub const MAX_LEN: usize = 10;

/// Encoded length of `value`.
pub const fn len_u64(value: u64) -> usize {
    let bits = 64 - (value | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Append `value` as an unsigned LEB128 varint.
pub fn write_u64<W: Write>(w: &mut W, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Append `value` zigzag-mapped (small magnitudes of either sign stay
/// small on the wire).
pub fn write_i64<W: Write>(w: &mut W, value: i64) -> io::Result<()> {
    write_u64(w, zigzag(value))
}

/// [`write_u64`] for the checkpoint encoder, which only ever appends to
/// memory: plain pushes, nothing to fail, no per-byte `Write` call.
pub fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// [`write_i64`] on the push path.
pub fn put_i64(out: &mut Vec<u8>, value: i64) {
    put_u64(out, zigzag(value));
}

/// Zigzag map: 0, -1, 1, -2, … → 0, 1, 2, 3, …
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse zigzag map.
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated varint")
}

/// Decode an unsigned LEB128 varint, advancing the cursor.
pub fn read_u64(cursor: &mut &[u8]) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = cursor.split_first() else {
            return Err(truncated());
        };
        *cursor = rest;
        if shift == 63 && byte > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint longer than 10 bytes",
            ));
        }
    }
}

/// Decode a zigzag varint, advancing the cursor.
pub fn read_i64(cursor: &mut &[u8]) -> io::Result<i64> {
    read_u64(cursor).map(unzigzag)
}

/// Decode a varint and narrow it to `usize`, rejecting values above `max`
/// (the allocation guard for untrusted counts).
pub fn read_len(cursor: &mut &[u8], max: usize) -> io::Result<usize> {
    let value = read_u64(cursor)?;
    if value > max as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("length {value} exceeds bound {max}"),
        ));
    }
    Ok(value as usize)
}

/// Consume exactly `n` bytes from the cursor.
pub fn read_bytes<'a>(cursor: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if cursor.len() < n {
        return Err(truncated());
    }
    let (head, rest) = cursor.split_at(n);
    *cursor = rest;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            let mut cursor = buf.as_slice();
            assert_eq!(read_u64(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn push_path_writes_the_same_bytes() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, u64::MAX >> shift] {
                let (mut pushed, mut written) = (Vec::new(), Vec::new());
                put_u64(&mut pushed, v);
                write_u64(&mut written, v).unwrap();
                assert_eq!(pushed, written, "u64 {v}");
                assert_eq!(len_u64(v), pushed.len(), "length of {v}");
                assert!(pushed.len() <= MAX_LEN);
                let (mut pushed, mut written) = (Vec::new(), Vec::new());
                put_i64(&mut pushed, v as i64);
                write_i64(&mut written, v as i64).unwrap();
                assert_eq!(pushed, written, "i64 {}", v as i64);
            }
        }
    }

    #[test]
    fn i64_roundtrip_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v).unwrap();
            let mut cursor = buf.as_slice();
            assert_eq!(read_i64(&mut cursor).unwrap(), v);
        }
    }

    #[test]
    fn truncated_and_overlong_rejected() {
        let mut cursor: &[u8] = &[0x80];
        assert!(read_u64(&mut cursor).is_err());
        let eleven = [0x80u8; 10];
        let mut cursor: &[u8] = &eleven;
        assert!(read_u64(&mut cursor).is_err());
        // 10-byte varint with payload bits above bit 63.
        let mut cursor: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(read_u64(&mut cursor).is_err());
    }

    #[test]
    fn len_guard_rejects_oversized() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1_000_000).unwrap();
        let mut cursor = buf.as_slice();
        assert!(read_len(&mut cursor, 4096).is_err());
    }
}
