//! IPv4 header parsing and emission.

use crate::checksum;
use crate::wire::{Error, Result};
use core::fmt;

/// An IPv4 address (kept as raw octets to stay `no_std`-shaped like smoltcp;
/// converts to/from `std::net::Ipv4Addr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 4]);

impl Address {
    /// Build from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Address {
        Address([a, b, c, d])
    }

    /// The address as a big-endian `u32` (useful for hashing in register
    /// cells, which is how the Tofino implementation treats it).
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Build from a big-endian `u32`.
    pub fn from_u32(raw: u32) -> Address {
        Address(raw.to_be_bytes())
    }
}

impl From<std::net::Ipv4Addr> for Address {
    fn from(a: std::net::Ipv4Addr) -> Self {
        Address(a.octets())
    }
}

impl From<Address> for std::net::Ipv4Addr {
    fn from(a: Address) -> Self {
        std::net::Ipv4Addr::from(a.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Minimum (and, without options, actual) IPv4 header length in bytes.
pub const HEADER_LEN: usize = 20;

/// A borrowed view over an IPv4 packet.
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer, validating length, version, and the header's own
    /// length fields.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Packet { buffer };
        packet.check()?;
        Ok(packet)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    fn check(&self) -> Result<()> {
        let b = self.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 4 {
            return Err(Error::Malformed);
        }
        let header_len = self.header_len() as usize;
        if header_len < HEADER_LEN || header_len > b.len() {
            return Err(Error::Malformed);
        }
        let total_len = self.total_len() as usize;
        if total_len < header_len || total_len > b.len() {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// IP version field (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Differentiated services code point (priority classes in the paper's
    /// strict-priority scenarios map onto this).
    pub fn dscp(&self) -> u8 {
        self.buffer.as_ref()[1] >> 2
    }

    /// Total packet length (header + payload) in bytes.
    pub fn total_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Transport protocol number.
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    /// Source address.
    pub fn src_addr(&self) -> Address {
        let b = self.buffer.as_ref();
        Address(b[12..16].try_into().unwrap())
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Address {
        let b = self.buffer.as_ref();
        Address(b[16..20].try_into().unwrap())
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let b = self.buffer.as_ref();
        checksum::verify(&b[..self.header_len() as usize])
    }

    /// Payload (bytes after the header, bounded by `total_len`).
    pub fn payload(&self) -> &[u8] {
        let header_len = self.header_len() as usize;
        let total_len = self.total_len() as usize;
        &self.buffer.as_ref()[header_len..total_len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version and IHL in one write.
    pub fn set_version_and_len(&mut self, header_len: u8) {
        debug_assert_eq!(header_len % 4, 0);
        self.buffer.as_mut()[0] = 0x40 | (header_len / 4);
    }

    /// Set the DSCP bits (ECN left zero).
    pub fn set_dscp(&mut self, dscp: u8) {
        self.buffer.as_mut()[1] = dscp << 2;
    }

    /// Set the total-length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, ident: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&ident.to_be_bytes());
    }

    /// Set flags/fragment offset to "don't fragment".
    pub fn set_dont_fragment(&mut self) {
        self.buffer.as_mut()[6..8].copy_from_slice(&0x4000u16.to_be_bytes());
    }

    /// Set the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Set the transport protocol number.
    pub fn set_protocol(&mut self, protocol: u8) {
        self.buffer.as_mut()[9] = protocol;
    }

    /// Set the source address.
    pub fn set_src_addr(&mut self, addr: Address) {
        self.buffer.as_mut()[12..16].copy_from_slice(&addr.0);
    }

    /// Set the destination address.
    pub fn set_dst_addr(&mut self, addr: Address) {
        self.buffer.as_mut()[16..20].copy_from_slice(&addr.0);
    }

    /// Mutable access to the payload following the header.
    ///
    /// Unlike [`Packet::payload`], this is not bounded by `total_len`,
    /// because it is used while a frame is still being assembled (before the
    /// length field is final).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let header_len = self.header_len() as usize;
        &mut self.buffer.as_mut()[header_len..]
    }

    /// Zero then recompute the header checksum.
    pub fn fill_checksum(&mut self) {
        let header_len = self.header_len() as usize;
        let b = self.buffer.as_mut();
        b[10..12].copy_from_slice(&[0, 0]);
        let sum = checksum::checksum(&b[..header_len]);
        b[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

/// Owned representation of an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub src: Address,
    pub dst: Address,
    pub protocol: u8,
    pub payload_len: u16,
    pub dscp: u8,
    pub ttl: u8,
}

impl Repr {
    /// Parse from a validated packet view; verifies the checksum.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        Ok(Repr {
            src: packet.src_addr(),
            dst: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() - u16::from(packet.header_len()),
            dscp: packet.dscp(),
            ttl: packet.ttl(),
        })
    }

    /// Bytes required to emit this header.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit into a packet view, computing the checksum.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_and_len(HEADER_LEN as u8);
        packet.set_dscp(self.dscp);
        packet.set_total_len(HEADER_LEN as u16 + self.payload_len);
        packet.set_ident(0);
        packet.set_dont_fragment();
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src);
        packet.set_dst_addr(self.dst);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Repr {
        Repr {
            src: Address::new(10, 0, 0, 1),
            dst: Address::new(10, 0, 0, 2),
            protocol: 6,
            payload_len: 40,
            dscp: 0,
            ttl: 64,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample();
        let mut bytes = vec![0u8; HEADER_LEN + 40];
        let mut packet = Packet::new_unchecked(&mut bytes);
        repr.emit(&mut packet);
        let packet = Packet::new_checked(&bytes).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.payload().len(), 40);
    }

    #[test]
    fn rejects_wrong_version() {
        let repr = sample();
        let mut bytes = vec![0u8; HEADER_LEN + 40];
        let mut packet = Packet::new_unchecked(&mut bytes);
        repr.emit(&mut packet);
        bytes[0] = 0x65; // version 6
        assert_eq!(Packet::new_checked(&bytes).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let repr = sample();
        let mut bytes = vec![0u8; HEADER_LEN + 40];
        let mut packet = Packet::new_unchecked(&mut bytes);
        repr.emit(&mut packet);
        packet.set_total_len(2000);
        assert_eq!(Packet::new_checked(&bytes).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let repr = sample();
        let mut bytes = vec![0u8; HEADER_LEN + 40];
        let mut packet = Packet::new_unchecked(&mut bytes);
        repr.emit(&mut packet);
        bytes[15] ^= 0xff;
        let packet = Packet::new_checked(&bytes).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn address_u32_roundtrip() {
        let a = Address::new(192, 168, 1, 77);
        assert_eq!(Address::from_u32(a.to_u32()), a);
        assert_eq!(a.to_string(), "192.168.1.77");
    }

    #[test]
    fn std_conversion() {
        let a: Address = std::net::Ipv4Addr::new(1, 2, 3, 4).into();
        let back: std::net::Ipv4Addr = a.into();
        assert_eq!(back, std::net::Ipv4Addr::new(1, 2, 3, 4));
    }
}
