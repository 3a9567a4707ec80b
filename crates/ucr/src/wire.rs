//! UCR packet framing.
//!
//! Every UCR message starts with a fixed 64-byte packet header followed by
//! the application's active-message header and, on the eager path, the
//! data. Counter identifiers travel in the packet header — this is how a
//! Memcached client can name the counter it waits on in AM 1 and have the
//! server's AM 2 target that same counter (paper §V-B/§V-C).

/// Packet kinds on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// Header + data in one network buffer (≤ the 8 KB eager threshold).
    Eager,
    /// Rendezvous request: header only; data advertised for RDMA read.
    RndvReq,
    /// Internal message: counter updates / rendezvous completion.
    Fin,
}

impl PacketKind {
    fn to_u8(self) -> u8 {
        match self {
            PacketKind::Eager => 1,
            PacketKind::RndvReq => 2,
            PacketKind::Fin => 3,
        }
    }

    fn from_u8(v: u8) -> Option<PacketKind> {
        match v {
            1 => Some(PacketKind::Eager),
            2 => Some(PacketKind::RndvReq),
            3 => Some(PacketKind::Fin),
            _ => None,
        }
    }
}

/// The fixed-size packet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketHeader {
    /// What follows this header.
    pub kind: PacketKind,
    /// Eager only: the sender's own send queue was backed up when it sent
    /// this, so the receiver should coalesce what it sends back (byte 1,
    /// zero on every other kind and from every sender that is not).
    pub backed_up: bool,
    /// Active-message id selecting the target-side handler.
    pub msg_id: u16,
    /// Length of the application header that follows.
    pub hdr_len: u32,
    /// Length of the data (inline for Eager, advertised for RndvReq).
    pub data_len: u64,
    /// Target-side counter to bump on completion (0 = none).
    pub target_ctr: u64,
    /// Origin-side counter to bump when buffers are reusable (0 = none).
    pub origin_ctr: u64,
    /// Origin-side counter to bump when the target's completion handler
    /// has run (0 = none).
    pub completion_ctr: u64,
    /// Rendezvous: rkey of the advertised source region.
    pub rkey: u32,
    /// Rendezvous: offset within the advertised region.
    pub offset: u64,
    /// Origin-side token identifying in-flight rendezvous state.
    pub token: u64,
}

/// Size of the encoded packet header.
pub const PACKET_HEADER_BYTES: usize = 64;

impl PacketHeader {
    /// A zeroed header of the given kind.
    pub fn new(kind: PacketKind, msg_id: u16) -> PacketHeader {
        PacketHeader {
            kind,
            backed_up: false,
            msg_id,
            hdr_len: 0,
            data_len: 0,
            target_ctr: 0,
            origin_ctr: 0,
            completion_ctr: 0,
            rkey: 0,
            offset: 0,
            token: 0,
        }
    }

    /// Encodes into the fixed wire layout.
    pub fn encode(&self) -> [u8; PACKET_HEADER_BYTES] {
        let mut b = [0u8; PACKET_HEADER_BYTES];
        b[0] = self.kind.to_u8();
        b[1] = self.backed_up as u8;
        b[2..4].copy_from_slice(&self.msg_id.to_le_bytes());
        b[4..8].copy_from_slice(&self.hdr_len.to_le_bytes());
        b[8..16].copy_from_slice(&self.data_len.to_le_bytes());
        b[16..24].copy_from_slice(&self.target_ctr.to_le_bytes());
        b[24..32].copy_from_slice(&self.origin_ctr.to_le_bytes());
        b[32..40].copy_from_slice(&self.completion_ctr.to_le_bytes());
        b[40..44].copy_from_slice(&self.rkey.to_le_bytes());
        b[44..52].copy_from_slice(&self.offset.to_le_bytes());
        b[52..60].copy_from_slice(&self.token.to_le_bytes());
        b
    }

    /// Decodes from the wire; `None` on a malformed header.
    pub fn decode(b: &[u8]) -> Option<PacketHeader> {
        if b.len() < PACKET_HEADER_BYTES {
            return None;
        }
        let kind = PacketKind::from_u8(b[0])?;
        // Length is pre-checked above; fixed-offset reads below are in
        // bounds by construction, no fallible conversion needed.
        let le16 = |at: usize| u16::from_le_bytes([b[at], b[at + 1]]);
        let le32 = |at: usize| {
            let mut w = [0u8; 4];
            w.copy_from_slice(&b[at..at + 4]);
            u32::from_le_bytes(w)
        };
        let le64 = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[at..at + 8]);
            u64::from_le_bytes(w)
        };
        Some(PacketHeader {
            kind,
            backed_up: b[1] & 1 != 0,
            msg_id: le16(2),
            hdr_len: le32(4),
            data_len: le64(8),
            target_ctr: le64(16),
            origin_ctr: le64(24),
            completion_ctr: le64(32),
            rkey: le32(40),
            offset: le64(44),
            token: le64(52),
        })
    }
}

/// One packet located in a received network buffer by [`packet_at`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Located {
    /// The decoded packet header.
    pub pkt: PacketHeader,
    /// Where the packet starts.
    at: usize,
    /// Where it ends — and the next one, if any, starts.
    pub end: usize,
}

impl Located {
    fn hdr_end(&self) -> usize {
        self.at + PACKET_HEADER_BYTES + self.pkt.hdr_len as usize
    }

    /// The application header, in the buffer the packet was located in.
    pub fn hdr<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.at + PACKET_HEADER_BYTES..self.hdr_end()]
    }

    /// The inline data of an `Eager` packet (empty for the other kinds,
    /// which carry none), in the buffer the packet was located in.
    pub fn data<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.hdr_end()..self.end]
    }
}

/// Locates the packet starting at `at` in `buf` — a received network
/// buffer already cut to the completion's `byte_len`. A buffer holds one
/// packet, or several `Eager` packets back to back (`[64 B header | app
/// header | data]*`); the caller walks them by passing each packet's
/// `end` as the next `at`.
///
/// Every length comes from the peer, so nothing is trusted: `None` when
/// fewer than `PACKET_HEADER_BYTES` remain, the kind is unknown, or the
/// lengths overflow or reach past the end of `buf`. A `Some` result lies
/// wholly inside `buf`: `at + PACKET_HEADER_BYTES <= hdr_end <= end <=
/// buf.len()`.
pub fn packet_at(buf: &[u8], at: usize) -> Option<Located> {
    let pkt = PacketHeader::decode(buf.get(at..)?)?;
    let hdr_end = at
        .checked_add(PACKET_HEADER_BYTES)?
        .checked_add(usize::try_from(pkt.hdr_len).ok()?)?;
    let end = match pkt.kind {
        PacketKind::Eager => hdr_end.checked_add(usize::try_from(pkt.data_len).ok()?)?,
        PacketKind::RndvReq | PacketKind::Fin => hdr_end,
    };
    (end <= buf.len()).then_some(Located { pkt, at, end })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_at_walks_back_to_back_eager_packets() {
        let mut buf = Vec::new();
        for (hdr, data) in [(&b"ab"[..], &b"xyz"[..]), (b"", b""), (b"h", b"0123456789")] {
            let mut p = PacketHeader::new(PacketKind::Eager, 9);
            p.hdr_len = hdr.len() as u32;
            p.data_len = data.len() as u64;
            buf.extend_from_slice(&p.encode());
            buf.extend_from_slice(hdr);
            buf.extend_from_slice(data);
        }
        let a = packet_at(&buf, 0).unwrap();
        assert_eq!(
            (a.hdr(&buf), a.data(&buf), a.end),
            (&b"ab"[..], &b"xyz"[..], 69)
        );
        let b = packet_at(&buf, a.end).unwrap();
        assert_eq!(
            (b.hdr(&buf), b.data(&buf), b.end),
            (&b""[..], &b""[..], 133)
        );
        let c = packet_at(&buf, b.end).unwrap();
        assert_eq!((c.hdr(&buf), c.data(&buf)), (&b"h"[..], &b"0123456789"[..]));
        assert_eq!(c.end, buf.len());
        assert_eq!(packet_at(&buf, c.end), None);
    }

    #[test]
    fn packet_at_rejects_hostile_lengths() {
        let mut p = PacketHeader::new(PacketKind::Eager, 1);
        p.data_len = u64::MAX;
        assert_eq!(packet_at(&p.encode(), 0), None, "data_len wraps");
        p.data_len = 1;
        assert_eq!(packet_at(&p.encode(), 0), None, "data past the buffer");
        p.data_len = 0;
        p.hdr_len = u32::MAX;
        assert_eq!(packet_at(&p.encode(), 0), None, "hdr past the buffer");
        p.hdr_len = 0;
        assert!(packet_at(&p.encode(), 0).is_some());
        assert_eq!(packet_at(&p.encode(), 1), None, "short sub-header");
        assert_eq!(packet_at(&p.encode(), usize::MAX), None);
        // A rendezvous request advertises its data; none rides inline.
        p.kind = PacketKind::RndvReq;
        p.data_len = 1 << 40;
        assert_eq!(packet_at(&p.encode(), 0).map(|l| l.end), Some(64));
    }

    #[test]
    fn round_trip_all_fields() {
        let h = PacketHeader {
            kind: PacketKind::RndvReq,
            backed_up: true,
            msg_id: 0xbeef,
            hdr_len: 123,
            data_len: 1 << 40,
            target_ctr: 7,
            origin_ctr: 8,
            completion_ctr: 9,
            rkey: 0xdead_beef,
            offset: 4096,
            token: u64::MAX,
        };
        let enc = h.encode();
        assert_eq!(PacketHeader::decode(&enc), Some(h));
    }

    #[test]
    fn truncated_or_garbage_rejected() {
        assert_eq!(PacketHeader::decode(&[1, 2, 3]), None);
        let mut bad = PacketHeader::new(PacketKind::Eager, 1).encode();
        bad[0] = 99; // unknown kind
        assert_eq!(PacketHeader::decode(&bad), None);
    }

    #[test]
    fn header_is_64_bytes() {
        assert_eq!(PACKET_HEADER_BYTES, 64);
        assert_eq!(PacketHeader::new(PacketKind::Fin, 0).encode().len(), 64);
    }
}
