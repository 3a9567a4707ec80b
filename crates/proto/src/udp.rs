//! The memcached UDP frame header.
//!
//! Every UDP datagram carrying memcached traffic starts with eight bytes:
//! `request id`, `sequence number`, `total datagrams in this message`, and
//! a reserved word — enough for clients to match responses to requests and
//! reassemble multi-datagram responses. This is the protocol Facebook's
//! UDP memcached (paper §III) speaks.

use crate::ProtoError;

/// Size of the UDP frame header.
pub const UDP_FRAME_BYTES: usize = 8;

/// Largest payload memcached puts in one UDP datagram (fits a standard
/// Ethernet MTU after UDP/IP headers and the frame header).
pub const UDP_CHUNK_BYTES: usize = 1_400;

/// A parsed UDP frame header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpFrame {
    /// Client-chosen id echoed in every response datagram.
    pub request_id: u16,
    /// This datagram's index within the message.
    pub seq: u16,
    /// Number of datagrams in the message.
    pub total: u16,
}

impl UdpFrame {
    /// Encodes a header.
    pub fn encode(&self) -> [u8; UDP_FRAME_BYTES] {
        let mut b = [0u8; UDP_FRAME_BYTES];
        b[0..2].copy_from_slice(&self.request_id.to_be_bytes());
        b[2..4].copy_from_slice(&self.seq.to_be_bytes());
        b[4..6].copy_from_slice(&self.total.to_be_bytes());
        b
    }

    /// Decodes the header and returns it with the payload.
    pub fn decode(datagram: &[u8]) -> Result<(UdpFrame, &[u8]), ProtoError> {
        if datagram.len() < UDP_FRAME_BYTES {
            return Err(ProtoError::Malformed("short UDP frame"));
        }
        let frame = UdpFrame {
            request_id: u16::from_be_bytes([datagram[0], datagram[1]]),
            seq: u16::from_be_bytes([datagram[2], datagram[3]]),
            total: u16::from_be_bytes([datagram[4], datagram[5]]),
        };
        if frame.seq >= frame.total {
            return Err(ProtoError::Malformed("UDP seq beyond total"));
        }
        Ok((frame, &datagram[UDP_FRAME_BYTES..]))
    }
}

/// Bytes of every datagram of a message but its last: the frame header
/// and a whole chunk.
pub const UDP_DATAGRAM_BYTES: usize = UDP_FRAME_BYTES + UDP_CHUNK_BYTES;

/// Appends `payload` to `out` as the framed datagrams for `request_id`, back
/// to back. Every datagram but the last takes [`UDP_DATAGRAM_BYTES`], so
/// `chunks(UDP_DATAGRAM_BYTES)` of what was appended yields them in order.
/// An empty payload is one datagram, the frame header alone.
pub fn udp_fragment(request_id: u16, payload: &[u8], out: &mut Vec<u8>) {
    let total = payload.len().div_ceil(UDP_CHUNK_BYTES).max(1) as u16;
    out.reserve(usize::from(total) * UDP_FRAME_BYTES + payload.len());
    let mut chunks = payload.chunks(UDP_CHUNK_BYTES);
    for seq in 0..total {
        let frame = UdpFrame {
            request_id,
            seq,
            total,
        };
        out.extend_from_slice(&frame.encode());
        out.extend_from_slice(chunks.next().unwrap_or_default());
    }
}

/// Appends the message of `request_id` to `out` once every one of its
/// datagrams is among `datagrams` (whole datagrams, frame header first, in
/// any order): false, and nothing appended, until then. Datagrams of other
/// request ids and malformed ones are skipped.
pub fn udp_reassemble<D: AsRef<[u8]>>(request_id: u16, datagrams: &[D], out: &mut Vec<u8>) -> bool {
    let mine = || {
        let decoded = datagrams
            .iter()
            .filter_map(|d| UdpFrame::decode(d.as_ref()).ok());
        decoded.filter(|(f, _)| f.request_id == request_id)
    };
    let part = |seq| mine().find(|(f, _)| f.seq == seq).map(|(_, part)| part);
    let Some((first, _)) = mine().next() else {
        return false;
    };
    if !(0..first.total).all(|seq| part(seq).is_some()) {
        return false;
    }
    (0..first.total).for_each(|seq| out.extend_from_slice(part(seq).unwrap_or_default()));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let f = UdpFrame {
            request_id: 0x1234,
            seq: 2,
            total: 5,
        };
        let mut d = f.encode().to_vec();
        d.extend_from_slice(b"payload");
        let (parsed, rest) = UdpFrame::decode(&d).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn malformed_headers_rejected() {
        assert!(UdpFrame::decode(&[1, 2, 3]).is_err());
        // seq >= total is nonsense.
        let f = UdpFrame {
            request_id: 1,
            seq: 3,
            total: 3,
        };
        assert!(UdpFrame::decode(&f.encode()).is_err());
    }

    /// The datagrams `udp_fragment` appends to `out`, each on its own.
    fn datagrams(request_id: u16, payload: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        udp_fragment(request_id, payload, &mut out);
        out.chunks(UDP_DATAGRAM_BYTES).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn fragment_reassemble_round_trip() {
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let dgrams = datagrams(9, &payload);
        assert_eq!(dgrams.len(), payload.len().div_ceil(UDP_CHUNK_BYTES));
        let mut whole = b"kept".to_vec();
        assert!(udp_reassemble(9, &dgrams, &mut whole));
        assert_eq!(whole[4..], payload[..], "appended");
        // Wrong request id: nothing to assemble.
        assert!(!udp_reassemble(10, &dgrams, &mut whole));
        assert_eq!(whole.len(), 4 + payload.len());
    }

    #[test]
    fn reassembly_waits_for_all_fragments() {
        let payload = vec![7u8; 3000];
        let mut dgrams = datagrams(1, &payload);
        let mut whole = Vec::new();
        let last = dgrams.pop().unwrap();
        assert!(!udp_reassemble(1, &dgrams, &mut whole), "incomplete");
        assert!(whole.is_empty());
        dgrams.insert(0, last); // out of order is fine
        dgrams.insert(1, b"junk".to_vec()); // and so is a malformed one
        assert!(udp_reassemble(1, &dgrams, &mut whole));
        assert_eq!(whole, payload);
    }

    #[test]
    fn empty_payload_is_one_datagram() {
        let dgrams = datagrams(3, b"");
        assert_eq!(dgrams.len(), 1);
        let (f, rest) = UdpFrame::decode(&dgrams[0]).unwrap();
        assert_eq!((f.seq, f.total), (0, 1));
        assert!(rest.is_empty());
    }
}
