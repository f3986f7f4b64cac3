//! Packet layer.
//!
//! "Above the socket level, we implemented rudimentary packet semantics to
//! enable message typing and delineate record boundaries within each
//! stream-oriented TCP communication" (§2.1, inspired by netperf, inherited
//! from the NWS implementation). A [`Packet`] is a typed, checksummed,
//! correlation-tagged record; [`FrameReader`] recovers packet boundaries
//! from an arbitrary byte stream.

use ew_sim::Payload;

use crate::wire::{WireDecode, WireEncode, WireError, WireReader};

/// `"EWPK"` — identifies an EveryWare packet stream.
pub const MAGIC: u32 = 0x4557_504B;
/// Wire protocol version.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Maximum accepted payload (sanity bound against corrupt streams).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Packet flag bits.
pub mod flags {
    /// Packet expects a response carrying the same correlation id.
    pub const REQUEST: u8 = 0b0000_0001;
    /// Packet answers an earlier `REQUEST`.
    pub const RESPONSE: u8 = 0b0000_0010;
}

/// Message type namespaces, one block per EveryWare service. Application
/// messages live at `0x1000+`.
pub mod mtype {
    /// Gossip state-exchange service block.
    pub const GOSSIP_BASE: u16 = 0x0100;
    /// Scheduling service block.
    pub const SCHED_BASE: u16 = 0x0200;
    /// Persistent state service block.
    pub const STATE_BASE: u16 = 0x0300;
    /// Logging service block.
    pub const LOG_BASE: u16 = 0x0400;
    /// Clique protocol block.
    pub const CLIQUE_BASE: u16 = 0x0500;
    /// Network Weather Service block (sensors, reports, forecast queries).
    pub const NWS_BASE: u16 = 0x0600;
    /// First application-defined message type.
    pub const APP_BASE: u16 = 0x1000;
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), computed over the header
/// (with the checksum field zeroed) and payload.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Fold `data` into a running (pre-inverted) CRC-32 register: a checksum
/// over several slices without joining them first.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
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
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// One lingua-franca record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Message type (see [`mtype`]).
    pub mtype: u16,
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// Correlates responses with requests; 0 for one-way messages.
    pub corr_id: u64,
    /// Typed body, encoded with [`WireEncode`], in a shared buffer:
    /// cloning a packet (or its payload) is O(1) and fan-out sends share
    /// one allocation.
    pub payload: Payload,
}

/// Errors raised while parsing a packet stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PacketError {
    /// Stream did not begin with [`MAGIC`].
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Payload length exceeded [`MAX_PAYLOAD`].
    OversizedPayload(u32),
    /// Checksum mismatch (corruption).
    BadChecksum {
        /// Checksum carried in the header.
        expected: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
    /// Header or payload decode failure.
    Wire(WireError),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            PacketError::BadVersion(v) => write!(f, "unsupported version {v}"),
            PacketError::OversizedPayload(n) => write!(f, "payload of {n} bytes exceeds bound"),
            PacketError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#010x}, computed {actual:#010x}"
                )
            }
            PacketError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for PacketError {}

impl From<WireError> for PacketError {
    fn from(e: WireError) -> Self {
        PacketError::Wire(e)
    }
}

impl Packet {
    /// A one-way message.
    pub fn oneway(mtype: u16, payload: impl Into<Payload>) -> Self {
        Packet {
            mtype,
            flags: 0,
            corr_id: 0,
            payload: payload.into(),
        }
    }

    /// A request expecting a response under `corr_id`.
    pub fn request(mtype: u16, corr_id: u64, payload: impl Into<Payload>) -> Self {
        Packet {
            mtype,
            flags: flags::REQUEST,
            corr_id,
            payload: payload.into(),
        }
    }

    /// The response to `req`, carrying the same type block and correlation.
    pub fn response_to(req: &Packet, payload: impl Into<Payload>) -> Self {
        Packet {
            mtype: req.mtype,
            flags: flags::RESPONSE,
            corr_id: req.corr_id,
            payload: payload.into(),
        }
    }

    /// Whether the REQUEST flag is set.
    pub fn is_request(&self) -> bool {
        self.flags & flags::REQUEST != 0
    }

    /// Whether the RESPONSE flag is set.
    pub fn is_response(&self) -> bool {
        self.flags & flags::RESPONSE != 0
    }

    /// Decode the payload as a typed body.
    pub fn body<T: WireDecode>(&self) -> Result<T, WireError> {
        T::from_wire(&self.payload)
    }

    /// Serialize header + payload for a byte stream.
    pub fn to_stream_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        MAGIC.encode(&mut out);
        VERSION.encode(&mut out);
        self.flags.encode(&mut out);
        self.mtype.encode(&mut out);
        self.corr_id.encode(&mut out);
        (self.payload.len() as u32).encode(&mut out);
        0u32.encode(&mut out); // checksum placeholder
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out);
        out[20..24].copy_from_slice(&crc.to_be_bytes());
        out
    }

    /// Serialize for in-simulator transport: header without magic/crc (the
    /// simulated kernel delivers whole records, so framing is not needed,
    /// but flags and correlation must still travel). Returned as a shared
    /// [`Payload`] so a fan-out (build once, send to N peers) serializes
    /// exactly once.
    pub fn to_sim_payload(&self) -> Payload {
        Payload::build(9 + self.payload.len(), |out| {
            self.flags.encode(out);
            self.corr_id.encode(out);
            out.extend_from_slice(&self.payload);
        })
    }

    /// Inverse of [`Packet::to_sim_payload`]. Zero-copy: the returned
    /// packet's payload is a sub-slice view of `bytes`' buffer.
    pub fn from_sim_payload(mtype: u16, bytes: &Payload) -> Result<Self, PacketError> {
        let mut r = WireReader::new(bytes);
        let flags = u8::decode(&mut r)?;
        let corr_id = u64::decode(&mut r)?;
        // flags (1) + corr_id (8) decoded: the rest is the body.
        let payload = bytes.slice_from(9);
        Ok(Packet {
            mtype,
            flags,
            corr_id,
            payload,
        })
    }
}

/// Incremental stream framer: feed arbitrary byte chunks, pop whole
/// packets. Survives packets split across reads and multiple packets per
/// read — the realities of stream sockets the paper's packet layer existed
/// to hide.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already framed; dropped on the next `feed`.
    start: usize,
}

impl FrameReader {
    /// Empty framer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes, first dropping the ones already
    /// framed (one move of the unread tail per read, not per packet).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..std::mem::take(&mut self.start));
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Try to pop one complete packet. `Ok(None)` means more bytes are
    /// needed; errors are unrecoverable for the stream (the connection
    /// should be dropped, as a 1998 TCP peer would).
    pub fn next_packet(&mut self) -> Result<Option<Packet>, PacketError> {
        let buf = &self.buf[self.start..];
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let mut r = WireReader::new(buf);
        let magic = u32::decode(&mut r)?;
        if magic != MAGIC {
            return Err(PacketError::BadMagic(magic));
        }
        let version = u8::decode(&mut r)?;
        if version != VERSION {
            return Err(PacketError::BadVersion(version));
        }
        let flags = u8::decode(&mut r)?;
        let mtype = u16::decode(&mut r)?;
        let corr_id = u64::decode(&mut r)?;
        let payload_len = u32::decode(&mut r)?;
        if payload_len > MAX_PAYLOAD {
            return Err(PacketError::OversizedPayload(payload_len));
        }
        let expected_crc = u32::decode(&mut r)?;
        let total = HEADER_LEN + payload_len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        // Verify checksum over header-with-zeroed-crc + payload, in place.
        let actual = crc32_update(!0, &buf[..20]);
        let actual = crc32_update(actual, &[0; 4]);
        let actual = !crc32_update(actual, &buf[24..total]);
        if actual != expected_crc {
            return Err(PacketError::BadChecksum {
                expected: expected_crc,
                actual,
            });
        }
        let payload = Payload::from(&buf[HEADER_LEN..total]);
        self.start += total;
        Ok(Some(Packet {
            mtype,
            flags,
            corr_id,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Packet {
        Packet::request(mtype::APP_BASE + 1, 99, b"workunit-7".to_vec())
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn stream_round_trip() {
        let p = sample();
        let bytes = p.to_stream_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 10);
        let mut fr = FrameReader::new();
        fr.feed(&bytes);
        let got = fr.next_packet().unwrap().unwrap();
        assert_eq!(got, p);
        assert!(fr.next_packet().unwrap().is_none());
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn sim_round_trip() {
        let p = sample();
        let bytes = p.to_sim_payload();
        let got = Packet::from_sim_payload(p.mtype, &bytes).unwrap();
        assert_eq!(got, p);
        // Decode is zero-copy: the body is a view into the sim buffer.
        assert!(bytes.is_shared());
    }

    #[test]
    fn framer_handles_byte_at_a_time_delivery() {
        let p = sample();
        let bytes = p.to_stream_bytes();
        let mut fr = FrameReader::new();
        let mut got = None;
        for &b in &bytes {
            fr.feed(&[b]);
            if let Some(pkt) = fr.next_packet().unwrap() {
                assert!(got.is_none());
                got = Some(pkt);
            }
        }
        assert_eq!(got.unwrap(), p);
    }

    #[test]
    fn framer_handles_coalesced_packets() {
        let a = Packet::oneway(1, b"aaa".to_vec());
        let b = Packet::oneway(2, b"bbbbbb".to_vec());
        let c = Packet::oneway(3, Vec::new());
        let mut stream = a.to_stream_bytes();
        stream.extend(b.to_stream_bytes());
        stream.extend(c.to_stream_bytes());
        let mut fr = FrameReader::new();
        fr.feed(&stream);
        assert_eq!(fr.next_packet().unwrap().unwrap(), a);
        assert_eq!(fr.next_packet().unwrap().unwrap(), b);
        assert_eq!(fr.next_packet().unwrap().unwrap(), c);
        assert!(fr.next_packet().unwrap().is_none());
    }

    #[test]
    fn corruption_detected() {
        let p = sample();
        let mut bytes = p.to_stream_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut fr = FrameReader::new();
        fr.feed(&bytes);
        assert!(matches!(
            fr.next_packet().unwrap_err(),
            PacketError::BadChecksum { .. }
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let p = sample();
        let mut bytes = p.to_stream_bytes();
        bytes[0] = 0;
        let mut fr = FrameReader::new();
        fr.feed(&bytes);
        assert!(matches!(
            fr.next_packet().unwrap_err(),
            PacketError::BadMagic(_)
        ));
    }

    #[test]
    fn bad_version_detected() {
        let p = sample();
        let mut bytes = p.to_stream_bytes();
        bytes[4] = 99;
        let mut fr = FrameReader::new();
        fr.feed(&bytes);
        assert_eq!(fr.next_packet().unwrap_err(), PacketError::BadVersion(99));
    }

    #[test]
    fn oversized_payload_rejected_before_buffering() {
        let mut bytes = Vec::new();
        MAGIC.encode(&mut bytes);
        VERSION.encode(&mut bytes);
        0u8.encode(&mut bytes);
        7u16.encode(&mut bytes);
        0u64.encode(&mut bytes);
        (MAX_PAYLOAD + 1).encode(&mut bytes);
        0u32.encode(&mut bytes);
        let mut fr = FrameReader::new();
        fr.feed(&bytes);
        assert!(matches!(
            fr.next_packet().unwrap_err(),
            PacketError::OversizedPayload(_)
        ));
    }

    #[test]
    fn request_response_flags() {
        let req = Packet::request(7, 42, vec![]);
        assert!(req.is_request() && !req.is_response());
        let resp = Packet::response_to(&req, b"ok".to_vec());
        assert!(resp.is_response() && !resp.is_request());
        assert_eq!(resp.corr_id, 42);
        assert_eq!(resp.mtype, 7);
    }

    #[test]
    fn typed_body_round_trip() {
        let body = ("sdsc".to_string(), 42u64, 2.5f64);
        let p = Packet::oneway(9, crate::wire::WireEncode::to_wire(&body));
        assert_eq!(p.body::<(String, u64, f64)>().unwrap(), body);
    }

    proptest! {
        #[test]
        fn prop_stream_round_trip(
            mtype_v: u16,
            flags_v in 0u8..8,
            corr: u64,
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let p = Packet { mtype: mtype_v, flags: flags_v, corr_id: corr, payload: payload.into() };
            let mut fr = FrameReader::new();
            fr.feed(&p.to_stream_bytes());
            prop_assert_eq!(fr.next_packet().unwrap().unwrap(), p);
        }

        #[test]
        fn prop_framer_survives_arbitrary_splits(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..6),
            split in 1usize..64,
        ) {
            let packets: Vec<Packet> = payloads
                .into_iter()
                .enumerate()
                .map(|(i, pl)| Packet::oneway(i as u16, pl))
                .collect();
            let mut stream = Vec::new();
            for p in &packets {
                stream.extend(p.to_stream_bytes());
            }
            let mut fr = FrameReader::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(split) {
                fr.feed(chunk);
                while let Some(p) = fr.next_packet().unwrap() {
                    got.push(p);
                }
            }
            prop_assert_eq!(got, packets);
        }

        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut fr = FrameReader::new();
            fr.feed(&bytes);
            while let Ok(Some(_)) = fr.next_packet() {}
        }
    }
}
