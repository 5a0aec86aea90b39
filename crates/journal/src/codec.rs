//! The journal record and its paranoid byte codec.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "EKJ2"
//! 4       8     seq (u64): monotone commit sequence number
//! 12      8     tick (u64): commit-time tick (sim time / runtime ms)
//! 20      8     incarnation (u64)
//! 28      1     phase/doorway byte: bits 0-1 phase, bit 2 doorway
//! 29      1     boot byte: how this incarnation booted (BootPath)
//! 30      2     edge count n (u16)
//! 32      14*n  edge records: peer u32 | peer_inc u64 | flags u8 | sync u8
//! 32+14n  4     CRC-32 (ISO-HDLC) over bytes [0, 32+14n)
//! ```
//!
//! The per-edge sync byte packs bit 0 = synced, bit 1 = resume pending,
//! bits 2-3 = the resync path this edge took after the incarnation's
//! restart ([`ResyncPath`]); the high nibble must be zero.
//!
//! [`JournalRecord::decode`] rejects, with a typed error, every framing
//! violation: wrong magic, any length that does not exactly match the
//! declared edge count, a checksum mismatch, and out-of-range phase,
//! boot, flag, or sync bytes. Because the CRC covers every byte before it
//! and the length is fully determined by the edge-count field, *every*
//! single-bit flip and *every* proper truncation of a valid encoding is
//! detected — the property the codec proptests pin down.

/// The four magic bytes opening every record.
pub const MAGIC: [u8; 4] = *b"EKJ2";

/// Per-edge flag bits carried by an [`EdgeRecord`]; matches the dining
/// layer's bit-packed per-neighbor variables (6 bits used).
pub const FLAG_MASK: u8 = 0x3F;

const HEADER_LEN: usize = 32;
const EDGE_LEN: usize = 14;
const CRC_LEN: usize = 4;

/// How an incarnation came up: replayed from the journal, or blank (and
/// why). Journaled in the header so a post-mortem replay can tell the
/// restart paths apart without the live restart log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootPath {
    /// First boot of the process — nothing to replay.
    Genesis,
    /// The journal decoded and was replayed.
    Journal,
    /// Journaling enabled but no record existed on stable storage.
    BlankMissing,
    /// A record existed but failed validation; rebooted blank.
    BlankCorrupt,
    /// Journaling disabled; every restart is blank by construction.
    BlankDisabled,
}

impl BootPath {
    fn as_u8(self) -> u8 {
        match self {
            BootPath::Genesis => 0,
            BootPath::Journal => 1,
            BootPath::BlankMissing => 2,
            BootPath::BlankCorrupt => 3,
            BootPath::BlankDisabled => 4,
        }
    }

    fn from_u8(b: u8) -> Option<BootPath> {
        Some(match b {
            0 => BootPath::Genesis,
            1 => BootPath::Journal,
            2 => BootPath::BlankMissing,
            3 => BootPath::BlankCorrupt,
            4 => BootPath::BlankDisabled,
            _ => return None,
        })
    }
}

impl core::fmt::Display for BootPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            BootPath::Genesis => "genesis",
            BootPath::Journal => "journal",
            BootPath::BlankMissing => "blank (missing)",
            BootPath::BlankCorrupt => "blank (corrupt)",
            BootPath::BlankDisabled => "blank (disabled)",
        })
    }
}

/// How one edge regained synchronization after this incarnation's
/// restart, as journaled in the per-edge sync byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResyncPath {
    /// No resync this incarnation (genesis, or still unsynced).
    #[default]
    None,
    /// Fast-resumed: the peer confirmed the replayed journal state.
    Resumed,
    /// Renegotiated from scratch via the rejoin handshake.
    Rejoined,
    /// The resume was refuted by sequence comparison (stale snapshot
    /// detected), then renegotiated.
    StaleRefuted,
}

impl ResyncPath {
    fn as_u8(self) -> u8 {
        match self {
            ResyncPath::None => 0,
            ResyncPath::Resumed => 1,
            ResyncPath::Rejoined => 2,
            ResyncPath::StaleRefuted => 3,
        }
    }

    fn from_u8(b: u8) -> ResyncPath {
        match b & 0x03 {
            1 => ResyncPath::Resumed,
            2 => ResyncPath::Rejoined,
            3 => ResyncPath::StaleRefuted,
            _ => ResyncPath::None,
        }
    }
}

impl core::fmt::Display for ResyncPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            ResyncPath::None => "none",
            ResyncPath::Resumed => "resumed",
            ResyncPath::Rejoined => "rejoined",
            ResyncPath::StaleRefuted => "stale-refuted",
        })
    }
}

/// Journaled state of one conflict edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Index of the neighbor on this edge.
    pub peer: u32,
    /// Last incarnation of the neighbor this process had synchronized
    /// with when the record was committed.
    pub peer_inc: u64,
    /// The bit-packed per-edge dining variables (fork, token, deferred,
    /// ping/ack/replied session bits); only the low 6 bits are valid.
    pub flags: u8,
    /// Whether the edge was synchronized (not suppressed) at commit time.
    pub synced: bool,
    /// Whether a `JournalResume` answer was still outstanding.
    pub resume_pending: bool,
    /// How the edge resynced after this incarnation's restart.
    pub resync: ResyncPath,
}

/// One committed write-ahead record: the full recoverable state of a
/// diner at the instant a state transition completed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotone commit sequence number (1 for the first commit; survives
    /// restarts — a replayed incarnation continues where the record left
    /// off, so a stale snapshot is exposed by a seq the peers have
    /// already seen surpassed).
    pub seq: u64,
    /// Tick at commit time (virtual sim time, or runtime milliseconds).
    pub tick: u64,
    /// The incarnation that committed this record.
    pub incarnation: u64,
    /// Dining phase at commit time: 0 thinking, 1 hungry, 2 eating.
    pub phase: u8,
    /// Whether the process was inside the doorway at commit time.
    pub doorway: bool,
    /// How this incarnation booted.
    pub boot: BootPath,
    /// Per-edge state, one entry per conflict neighbor.
    pub edges: Vec<EdgeRecord>,
}

/// Header fields readable without full validation; see [`peek`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordMeta {
    /// Commit sequence number.
    pub seq: u64,
    /// Commit-time tick.
    pub tick: u64,
    /// Committing incarnation.
    pub incarnation: u64,
}

/// Reads the seq/tick/incarnation header of a record without validating
/// the CRC — used by stores to classify retained records for milestone
/// compaction. `None` when the buffer is too short or the magic is wrong.
pub fn peek(bytes: &[u8]) -> Option<RecordMeta> {
    if bytes.len() < HEADER_LEN + CRC_LEN || bytes[0..4] != MAGIC {
        return None;
    }
    let u64_at = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(b)
    };
    Some(RecordMeta {
        seq: u64_at(4),
        tick: u64_at(12),
        incarnation: u64_at(20),
    })
}

/// Why a byte buffer was rejected by [`JournalRecord::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than the fixed header + checksum.
    TooShort,
    /// The magic bytes are wrong.
    BadMagic,
    /// The buffer length does not match the declared edge count (torn
    /// write, truncation, or appended garbage).
    LengthMismatch,
    /// The trailing CRC-32 does not match the payload.
    ChecksumMismatch,
    /// A semantic field is out of range (phase > 2, padding bits set,
    /// an unknown boot byte, flag bits above [`FLAG_MASK`], or sync-byte
    /// bits outside the low nibble).
    BadField,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            DecodeError::TooShort => "record shorter than header + checksum",
            DecodeError::BadMagic => "bad magic",
            DecodeError::LengthMismatch => "length does not match edge count",
            DecodeError::ChecksumMismatch => "CRC-32 mismatch",
            DecodeError::BadField => "field out of range",
        };
        write!(f, "journal decode failed: {what}")
    }
}

/// Slicing-by-8 tables, built at compile time. `CRC_TABLES[0][b]` is the
/// CRC register after eight bit-serial steps from `b` — the whole effect
/// of one input byte — and `CRC_TABLES[k][b]` is the effect of byte `b`
/// followed by `k` zero bytes, so eight lookups XOR to the effect of eight
/// bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (ISO-HDLC / zlib polynomial, reflected), eight bytes per step
/// (slicing-by-8) and one table load per byte for the tail. The wire
/// codec shares it, and there it runs six times per hungry → granted →
/// released cycle.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

impl JournalRecord {
    /// Serializes the record, appending the CRC-32 of everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + EDGE_LEN * self.edges.len() + CRC_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Appends the record to `out` — the allocation-free form of
    /// [`encode`](Self::encode), for a committer that reuses one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let n = self.edges.len();
        debug_assert!(n <= u16::MAX as usize, "degree exceeds journal format");
        let start = out.len();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&self.incarnation.to_le_bytes());
        out.push((self.phase & 0x03) | (u8::from(self.doorway) << 2));
        out.push(self.boot.as_u8());
        out.extend_from_slice(&(n as u16).to_le_bytes());
        for e in &self.edges {
            out.extend_from_slice(&e.peer.to_le_bytes());
            out.extend_from_slice(&e.peer_inc.to_le_bytes());
            out.push(e.flags & FLAG_MASK);
            out.push(
                u8::from(e.synced) | (u8::from(e.resume_pending) << 1) | (e.resync.as_u8() << 2),
            );
        }
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Deserializes and fully validates a record.
    ///
    /// Never panics on arbitrary input; every malformed buffer maps to a
    /// [`DecodeError`].
    pub fn decode(bytes: &[u8]) -> Result<JournalRecord, DecodeError> {
        if bytes.len() < HEADER_LEN + CRC_LEN {
            return Err(DecodeError::TooShort);
        }
        if bytes[0..4] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let n = u16::from_le_bytes([bytes[30], bytes[31]]) as usize;
        let expected = HEADER_LEN + EDGE_LEN * n + CRC_LEN;
        if bytes.len() != expected {
            return Err(DecodeError::LengthMismatch);
        }
        let body = &bytes[..expected - CRC_LEN];
        let stored = u32::from_le_bytes([
            bytes[expected - 4],
            bytes[expected - 3],
            bytes[expected - 2],
            bytes[expected - 1],
        ]);
        if crc32(body) != stored {
            return Err(DecodeError::ChecksumMismatch);
        }
        let u64_at = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let pd = bytes[28];
        if pd & !0x07 != 0 || pd & 0x03 > 2 {
            return Err(DecodeError::BadField);
        }
        let boot = BootPath::from_u8(bytes[29]).ok_or(DecodeError::BadField)?;
        let mut edges = Vec::with_capacity(n);
        for i in 0..n {
            let at = HEADER_LEN + EDGE_LEN * i;
            let peer = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
            let flags = bytes[at + 12];
            let sync = bytes[at + 13];
            if flags & !FLAG_MASK != 0 || sync > 0x0F {
                return Err(DecodeError::BadField);
            }
            edges.push(EdgeRecord {
                peer,
                peer_inc: u64_at(at + 4),
                flags,
                synced: sync & 0x01 != 0,
                resume_pending: sync & 0x02 != 0,
                resync: ResyncPath::from_u8(sync >> 2),
            });
        }
        Ok(JournalRecord {
            seq: u64_at(4),
            tick: u64_at(12),
            incarnation: u64_at(20),
            phase: pd & 0x03,
            doorway: pd & 0x04 != 0,
            boot,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JournalRecord {
        JournalRecord {
            seq: 57,
            tick: 1_234,
            incarnation: 3,
            phase: 1,
            doorway: true,
            boot: BootPath::Journal,
            edges: vec![
                EdgeRecord {
                    peer: 1,
                    peer_inc: 0,
                    flags: 0x30,
                    synced: true,
                    resume_pending: false,
                    resync: ResyncPath::Resumed,
                },
                EdgeRecord {
                    peer: 7,
                    peer_inc: 2,
                    flags: 0x09,
                    synced: false,
                    resume_pending: true,
                    resync: ResyncPath::None,
                },
                EdgeRecord {
                    peer: 2,
                    peer_inc: 5,
                    flags: 0x02,
                    synced: true,
                    resume_pending: false,
                    resync: ResyncPath::StaleRefuted,
                },
            ],
        }
    }

    #[test]
    fn round_trip_identity() {
        let r = sample();
        assert_eq!(JournalRecord::decode(&r.encode()), Ok(r));
    }

    #[test]
    fn empty_edge_list_round_trips() {
        let r = JournalRecord {
            seq: 1,
            tick: 0,
            incarnation: 0,
            phase: 0,
            doorway: false,
            boot: BootPath::Genesis,
            edges: vec![],
        };
        assert_eq!(JournalRecord::decode(&r.encode()), Ok(r));
    }

    #[test]
    fn every_boot_path_round_trips() {
        for boot in [
            BootPath::Genesis,
            BootPath::Journal,
            BootPath::BlankMissing,
            BootPath::BlankCorrupt,
            BootPath::BlankDisabled,
        ] {
            let r = JournalRecord { boot, ..sample() };
            assert_eq!(JournalRecord::decode(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut rotted = bytes.clone();
                rotted[i] ^= 1 << bit;
                assert!(
                    JournalRecord::decode(&rotted).is_err(),
                    "flip of byte {i} bit {bit} was silently accepted"
                );
            }
        }
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                JournalRecord::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes was silently accepted"
            );
        }
    }

    #[test]
    fn appended_garbage_is_detected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            JournalRecord::decode(&bytes),
            Err(DecodeError::LengthMismatch)
        );
    }

    /// Recomputes the trailing CRC so structural checks can be exercised
    /// without tripping the checksum first.
    fn refix(bytes: &mut [u8]) {
        let body_len = bytes.len() - CRC_LEN;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn unknown_boot_byte_is_rejected_structurally() {
        let mut bytes = sample().encode();
        bytes[29] = 5;
        refix(&mut bytes);
        assert_eq!(JournalRecord::decode(&bytes), Err(DecodeError::BadField));
    }

    #[test]
    fn high_sync_nibble_is_rejected_structurally() {
        let mut bytes = sample().encode();
        bytes[HEADER_LEN + 13] |= 0x10;
        refix(&mut bytes);
        assert_eq!(JournalRecord::decode(&bytes), Err(DecodeError::BadField));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_masks_out_of_range_inputs() {
        let r = JournalRecord {
            seq: 1,
            tick: 0,
            incarnation: 1,
            phase: 2,
            doorway: false,
            boot: BootPath::Genesis,
            edges: vec![EdgeRecord {
                peer: 0,
                peer_inc: 0,
                flags: 0xFF, // high bits must not survive the trip
                synced: true,
                resume_pending: false,
                resync: ResyncPath::None,
            }],
        };
        let back = JournalRecord::decode(&r.encode()).unwrap();
        assert_eq!(back.edges[0].flags, 0x3F);
    }

    #[test]
    fn peek_reads_header_without_validation() {
        let r = sample();
        let mut bytes = r.encode();
        let meta = peek(&bytes).unwrap();
        assert_eq!(meta.seq, r.seq);
        assert_eq!(meta.tick, r.tick);
        assert_eq!(meta.incarnation, r.incarnation);
        // peek ignores CRC damage past the header...
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(peek(&bytes), Some(meta));
        // ...but refuses wrong magic and short buffers.
        bytes[0] = b'X';
        assert_eq!(peek(&bytes), None);
        assert_eq!(peek(&[0u8; 8]), None);
    }
}
