//! EKN1 — the length-framed, CRC-covered wire codec.
//!
//! Grown from the EKJ2 journal framing (same CRC-32, same
//! fixed-little-endian discipline, same refuse-don't-guess decoding): every
//! frame is
//!
//! ```text
//! offset  size  field
//! 0       4     magic "EKN1"
//! 4       2     body length (u16 LE) — type byte + payload
//! 6       1     frame type
//! 7       L-1   payload (fixed layout per type)
//! 6+L     4     CRC-32 (LE) over bytes [0, 6+L)
//! ```
//!
//! The checksum covers the header too, so a corrupted length field cannot
//! redirect the CRC check to attacker-chosen bytes: the frame either
//! verifies exactly as framed or is rejected. Decoding is *streaming* —
//! [`decode_frame`] distinguishes "not enough bytes yet" (`Ok(None)`) from
//! malformed input (`Err`), and a server drops the connection on the
//! latter, never panicking.

use ekbd_journal::codec::crc32;
use std::fmt;

/// Frame magic: EKBD net, format 1.
pub const MAGIC: [u8; 4] = *b"EKN1";

/// Hard cap on the body (type + payload) of any frame. The largest
/// legitimate body is a [`Frame::Granted`] or [`Frame::Released`] at 13
/// bytes; the cap bounds what a hostile length field can make the server
/// buffer.
pub const MAX_BODY: usize = 64;

/// Frame-level overhead: magic + length + trailing CRC.
pub const OVERHEAD: usize = 4 + 2 + 4;

/// How an admission was satisfied, carried in [`Frame::Bound`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitPath {
    /// First binding of this process: no prior session existed.
    Fresh,
    /// Readmission of a process whose detached slot still exists. A
    /// crashed process rode the `JournalResume` fast path — it replayed
    /// its journal and kept (most of) its edge state; one that detached
    /// without crashing lost nothing.
    Resumed,
    /// Reconnect fell back to a blank restart + rejoin handshake.
    Rejoined,
}

impl AdmitPath {
    fn to_byte(self) -> u8 {
        match self {
            AdmitPath::Fresh => 0,
            AdmitPath::Resumed => 1,
            AdmitPath::Rejoined => 2,
        }
    }

    fn from_byte(b: u8) -> Option<AdmitPath> {
        match b {
            0 => Some(AdmitPath::Fresh),
            1 => Some(AdmitPath::Resumed),
            2 => Some(AdmitPath::Rejoined),
            _ => None,
        }
    }
}

impl fmt::Display for AdmitPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitPath::Fresh => write!(f, "fresh"),
            AdmitPath::Resumed => write!(f, "resumed"),
            AdmitPath::Rejoined => write!(f, "rejoined"),
        }
    }
}

/// Reject code: the process id is outside the served graph.
pub const REJECT_BAD_PROCESS: u8 = 2;
/// Reject code: the process is already bound to a live connection.
pub const REJECT_ALREADY_BOUND: u8 = 3;
/// Reject code: the admission cap is reached. The refusal carries the
/// server's retry hint.
pub const REJECT_BUSY: u8 = 4;

/// One protocol frame. Timestamps are milliseconds on the *server's*
/// runtime epoch, so client-side subtraction yields server-side spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: the named bound process wants to eat. The process
    /// tag lets one multiplexed connection speak for several sessions.
    Hungry {
        /// Which bound process is hungry.
        process: u32,
    },
    /// Server → client: the daemon scheduled the session — it is eating.
    Granted {
        /// Which bound process the grant is for.
        process: u32,
        /// Server-epoch milliseconds when eating began.
        at_ms: u64,
    },
    /// Server → client: the eating session ended; the process thinks.
    Released {
        /// Which bound process was released.
        process: u32,
        /// Server-epoch milliseconds when eating stopped.
        at_ms: u64,
    },
    /// Heartbeat probe (either direction).
    Ping {
        /// Echoed verbatim in the matching [`Frame::Pong`].
        nonce: u32,
    },
    /// Heartbeat reply (either direction).
    Pong {
        /// The probe nonce being answered.
        nonce: u32,
    },
    /// Graceful goodbye: unbind without crashing the process.
    Bye,
    /// Client → server: bind a dining process onto this connection — the
    /// one admission there is. A connection's first frame is a `Bind`;
    /// any number may follow (gateway/proxy multiplexing). Answered with
    /// [`Frame::Bound`] or [`Frame::BindReject`]; requests for the process
    /// must wait for its `Bound`, since a `Hungry` for a process whose
    /// bind is still in flight closes the connection as a protocol error.
    Bind {
        /// The dining process to bind.
        process: u32,
    },
    /// Client → server: gracefully release one binding made with
    /// [`Frame::Bind`] ([`Frame::Bye`] releases them all). Answered with
    /// [`Frame::Unbound`].
    Unbind {
        /// The process to unbind.
        process: u32,
    },
    /// Server → client: the [`Frame::Bind`] succeeded.
    Bound {
        /// The process now bound.
        process: u32,
        /// How the binding was satisfied.
        path: AdmitPath,
    },
    /// Server → client: the [`Frame::Bind`] was refused (a `REJECT_*`
    /// code). The connection and its other bindings stay up; a
    /// connection left with nothing bound and no admission in flight is
    /// closed once the refusal is written.
    BindReject {
        /// The process whose bind was refused.
        process: u32,
        /// Machine-readable refusal code.
        code: u8,
        /// The server's backoff hint in milliseconds for [`REJECT_BUSY`];
        /// 0 for every other code.
        retry_after_ms: u32,
    },
    /// Server → client: the [`Frame::Unbind`] completed; the process was
    /// detached gracefully (not crashed).
    Unbound {
        /// The process now unbound.
        process: u32,
    },
}

// Types 1–5 are unassigned (a retired handshake used them) and decode as
// `BadType`.
const T_HUNGRY: u8 = 6;
const T_GRANTED: u8 = 7;
const T_RELEASED: u8 = 8;
const T_PING: u8 = 9;
const T_PONG: u8 = 10;
const T_BYE: u8 = 11;
const T_BIND: u8 = 12;
const T_UNBIND: u8 = 13;
const T_BOUND: u8 = 14;
const T_BIND_REJECT: u8 = 15;
const T_UNBOUND: u8 = 16;

/// Why a byte sequence failed to decode as a frame. Mirrors the journal
/// codec's refuse-don't-guess posture: any of these closes the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The length field is zero or exceeds [`MAX_BODY`].
    BadLength(u16),
    /// The trailing CRC does not match the framed bytes.
    ChecksumMismatch,
    /// Unknown frame-type byte.
    BadType(u8),
    /// The payload length does not match the frame type's layout, or a
    /// field holds an unrepresentable value.
    BadPayload(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadLength(l) => write!(f, "bad frame length {l}"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::BadType(t) => write!(f, "unknown frame type {t}"),
            WireError::BadPayload(t) => write!(f, "malformed payload for frame type {t}"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Encodes `frame` as one EKN1 wire frame.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(OVERHEAD + 24);
    encode_frame_into(frame, &mut out);
    out
}

/// Appends `frame` to `out` as one EKN1 wire frame — the allocation-free
/// form of [`encode_frame`], for a writer that batches frames into one
/// buffer.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    // Body length, patched once the body is written.
    out.extend_from_slice(&[0, 0]);
    match frame {
        Frame::Hungry { process } => {
            out.push(T_HUNGRY);
            put_u32(out, *process);
        }
        Frame::Granted { process, at_ms } => {
            out.push(T_GRANTED);
            put_u32(out, *process);
            put_u64(out, *at_ms);
        }
        Frame::Released { process, at_ms } => {
            out.push(T_RELEASED);
            put_u32(out, *process);
            put_u64(out, *at_ms);
        }
        Frame::Ping { nonce } => {
            out.push(T_PING);
            put_u32(out, *nonce);
        }
        Frame::Pong { nonce } => {
            out.push(T_PONG);
            put_u32(out, *nonce);
        }
        Frame::Bye => out.push(T_BYE),
        Frame::Bind { process } => {
            out.push(T_BIND);
            put_u32(out, *process);
        }
        Frame::Unbind { process } => {
            out.push(T_UNBIND);
            put_u32(out, *process);
        }
        Frame::Bound { process, path } => {
            out.push(T_BOUND);
            put_u32(out, *process);
            out.push(path.to_byte());
        }
        Frame::BindReject {
            process,
            code,
            retry_after_ms,
        } => {
            out.push(T_BIND_REJECT);
            put_u32(out, *process);
            out.push(*code);
            put_u32(out, *retry_after_ms);
        }
        Frame::Unbound { process } => {
            out.push(T_UNBOUND);
            put_u32(out, *process);
        }
    }
    let body = out.len() - start - 6;
    debug_assert!(body > 0 && body <= MAX_BODY);
    out[start + 4..start + 6].copy_from_slice(&(body as u16).to_le_bytes());
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

fn parse_body(body: &[u8]) -> Result<Frame, WireError> {
    let t = body[0];
    let p = &body[1..];
    let expect = |n: usize| -> Result<(), WireError> {
        if p.len() == n {
            Ok(())
        } else {
            Err(WireError::BadPayload(t))
        }
    };
    match t {
        T_HUNGRY => {
            expect(4)?;
            Ok(Frame::Hungry {
                process: get_u32(p),
            })
        }
        T_GRANTED => {
            expect(12)?;
            Ok(Frame::Granted {
                process: get_u32(p),
                at_ms: get_u64(&p[4..]),
            })
        }
        T_RELEASED => {
            expect(12)?;
            Ok(Frame::Released {
                process: get_u32(p),
                at_ms: get_u64(&p[4..]),
            })
        }
        T_PING => {
            expect(4)?;
            Ok(Frame::Ping { nonce: get_u32(p) })
        }
        T_PONG => {
            expect(4)?;
            Ok(Frame::Pong { nonce: get_u32(p) })
        }
        T_BYE => {
            expect(0)?;
            Ok(Frame::Bye)
        }
        T_BIND => {
            expect(4)?;
            Ok(Frame::Bind {
                process: get_u32(p),
            })
        }
        T_UNBIND => {
            expect(4)?;
            Ok(Frame::Unbind {
                process: get_u32(p),
            })
        }
        T_BOUND => {
            expect(5)?;
            let path = AdmitPath::from_byte(p[4]).ok_or(WireError::BadPayload(t))?;
            Ok(Frame::Bound {
                process: get_u32(p),
                path,
            })
        }
        T_BIND_REJECT => {
            expect(9)?;
            Ok(Frame::BindReject {
                process: get_u32(p),
                code: p[4],
                retry_after_ms: get_u32(&p[5..]),
            })
        }
        T_UNBOUND => {
            expect(4)?;
            Ok(Frame::Unbound {
                process: get_u32(p),
            })
        }
        other => Err(WireError::BadType(other)),
    }
}

/// Streaming decode: tries to read one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete, checksum-verified frame;
///   the caller drains `consumed` bytes and may call again for the next.
/// * `Ok(None)` — `buf` is a valid proper prefix; read more bytes.
/// * `Err(_)` — `buf` can never become a valid frame; close the session.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    // Reject a wrong magic as soon as the bytes diverge — a garbage
    // stream is detected at its first byte, not after MAX_BODY of them.
    let probe = buf.len().min(4);
    if buf[..probe] != MAGIC[..probe] {
        return Err(WireError::BadMagic);
    }
    if buf.len() < 6 {
        return Ok(None);
    }
    let len = u16::from_le_bytes([buf[4], buf[5]]);
    if len == 0 || len as usize > MAX_BODY {
        return Err(WireError::BadLength(len));
    }
    let total = 6 + len as usize + 4;
    if buf.len() < total {
        return Ok(None);
    }
    let framed = &buf[..6 + len as usize];
    let want = get_u32(&buf[6 + len as usize..total]);
    if crc32(framed) != want {
        return Err(WireError::ChecksumMismatch);
    }
    let frame = parse_body(&buf[6..6 + len as usize])?;
    Ok(Some((frame, total)))
}

/// The one accumulate → decode loop of the crate: socket bytes go in
/// with [`fill`](Self::fill), frames come out of
/// [`next_frame`](Self::next_frame) at a cursor, and the decoded prefix is
/// dropped once per socket read — never once per frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// `buf[at..end]` is received and not yet decoded; `buf[end..]` is
    /// room for the next read.
    buf: Vec<u8>,
    at: usize,
    end: usize,
}

impl FrameReader {
    /// Room offered to the first read, and the least ever offered.
    const MIN_ROOM: usize = 512;
    /// The buffer stops doubling here; undecoded bytes can still push it
    /// further, so a caller that stops decoding bounds
    /// [`buffered`](Self::buffered) itself.
    const MAX_ROOM: usize = 64 * 1024;

    /// An empty reader; allocates at the first read.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Decodes the next buffered frame: `Ok(None)` when what is buffered
    /// is a proper prefix, `Err` when it can never become a frame (as
    /// [`decode_frame`]).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some((frame, n)) = decode_frame(&self.buf[self.at..self.end])? else {
            return Ok(None);
        };
        self.at += n;
        Ok(Some(frame))
    }

    /// Reads once from `src` behind the undecoded bytes and returns what
    /// `read` returned (`Ok(0)` is end of stream). A read that fills all
    /// the room doubles it for the next, so a busy connection grows
    /// towards [`MAX_ROOM`](Self::MAX_ROOM) and an idle one stays small.
    pub fn fill(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        if self.at > 0 {
            self.buf.copy_within(self.at..self.end, 0);
            self.end -= self.at;
            self.at = 0;
        }
        if self.buf.len() - self.end < Self::MIN_ROOM {
            self.buf.resize(self.end + Self::MIN_ROOM, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        if self.end == self.buf.len() && self.buf.len() < Self::MAX_ROOM {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        Ok(n)
    }

    /// Bytes received and not yet decoded.
    pub fn buffered(&self) -> usize {
        self.end - self.at
    }

    /// Forgets everything buffered.
    pub fn clear(&mut self) {
        self.at = 0;
        self.end = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hungry { process: 2 },
            Frame::Granted {
                process: 2,
                at_ms: 123_456,
            },
            Frame::Released {
                process: u32::MAX,
                at_ms: u64::MAX - 1,
            },
            Frame::Ping { nonce: 9 },
            Frame::Pong { nonce: 9 },
            Frame::Bye,
            Frame::Bind { process: 17 },
            Frame::Unbind { process: 17 },
            Frame::Bound {
                process: 17,
                path: AdmitPath::Rejoined,
            },
            Frame::BindReject {
                process: 17,
                code: REJECT_BUSY,
                retry_after_ms: 250,
            },
            Frame::BindReject {
                process: 3,
                code: REJECT_ALREADY_BOUND,
                retry_after_ms: 0,
            },
            Frame::Unbound { process: 17 },
        ]
    }

    #[test]
    fn round_trips_every_frame_type() {
        for f in samples() {
            let bytes = encode_frame(&f);
            let (back, consumed) = decode_frame(&bytes).unwrap().expect("complete frame");
            assert_eq!(back, f);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn decodes_back_to_back_frames_from_one_buffer() {
        let mut buf = Vec::new();
        for f in samples() {
            buf.extend_from_slice(&encode_frame(&f));
        }
        let mut at = 0;
        let mut decoded = Vec::new();
        while at < buf.len() {
            let (f, n) = decode_frame(&buf[at..]).unwrap().expect("complete");
            decoded.push(f);
            at += n;
        }
        assert_eq!(decoded, samples());
    }

    #[test]
    fn every_truncation_point_is_incomplete_never_a_frame() {
        for f in samples() {
            let bytes = encode_frame(&f);
            for cut in 0..bytes.len() {
                let r = decode_frame(&bytes[..cut]);
                assert!(
                    !matches!(r, Ok(Some(_))),
                    "truncation at {cut}/{} of {f:?} produced a frame",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for f in samples() {
            let bytes = encode_frame(&f);
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    let r = decode_frame(&bad);
                    // A flip may leave the buffer looking incomplete (a
                    // grown length field) — that is detection too. What
                    // it may never do is yield a frame.
                    assert!(
                        !matches!(r, Ok(Some(_))),
                        "bit {bit} of byte {byte} in {f:?} survived"
                    );
                }
            }
        }
    }

    #[test]
    fn garbage_streams_are_rejected_at_the_first_divergent_byte() {
        assert_eq!(decode_frame(b"zzzz"), Err(WireError::BadMagic));
        assert_eq!(decode_frame(&[0u8; 64]), Err(WireError::BadMagic));
        // Diverging inside the magic is caught before 4 bytes arrive.
        assert_eq!(decode_frame(b"EKX"), Err(WireError::BadMagic));
        // A true prefix of the magic is just incomplete.
        assert_eq!(decode_frame(b"EK"), Ok(None));
        assert_eq!(decode_frame(b""), Ok(None));
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(decode_frame(&buf), Err(WireError::BadLength(0)));
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&(MAX_BODY as u16 + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&buf),
            Err(WireError::BadLength(MAX_BODY as u16 + 1))
        );
    }

    #[test]
    fn refixed_unknown_type_is_bad_type_not_checksum() {
        // Re-CRC a corrupted type byte: the checksum passes, so the type
        // check itself must catch it (defense in depth past the CRC).
        // Types 0–5 are unassigned as well as 17 and up.
        for t in [0, 1, 2, 3, 4, 5, 17, 200] {
            let mut bytes = encode_frame(&Frame::Bye);
            bytes[6] = t;
            let crc = crc32(&bytes[..bytes.len() - 4]);
            let n = bytes.len();
            bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(decode_frame(&bytes), Err(WireError::BadType(t)));
        }
    }

    #[test]
    fn refixed_bad_admit_path_is_rejected() {
        let mut bytes = encode_frame(&Frame::Bound {
            process: 1,
            path: AdmitPath::Fresh,
        });
        let n = bytes.len();
        bytes[n - 5] = 9; // the path byte, just before the CRC
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::BadPayload(14)));
    }

    /// One frame of each type, and its exact bytes on the wire: magic,
    /// body length, type, payload, CRC. A codec change that moves a byte
    /// of these moves what every deployed peer reads.
    fn pinned() -> Vec<(Frame, &'static str)> {
        vec![
            (
                Frame::Hungry { process: 2 },
                "454b4e31 0500 06 02000000 ec618482",
            ),
            (
                Frame::Granted {
                    process: 2,
                    at_ms: 123_456,
                },
                "454b4e31 0d00 07 02000000 40e2010000000000 5eae7ab6",
            ),
            (
                Frame::Released {
                    process: u32::MAX,
                    at_ms: u64::MAX - 1,
                },
                "454b4e31 0d00 08 ffffffff feffffffffffffff f97a2907",
            ),
            (
                Frame::Ping { nonce: 9 },
                "454b4e31 0500 09 09000000 3c71d5d7",
            ),
            (
                Frame::Pong { nonce: 9 },
                "454b4e31 0500 0a 09000000 ec0b7590",
            ),
            (Frame::Bye, "454b4e31 0100 0b 5cb584d7"),
            (
                Frame::Bind { process: 17 },
                "454b4e31 0500 0c 11000000 3c81988a",
            ),
            (
                Frame::Unbind { process: 17 },
                "454b4e31 0500 0d 11000000 8ca8f8b7",
            ),
            (
                Frame::Bound {
                    process: 17,
                    path: AdmitPath::Rejoined,
                },
                "454b4e31 0600 0e 11000000 02 4fccaed0",
            ),
            (
                Frame::BindReject {
                    process: 17,
                    code: REJECT_BUSY,
                    retry_after_ms: 250,
                },
                "454b4e31 0a00 0f 11000000 04 fa000000 3c9e8240",
            ),
            (
                Frame::Unbound { process: 17 },
                "454b4e31 0500 10 11000000 bffb882f",
            ),
        ]
    }

    #[test]
    fn session_frames_encode_to_their_pinned_bytes() {
        for (frame, literal) in pinned() {
            let hex: String = encode_frame(&frame)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, literal.replace(' ', ""), "{frame:?}");
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes), Ok(Some((frame, bytes.len()))));
        }
    }

    #[test]
    fn trailing_bytes_are_left_for_the_next_frame() {
        let mut bytes = encode_frame(&Frame::Hungry { process: 0 });
        bytes.extend_from_slice(b"EK"); // start of the next frame
        let (f, n) = decode_frame(&bytes).unwrap().expect("complete");
        assert_eq!(f, Frame::Hungry { process: 0 });
        assert_eq!(n, bytes.len() - 2);
    }
}
