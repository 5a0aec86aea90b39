//! Property-based tests of the journal codec: encode/decode round-trip
//! identity over arbitrary records, and *detection* (never silent
//! acceptance of different state) for every single-bit flip and every
//! truncation point of every encoding.

use ekbd_journal::{BootPath, EdgeRecord, JournalRecord, ResyncPath};
use proptest::prelude::*;

/// Strategy: an arbitrary journal record. The vendored proptest shim has
/// no `bool` strategy, so boolean fields are drawn as 0/1 integers and
/// enums from small integer ranges.
fn record() -> impl Strategy<Value = JournalRecord> {
    let edge =
        (0u32..64, 0u64..1_000, 0u8..0x40, 0u8..16).prop_map(|(peer, peer_inc, flags, sync)| {
            EdgeRecord {
                peer,
                peer_inc,
                flags,
                synced: sync & 1 != 0,
                resume_pending: sync & 2 != 0,
                resync: match sync >> 2 {
                    1 => ResyncPath::Resumed,
                    2 => ResyncPath::Rejoined,
                    3 => ResyncPath::StaleRefuted,
                    _ => ResyncPath::None,
                },
            }
        });
    (
        (0u64..100_000, 0u64..100_000, 0u64..10_000),
        0u8..3,
        0u8..2,
        0u8..5,
        proptest::collection::vec(edge, 0..12),
    )
        .prop_map(
            |((seq, tick, incarnation), phase, doorway, boot, edges)| JournalRecord {
                seq,
                tick,
                incarnation,
                phase,
                doorway: doorway == 1,
                boot: match boot {
                    1 => BootPath::Journal,
                    2 => BootPath::BlankMissing,
                    3 => BootPath::BlankCorrupt,
                    4 => BootPath::BlankDisabled,
                    _ => BootPath::Genesis,
                },
                edges,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip identity: decode(encode(r)) == r for arbitrary states.
    #[test]
    fn round_trip_identity(r in record()) {
        let bytes = r.encode();
        let back = JournalRecord::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, r);
    }

    /// Single-bit rot anywhere in the encoding is always *detected*: the
    /// decoder either errors or — never — silently accepts different
    /// state. (The CRC makes acceptance of changed bytes impossible.)
    #[test]
    fn every_single_bit_flip_is_detected(r in record()) {
        let bytes = r.encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut rotted = bytes.clone();
                rotted[i] ^= 1 << bit;
                match JournalRecord::decode(&rotted) {
                    Err(_) => {}
                    Ok(decoded) => prop_assert_eq!(
                        &decoded,
                        &r,
                        "flip at byte {} bit {} silently accepted as different state",
                        i,
                        bit
                    ),
                }
            }
        }
    }

    /// A torn write (any proper prefix) is always rejected: the declared
    /// edge count fixes the exact record length, so no truncation point
    /// can decode.
    #[test]
    fn every_truncation_point_is_detected(r in record()) {
        let bytes = r.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                JournalRecord::decode(&bytes[..cut]).is_err(),
                "truncation to {} of {} bytes decoded",
                cut,
                bytes.len()
            );
        }
    }

    /// Appended garbage is likewise structurally rejected.
    #[test]
    fn trailing_garbage_is_detected(r in record(), extra in 1usize..16, fill in 0u8..=255) {
        let mut bytes = r.encode();
        bytes.extend(std::iter::repeat_n(fill, extra));
        prop_assert!(JournalRecord::decode(&bytes).is_err());
    }

    /// The cheap header peek agrees with the full decode on every valid
    /// encoding (the store's compaction classifier never disagrees with
    /// recovery's validated view).
    #[test]
    fn peek_agrees_with_decode(r in record()) {
        let bytes = r.encode();
        let meta = ekbd_journal::codec::peek(&bytes).expect("valid record peeks");
        prop_assert_eq!(meta.seq, r.seq);
        prop_assert_eq!(meta.tick, r.tick);
        prop_assert_eq!(meta.incarnation, r.incarnation);
    }

    /// The table-driven `crc32` is the bit-serial CRC it replaced, on
    /// inputs of every length the two codecs produce and beyond, and on
    /// every length 0..=17: each remainder of the eight-byte step, with
    /// zero, one and two whole steps before it.
    #[test]
    fn table_crc32_equals_the_bit_serial_loop(
        data in proptest::collection::vec(0u8..=255, 0..300),
        short in proptest::collection::vec(0u8..=255, 17..18),
    ) {
        prop_assert_eq!(ekbd_journal::codec::crc32(&data), crc32_bit_serial(&data));
        for len in 0..=17 {
            let prefix = &short[..len];
            prop_assert_eq!(ekbd_journal::codec::crc32(prefix), crc32_bit_serial(prefix), "length {}", len);
        }
    }
}

/// The reference: CRC-32 (zlib polynomial, reflected) one bit at a time,
/// as the codec computed it before the table.
fn crc32_bit_serial(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}
