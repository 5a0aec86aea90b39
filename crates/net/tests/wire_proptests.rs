//! Property-based tests of the EKN1 wire codec: encode ∘ decode identity
//! over arbitrary frames, plus exhaustive corruption sweeps — every
//! truncation point and every single-bit flip of every generated frame
//! must be *detected*, never decoded as a (different) frame. The
//! streaming [`FrameReader`] is held to the one-shot decoder over
//! arbitrary chunkings of arbitrary frame sequences.

use ekbd_net::wire::{decode_frame, encode_frame, AdmitPath, Frame, FrameReader, WireError};
use proptest::prelude::*;

/// Strategy: an arbitrary protocol frame. The vendored proptest shim has
/// no enum strategies, so the variant is drawn as a small integer and the
/// fields from full-width ranges.
fn frame() -> impl Strategy<Value = Frame> {
    (
        0u8..11,
        0u32..u32::MAX,
        0u64..u64::MAX,
        0u32..u32::MAX,
        0u8..3,
    )
        .prop_map(|(variant, small, wide, hint, path)| {
            let admit = match path {
                0 => AdmitPath::Fresh,
                1 => AdmitPath::Resumed,
                _ => AdmitPath::Rejoined,
            };
            match variant {
                0 => Frame::Hungry { process: small },
                1 => Frame::Granted {
                    process: small,
                    at_ms: wide,
                },
                2 => Frame::Released {
                    process: small,
                    at_ms: wide,
                },
                3 => Frame::Ping { nonce: small },
                4 => Frame::Pong { nonce: small },
                5 => Frame::Bye,
                6 => Frame::Bind { process: small },
                7 => Frame::Unbind { process: small },
                8 => Frame::Bound {
                    process: small,
                    path: admit,
                },
                9 => Frame::BindReject {
                    process: small,
                    code: path,
                    retry_after_ms: hint,
                },
                _ => Frame::Unbound { process: small },
            }
        })
}

/// What one-shot [`decode_frame`] makes of `bytes`, frame after frame:
/// the frames before the first error or incomplete tail, and that error.
fn decode_one_shot(mut bytes: &[u8]) -> (Vec<Frame>, Option<WireError>) {
    let mut frames = Vec::new();
    loop {
        match decode_frame(bytes) {
            Ok(Some((frame, n))) => {
                frames.push(frame);
                bytes = &bytes[n..];
            }
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

/// The same through a [`FrameReader`] fed `bytes` in chunks of the given
/// sizes (cycled), decoding as far as it can after every read.
fn decode_chunked(bytes: &[u8], chunks: &[usize]) -> (Vec<Frame>, Option<WireError>) {
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    let mut rest = bytes;
    for &size in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (mut chunk, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        while !chunk.is_empty() {
            reader
                .fill(&mut chunk)
                .expect("reading a slice cannot fail");
            loop {
                match reader.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(e) => return (frames, Some(e)),
                }
            }
        }
    }
    (frames, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// However the stream is cut into reads, the reader yields the frames
    /// of the one-shot decoder — and when one byte of the stream is
    /// corrupt, the same frames before it and the same verdict at it.
    #[test]
    fn reader_matches_one_shot_decoding_at_any_chunking(
        frames in proptest::collection::vec(frame(), 1..24),
        chunks in proptest::collection::vec(1usize..48, 1..8),
        rot in (0usize..usize::MAX, 0u8..8),
    ) {
        let mut bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let (decoded, error) = decode_chunked(&bytes, &chunks);
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(error, None);

        let (at, bit) = rot;
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let expected = decode_one_shot(&bytes);
        prop_assert!(expected.0.len() < frames.len(), "the corrupt frame never decodes");
        // A flip that only grows a length field leaves the tail looking
        // incomplete; the stream ending there is the detection.
        prop_assert_eq!(decode_chunked(&bytes, &chunks), expected);
    }

    /// Round-trip identity: decode(encode(f)) == f, consuming exactly
    /// the encoded bytes.
    #[test]
    fn encode_decode_identity(f in frame()) {
        let bytes = encode_frame(&f);
        let (back, consumed) = decode_frame(&bytes)
            .expect("own encoding is well-formed")
            .expect("own encoding is complete");
        prop_assert_eq!(back, f);
        prop_assert_eq!(consumed, bytes.len());
    }

    /// Every proper prefix is either "incomplete, read more" or an
    /// outright error — never a decoded frame.
    #[test]
    fn every_truncation_point_is_detected(f in frame()) {
        let bytes = encode_frame(&f);
        for cut in 0..bytes.len() {
            let r = decode_frame(&bytes[..cut]);
            prop_assert!(
                !matches!(r, Ok(Some(_))),
                "truncation to {} of {} bytes decoded a frame",
                cut,
                bytes.len()
            );
        }
    }

    /// Single-bit rot anywhere in a frame is always detected: the CRC
    /// covers the header and body, so no flip may yield a frame. (A flip
    /// that enlarges the length field legitimately reads as incomplete —
    /// that too is detection, and more bytes only lead to a CRC error.)
    #[test]
    fn every_single_bit_flip_is_detected(f in frame()) {
        let bytes = encode_frame(&f);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut rotted = bytes.clone();
                rotted[byte] ^= 1 << bit;
                let r = decode_frame(&rotted);
                prop_assert!(
                    !matches!(r, Ok(Some(_))),
                    "flip at byte {} bit {} decoded as a frame",
                    byte,
                    bit
                );
            }
        }
    }

    /// Two frames back to back decode independently: corruption confined
    /// to the second never disturbs the first.
    #[test]
    fn streaming_resynchronizes_frame_boundaries(a in frame(), b in frame()) {
        let mut bytes = encode_frame(&a);
        let first_len = bytes.len();
        bytes.extend_from_slice(&encode_frame(&b));
        let (first, n) = decode_frame(&bytes).unwrap().expect("first frame complete");
        prop_assert_eq!(first, a);
        prop_assert_eq!(n, first_len);
        let (second, m) = decode_frame(&bytes[n..]).unwrap().expect("second frame complete");
        prop_assert_eq!(second, b);
        prop_assert_eq!(n + m, bytes.len());
    }
}
