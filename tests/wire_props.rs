//! Wire-format property tests (PR 7): the `procs` backend's framing must
//! be total — every frame kind and every value type round-trips exactly,
//! and *no* input bytes (truncated, bit-flipped, or random) can make the
//! decoder panic or allocate unboundedly. A hostile or half-written socket
//! must surface as a typed [`WireError`], never as a crash inside the
//! progress engine.

use proptest::prelude::*;
use saspgemm::mpisim::{crc32, CommError, CommStats, Frame, Primitive, RankError, Wire, WireError};
use std::time::Duration;

/// One instance of every frame kind, parameterized by the generated
/// inputs so the property sweeps the full wire surface each case.
fn build_frames(a: u64, b: u64, bytes: &[u8]) -> Vec<Frame> {
    vec![
        Frame::Data {
            comm_id: a,
            src: b % 64,
            tag: b,
            type_fp: a ^ b,
            count: bytes.len() as u64,
            payload: bytes.to_vec(),
        },
        Frame::GetResp {
            req_id: a,
            payload: bytes.to_vec(),
        },
        Frame::Abort { victim: a % 64 },
        Frame::Bye,
        Frame::Outcome {
            payload: bytes.to_vec(),
        },
        Frame::Heartbeat,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_frame_kind_round_trips_with_valid_checksum(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        bytes in proptest::collection::vec(0u8..=255u8, 0..48),
    ) {
        for f in build_frames(a, b, &bytes) {
            let enc = f.to_bytes();
            let back = Frame::from_bytes(&enc);
            prop_assert_eq!(back.as_ref().ok(), Some(&f));
            // the trailing 4 bytes are the CRC32 of everything before them
            let (body, crc) = enc.split_at(enc.len() - 4);
            prop_assert_eq!(u32::from_le_bytes(crc.try_into().unwrap()), crc32(body));
        }
    }

    #[test]
    fn every_truncation_of_every_frame_is_a_typed_error(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        bytes in proptest::collection::vec(0u8..=255u8, 0..24),
    ) {
        for f in build_frames(a, b, &bytes) {
            let enc = f.to_bytes();
            for cut in 0..enc.len() {
                // every strict prefix must decode to Err, never panic and
                // never succeed (no frame encoding is a prefix of another)
                prop_assert!(
                    Frame::from_bytes(&enc[..cut]).is_err(),
                    "prefix {cut}/{} of {f:?} decoded",
                    enc.len()
                );
            }
        }
    }

    #[test]
    fn bit_flipped_frames_are_always_typed_corrupt(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        bytes in proptest::collection::vec(0u8..=255u8, 0..24),
        pos in 0usize..4096,
        xor in 1u8..=255,
    ) {
        for f in build_frames(a, b, &bytes) {
            let mut enc = f.to_bytes();
            let i = pos % enc.len();
            enc[i] ^= xor;
            // any nonzero single-byte damage — header, payload, or the CRC
            // suffix itself — must surface as Corrupt: never a panic, never
            // a successful decode, never any other error shape
            match Frame::from_bytes(&enc) {
                Err(WireError::Corrupt { expected, got }) => prop_assert_ne!(expected, got),
                other => prop_assert!(
                    false,
                    "byte {} ^ {:#04x} of {:?}: expected Corrupt, got {:?}",
                    i, xor, f, other
                ),
            }
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(0u8..=255u8, 0..64),
    ) {
        let _ = Frame::from_bytes(&bytes);
        let mut buf = bytes.as_slice();
        let _ = <Vec<u64> as Wire>::get(&mut buf);
        let mut buf = bytes.as_slice();
        let _ = String::get(&mut buf);
        let mut buf = bytes.as_slice();
        let _ = <Result<Vec<f64>, RankError> as Wire>::get(&mut buf);
    }

    #[test]
    fn hostile_length_claims_fail_fast_without_allocating(
        which in 0usize..3, // the length-carrying kinds
        len in 0u64..u64::MAX,
    ) {
        // [kind][zeroed header][huge length]... with no matching body: must
        // be a typed error, and must not try to reserve `len` elements
        // first. The checksum is made valid so the decode *reaches* the
        // length guard instead of bouncing off the CRC check, and the
        // header puts the claim where the kind's decoder reads its length.
        // Data (seven fixed fields), GetResp (req_id), Outcome:
        let (kind, header) = [(4u8, 49usize), (6, 8), (9, 0)][which];
        let mut enc = vec![kind];
        enc.resize(1 + header, 0);
        len.put(&mut enc);
        enc.extend_from_slice(&[0; 16]);
        let crc = crc32(&enc);
        enc.extend_from_slice(&crc.to_le_bytes());
        prop_assert!(Frame::from_bytes(&enc).is_err());
    }

    #[test]
    fn value_types_round_trip_bit_exact(
        v in proptest::collection::vec((0u64..u64::MAX, -1e300f64..1e300), 0..16),
        s in proptest::collection::vec(0u32..0x10FFFF, 0..12),
        secs in 0u64..u64::MAX,
        nanos in 0u64..1_000_000_000,
    ) {
        let ints: Vec<u64> = v.iter().map(|(i, _)| *i).collect();
        let floats: Vec<f64> = v.iter().map(|(_, f)| *f).collect();
        prop_assert_eq!(<Vec<u64> as Wire>::from_bytes(&ints.to_bytes()).unwrap(), ints);
        // floats round-trip through to_bits, so -0.0 and every payload
        // travel exactly
        let back = <Vec<f64> as Wire>::from_bytes(&floats.to_bytes()).unwrap();
        prop_assert_eq!(
            back.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            floats.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        let string: String = s.iter().filter_map(|&c| char::from_u32(c)).collect();
        prop_assert_eq!(String::from_bytes(&string.to_bytes()).unwrap(), string);
        let d = Duration::new(secs, nanos as u32);
        prop_assert_eq!(Duration::from_bytes(&d.to_bytes()).unwrap(), d);
        let stats = CommStats {
            sent_msgs: secs,
            sent_bytes: nanos,
            recv_msgs: secs ^ nanos,
            recv_bytes: secs.wrapping_mul(3),
            rdma_gets: nanos / 7,
            rdma_get_bytes: secs.rotate_left(13),
        };
        prop_assert_eq!(CommStats::from_bytes(&stats.to_bytes()).unwrap(), stats);
    }

    #[test]
    fn error_types_round_trip_through_outcome_frames(
        rank in 0usize..4096,
        secs in 0u64..1_000_000,
    ) {
        for prim in [Primitive::Recv, Primitive::Barrier, Primitive::Exchange] {
            for err in [
                CommError::PeerFailed { rank, primitive: prim },
                CommError::Timeout { primitive: prim, waited: Duration::from_secs(secs) },
                CommError::Poisoned,
            ] {
                let outcome: Result<Vec<u64>, RankError> =
                    Err(RankError::Comm(err.clone()));
                // the exact path a failed rank's result takes to the parent
                let frame = Frame::Outcome { payload: outcome.to_bytes() };
                let enc = frame.to_bytes();
                let Ok(Frame::Outcome { payload }) = Frame::from_bytes(&enc) else {
                    return Err("outcome frame did not round trip".into());
                };
                let back = <Result<Vec<u64>, RankError> as Wire>::from_bytes(&payload).unwrap();
                prop_assert_eq!(back, outcome);
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(
        a in 0u64..u64::MAX,
        junk in 1usize..8,
    ) {
        // junk appended after the CRC suffix: the stored checksum no longer
        // covers the tail, so this now surfaces as Corrupt
        let mut enc = (Frame::Abort { victim: a }).to_bytes();
        enc.extend(std::iter::repeat_n(0xAB, junk));
        match Frame::from_bytes(&enc) {
            Err(WireError::Corrupt { .. }) => {}
            other => return Err(format!("expected Corrupt, got {other:?}")),
        }
        // junk smuggled *inside* the checksummed region (CRC recomputed to
        // match): passes integrity, still rejected as Malformed
        let mut enc = (Frame::Abort { victim: a }).to_bytes();
        enc.truncate(enc.len() - 4);
        enc.extend(std::iter::repeat_n(0xAB, junk));
        let crc = crc32(&enc);
        enc.extend_from_slice(&crc.to_le_bytes());
        match Frame::from_bytes(&enc) {
            Err(WireError::Malformed { .. }) => {}
            other => return Err(format!("expected Malformed, got {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// ISSUE 17: the bulk (slice) codec and the slicing CRC against references
// kept here — element by element, bit by bit.
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One primitive `Wire` type against its reference: `make` turns
/// random bits into a value (every bit pattern, so NaN payloads and `-0.0`
/// are in play), `le` is the element's little-endian encoding written out
/// independently of `Wire`. `bulk` says the type overrides the slice forms
/// (fixed width: bytes are taken before anything is reserved).
fn check_bulk_codec<T: Wire + std::fmt::Debug>(
    name: &str,
    bulk: bool,
    make: impl Fn(u64) -> T,
    le: impl Fn(&T) -> Vec<u8>,
) {
    let mut state = 0x1234_5678_9abc_def0u64;
    let width = le(&make(7)).len();
    for n in (0..=17).chain([1000, 4099]) {
        let items: Vec<T> = (0..n).map(|_| make(splitmix(&mut state))).collect();
        let reference: Vec<u8> = items.iter().flat_map(&le).collect();

        // bulk encoding == element-wise reference, bare and as a Vec
        let mut bare = vec![0x5A]; // appended, not overwritten
        T::put_slice(&items, &mut bare);
        assert_eq!(&bare[1..], reference, "{name} n={n}: put_slice");
        let framed = items.to_bytes();
        assert_eq!(
            framed[..8],
            (n as u64).to_le_bytes(),
            "{name} n={n}: length"
        );
        assert_eq!(&framed[8..], reference, "{name} n={n}: Vec::put");

        // bit-exact decode from an odd offset of a larger buffer, appended
        // behind what the destination already holds
        let mut big = vec![0xA5];
        big.extend_from_slice(&reference);
        big.extend_from_slice(&[1, 2, 3]);
        let mut buf = &big[1..];
        let mut out = vec![make(7)];
        T::get_into(&mut buf, n, &mut out).unwrap();
        assert_eq!(buf, [1, 2, 3], "{name} n={n}: consumed exactly its bytes");
        let back: Vec<u8> = out.iter().flat_map(&le).collect();
        assert_eq!(
            back[..width],
            le(&make(7))[..],
            "{name} n={n}: prior contents"
        );
        assert_eq!(&back[width..], reference, "{name} n={n}: decode");
        let whole = Vec::<T>::from_bytes(&framed).unwrap();
        assert_eq!(whole.iter().flat_map(&le).collect::<Vec<u8>>(), reference);

        // every truncation is Truncated (long inputs: a stride plus the
        // last element's bytes); a failed decode reserves nothing in bulk
        // form and never more elements than there are input bytes (or a
        // `Vec`'s smallest capacity)
        let cuts = (0..framed.len()).filter(|c| n <= 17 || c % 97 == 0 || c + 9 > framed.len());
        for cut in cuts {
            let err = Vec::<T>::from_bytes(&framed[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "{name} n={n} cut={cut}: {err:?}"
            );
            if let Some(cut) = cut.checked_sub(8) {
                let mut fresh = Vec::new();
                let err = T::get_into(&mut &reference[..cut], n, &mut fresh).unwrap_err();
                assert!(matches!(err, WireError::Truncated { .. }));
                assert!(fresh.capacity() <= if bulk { 0 } else { cut.max(8) });
            }
        }

        // hostile counts: typed, under the same reservation bound — u64::MAX
        // and the n·W overflow could not have been allocated at all
        for count in [u64::MAX, (usize::MAX / 8 + 1) as u64, n as u64 + 1] {
            let mut lying = count.to_le_bytes().to_vec();
            lying.extend_from_slice(&reference);
            let err = Vec::<T>::from_bytes(&lying).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::Malformed { .. }
                ),
                "{name} n={n} count={count}: {err:?}"
            );
            let mut fresh = Vec::new();
            let err = T::get_into(&mut reference.as_slice(), count as usize, &mut fresh);
            assert!(
                matches!(
                    err,
                    Err(WireError::Truncated { .. } | WireError::Malformed { .. })
                ),
                "{name} n={n} count={count}: {err:?}"
            );
            assert!(
                fresh.capacity() <= if bulk { 0 } else { reference.len().max(8) },
                "{name} n={n} count={count}: reserved {} elements",
                fresh.capacity()
            );
        }
    }
}

#[test]
fn bulk_codec_equals_the_elementwise_reference_for_every_registered_primitive() {
    check_bulk_codec("u8", true, |r| r as u8, |x| vec![*x]);
    check_bulk_codec("u16", true, |r| r as u16, |x| x.to_le_bytes().to_vec());
    check_bulk_codec("u32", true, |r| r as u32, |x| x.to_le_bytes().to_vec());
    check_bulk_codec("u64", true, |r| r, |x| x.to_le_bytes().to_vec());
    check_bulk_codec(
        "usize",
        false,
        |r| r as usize,
        |x| (*x as u64).to_le_bytes().to_vec(),
    );
    check_bulk_codec("i32", true, |r| r as i32, |x| x.to_le_bytes().to_vec());
    check_bulk_codec("i64", true, |r| r as i64, |x| x.to_le_bytes().to_vec());
    check_bulk_codec(
        "f32",
        true,
        |r| f32::from_bits(r as u32),
        |x| x.to_bits().to_le_bytes().to_vec(),
    );
    check_bulk_codec("f64", true, f64::from_bits, |x| {
        x.to_bits().to_le_bytes().to_vec()
    });
    // tuples and nested vectors keep the element-wise default; same
    // reference, same properties
    check_bulk_codec(
        "(u32, u32, f64)",
        false,
        |r| {
            (
                r as u32,
                (r >> 32) as u32,
                f64::from_bits(r.rotate_left(17)),
            )
        },
        |(a, b, c)| {
            let mut v = a.to_le_bytes().to_vec();
            v.extend_from_slice(&b.to_le_bytes());
            v.extend_from_slice(&c.to_bits().to_le_bytes());
            v
        },
    );
}

/// CRC-32 (IEEE, reflected 0xEDB88320) one bit at a time: no tables to
/// share a mistake with.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn sliced_crc32_equals_the_bitwise_reference_at_every_length_and_offset() {
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    let mut state = 42u64;
    let big: Vec<u8> = (0..(1 << 20) + 8)
        .map(|_| splitmix(&mut state) as u8)
        .collect();
    // every head/tail remainder of the sliced loop, at every alignment
    for offset in 0..=8 {
        for len in 0..=72 {
            let s = &big[offset..offset + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
        }
    }
    assert_eq!(crc32(&big[..1 << 20]), crc32_bitwise(&big[..1 << 20]));
    assert_eq!(crc32(&big[3..]), crc32_bitwise(&big[3..]));
}
