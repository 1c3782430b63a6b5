//! Length-delimited manual serialization for the cross-process backend.
//!
//! The in-process backends move payloads as `Arc`s and `Box<dyn Any>`; the
//! process-per-rank backend ([`ProcComm`](crate::ProcComm)) has to put the
//! same values on a socket. This module is the whole wire story:
//!
//! * [`Wire`] — put/get of the value types the runtime ships (primitives,
//!   tuples, `String`s, `Vec`s, the error/stats/timing types). It is the
//!   bound on every [`Comm`](crate::Comm) payload, so a message type that
//!   compiles crosses every backend. Encoding is little-endian and
//!   bit-exact (`f64` travels as its bit pattern, so outputs stay
//!   *bit-identical* across backends). Decoding **never panics**: every
//!   malformed input returns a typed [`WireError`], a property
//!   `tests/wire_props.rs` fuzzes.
//! * [`Frame`] — the framed messages of the socket protocol (two-sided
//!   data, one-sided window gets, failure and liveness notifications,
//!   per-rank results). On the socket every frame is
//!   `[u32 little-endian length][kind byte][body][crc32]`.
//!
//! Everything here is deliberately dependency-free (no serde/bincode: the
//! build container is offline) and endian-pinned so the format does not
//! depend on the host — although today both ends are always the same
//! binary (the backend forks its ranks).

use crate::error::{CommError, Primitive, RankError};
use crate::stats::CommStats;
use crate::timer::PhaseTimes;
use std::time::Duration;

/// Hard cap on one frame's encoded size (body + kind byte). Large enough
/// for any test/bench matrix slice, small enough that a corrupt length
/// prefix cannot ask the reader to allocate the address space.
pub const MAX_FRAME: usize = 1 << 30;

/// How many input bytes one step of [`crc32`] folds in (slicing-by-N).
const CRC32_SLICES: usize = 16;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup tables,
/// built at compile time so the checksum stays dependency-free. Table 0 is
/// the classic byte table; `table[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which lets one step look up [`CRC32_SLICES`] bytes
/// independently instead of chaining one lookup per byte.
static CRC32_TABLES: [[u32; 256]; CRC32_SLICES] = {
    let mut tables = [[0u32; 256]; CRC32_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < CRC32_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum every [`Frame`] carries and the
/// checkpoint header reuses. Standard check value:
/// `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(CRC32_SLICES);
    for chunk in &mut chunks {
        // the running CRC folds into the chunk's first four bytes; every
        // byte then has its own table, so the lookups do not depend on
        // each other
        let carry = crc.to_le_bytes();
        crc = 0;
        for (i, &b) in chunk.iter().enumerate() {
            let b = if i < 4 { b ^ carry[i] } else { b };
            crc ^= tables[CRC32_SLICES - 1 - i][b as usize];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Why a decode failed. Decoding is total: corrupt or truncated input maps
/// to one of these, never a panic or an unbounded allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated { needed: usize, have: usize },
    /// A field held an impossible value (bad bool byte, invalid UTF-8,
    /// nanoseconds ≥ 10⁹, length that cannot fit the remaining input...).
    Malformed { what: &'static str },
    /// An enum discriminant no variant claims.
    BadTag { what: &'static str, tag: u64 },
    /// A frame length prefix above [`MAX_FRAME`].
    FrameTooLarge { len: usize },
    /// A frame whose stored CRC-32 does not match the checksum of its
    /// received bytes: the frame was damaged in flight (or at rest).
    /// `expected` is the checksum the sender stored, `got` what the
    /// receiver computed.
    Corrupt { expected: u32, got: u32 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} more bytes, have {have}")
            }
            WireError::Malformed { what } => write!(f, "malformed {what}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            WireError::Corrupt { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated {
            needed: n - buf.len(),
            have: buf.len(),
        });
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Manual little-endian serialization of one value type.
///
/// `get` consumes from the front of `buf`; [`Wire::from_bytes`] adds the
/// "input fully consumed" check used at message boundaries.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing it.
    fn get(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Append the encodings of `items` back to back (no length prefix) —
    /// what `Vec<Self>`, the payload codecs and the window extractors
    /// encode through. Element-wise here; the fixed-width primitives
    /// override it with a block copy.
    fn put_slice(items: &[Self], out: &mut Vec<u8>) {
        for x in items {
            x.put(out);
        }
    }

    /// Decode `n` values from the front of `buf`, appending them to `out`.
    /// Total like [`Wire::get`]: nothing is reserved beyond what the
    /// remaining input could hold (every encoding is at least one byte).
    fn get_into(buf: &mut &[u8], n: usize, out: &mut Vec<Self>) -> Result<(), WireError> {
        out.reserve(n.min(buf.len()));
        for _ in 0..n {
            out.push(Self::get(buf)?);
        }
        Ok(())
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decode a value that must span exactly `bytes`.
    fn from_bytes(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::get(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(WireError::Malformed {
                what: "trailing bytes after value",
            });
        }
        Ok(v)
    }
}

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(take(buf, 1)?[0])
    }
    fn put_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn get_into(buf: &mut &[u8], n: usize, out: &mut Vec<Self>) -> Result<(), WireError> {
        out.extend_from_slice(take(buf, n)?);
        Ok(())
    }
}

/// Fixed-width primitives: little-endian bytes, floats as their bit
/// pattern (NaN payloads and `-0.0` survive). The slice forms run over
/// `chunks_exact`, which compiles to a block copy on a little-endian host
/// and stays endian-correct (and alignment-free) everywhere else.
macro_rules! wire_pod {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
                let b = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
            fn put_slice(items: &[Self], out: &mut Vec<u8>) {
                const W: usize = std::mem::size_of::<$t>();
                let at = out.len();
                out.resize(at + items.len() * W, 0);
                for (dst, x) in out[at..].chunks_exact_mut(W).zip(items) {
                    dst.copy_from_slice(&x.to_le_bytes());
                }
            }
            fn get_into(
                buf: &mut &[u8],
                n: usize,
                out: &mut Vec<Self>,
            ) -> Result<(), WireError> {
                const W: usize = std::mem::size_of::<$t>();
                // the byte need is computed and taken before anything is
                // reserved: a hostile count fails typed, allocation-free
                let need = n.checked_mul(W).ok_or(WireError::Malformed {
                    what: "element count",
                })?;
                let bytes = take(buf, need)?;
                out.extend(
                    bytes
                        .chunks_exact(W)
                        .map(|c| <$t>::from_le_bytes(c.try_into().expect("exact chunk"))),
                );
                Ok(())
            }
        }
    )*};
}
wire_pod!(u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        usize::try_from(u64::get(buf)?).map_err(|_| WireError::Malformed {
            what: "usize out of range",
        })
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed { what: "bool byte" }),
        }
    }
}

impl Wire for () {
    fn put(&self, _out: &mut Vec<u8>) {}
    fn get(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = checked_len(buf)?;
        let bytes = take(buf, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed {
            what: "string utf-8",
        })
    }
}

/// Read a collection length and reject anything the remaining input cannot
/// possibly hold — the guard that makes corrupt length fields return
/// [`WireError::Truncated`] instead of attempting a huge allocation.
/// (Consequence: collections of zero-sized `Wire` types are unsupported.)
fn checked_len(buf: &mut &[u8]) -> Result<usize, WireError> {
    let len = usize::get(buf)?;
    if len > buf.len() {
        return Err(WireError::Truncated {
            needed: len - buf.len(),
            have: buf.len(),
        });
    }
    Ok(len)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        T::put_slice(self, out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = checked_len(buf)?;
        let mut v = Vec::new();
        T::get_into(buf, len, &mut v)?;
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            t => Err(WireError::BadTag {
                what: "Option",
                tag: t as u64,
            }),
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.put(out);)+
            }
            fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($name::get(buf)?,)+))
            }
        }
    };
}
wire_tuple!(A);
wire_tuple!(A, B);
wire_tuple!(A, B, C);
wire_tuple!(A, B, C, D);
wire_tuple!(A, B, C, D, E);

impl Wire for Duration {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_secs().put(out);
        self.subsec_nanos().put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let secs = u64::get(buf)?;
        let nanos = u32::get(buf)?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Malformed {
                what: "duration nanos",
            });
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl Wire for CommStats {
    fn put(&self, out: &mut Vec<u8>) {
        for v in [
            self.sent_msgs,
            self.sent_bytes,
            self.recv_msgs,
            self.recv_bytes,
            self.rdma_gets,
            self.rdma_get_bytes,
        ] {
            v.put(out);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CommStats {
            sent_msgs: u64::get(buf)?,
            sent_bytes: u64::get(buf)?,
            recv_msgs: u64::get(buf)?,
            recv_bytes: u64::get(buf)?,
            rdma_gets: u64::get(buf)?,
            rdma_get_bytes: u64::get(buf)?,
        })
    }
}

impl Wire for PhaseTimes {
    fn put(&self, out: &mut Vec<u8>) {
        self.symbolic_s.put(out);
        self.fetch_s.put(out);
        self.compute_s.put(out);
        self.assemble_s.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PhaseTimes {
            symbolic_s: f64::get(buf)?,
            fetch_s: f64::get(buf)?,
            compute_s: f64::get(buf)?,
            assemble_s: f64::get(buf)?,
        })
    }
}

impl Wire for Primitive {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Primitive::Recv => 0,
            Primitive::Barrier => 1,
            Primitive::Exchange => 2,
        });
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(Primitive::Recv),
            1 => Ok(Primitive::Barrier),
            2 => Ok(Primitive::Exchange),
            t => Err(WireError::BadTag {
                what: "Primitive",
                tag: t as u64,
            }),
        }
    }
}

impl Wire for CommError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            CommError::PeerFailed { rank, primitive } => {
                out.push(0);
                rank.put(out);
                primitive.put(out);
            }
            CommError::Timeout { primitive, waited } => {
                out.push(1);
                primitive.put(out);
                waited.put(out);
            }
            CommError::Poisoned => out.push(2),
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(CommError::PeerFailed {
                rank: usize::get(buf)?,
                primitive: Primitive::get(buf)?,
            }),
            1 => Ok(CommError::Timeout {
                primitive: Primitive::get(buf)?,
                waited: Duration::get(buf)?,
            }),
            2 => Ok(CommError::Poisoned),
            t => Err(WireError::BadTag {
                what: "CommError",
                tag: t as u64,
            }),
        }
    }
}

impl Wire for RankError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RankError::Comm(e) => {
                out.push(0);
                e.put(out);
            }
            RankError::Panic { summary } => {
                out.push(1);
                summary.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(RankError::Comm(CommError::get(buf)?)),
            1 => Ok(RankError::Panic {
                summary: String::get(buf)?,
            }),
            t => Err(WireError::BadTag {
                what: "RankError",
                tag: t as u64,
            }),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.put(out);
            }
            Err(e) => {
                out.push(1);
                e.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(Ok(T::get(buf)?)),
            1 => Ok(Err(E::get(buf)?)),
            t => Err(WireError::BadTag {
                what: "Result",
                tag: t as u64,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Two-sided payloads
// ---------------------------------------------------------------------------

/// FNV-1a of a type name.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The fingerprint stamped on every data frame carrying `Vec<T>`: FNV-1a
/// of `T`'s type name, so a `recv_vec::<U>` against a differently-typed
/// message fails loudly instead of reinterpreting bytes.
pub(crate) fn type_fp<T>() -> u64 {
    fnv1a(std::any::type_name::<T>())
}

/// Decode a data frame's payload: `count` elements that must span exactly
/// `bytes`. Total like [`Wire::get`].
pub(crate) fn get_payload<T: Wire>(count: u64, mut bytes: &[u8]) -> Result<Vec<T>, WireError> {
    let n = usize::try_from(count).map_err(|_| WireError::Malformed {
        what: "element count",
    })?;
    let mut v = Vec::new();
    T::get_into(&mut bytes, n, &mut v)?;
    if !bytes.is_empty() {
        return Err(WireError::Malformed {
            what: "trailing bytes after payload",
        });
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Socket frames
// ---------------------------------------------------------------------------

/// One framed message of the cross-process protocol. On a socket each frame
/// travels as `[u32 LE length][kind byte][body][crc32]`
/// ([`Frame::put_framed`]); [`Frame::to_bytes`] / [`Frame::from_bytes`]
/// cover the part after the length prefix.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A two-sided `send_vec` payload. `src` is the sender's rank *in the
    /// communicator* `comm_id`; `count` elements of the type fingerprinted
    /// by `type_fp` are encoded in `payload`. The frame carries no size to
    /// meter: the receiver meters the decoded `Vec<T>` by the same rule as
    /// the sender (`tag` says whether it is a control message).
    Data {
        comm_id: u64,
        src: u64,
        tag: u64,
        type_fp: u64,
        count: u64,
        payload: Vec<u8>,
    },
    /// Raw bytes answering a ranged window get. No runtime path sends it;
    /// the suite's codec probe is its only user until a suite-only PR
    /// (ROADMAP item 2) moves the probe to `Data`. On a mesh link it is
    /// protocol corruption.
    GetResp { req_id: u64, payload: Vec<u8> },
    /// "Rank `victim` failed" — poisons the receiver's job.
    Abort { victim: u64 },
    /// Clean goodbye: the sender passed the terminal barrier and exits;
    /// its EOF after this frame is not a failure.
    Bye,
    /// Child → parent: the rank's final [`RankOutcome`](crate::RankOutcome),
    /// pre-encoded (the result type is generic, so the frame carries bytes).
    Outcome { payload: Vec<u8> },
    /// Periodic "I am alive" beacon on a mesh link; carries no payload.
    /// Reader threads refresh the peer's last-seen clock on *every* frame,
    /// heartbeats only guarantee the clock advances on an idle link.
    Heartbeat,
}

// Kinds 1–3 and 5 are retired and stay unassigned: the others keep their
// bytes.
const K_DATA: u8 = 4;
const K_GETRESP: u8 = 6;
const K_ABORT: u8 = 7;
const K_BYE: u8 = 8;
const K_OUTCOME: u8 = 9;
const K_HEARTBEAT: u8 = 10;

/// Append a byte-string field — `[u64 LE length][bytes]`, the encoding of a
/// `Vec<u8>` — whose bytes are `head` followed by whatever `fill` appends;
/// the length is patched in once both are written.
fn put_bulk(out: &mut Vec<u8>, head: &[u8], fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    // room for the length and the CRC suffixes too, so a buffer first sized
    // by a multi-MB `head` does not regrow (and move) for the last bytes
    out.reserve(head.len() + 16);
    out.extend_from_slice(&[0u8; 8]);
    out.extend_from_slice(head);
    fill(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

impl Frame {
    /// Encode as `[kind][body][crc32 LE]` (no length prefix). The trailing
    /// CRC-32 covers `[kind][body]`, so any in-flight bit flip — in the
    /// tag, the body, or the checksum itself — is caught at decode.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put_checked_with(&mut out, |_| {});
        out
    }

    /// Append this frame as it travels on a socket —
    /// `[u32 LE length][kind][body][crc32 LE]`, the length covering
    /// everything after itself — to `out`. Encodes in place, so a burst of
    /// frames for one link builds up in one buffer and leaves in one write.
    pub fn put_framed(&self, out: &mut Vec<u8>) {
        self.put_framed_with(out, |_| {});
    }

    /// [`Frame::put_framed`] with the frame's byte-string field (`payload`)
    /// continued in place: the field travels as its own bytes followed by
    /// whatever `fill` appends to `out`. A sender of bulk data
    /// passes an empty field and lets `fill` write the bytes straight into
    /// the buffer they leave from — length and checksum are patched in
    /// around them, and the result is byte-identical to encoding a frame
    /// that owned those bytes.
    pub(crate) fn put_framed_with(&self, out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
        let at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        self.put_checked_with(out, fill);
        let len = out.len() - at - 4;
        debug_assert!(len <= MAX_FRAME);
        out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    /// Append `[kind][body][crc32 LE]` to `out` (`fill` as in
    /// [`Frame::put_framed_with`]); the CRC covers only the bytes appended
    /// here.
    fn put_checked_with(&self, out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
        let at = out.len();
        self.put_body_with(out, fill);
        let crc = crc32(&out[at..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Append `[kind][body]` to `out`. Kinds without a byte-string field
    /// ignore `fill`.
    fn put_body_with(&self, out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
        match self {
            Frame::Data {
                comm_id,
                src,
                tag,
                type_fp,
                count,
                payload,
            } => {
                out.push(K_DATA);
                comm_id.put(out);
                src.put(out);
                tag.put(out);
                type_fp.put(out);
                count.put(out);
                put_bulk(out, payload, fill);
            }
            Frame::GetResp { req_id, payload } => {
                out.push(K_GETRESP);
                req_id.put(out);
                put_bulk(out, payload, fill);
            }
            Frame::Abort { victim } => {
                out.push(K_ABORT);
                victim.put(out);
            }
            Frame::Bye => out.push(K_BYE),
            Frame::Outcome { payload } => {
                out.push(K_OUTCOME);
                put_bulk(out, payload, fill);
            }
            Frame::Heartbeat => out.push(K_HEARTBEAT),
        }
    }

    /// Decode a `[kind][body][crc32]` buffer produced by
    /// [`Frame::to_bytes`]. Total: truncated or corrupt input yields a
    /// typed error — a checksum mismatch is always
    /// [`WireError::Corrupt`], never a silent wrong answer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Frame, WireError> {
        let (mut frame, bulk) = Frame::parse(bytes)?;
        if let Some(field) = frame.bulk_mut() {
            *field = bytes[bulk].to_vec();
        }
        Ok(frame)
    }

    /// [`Frame::from_bytes`] for a receiver that owns the buffer: the
    /// frame's byte-string field keeps `bytes`' allocation — header and
    /// checksum are cut away around it — instead of being copied out of it.
    pub fn from_vec(mut bytes: Vec<u8>) -> Result<Frame, WireError> {
        let (mut frame, bulk) = Frame::parse(&bytes)?;
        if let Some(field) = frame.bulk_mut() {
            bytes.truncate(bulk.end);
            bytes.drain(..bulk.start);
            *field = bytes;
        }
        Ok(frame)
    }

    /// The frame's byte-string field, if its kind has one.
    fn bulk_mut(&mut self) -> Option<&mut Vec<u8>> {
        match self {
            Frame::Data { payload, .. }
            | Frame::GetResp { payload, .. }
            | Frame::Outcome { payload } => Some(payload),
            _ => None,
        }
    }

    /// Verify the checksum of `bytes` and decode everything but the
    /// byte-string field, which is left empty: its bytes are validated to
    /// be present and their range in `bytes` is returned beside the frame
    /// (empty for kinds without one), for the caller to copy or keep.
    fn parse(bytes: &[u8]) -> Result<(Frame, std::ops::Range<usize>), WireError> {
        if bytes.len() > MAX_FRAME {
            return Err(WireError::FrameTooLarge { len: bytes.len() });
        }
        // Minimum frame: 1 kind byte + 4 CRC bytes.
        if bytes.len() < 5 {
            return Err(WireError::Truncated {
                needed: 5 - bytes.len(),
                have: bytes.len(),
            });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes(crc_bytes.try_into().expect("sized split"));
        let got = crc32(body);
        if expected != got {
            return Err(WireError::Corrupt { expected, got });
        }
        let mut buf = body;
        let mut bulk = 0..0;
        let mut take_bulk = |buf: &mut &[u8]| -> Result<Vec<u8>, WireError> {
            let len = checked_len(buf)?;
            take(buf, len)?;
            let end = body.len() - buf.len();
            bulk = end - len..end;
            Ok(Vec::new())
        };
        let kind = u8::get(&mut buf)?;
        let frame = match kind {
            K_DATA => Frame::Data {
                comm_id: u64::get(&mut buf)?,
                src: u64::get(&mut buf)?,
                tag: u64::get(&mut buf)?,
                type_fp: u64::get(&mut buf)?,
                count: u64::get(&mut buf)?,
                payload: take_bulk(&mut buf)?,
            },
            K_GETRESP => Frame::GetResp {
                req_id: u64::get(&mut buf)?,
                payload: take_bulk(&mut buf)?,
            },
            K_ABORT => Frame::Abort {
                victim: u64::get(&mut buf)?,
            },
            K_BYE => Frame::Bye,
            K_OUTCOME => Frame::Outcome {
                payload: take_bulk(&mut buf)?,
            },
            K_HEARTBEAT => Frame::Heartbeat,
            t => {
                return Err(WireError::BadTag {
                    what: "Frame",
                    tag: t as u64,
                })
            }
        };
        if !buf.is_empty() {
            return Err(WireError::Malformed {
                what: "trailing bytes after frame",
            });
        }
        Ok((frame, bulk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(u32::MAX - 1);
        round_trip(u64::MAX);
        round_trip(-7i32);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(1.5f32);
        round_trip(-0.0f64);
        round_trip(f64::NAN.to_bits()); // NaN itself is != NaN; compare bits
        assert_eq!(
            f64::from_bytes(&f64::NAN.to_bytes()).unwrap().to_bits(),
            f64::NAN.to_bits()
        );
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn composites_round_trip() {
        round_trip(String::from("héllo wörld"));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(vec![vec![1.0f64], vec![], vec![2.0, 3.0]]);
        round_trip(Some(42u32));
        round_trip(None::<String>);
        round_trip((1u32, 2u32, 3.5f64));
        round_trip((u64::MAX, 0u64, 1u64));
        round_trip(Duration::from_millis(1234));
        round_trip(CommStats {
            sent_msgs: 1,
            sent_bytes: 2,
            recv_msgs: 3,
            recv_bytes: 4,
            rdma_gets: 5,
            rdma_get_bytes: 6,
        });
        round_trip(PhaseTimes {
            symbolic_s: 1.0,
            fetch_s: 2.0,
            compute_s: 3.0,
            assemble_s: 4.0,
        });
    }

    #[test]
    fn error_types_round_trip() {
        round_trip(RankError::Comm(CommError::PeerFailed {
            rank: 3,
            primitive: Primitive::Barrier,
        }));
        round_trip(RankError::Comm(CommError::Timeout {
            primitive: Primitive::Recv,
            waited: Duration::from_secs_f64(1.75),
        }));
        round_trip(RankError::Comm(CommError::Poisoned));
        round_trip(RankError::Panic {
            summary: "boom".into(),
        });
        round_trip(Ok::<u64, RankError>(99));
        round_trip(Err::<u64, RankError>(RankError::Panic {
            summary: "x".into(),
        }));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = (vec![1u64, 2, 3], String::from("tail")).to_bytes();
        for cut in 0..bytes.len() {
            let err = <(Vec<u64>, String)>::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A length field claiming 2^60 elements must be rejected up front.
        let mut bytes = Vec::new();
        (1u64 << 60).put(&mut bytes);
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u32::from_bytes(&bytes),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn bad_tags_are_typed() {
        assert!(matches!(
            Option::<u8>::from_bytes(&[9, 0]),
            Err(WireError::BadTag { what: "Option", .. })
        ));
        assert!(matches!(
            Primitive::from_bytes(&[77]),
            Err(WireError::BadTag { .. })
        ));
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Data {
                comm_id: 7,
                src: 1,
                tag: (1 << 63) | 42,
                type_fp: 0xdead_beef,
                count: 100,
                payload: vec![1, 2, 3, 4],
            },
            Frame::GetResp {
                req_id: 9,
                payload: vec![0; 80],
            },
            Frame::Abort { victim: 1 },
            Frame::Bye,
            Frame::Outcome {
                payload: Ok::<u64, RankError>(5).to_bytes(),
            },
            Frame::Heartbeat,
        ];
        // a burst: every frame appended to one buffer in socket form
        let mut burst = Vec::new();
        for f in &frames {
            f.put_framed(&mut burst);
        }
        let mut rest = burst.as_slice();
        for f in frames {
            let bytes = f.to_bytes();
            assert_eq!(Frame::from_bytes(&bytes).unwrap(), f, "frame {f:?}");
            // socket form = length prefix + to_bytes, wherever it lands in
            // the buffer
            let (len4, tail) = rest.split_at(4);
            assert_eq!(len4, (bytes.len() as u32).to_le_bytes(), "frame {f:?}");
            assert_eq!(&tail[..bytes.len()], bytes, "frame {f:?}");
            rest = &tail[bytes.len()..];
            // every prefix of a valid frame is a typed error, not a panic
            for cut in 0..bytes.len() {
                assert!(Frame::from_bytes(&bytes[..cut]).is_err());
            }
        }
        assert!(rest.is_empty());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The format, pinned: byte strings recorded at ed28a73, before the
    /// bulk codec, the slicing CRC and the in-place frame encoders. Value
    /// encodings are what checkpoints store (`MatSnapshot` rides these
    /// impls), frames are in socket form. The `Data` string was
    /// re-recorded once, when the frame lost its metering flag and byte
    /// count (9 bytes): the receiver meters what it decodes.
    #[test]
    fn golden_bytes_pin_the_value_and_frame_format() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(
            hex(&vec![1.5f64, -0.0, nan].to_bytes()),
            "0300000000000000000000000000f83f0000000000000080efbeadde0000f87f"
        );
        assert_eq!(
            hex(&vec![1u32, 0xdead_beef, u32::MAX].to_bytes()),
            "030000000000000001000000efbeaddeffffffff"
        );
        assert_eq!(
            hex(&vec![0u8, 1, 0xff].to_bytes()),
            "03000000000000000001ff"
        );
        assert_eq!(
            hex(&vec![(1u32, 2u32, 3.5f64), (u32::MAX, 0, -0.0)].to_bytes()),
            "020000000000000001000000020000000000000000000c40\
             ffffffff000000000000000000000080"
        );
        assert_eq!(
            hex(&vec![vec![1u64, 2], vec![], vec![u64::MAX]].to_bytes()),
            "030000000000000002000000000000000100000000000000\
             020000000000000000000000000000000100000000000000ffffffffffffffff"
        );

        let resp = Frame::GetResp {
            req_id: 0x0102_0304_0506_0708,
            payload: vec![0xaa, 0xbb, 0xcc, 0xdd, 0xee],
        };
        let data = Frame::Data {
            comm_id: 7,
            src: 1,
            tag: (1 << 63) | 42,
            type_fp: 0xdead_beef,
            count: 3,
            payload: vec![9, 8, 7],
        };
        let golden = [
            "1a0000000608070605040302010500000000000000aabbccddee1d0b5b0e",
            "3800000004070000000000000001000000000000002a00000000000080\
             efbeadde000000000300000000000000\
             0300000000000000090807705312d0",
        ];
        for (frame, golden) in [&resp, &data].into_iter().zip(golden) {
            let mut socket = Vec::new();
            frame.put_framed(&mut socket);
            assert_eq!(hex(&socket), golden, "{frame:?}");
            // borrowing and owning decoders agree on the recorded bytes
            assert_eq!(Frame::from_bytes(&socket[4..]).as_ref(), Ok(frame));
            assert_eq!(Frame::from_vec(socket[4..].to_vec()).as_ref(), Ok(frame));
        }
    }

    /// Encoding a bulk frame in place — empty field, bytes appended by the
    /// fill — is byte-identical to encoding frames that own their payloads.
    #[test]
    fn in_place_encoding_equals_owning_encoding() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let resp = |payload| Frame::GetResp { req_id: 9, payload };
        let data = |payload| Frame::Data {
            comm_id: 7,
            src: 1,
            tag: 5,
            type_fp: 0x1234,
            count: 1000,
            payload,
        };
        let mut burst = vec![0xEE; 3]; // frames land mid-buffer in a burst
        let mut expect = burst.clone();
        for make in [&resp as &dyn Fn(Vec<u8>) -> Frame, &data] {
            let owning = make(payload.clone());
            owning.put_framed(&mut expect);
            make(Vec::new()).put_framed_with(&mut burst, |o| o.extend_from_slice(&payload));
            assert_eq!(burst, expect);
        }
    }

    /// Append the CRC-32 suffix `Frame::to_bytes` would have stamped on a
    /// hand-built `[kind][body]` buffer, so tests can exercise the decoder
    /// past the checksum gate.
    fn with_crc(body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn unknown_frame_kind_is_typed() {
        assert!(matches!(
            Frame::from_bytes(&with_crc(&[200, 1, 2, 3])),
            Err(WireError::BadTag { what: "Frame", .. })
        ));
        assert!(matches!(
            Frame::from_bytes(&[]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn flipped_bits_are_always_corrupt() {
        let bytes = Frame::Data {
            comm_id: 1,
            src: 0,
            tag: 5,
            type_fp: 0x1234,
            count: 3,
            payload: vec![9, 8, 7],
        }
        .to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    matches!(Frame::from_bytes(&bad), Err(WireError::Corrupt { .. })),
                    "flip byte {i} bit {bit} was not detected as corruption"
                );
            }
        }
    }

    #[test]
    fn payloads_round_trip_and_reject_damage_typed() {
        let v: Vec<(u8, i64, bool)> = vec![(1, -2, true), (0, i64::MAX, false)];
        let mut bytes = Vec::new();
        <(u8, i64, bool)>::put_slice(&v, &mut bytes);
        assert_eq!(get_payload::<(u8, i64, bool)>(2, &bytes), Ok(v));
        // a truncated payload, a count one too long or one too short, a
        // count no input could hold: typed errors, never a panic
        assert!(get_payload::<(u8, i64, bool)>(2, &bytes[..bytes.len() - 1]).is_err());
        assert!(get_payload::<(u8, i64, bool)>(3, &bytes).is_err());
        assert!(get_payload::<(u8, i64, bool)>(1, &bytes).is_err());
        assert!(get_payload::<u64>(u64::MAX, &bytes).is_err());
        assert!(get_payload::<String>(u64::MAX, &bytes).is_err());
        // the fingerprint is the type name's, so equal widths do not collide
        assert_ne!(type_fp::<f64>(), type_fp::<u64>());
        assert_eq!(type_fp::<u64>(), fnv1a("u64"));
    }
}
