//! Per-rank checkpoint stores for recoverable jobs.
//!
//! [`Universe::run_recoverable`](sa_mpisim::Universe) restarts a whole job
//! when any rank fails; this module supplies the durability layer that lets
//! a restarted attempt *resume* instead of recomputing from scratch. The
//! model is deliberately minimal:
//!
//! * [`CheckpointStore`] — an object-safe blob store keyed by
//!   `(rank, key)`. Every rank reads and writes only its own slots, so a
//!   store needs no cross-rank coordination of its own.
//! * [`MemStore`] — shared-memory map for the `Sim`/`Threads` backends
//!   (clones share one map, and restarted rank *threads* see what the
//!   previous attempt saved).
//! * [`FileStore`] — one file per `(rank, key)` for the `Procs` backend:
//!   forked children inherit the directory path, and a write is
//!   tmp-then-rename so a rank SIGKILLed mid-checkpoint leaves the previous
//!   complete checkpoint intact, never a torn one. Every slot is framed
//!   with a versioned header (magic, version, payload length, payload
//!   CRC32); damage loads as a typed [`CkptError`] and the file is
//!   quarantined (`.quarantine`) for forensics.
//! * [`save_wire`] / [`load_wire`] — typed helpers over the repo's
//!   [`Wire`] encoding (bit-exact `f64`, so restored operands are
//!   bit-identical to what was saved).
//! * [`MatSnapshot`] — a wire-encodable image of a [`DistMat1D`] local
//!   slice, the operand state the iterative drivers checkpoint.
//! * [`agreed_step`] — collective agreement on the resume point: restart
//!   only from a step *every* rank has durably completed, else start fresh.
//!
//! Checkpoints give at-least-once execution per iteration: a rank can die
//! after computing step `k` but before (or while) saving it, in which case
//! the next attempt re-runs step `k`. Drivers therefore checkpoint only
//! states that are safe to re-enter (iteration boundaries), and
//! [`agreed_step`] collapses ragged per-rank progress to the last step all
//! ranks completed.

use crate::dist1d::DistMat1D;
use sa_mpisim::{crc32, Comm, Wire, WireError};
use sa_sparse::types::Vidx;
use sa_sparse::Dcsc;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a checkpoint slot could not be saved or loaded. Integrity failures
/// ([`Torn`](CkptError::Torn), [`Corrupt`](CkptError::Corrupt),
/// [`VersionMismatch`](CkptError::VersionMismatch),
/// [`Decode`](CkptError::Decode)) mean the slot's *contents* are unusable —
/// [`FileStore`] quarantines the file and [`load_wire_or_fresh`] maps them
/// to "absent" so recovery falls back to a fresh start instead of resuming
/// from damaged state. [`Io`](CkptError::Io) means the store itself is
/// unreachable, which no fresh start can fix.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying storage failed (missing directory, permissions, …).
    Io(io::Error),
    /// The slot is shorter than its header claims: `have` bytes present,
    /// `needed` required. Atomic tmp-then-rename saves make this possible
    /// only through outside interference, which is exactly why it is typed.
    Torn { needed: u64, have: u64 },
    /// The payload (or the header magic) failed its CRC32 / magic check.
    /// `expected` is the stored value, `got` what the bytes hash to.
    Corrupt { expected: u32, got: u32 },
    /// The slot was written by an incompatible format version.
    VersionMismatch { found: u32, supported: u32 },
    /// The payload passed its integrity checks but is not a valid [`Wire`]
    /// encoding of the requested type (wrong type under a reused key).
    Decode(WireError),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Torn { needed, have } => {
                write!(f, "torn checkpoint: need {needed} bytes, have {have}")
            }
            CkptError::Corrupt { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: expected {expected:#010x}, got {got:#010x}"
            ),
            CkptError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format v{found} unsupported (this build reads v{supported})"
            ),
            CkptError::Decode(e) => write!(f, "checkpoint payload undecodable: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            CkptError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> CkptError {
        CkptError::Decode(e)
    }
}

impl CkptError {
    /// Whether this error indicts the slot's *contents* (recoverable by
    /// starting fresh) rather than the store itself.
    pub fn is_integrity(&self) -> bool {
        !matches!(self, CkptError::Io(_))
    }
}

/// An object-safe per-rank blob store: the durability backend of a
/// recoverable job. Implementations must tolerate concurrent access from
/// different ranks (distinct `(rank, key)` slots never alias).
pub trait CheckpointStore: Send + Sync {
    /// Durably store `bytes` under `(rank, key)`, replacing any previous
    /// value. A save must be atomic: a reader (including a restarted rank)
    /// sees either the old complete value or the new one, never a torn mix.
    fn save(&self, rank: usize, key: &str, bytes: Vec<u8>) -> Result<(), CkptError>;

    /// Load the blob under `(rank, key)`, or `None` if never saved.
    /// Implementations that frame their slots ([`FileStore`]) verify
    /// integrity here and return the typed failure — never damaged bytes.
    fn load(&self, rank: usize, key: &str) -> Result<Option<Vec<u8>>, CkptError>;

    /// Drop the blob under `(rank, key)` (no-op if absent).
    fn remove(&self, rank: usize, key: &str) -> Result<(), CkptError>;
}

/// Save a [`Wire`]-encodable value under `(rank, key)`.
pub fn save_wire<S, T>(store: &S, rank: usize, key: &str, value: &T) -> Result<(), CkptError>
where
    S: CheckpointStore + ?Sized,
    T: Wire,
{
    store.save(rank, key, value.to_bytes())
}

/// Load and decode a [`Wire`]-encodable value from `(rank, key)`. Strict:
/// a present but damaged or undecodable slot is a typed [`CkptError`], not
/// a silent fresh start — a corrupt checkpoint should be loud. Recovery
/// paths that *want* corrupt-as-absent semantics use
/// [`load_wire_or_fresh`].
pub fn load_wire<S, T>(store: &S, rank: usize, key: &str) -> Result<Option<T>, CkptError>
where
    S: CheckpointStore + ?Sized,
    T: Wire,
{
    match store.load(rank, key)? {
        None => Ok(None),
        Some(bytes) => Ok(Some(T::from_bytes(&bytes)?)),
    }
}

/// Recovery-path loader: like [`load_wire`], but an *integrity* failure
/// (torn, corrupt, version-mismatched, or undecodable slot) is logged and
/// mapped to `Ok(None)` — the caller's [`agreed_step`] then sees "nothing
/// durably saved" and every rank starts fresh together, which is exactly
/// the fallback a damaged checkpoint demands. [`FileStore`] has already
/// quarantined the damaged file by the time this returns, so the fresh
/// attempt will not trip over it again. I/O errors still surface: a store
/// that cannot be read at all is not a fresh-start situation.
pub fn load_wire_or_fresh<S, T>(store: &S, rank: usize, key: &str) -> Result<Option<T>, CkptError>
where
    S: CheckpointStore + ?Sized,
    T: Wire,
{
    match load_wire(store, rank, key) {
        Err(e) if e.is_integrity() => {
            eprintln!(
                "[sa_dist] rank {rank}: checkpoint slot {key:?} unusable ({e}); \
                 treating as absent — recovery will start fresh"
            );
            Ok(None)
        }
        other => other,
    }
}

/// One `(rank, key)` slot map, shared by every clone of a [`MemStore`].
type SlotMap = HashMap<(usize, String), Vec<u8>>;

/// In-memory [`CheckpointStore`] for the `Sim` and `Threads` backends.
/// Clones share one map, so the store handed to a job closure survives
/// restarts of the rank threads that write through it.
#[derive(Clone, Default)]
pub struct MemStore {
    slots: Arc<Mutex<SlotMap>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Number of stored blobs (test/diagnostic aid).
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CheckpointStore for MemStore {
    fn save(&self, rank: usize, key: &str, bytes: Vec<u8>) -> Result<(), CkptError> {
        self.slots
            .lock()
            .unwrap()
            .insert((rank, key.to_string()), bytes);
        Ok(())
    }

    fn load(&self, rank: usize, key: &str) -> Result<Option<Vec<u8>>, CkptError> {
        Ok(self
            .slots
            .lock()
            .unwrap()
            .get(&(rank, key.to_string()))
            .cloned())
    }

    fn remove(&self, rank: usize, key: &str) -> Result<(), CkptError> {
        self.slots.lock().unwrap().remove(&(rank, key.to_string()));
        Ok(())
    }
}

/// Slot-file magic: `"SACK"` little-endian, so a hexdump of a good slot
/// starts with `4b 43 41 53`.
const CKPT_MAGIC: u32 = 0x5341_434B;
/// Current slot-file format version.
const CKPT_VERSION: u32 = 1;
/// Header layout: `[magic u32][version u32][reserved u64][payload_len
/// u64][payload_crc u32]`, all little-endian. The reserved word is written
/// as 0 and not read.
const CKPT_HEADER_LEN: usize = 28;

/// Parse and verify a framed slot file: returns the borrowed payload, or
/// the typed reason the slot is unusable.
fn parse_slot(raw: &[u8]) -> Result<&[u8], CkptError> {
    if raw.len() < CKPT_HEADER_LEN {
        return Err(CkptError::Torn {
            needed: CKPT_HEADER_LEN as u64,
            have: raw.len() as u64,
        });
    }
    let word32 = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"));
    let word64 = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
    let magic = word32(0);
    if magic != CKPT_MAGIC {
        return Err(CkptError::Corrupt {
            expected: CKPT_MAGIC,
            got: magic,
        });
    }
    let version = word32(4);
    if version != CKPT_VERSION {
        return Err(CkptError::VersionMismatch {
            found: version,
            supported: CKPT_VERSION,
        });
    }
    let payload_len = word64(16);
    let stored_crc = word32(24);
    let payload = &raw[CKPT_HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(CkptError::Torn {
            needed: CKPT_HEADER_LEN as u64 + payload_len,
            have: raw.len() as u64,
        });
    }
    let got = crc32(payload);
    if got != stored_crc {
        return Err(CkptError::Corrupt {
            expected: stored_crc,
            got,
        });
    }
    Ok(payload)
}

/// File-backed [`CheckpointStore`] for the `Procs` backend: one file per
/// `(rank, key)` under a directory created in the parent *before* forking,
/// so every child (including re-forked ones of a later attempt) inherits
/// the same path. Writes go to a temporary file first and are renamed into
/// place — rename is atomic on POSIX, so a SIGKILL mid-save leaves the
/// previous complete checkpoint, never a torn one.
///
/// Every slot is framed with a versioned header (magic, format version,
/// payload length, payload CRC32). `load` verifies the frame and returns
/// typed [`CkptError`]s for damage; a damaged file is renamed to
/// `.quarantine` for forensics so the next attempt does not trip over it.
///
/// `key` becomes part of the file name and must be file-name safe (the
/// drivers use short alphanumeric keys like `"mcl.state"`).
#[derive(Clone, Debug)]
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<FileStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn slot_path(&self, rank: usize, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.r{rank}.ckpt"))
    }

    /// Rename a damaged slot aside (`.quarantine`) so the evidence survives
    /// for forensics while the recovery path sees the slot as absent.
    fn quarantine(path: &Path, why: &CkptError) {
        let aside = path.with_extension("quarantine");
        match std::fs::rename(path, &aside) {
            Ok(()) => eprintln!(
                "[sa_dist] quarantined damaged checkpoint {} -> {} ({why})",
                path.display(),
                aside.display()
            ),
            Err(e) => eprintln!(
                "[sa_dist] failed to quarantine damaged checkpoint {} ({why}): {e}",
                path.display()
            ),
        }
    }
}

impl CheckpointStore for FileStore {
    fn save(&self, rank: usize, key: &str, bytes: Vec<u8>) -> Result<(), CkptError> {
        let path = self.slot_path(rank, key);
        let tmp = self.dir.join(format!("{key}.r{rank}.tmp"));
        let mut framed = Vec::with_capacity(CKPT_HEADER_LEN + bytes.len());
        framed.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        framed.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        framed.extend_from_slice(&0u64.to_le_bytes()); // reserved
        framed.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        framed.extend_from_slice(&crc32(&bytes).to_le_bytes());
        framed.extend_from_slice(&bytes);
        std::fs::write(&tmp, &framed)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn load(&self, rank: usize, key: &str) -> Result<Option<Vec<u8>>, CkptError> {
        let path = self.slot_path(rank, key);
        let raw = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        match parse_slot(&raw) {
            Ok(payload) => Ok(Some(payload.to_vec())),
            Err(why) => {
                FileStore::quarantine(&path, &why);
                Err(why)
            }
        }
    }

    fn remove(&self, rank: usize, key: &str) -> Result<(), CkptError> {
        match std::fs::remove_file(self.slot_path(rank, key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Wire-encodable image of one rank's [`DistMat1D`] slice: global shape,
/// column offsets, and the local DCSC arrays verbatim. Restoration is
/// bit-identical (`f64` travels as raw bits).
#[derive(Clone, Debug, PartialEq)]
pub struct MatSnapshot {
    nrows: u64,
    ncols: u64,
    local_ncols: u64,
    offsets: Vec<u64>,
    jc: Vec<Vidx>,
    cp: Vec<u64>,
    ir: Vec<Vidx>,
    num: Vec<f64>,
}

impl MatSnapshot {
    /// Capture this rank's slice of `m`.
    pub fn of(m: &DistMat1D) -> MatSnapshot {
        let l = m.local();
        MatSnapshot {
            nrows: m.nrows() as u64,
            ncols: m.ncols() as u64,
            local_ncols: l.ncols() as u64,
            offsets: m.offsets().iter().map(|&o| o as u64).collect(),
            jc: l.jc().to_vec(),
            cp: l.cp().iter().map(|&p| p as u64).collect(),
            ir: l.ir().to_vec(),
            num: l.num().to_vec(),
        }
    }

    /// Rebuild the distributed slice this snapshot captured.
    pub fn restore(&self) -> DistMat1D {
        let offsets: Vec<usize> = self.offsets.iter().map(|&o| o as usize).collect();
        let local = Dcsc::from_parts(
            self.nrows as usize,
            self.local_ncols as usize,
            self.jc.clone(),
            self.cp.iter().map(|&p| p as usize).collect(),
            self.ir.clone(),
            self.num.clone(),
        );
        DistMat1D::from_local(
            self.nrows as usize,
            self.ncols as usize,
            Arc::new(offsets),
            local,
        )
    }
}

sa_mpisim::wire_struct!(MatSnapshot {
    nrows,
    ncols,
    local_ncols,
    offsets,
    jc,
    cp,
    ir,
    num
});

/// Collective agreement on the resume point. Each rank passes the last
/// step it finds durably checkpointed (`None` if nothing); the result is
/// `Some(k)` only when **every** rank reports exactly `k` — any
/// disagreement (a rank died before saving, a stale or missing file) makes
/// all ranks start fresh together, so no rank resumes ahead of another.
/// One collective: the reports' min and max travel as one pair.
pub fn agreed_step<C: Comm>(comm: &C, mine: Option<u64>) -> Option<u64> {
    let enc = mine.map_or(-1i64, |k| k as i64);
    let (min, max) = comm.allreduce((enc, enc), |a, b| (a.0.min(b.0), a.1.max(b.1)));
    (min == max && min >= 0).then_some(min as u64)
}

/// The resume prelude of a checkpointed driver: load this rank's slot
/// ([`load_wire_or_fresh`]; an unreadable store panics), agree on the step
/// it names ([`agreed_step`]), and hand the checkpoint back only if it is
/// the agreed one — `None` on every rank means "start fresh". Collective.
pub fn load_agreed<C, S, T>(
    comm: &C,
    store: &S,
    key: &str,
    step_of: impl Fn(&T) -> u64,
) -> Option<T>
where
    C: Comm,
    S: CheckpointStore + ?Sized,
    T: Wire,
{
    let loaded: Option<T> =
        load_wire_or_fresh(store, comm.rank(), key).expect("readable checkpoint store");
    let step = agreed_step(comm, loaded.as_ref().map(&step_of))?;
    loaded.filter(|c| step_of(c) == step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wired;
    use sa_sparse::gen::erdos_renyi;

    #[test]
    fn mem_store_round_trips_and_removes() {
        let s = MemStore::new();
        assert!(s.is_empty());
        save_wire(&s, 1, "x", &42u64).unwrap();
        assert_eq!(load_wire::<_, u64>(&s, 1, "x").unwrap(), Some(42));
        assert_eq!(load_wire::<_, u64>(&s, 0, "x").unwrap(), None);
        let clone = s.clone();
        assert_eq!(load_wire::<_, u64>(&clone, 1, "x").unwrap(), Some(42));
        s.remove(1, "x").unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn file_store_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("sa_ckpt_test_{}", std::process::id()));
        let s = FileStore::new(&dir).unwrap();
        save_wire(&s, 2, "state", &vec![1.5f64, -0.0, f64::NAN]).unwrap();
        let back: Vec<f64> = load_wire(&s, 2, "state").unwrap().unwrap();
        assert_eq!(back[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(back[1].to_bits(), (-0.0f64).to_bits());
        assert!(back[2].is_nan());
        // overwrite replaces, remove clears, absent loads are None
        save_wire(&s, 2, "state", &7u64).unwrap();
        assert_eq!(load_wire::<_, u64>(&s, 2, "state").unwrap(), Some(7));
        s.remove(2, "state").unwrap();
        assert_eq!(s.load(2, "state").unwrap(), None);
        // no stray tmp files linger after a completed save
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_loud() {
        let s = MemStore::new();
        s.save(0, "k", vec![1, 2, 3]).unwrap();
        let err = load_wire::<_, u64>(&s, 0, "k").unwrap_err();
        assert!(matches!(err, CkptError::Decode(_)), "{err}");
        assert!(err.is_integrity());
        // the recovery-path loader maps the same damage to "absent"
        assert_eq!(load_wire_or_fresh::<_, u64>(&s, 0, "k").unwrap(), None);
    }

    #[test]
    fn file_store_detects_damage_and_quarantines() {
        let dir = std::env::temp_dir().join(format!("sa_ckpt_quar_{}", std::process::id()));
        let s = FileStore::new(&dir).unwrap();
        save_wire(&s, 0, "state", &0xDEAD_BEEFu64).unwrap();
        let path = dir.join("state.r0.ckpt");

        // flip one payload bit on disk → typed Corrupt, file quarantined
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let err = s.load(0, "state").unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        assert!(!path.exists(), "damaged file renamed aside");
        assert!(dir.join("state.r0.quarantine").exists());
        // after quarantine the slot is absent: recovery starts fresh
        assert_eq!(s.load(0, "state").unwrap(), None);
        assert_eq!(load_wire_or_fresh::<_, u64>(&s, 0, "state").unwrap(), None);

        // truncated below its header's claim → Torn
        save_wire(&s, 0, "state", &1u64).unwrap();
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        assert!(matches!(
            s.load(0, "state").unwrap_err(),
            CkptError::Torn { .. }
        ));

        // future format version → VersionMismatch
        save_wire(&s, 0, "state", &2u64).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            s.load(0, "state").unwrap_err(),
            CkptError::VersionMismatch {
                found: 99,
                supported: 1
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mat_snapshot_is_bit_identical() {
        let a = erdos_renyi(40, 40, 3.0, 11);
        let got = sa_mpisim::Universe::new(3).run(|comm| {
            let offsets = crate::dist1d::uniform_offsets(40, comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let snap = MatSnapshot::of(&da);
            let back = MatSnapshot::from_bytes(&snap.to_bytes()).unwrap().restore();
            (
                da.local().num() == back.local().num()
                    && da.local().ir() == back.local().ir()
                    && da.local().jc() == back.local().jc()
                    && da.offsets() == back.offsets(),
                back.gather(comm).map(Wired),
            )
        });
        for (same, gathered) in got {
            assert!(same);
            if let Some(g) = gathered {
                assert_eq!(g, a);
            }
        }
    }

    #[test]
    fn agreed_step_requires_unanimity() {
        let u = sa_mpisim::Universe::new(3);
        // unanimous
        let got = u.run(|comm| {
            let _ = comm;
            agreed_step(comm, Some(4))
        });
        assert!(got.into_iter().all(|s| s == Some(4)));
        // one rank behind → everyone starts fresh
        let got = u.run(|comm| {
            let mine = if comm.rank() == 1 { Some(3) } else { Some(4) };
            agreed_step(comm, mine)
        });
        assert!(got.into_iter().all(|s| s.is_none()));
        // one rank has nothing → fresh
        let got = u.run(|comm| {
            let mine = if comm.rank() == 2 { None } else { Some(9) };
            agreed_step(comm, mine)
        });
        assert!(got.into_iter().all(|s| s.is_none()));
    }
}
