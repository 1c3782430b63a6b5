//! Process-per-rank backend: one OS process per rank over Unix socket pairs.
//!
//! The in-process backends (`sim` and `threads`) share one address space,
//! which makes wall-clock numbers thread-shared and window gets zero-copy.
//! `procs` is the backend that makes multi-core measurements honest: every
//! rank is a forked OS process with its own heap, two-sided messages cross
//! a real socket using the [`wire`](crate::wire) framing, and a window get
//! copies out of the target's read-only mapping. The rank's
//! [`RankComm`](crate::RankComm) is the same type as in-process; its
//! transport is a [`ProcLink`] over this process's [`ProcNode`].
//!
//! # Architecture
//!
//! * **Bootstrap: socket pairs made before fork.** The parent creates one
//!   `UnixStream` pair per unordered rank pair and one per rank for its
//!   outcome link, then forks `n` children. Rank `r` keeps its `n − 1`
//!   mesh ends and its outcome end and closes every other inherited end;
//!   the parent closes every mesh end and every child-side outcome end.
//!   No address, port or handshake is involved. Launches in one process
//!   are serialized from the first pair until the parent has closed its
//!   copies, so no child inherits another job's mesh ends (which would
//!   hide a dead peer's EOF from that job's survivors).
//! * **Progress engine.** Per peer, each child runs a *reader* thread
//!   that drains the socket: data into the inbox, failure frames into the
//!   scheduler poison — each consumer once per read, not once per frame.
//!   Readers never write, so every socket always has an active drain —
//!   the classic two-sided flow-control deadlock cannot form.
//! * **Blocking.** The rank's main thread blocks only through
//!   [`Scheduler::park_until`], the same single parking point as the
//!   in-process backends — so poison wake-ups ([`CommError::PeerFailed`])
//!   and the stall watchdog ([`CommError::Timeout`] plus the wait-table
//!   dump) work identically. A dead socket or a damaged frame poisons the
//!   job: the reader that sees an unexpected EOF or a CRC rejection names
//!   that peer as the victim. A stream socket already delivers every frame
//!   once and in order, so there is no acknowledgement or retransmission
//!   layer.
//! * **Windows.** [`Comm::expose`] writes the deposit into an unnamed
//!   tmpfs file (`O_TMPFILE` under `/dev/shm`), allgathers `(pid, fd,
//!   bytes)` over the unmetered control plane, and maps every peer's file
//!   read-only through `/proc/<pid>/fd/<fd>` (`MPI_Win_allocate_shared`:
//!   every rank is a fork on one host). A get is a copy out of the
//!   target's mapping on the issuing thread — no frame, and the target
//!   takes no part, preserving the passive-target contract. A mapping
//!   outlives its owner, so a dead target's window stays readable; a
//!   survivor learns of the death at its next two-sided call or at the
//!   terminal barrier.
//! * **Terminal barrier.** A rank whose closure returns enters one
//!   unmetered barrier on the world communicator before it reports, then
//!   says [`Frame::Bye`] and exits. A rank that died anywhere in the job
//!   turns every survivor's `Ok` into
//!   [`PeerFailed`](CommError::PeerFailed) naming it.
//! * **Outcomes.** Each child reports a serialized
//!   [`RankOutcome`](crate::RankOutcome) to the parent over its outcome
//!   link and `_exit`s; the parent reads the outcomes in rank order. A
//!   child that dies without reporting (e.g. `kill -9`) is classified from
//!   its `waitpid` status.
//!
//! Accounting is byte-identical to the in-process backends by
//! construction: [`RankComm`](crate::RankComm) meters the vector in hand
//! before it picks a transport (self-sends free, the control tag range
//! unmetered, window gets charged to the issuer only), and the collectives
//! and the control plane (barrier, split, exposure) are provided [`Comm`]
//! methods over that core. The backend-conformance suite asserts the
//! identity per rank.

use crate::backend::Comm;
use crate::comm::{RankComm, Transport};
use crate::error::{raise, CommError, Primitive, RankError, RankOutcome};
use crate::scheduler::{self, PoisonGuard, Scheduler, WaitSite};
use crate::universe::{rank_pool, Universe};
use crate::window::{Exposure, WinElem};
use crate::wire::{get_payload, type_fp, Frame, Wire, WireError, MAX_FRAME};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::fs::OpenOptionsExt;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Minimal libc surface for process management — declared directly so the
/// offline build needs no `libc` crate.
pub(crate) mod sys {
    extern "C" {
        pub fn fork() -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn getpid() -> i32;
        pub fn _exit(code: i32) -> !;
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// `WIFEXITED`/`WEXITSTATUS`: normal exit code, if any.
    pub fn exit_code(status: i32) -> Option<i32> {
        ((status & 0x7f) == 0).then_some((status >> 8) & 0xff)
    }

    /// `WIFSIGNALED`/`WTERMSIG`: fatal signal number, if any.
    pub fn term_signal(status: i32) -> Option<i32> {
        let sig = status & 0x7f;
        (sig != 0 && sig != 0x7f).then_some(sig)
    }
}

/// Set in every forked rank process before anything else runs; lets
/// backend-agnostic code (e.g. [`FaultAction::Kill`](crate::FaultAction))
/// ask "am I a forked rank process, where SIGKILLing myself kills one rank
/// and not the whole test binary?"
static IN_FORKED_CHILD: AtomicBool = AtomicBool::new(false);

pub(crate) fn in_forked_child() -> bool {
    IN_FORKED_CHILD.load(Ordering::Relaxed)
}

/// Keep every panic of a forked rank process off the default hook, which
/// holds a process-global lock while it prints: a launching-process
/// thread that was printing a panic at the fork leaves that lock held in
/// the child for good, and the child's own panic would then wait on it
/// forever. A rank's panic message reaches the launcher in its outcome
/// instead (and `launch` logs it). Installed once, before the first fork;
/// outside a rank process the hook defers to the one it replaced.
fn silence_rank_process_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let launcher = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_forked_child() {
                launcher(info);
            }
        }));
    });
}

/// Kill the calling process with SIGKILL — no unwinding, no atexit, no
/// chance to say goodbye. The real "power cord pulled" failure mode for
/// the fault matrix; survivors must detect it from the dead socket alone.
pub fn kill_self_with_sigkill() -> ! {
    unsafe {
        sys::kill(sys::getpid(), 9);
    }
    // SIGKILL is not deliverable to a stopped clock, but is to us; if the
    // kernel somehow let us get here, exit hard anyway.
    unsafe { sys::_exit(137) }
}

// ---------------------------------------------------------------------------
// Socket framing helpers
// ---------------------------------------------------------------------------

fn write_frame(stream: &mut UnixStream, frame: &Frame) -> std::io::Result<()> {
    let mut msg = Vec::new();
    frame.put_framed(&mut msg);
    stream.write_all(&msg)
}

/// Why reading one frame off a link failed — the distinction the mesh
/// reader threads act on.
enum RecvFailure {
    /// The socket itself failed (EOF, reset, short read): the
    /// length-delimited framing is gone and the link is dead.
    Io,
    /// The frame arrived intact as a byte string but its length prefix,
    /// its CRC or its structure rejected it. The socket delivers every
    /// byte once and in order, so damage is never line noise: the sender
    /// is broken, and the link poisons naming it — even after its `Bye`,
    /// unlike a clean EOF.
    Corrupt(WireError),
}

/// Read one `[u32 LE length][kind][body][crc]` frame, classifying the
/// failure mode (see [`RecvFailure`]).
fn read_frame_raw(stream: &mut impl Read) -> Result<Frame, RecvFailure> {
    let mut len4 = [0u8; 4];
    stream.read_exact(&mut len4).map_err(|_| RecvFailure::Io)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_FRAME {
        return Err(RecvFailure::Corrupt(WireError::FrameTooLarge { len }));
    }
    // Straight into uninitialised capacity (no zero-fill pass over a
    // multi-MB body); the frame then keeps this allocation as its payload.
    let mut body = Vec::with_capacity(len);
    let got = stream
        .by_ref()
        .take(len as u64)
        .read_to_end(&mut body)
        .map_err(|_| RecvFailure::Io)?;
    if got < len {
        return Err(RecvFailure::Io);
    }
    Frame::from_vec(body).map_err(RecvFailure::Corrupt)
}

// ---------------------------------------------------------------------------
// Per-process shared state (one ProcNode per child process)
// ---------------------------------------------------------------------------

/// Inbox key: (communicator id, sender's rank *in that communicator*, tag).
type MsgKey = (u64, u64, u64);

/// A queued two-sided message in wire form: a peer's `Data` frame, or a
/// self-send encoded the same way. The receiver checks `type_fp` against
/// its `T` and decodes `count` elements from `bytes`.
struct InPayload {
    type_fp: u64,
    count: u64,
    bytes: Vec<u8>,
}

struct Inbox {
    map: Mutex<HashMap<MsgKey, VecDeque<InPayload>>>,
    cv: Condvar,
}

/// The data frames one pass of a link reader collected, in arrival order.
type Batch = Vec<(MsgKey, InPayload)>;

/// How one pass of a link reader ended.
enum PassEnd {
    /// The buffer holds no whole frame, so the next read may block.
    Drained,
    Bye,
    Abort {
        victim: u64,
    },
    /// A frame no mesh link carries: a child-to-parent `Outcome`, or a
    /// `GetResp`, which no runtime path sends.
    Stray,
    Failed(RecvFailure),
}

/// Whether `buf` starts with a whole frame, length prefix included.
fn holds_whole_frame(buf: &[u8]) -> bool {
    buf.get(..4).is_some_and(|len4| {
        let len = u32::from_le_bytes(len4.try_into().expect("length prefix"));
        buf.len() - 4 >= len as usize
    })
}

/// One pass of a link reader: read frames into `batch` until the buffer
/// no longer holds a whole frame, a control frame arrives or the link
/// fails. Only the pass's first read may block, so the caller can hand on
/// what the pass collected before it waits for more.
fn read_pass(stream: &mut BufReader<impl Read>, batch: &mut Batch) -> PassEnd {
    loop {
        let frame = match read_frame_raw(stream) {
            Ok(frame) => frame,
            Err(e) => return PassEnd::Failed(e),
        };
        match frame {
            Frame::Data {
                comm_id,
                src,
                tag,
                type_fp,
                count,
                payload,
            } => batch.push((
                (comm_id, src, tag),
                InPayload {
                    type_fp,
                    count,
                    bytes: payload,
                },
            )),
            Frame::Heartbeat => {} // the read it arrived in proves liveness
            Frame::Bye => return PassEnd::Bye,
            Frame::Abort { victim } => return PassEnd::Abort { victim },
            Frame::GetResp { .. } | Frame::Outcome { .. } => return PassEnd::Stray,
        }
        if !holds_whole_frame(stream.buffer()) {
            return PassEnd::Drained;
        }
    }
}

/// Process-local heartbeat mute for tests: models a peer that is wedged —
/// alive enough to keep its links open, too stuck to prove liveness.
/// Affects only the calling process, i.e. exactly one rank under the
/// procs backend.
static HEARTBEATS_MUTED: AtomicBool = AtomicBool::new(false);

/// Stop this process's heartbeat beacons (test hook; see
/// `HEARTBEATS_MUTED` above). Under the procs backend each rank is its
/// own process, so muting inside a rank closure wedges that rank only.
pub fn mute_heartbeats() {
    HEARTBEATS_MUTED.store(true, Ordering::Relaxed);
}

/// Process-local one-shot corruption for tests: models a sender whose
/// bytes go bad between encode and socket. Armed by
/// [`corrupt_next_frame`], consumed by the next data-plane write.
static CORRUPT_NEXT_FRAME: AtomicBool = AtomicBool::new(false);

/// Flip one bit past the length prefix of the next `Data` frame this
/// process writes (test hook; see
/// `CORRUPT_NEXT_FRAME` above). The receiver's CRC check rejects it, and
/// the receiver fails the job naming this rank.
pub fn corrupt_next_frame() {
    CORRUPT_NEXT_FRAME.store(true, Ordering::Relaxed);
}

/// Everything one rank *process* shares between its main thread and its
/// per-peer reader threads.
struct ProcNode {
    world_rank: usize,
    world_size: usize,
    sched: Arc<Scheduler>,
    /// Write halves of the mesh links, indexed by world rank (`None` at
    /// our own slot). Locked per write; one whole frame per `write_all`.
    links: Vec<Option<Mutex<UnixStream>>>,
    inbox: Inbox,
    /// Which peers have finished (Bye, Abort, or EOF): a failed write waits
    /// for its link's reader here, the heartbeat monitor stops beaconing.
    peers_done: Mutex<Vec<bool>>,
    peers_done_cv: Condvar,
    /// Per-peer last-seen clocks, refreshed on every read that delivered
    /// frames; the heartbeat monitor converts a stale clock into a typed
    /// peer failure.
    last_seen: Vec<Mutex<Instant>>,
}

impl ProcNode {
    /// Rank `world_rank`'s node over the write halves `links` (one slot per
    /// world rank, `None` at its own).
    fn new(
        world_rank: usize,
        sched: Arc<Scheduler>,
        links: Vec<Option<Mutex<UnixStream>>>,
    ) -> Self {
        let world_size = links.len();
        let mut peers_done = vec![false; world_size];
        peers_done[world_rank] = true;
        ProcNode {
            world_rank,
            world_size,
            sched,
            links,
            inbox: Inbox {
                map: Mutex::new(HashMap::new()),
                cv: Condvar::new(),
            },
            peers_done: Mutex::new(peers_done),
            peers_done_cv: Condvar::new(),
            last_seen: (0..world_size)
                .map(|_| Mutex::new(Instant::now()))
                .collect(),
        }
    }

    fn send_frame(&self, world: usize, frame: &Frame) -> std::io::Result<()> {
        let link = self.links[world]
            .as_ref()
            .expect("no link to self — caller handles self-sends locally");
        write_frame(&mut link.lock(), frame)
    }

    /// Best-effort frame to every peer (shutdown/failure notifications).
    fn send_frame_all(&self, frame: &Frame) {
        for world in 0..self.world_size {
            if world != self.world_rank {
                let _ = self.send_frame(world, frame);
            }
        }
    }

    fn mark_peer_done(&self, world: usize) {
        let mut done = self.peers_done.lock();
        done[world] = true;
        self.peers_done_cv.notify_all();
    }

    /// `world` is gone: a write to it failed, or its window file could not
    /// be opened. Its reader first drains what the peer sent before
    /// closing — an `Abort` there names the job's real victim — so wait
    /// for it, then poison naming the peer if nothing else did.
    fn peer_gone(&self, world: usize) {
        let mut done = self.peers_done.lock();
        while !done[world] {
            self.peers_done_cv.wait(&mut done);
        }
        drop(done);
        self.sched.poison(world);
    }

    /// Write a pre-encoded `Data` frame (socket form, length prefix
    /// included) to `world`'s link in one `write_all` — the data plane's
    /// one write path.
    fn write_raw(&self, world: usize, bytes: &[u8]) -> std::io::Result<()> {
        let link = self.links[world]
            .as_ref()
            .expect("no link to self — caller handles self-sends locally");
        if !bytes.is_empty() && CORRUPT_NEXT_FRAME.swap(false, Ordering::Relaxed) {
            let len = u32::from_le_bytes(bytes[..4].try_into().expect("length prefix"));
            let mut bad = bytes.to_vec();
            bad[4 + len as usize / 2] ^= 0x40;
            return link.lock().write_all(&bad);
        }
        link.lock().write_all(bytes)
    }

    /// Refresh `world`'s last-seen clock (called once per read that
    /// delivered frames).
    fn note_alive(&self, world: usize) {
        *self.last_seen[world].lock() = Instant::now();
    }

    /// Hand `batch` on to the inbox in arrival order, under one lock and
    /// one wake-up.
    fn publish(&self, batch: &mut Batch) {
        if !batch.is_empty() {
            let mut map = self.inbox.map.lock();
            for (key, msg) in batch.drain(..) {
                map.entry(key).or_default().push_back(msg);
            }
            drop(map);
            self.inbox.cv.notify_all();
        }
    }

    /// Reader thread body for the link to `peer`, in passes of
    /// [`read_pass`]. What a pass collected is handed on before the reader
    /// acts on the frame or failure that ended it, and before its next read
    /// that may block — so no frame waits behind a read, and no `Bye` or
    /// `Abort` overtakes the data sent before it. Never writes to any
    /// socket (deadlock-freedom invariant).
    fn reader_loop(self: &Arc<Self>, peer: usize, stream: impl Read) {
        let mut stream = BufReader::new(stream);
        let mut batch = Batch::new();
        let mut clean = false;
        loop {
            let end = read_pass(&mut stream, &mut batch);
            self.publish(&mut batch);
            match end {
                PassEnd::Drained => {}
                PassEnd::Bye => {
                    clean = true;
                    self.mark_peer_done(peer);
                }
                PassEnd::Abort { victim } => {
                    self.sched.poison(victim as usize);
                    self.mark_peer_done(peer);
                }
                PassEnd::Stray => {
                    // Protocol corruption: the sender is broken.
                    self.sched.poison(peer);
                    self.mark_peer_done(peer);
                    return;
                }
                PassEnd::Failed(RecvFailure::Corrupt(e)) => {
                    // Detected, typed, never a silent wrong answer: a
                    // damaged frame is a failed peer.
                    eprintln!(
                        "[sa_mpisim] rank {}: corrupt frame from peer {peer}: {e}",
                        self.world_rank
                    );
                    self.sched.poison(peer);
                    self.mark_peer_done(peer);
                    return;
                }
                PassEnd::Failed(RecvFailure::Io) => {
                    // EOF or a dead socket. After a Bye this is the peer's
                    // normal exit; before one it is a crash (e.g. kill -9)
                    // — the dead socket is the failure signal, poison the
                    // job.
                    if !clean {
                        self.sched.poison(peer);
                    }
                    self.mark_peer_done(peer);
                    return;
                }
            }
            self.note_alive(peer);
        }
    }

    /// Heartbeat monitor thread body (spawned only when a heartbeat
    /// deadline is configured): beacon every live peer and convert a peer
    /// whose last-seen clock goes stale past `deadline` into a typed
    /// failure — bounded-time detection of wedged peers, well before the
    /// stall watchdog.
    fn heartbeat_loop(self: &Arc<Self>, deadline: Duration) {
        let tick = (deadline / 4).max(Duration::from_millis(1));
        loop {
            std::thread::sleep(tick);
            if self.peers_done.lock().iter().all(|&d| d) {
                return;
            }
            for world in 0..self.world_size {
                if world == self.world_rank || self.peers_done.lock()[world] {
                    continue;
                }
                if !HEARTBEATS_MUTED.load(Ordering::Relaxed) {
                    // Best-effort: a dead link is the reader's EOF to report.
                    let _ = self.send_frame(world, &Frame::Heartbeat);
                }
                let idle = self.last_seen[world].lock().elapsed();
                if idle > deadline {
                    eprintln!(
                        "[sa_mpisim] rank {}: peer {world} silent for {:.3}s \
                         (heartbeat deadline {:.3}s) — declaring it failed",
                        self.world_rank,
                        idle.as_secs_f64(),
                        deadline.as_secs_f64()
                    );
                    self.sched.poison(world);
                    self.mark_peer_done(world);
                }
            }
        }
    }
}

/// A peer's window file, mapped read-only; unmapped on drop.
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `ptr..ptr + len` is a read-only shared mapping, valid until
// `drop` unmaps it; nothing writes through it, and its owner never
// rewrites or truncates the file, so any thread may read it.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map the first `len > 0` bytes of `file` read-only.
    fn new(file: &File, len: usize) -> std::io::Result<Mapping> {
        // PROT_READ = 1, MAP_SHARED = 1; MAP_FAILED is (void *) -1.
        // SAFETY: a new mapping at an address the kernel picks, of an open
        // file; a bad length or descriptor is an error return, not UB.
        let ptr = unsafe { sys::mmap(std::ptr::null_mut(), len, 1, 1, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping { ptr, len })
    }
}

impl AsRef<[u8]> for Mapping {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: `new` mapped `len` readable bytes at `ptr`, and they stay
        // mapped while `self` lives.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: exactly the region `new` mapped; no slice of it outlives
        // `self`. An error leaves it mapped, which is harmless.
        unsafe { sys::munmap(self.ptr, self.len) };
    }
}

/// Write a deposit — `a`'s little-endian bytes, then `b`'s — into a new
/// unnamed file on `/dev/shm` (`O_TMPFILE`): it has no name to leave
/// behind, whoever dies. Returns the file and its length in bytes.
fn window_file<T: WinElem, U: WinElem>(a: &[T], b: &[U]) -> std::io::Result<(File, usize)> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .mode(0o600)
        // O_TMPFILE: __O_TMPFILE | O_DIRECTORY, whose bit differs on arm64
        .custom_flags(if cfg!(target_arch = "aarch64") {
            0o20040000
        } else {
            0o20200000
        })
        .open("/dev/shm")?;
    let mut bytes = Vec::new();
    T::put_slice(a, &mut bytes);
    file.write_all(&bytes)?;
    let total = bytes.len();
    bytes.clear();
    U::put_slice(b, &mut bytes);
    file.write_all(&bytes)?;
    Ok((file, total + bytes.len()))
}

// ---------------------------------------------------------------------------
// The communicator
// ---------------------------------------------------------------------------

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `procs` transport of one communicator (a [`RankComm`]'s
/// `Transport::Proc`): its id on the wire, its members' world ranks and
/// the rank process's node. The caller has checked the peer rank and
/// metered the vector; a window deposit is shared as a read-only mapping
/// (see the module docs).
pub(crate) struct ProcLink {
    comm_id: u64,
    /// Communicator rank → world rank.
    members: Arc<Vec<usize>>,
    node: Arc<ProcNode>,
}

impl ProcLink {
    fn world_of(&self, comm_rank: usize) -> usize {
        self.members[comm_rank]
    }

    /// Map the window file `rank` announced as `[pid, fd, bytes]`. A file
    /// that cannot be opened or mapped means its owner is gone — it closes
    /// the file early only by unwinding — so fail typed, naming the job's
    /// victim once the owner's reader has seen its last frame: the owner
    /// itself, or the victim its `Abort` names.
    fn map_window(&self, rank: usize, entry: &[u64]) -> Arc<dyn AsRef<[u8]> + Send + Sync> {
        let [pid, fd, bytes] = entry else {
            unreachable!("three words per rank")
        };
        if *bytes == 0 {
            return Arc::new(Vec::new());
        }
        let file = File::open(format!("/proc/{pid}/fd/{fd}"));
        match file.and_then(|file| Mapping::new(&file, *bytes as usize)) {
            Ok(mapping) => Arc::new(mapping),
            Err(_) => {
                let world = self.world_of(rank);
                self.node.peer_gone(world);
                raise(CommError::PeerFailed {
                    rank: self.node.sched.poison_victim().unwrap_or(world),
                    primitive: Primitive::Exchange,
                })
            }
        }
    }

    /// Park until a message under `key` is queued, then pop it. The only
    /// blocking point of the two-sided path — poison and watchdog flow
    /// through [`Scheduler::park_until`] exactly as in-process.
    fn pop_message(&self, key: MsgKey, site: WaitSite) -> InPayload {
        let ready =
            |m: &HashMap<MsgKey, VecDeque<InPayload>>| m.get(&key).is_some_and(|q| !q.is_empty());
        if let Err(e) =
            self.node
                .sched
                .park_until(&self.node.inbox.map, &self.node.inbox.cv, site, ready)
        {
            raise(e);
        }
        self.node
            .inbox
            .map
            .lock()
            .get_mut(&key)
            .and_then(|q| q.pop_front())
            .expect("park_until observed a queued message")
    }

    /// `rank`'s send of `data` to `dst` under `tag`.
    pub(crate) fn send<T: Wire>(&self, rank: usize, dst: usize, tag: u64, data: &[T]) {
        if dst == rank {
            // A self-send is encoded and queued in the form a peer's frame
            // arrives in, so one decode path (and one type check) serves
            // every message; the metering rule leaves it free.
            let mut bytes = Vec::with_capacity(std::mem::size_of_val(data));
            T::put_slice(data, &mut bytes);
            let msg = InPayload {
                type_fp: type_fp::<T>(),
                count: data.len() as u64,
                bytes,
            };
            self.node
                .publish(&mut vec![((self.comm_id, rank as u64, tag), msg)]);
            return;
        }
        let frame = Frame::Data {
            comm_id: self.comm_id,
            src: rank as u64,
            tag,
            type_fp: type_fp::<T>(),
            count: data.len() as u64,
            payload: Vec::new(),
        };
        let world = self.world_of(dst);
        // The elements are encoded once, into the buffer the socket write
        // reads — sized for fixed-width elements plus header and suffixes.
        let mut msg = Vec::with_capacity(std::mem::size_of_val(data) + 128);
        frame.put_framed_with(&mut msg, |out| T::put_slice(data, out));
        if self.node.write_raw(world, &msg).is_err() {
            // Dead socket: the peer is gone. Name the job's victim and
            // unwind — a send can no longer be "eager and never blocks"
            // when the destination no longer exists.
            self.node.peer_gone(world);
            let victim = self.node.sched.poison_victim().unwrap_or(world);
            raise(CommError::PeerFailed {
                rank: victim,
                primitive: WaitSite::recv(world, tag).primitive,
            });
        }
    }

    /// The receive of a message from `src` under `tag`.
    pub(crate) fn recv<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        let key = (self.comm_id, src as u64, tag);
        let site = WaitSite::recv(self.world_of(src), tag);
        let msg = self.pop_message(key, site);
        assert_eq!(
            msg.type_fp,
            type_fp::<T>(),
            "message type mismatch: receiver expects {}",
            std::any::type_name::<T>()
        );
        get_payload(msg.count, &msg.bytes).expect("peer sent an undecodable payload")
    }

    /// The link of the sub-communicator `group` (old ranks, in new-rank
    /// order) of `color`, split at op `split_op` of this one.
    pub(crate) fn split(&self, split_op: u64, color: usize, group: Vec<usize>) -> ProcLink {
        let members: Vec<usize> = group.into_iter().map(|r| self.world_of(r)).collect();
        let comm_id = mix64(
            self.comm_id ^ (split_op << 20) ^ (color as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        ProcLink {
            comm_id,
            members: Arc::new(members),
            node: self.node.clone(),
        }
    }

    /// `comm`'s exposure of `deposit`: written to a window file that every
    /// peer maps read-only.
    pub(crate) fn expose<T: WinElem, U: WinElem>(
        &self,
        comm: &RankComm,
        deposit: Arc<(Vec<T>, Vec<U>)>,
    ) -> Vec<Exposure<T, U>> {
        let (a, b) = &*deposit;
        let file = (!a.is_empty()).then(|| {
            window_file(a, b).unwrap_or_else(|e| {
                panic!("procs expose: cannot write the window file under /dev/shm: {e}")
            })
        });
        let (fd, bytes) = file.as_ref().map_or((0, 0), |(file, bytes)| {
            (file.as_raw_fd() as u64, *bytes as u64)
        });
        // SAFETY: `getpid` has no preconditions.
        let pid = unsafe { sys::getpid() } as u64;
        let all = comm.control_allgather(Primitive::Exchange, vec![pid, fd, bytes]);
        let exposure = all
            .chunks(3)
            .enumerate()
            .map(|(rank, entry)| {
                if rank == comm.rank() {
                    Exposure::Shared(deposit.clone())
                } else {
                    Exposure::Mapped(self.map_window(rank, entry))
                }
            })
            .collect();
        // Every peer has mapped this rank's file once this round completes;
        // closing it earlier could hand a slow peer's open a reused number.
        comm.control_allgather::<u64>(Primitive::Exchange, Vec::new());
        drop(file);
        exposure
    }
}

// ---------------------------------------------------------------------------
// Child-side launch
// ---------------------------------------------------------------------------

/// Run the rank closure over the inherited mesh ends, pass the terminal
/// barrier, report on `outcome`, `_exit`. Never returns; never unwinds
/// past this frame.
fn child_main<F, R>(
    rank: usize,
    u: Universe,
    streams: Vec<Option<UnixStream>>,
    outcome: UnixStream,
    f: &F,
) -> !
where
    F: Fn(&RankComm) -> R + Send + Sync,
    R: Wire + Send,
{
    IN_FORKED_CHILD.store(true, Ordering::Relaxed);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        child_body(rank, u, streams, outcome, f)
    }));
    // A panic escaping child_body means the progress engine itself failed
    // to start (threads, pools, ...) — nothing to report on, just die
    // nonzero so the parent classifies us from waitpid.
    match outcome {
        Ok(code) => unsafe { sys::_exit(code) },
        Err(_) => unsafe { sys::_exit(101) },
    }
}

/// `streams[s]` is this rank's end of its link to rank `s` (`None` at its
/// own slot); `parent` is its end of the outcome link.
fn child_body<F, R>(
    rank: usize,
    u: Universe,
    streams: Vec<Option<UnixStream>>,
    mut parent: UnixStream,
    f: &F,
) -> i32
where
    F: Fn(&RankComm) -> R + Send + Sync,
    R: Wire + Send,
{
    let nranks = u.nranks();
    // --- progress engine ---
    let sched = Scheduler::parallel(nranks, u.watchdog());
    scheduler::set_world_rank(rank);
    let read_halves: Vec<Option<UnixStream>> = streams
        .iter()
        .map(|s| s.as_ref().map(|s| s.try_clone().expect("clone link")))
        .collect();
    let links = streams.into_iter().map(|s| s.map(Mutex::new)).collect();
    let node = Arc::new(ProcNode::new(rank, sched.clone(), links));
    if let Some(deadline) = u.heartbeat() {
        let n = node.clone();
        std::thread::Builder::new()
            .name(format!("sa-proc{rank}-hb"))
            .spawn(move || n.heartbeat_loop(deadline))
            .expect("spawn heartbeat monitor");
    }
    for (peer, read) in read_halves.into_iter().enumerate() {
        if let Some(stream) = read {
            let n = node.clone();
            std::thread::Builder::new()
                .name(format!("sa-proc{rank}-rd{peer}"))
                .spawn(move || n.reader_loop(peer, stream))
                .expect("spawn reader");
        }
    }

    // --- run the rank closure ---
    let link = ProcLink {
        comm_id: 0,
        members: Arc::new((0..nranks).collect()),
        node: node.clone(),
    };
    let pool = rank_pool(rank, u.threads_per_rank());
    let comm = RankComm::world(rank, nranks, Transport::Proc(link), pool);
    let result: Result<R, RankError> =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Poisons the job on unwind (during the catch) so the Abort
            // broadcast below always names a victim — same guard, same
            // ordering as the in-process rank threads.
            let _poison = PoisonGuard::new(&sched, rank);
            let out = f(&comm);
            // The terminal barrier: `Ok` only if every rank finished.
            comm.barrier();
            out
        })) {
            Ok(v) => Ok(v),
            Err(payload) => Err(RankError::from_payload(payload.as_ref())),
        };

    // --- shutdown ---
    match &result {
        // Every rank passed the terminal barrier: nothing more will be
        // asked of this one, so its EOF after the Bye is clean.
        Ok(_) => node.send_frame_all(&Frame::Bye),
        Err(_) => {
            // Tell everyone who the victim is (poison already set by the
            // guard; cascading failures keep naming the original). A peer
            // that died first (EPIPE on these writes) is ignored.
            let victim = sched.poison_victim().unwrap_or(rank);
            node.send_frame_all(&Frame::Abort {
                victim: victim as u64,
            });
        }
    }
    let payload = result.to_bytes();
    let _ = write_frame(&mut parent, &Frame::Outcome { payload });
    0
}

// ---------------------------------------------------------------------------
// Parent-side launch
// ---------------------------------------------------------------------------

/// Held by a launch from its first socket pair until the parent has
/// closed its copies of the children's ends. `fork` copies every open
/// descriptor, so a launch forking while another launch's ends are open in
/// this process would hand them to its own children — and a SIGKILLed rank
/// of the other job would then never read as EOF to that job's survivors.
static LAUNCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Fork one process per rank, run `f` in each, and collect every rank's
/// typed outcome. Called by
/// [`Universe::try_launch`](crate::Universe::try_launch).
pub(crate) fn launch_procs<F, R>(u: Universe, f: F) -> Vec<RankOutcome<R>>
where
    F: Fn(&RankComm) -> R + Send + Sync,
    R: Wire + Send,
{
    silence_rank_process_panics();
    let nranks = u.nranks();
    let launch = LAUNCH.lock().unwrap_or_else(PoisonError::into_inner);
    // mesh[r][s]: rank r's end of its link to rank s.
    let mut mesh: Vec<Vec<Option<UnixStream>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    for (r, s) in (0..nranks).flat_map(|r| (r + 1..nranks).map(move |s| (r, s))) {
        let (a, b) = UnixStream::pair().expect("mesh socket pair");
        mesh[r][s] = Some(a);
        mesh[s][r] = Some(b);
    }
    let (reports, mut child_ends): (Vec<UnixStream>, Vec<UnixStream>) = (0..nranks)
        .map(|_| UnixStream::pair().expect("outcome socket pair"))
        .unzip();

    let mut pids = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        match unsafe { sys::fork() } {
            0 => {
                // Keep this rank's ends; close every other inherited one
                // before any thread starts, and release this copy of the
                // launch lock.
                let streams = std::mem::take(&mut mesh[rank]);
                let outcome = child_ends.swap_remove(rank);
                drop((launch, mesh, reports, child_ends));
                child_main(rank, u, streams, outcome, &f)
            }
            pid if pid > 0 => pids.push(pid),
            _ => panic!("fork failed (rank {rank})"),
        }
    }
    drop((mesh, child_ends));
    drop(launch);

    // Outcomes in rank order on this thread. Every child says Bye or Abort
    // to its peers before it reports and needs nothing from the parent to
    // finish, so a rank blocked writing its report holds nobody up. `None`
    // (EOF or bytes that do not decode) defers to the waitpid
    // classification below — never a parent panic.
    let payloads = reports
        .into_iter()
        .map(|mut c| match read_frame_raw(&mut c) {
            Ok(Frame::Outcome { payload }) => Some(payload),
            _ => None,
        });

    let mut outcomes = Vec::with_capacity(nranks);
    for (rank, (payload, pid)) in payloads.zip(pids).enumerate() {
        let mut status = 0i32;
        let r = unsafe { sys::waitpid(pid, &mut status, 0) };
        outcomes.push(match payload {
            Some(bytes) => Result::<R, RankError>::from_bytes(&bytes).unwrap_or_else(|e| {
                Err(RankError::Panic {
                    summary: format!("rank {rank} sent an undecodable result: {e}"),
                })
            }),
            // Died without reporting: classify from the wait status — this
            // is the kill -9 / hard-crash path.
            None => Err(RankError::Panic {
                summary: if r != pid {
                    format!("rank {rank} vanished (waitpid failed)")
                } else if let Some(sig) = sys::term_signal(status) {
                    format!("rank {rank} killed by signal {sig}")
                } else {
                    format!(
                        "rank {rank} exited with code {} before reporting a result",
                        sys::exit_code(status).unwrap_or(-1)
                    )
                },
            }),
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, CommStats, Universe};

    #[test]
    fn read_frame_raw_tells_a_dead_stream_from_a_damaged_frame() {
        let mut bulk = link_data(3);
        if let Frame::Data { payload, .. } = &mut bulk {
            *payload = (0..=255).cycle().take(1000).collect();
        }
        let mut wire = Vec::new();
        bulk.put_framed(&mut wire);
        let first = wire.len();
        Frame::Bye.put_framed(&mut wire);

        let mut stream = wire.as_slice();
        assert!(matches!(read_frame_raw(&mut stream), Ok(f) if f == bulk));
        assert!(matches!(read_frame_raw(&mut stream), Ok(Frame::Bye)));
        // a stream that ends anywhere inside a frame is a dead link
        for cut in 0..first {
            let got = read_frame_raw(&mut &wire[..cut]);
            assert!(matches!(got, Err(RecvFailure::Io)), "cut at {cut}");
        }
        // a flipped bit anywhere past the length prefix is caught by the
        // checksum before any field is used, and — exactly the advertised
        // length having been read — the next frame still decodes
        for at in [4, 5, 20, 500, first - 1] {
            let mut bad = wire.clone();
            bad[at] ^= 0x40;
            let mut stream = bad.as_slice();
            let got = read_frame_raw(&mut stream);
            assert!(
                matches!(got, Err(RecvFailure::Corrupt(WireError::Corrupt { .. }))),
                "flip at {at}"
            );
            assert!(matches!(read_frame_raw(&mut stream), Ok(Frame::Bye)));
        }
        // a length prefix past the cap is a damaged frame, not a dead link:
        // after a peer's Bye it must still poison naming that peer
        let mut over = wire[..first].to_vec();
        over.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut stream = over.as_slice();
        assert!(matches!(read_frame_raw(&mut stream), Ok(f) if f == bulk));
        let got = read_frame_raw(&mut stream);
        assert!(
            matches!(got, Err(RecvFailure::Corrupt(WireError::FrameTooLarge { len })) if len == MAX_FRAME + 1),
            "over-cap length prefix"
        );
    }

    /// `Data` frames and heartbeats, a `Bye`, one more `Data` frame (the
    /// reader reads on to EOF) and a last one at `wire[last..]`, cut at
    /// `tail`.
    fn mixed_link_bytes() -> (Vec<u8>, usize, usize) {
        let mut wire = Vec::new();
        for i in 0..6u64 {
            link_data(i).put_framed(&mut wire);
            if i % 3 == 0 {
                Frame::Heartbeat.put_framed(&mut wire);
            }
        }
        Frame::Bye.put_framed(&mut wire);
        link_data(6).put_framed(&mut wire);
        let last = wire.len();
        link_data(9).put_framed(&mut wire);
        let tail = last + (wire.len() - last) / 2;
        (wire, last, tail)
    }

    fn link_data(i: u64) -> Frame {
        Frame::Data {
            comm_id: 0,
            src: 1,
            tag: 5,
            type_fp: 3,
            count: 1,
            payload: i.to_le_bytes().to_vec(),
        }
    }

    /// The payloads of link messages, in order.
    fn data_bytes<'a>(msgs: impl IntoIterator<Item = &'a InPayload>) -> Vec<Vec<u8>> {
        msgs.into_iter().map(|m| m.bytes.clone()).collect()
    }

    fn payloads(of: &[u64]) -> Vec<Vec<u8>> {
        of.iter().map(|i| i.to_le_bytes().to_vec()).collect()
    }

    #[test]
    fn a_reader_pass_hands_on_a_whole_read_before_the_next_may_block() {
        let (wire, last, tail) = mixed_link_bytes();
        let mut stream = BufReader::new(&wire[..tail]);
        let mut batch = Batch::new();
        // everything before the Bye, in one batch, in arrival order; the
        // frames after it stay buffered
        assert!(matches!(read_pass(&mut stream, &mut batch), PassEnd::Bye));
        let keys: Vec<MsgKey> = batch.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, vec![(0, 1, 5); 6]);
        let got = data_bytes(batch.iter().map(|(_, m)| m));
        assert_eq!(got, payloads(&[0, 1, 2, 3, 4, 5]));
        // the next pass ends where the buffer runs out of whole frames: the
        // half frame stays buffered, unread past
        let mut batch = Batch::new();
        assert!(matches!(
            read_pass(&mut stream, &mut batch),
            PassEnd::Drained
        ));
        assert_eq!(data_bytes(batch.iter().map(|(_, m)| m)), payloads(&[6]));
        assert_eq!(stream.buffer(), &wire[last..tail]);
    }

    /// Serves `chunks` one per read, then EOF; before each read it records
    /// what the node has handed on so far: inbox messages, and whether
    /// peer 1 is done.
    struct Probe {
        chunks: VecDeque<Vec<u8>>,
        node: Arc<ProcNode>,
        seen: Vec<(usize, bool)>,
    }

    impl Read for Probe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let inbox = self.node.inbox.map.lock().values().map(VecDeque::len).sum();
            let done = self.node.peers_done.lock()[1];
            self.seen.push((inbox, done));
            let Some(chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            assert!(chunk.len() <= buf.len(), "one chunk per read");
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    fn test_node() -> Arc<ProcNode> {
        Arc::new(ProcNode::new(
            0,
            Scheduler::parallel(2, None),
            vec![None, None],
        ))
    }

    #[test]
    fn a_link_reader_publishes_before_every_read_that_may_block() {
        let (wire, _, tail) = mixed_link_bytes();
        let node = test_node();
        let mut probe = Probe {
            chunks: VecDeque::from([wire[..tail].to_vec(), wire[tail..].to_vec()]),
            node: node.clone(),
            seen: Vec::new(),
        };
        node.reader_loop(1, &mut probe);
        // the read that completes the cut frame finds everything before
        // it handed on and the Bye acted on; the read that hits EOF finds
        // the completed frame handed on too
        assert_eq!(probe.seen, vec![(0, false), (7, true), (8, true)]);
        assert_eq!(node.sched.poison_victim(), None, "EOF after a Bye is clean");
        let got = data_bytes(&node.inbox.map.lock()[&(0, 1, 5)]);
        assert_eq!(got, payloads(&[0, 1, 2, 3, 4, 5, 6, 9]));
    }

    #[test]
    fn a_get_response_on_a_mesh_link_poisons_naming_the_sender() {
        let mut wire = Vec::new();
        link_data(0).put_framed(&mut wire);
        Frame::GetResp {
            req_id: 0,
            payload: vec![0; 16],
        }
        .put_framed(&mut wire);
        link_data(1).put_framed(&mut wire);
        let node = test_node();
        node.reader_loop(1, wire.as_slice());
        assert_eq!(node.sched.poison_victim(), Some(1));
        assert!(node.peers_done.lock()[1]);
        // what arrived before it is handed on, nothing after it is read
        let got = data_bytes(&node.inbox.map.lock()[&(0, 1, 5)]);
        assert_eq!(got, payloads(&[0]));
    }

    #[test]
    fn procs_ring_and_identity() {
        let u = Universe::new(4);
        let got = u.launch(Backend::Procs, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_vec(next, 7, vec![comm.rank() as u64]);
            let from_prev = comm.recv_vec::<u64>(prev, 7);
            (comm.rank(), comm.size(), from_prev)
        });
        for (r, (rank, size, from_prev)) in got.iter().enumerate() {
            assert_eq!(*rank, r);
            assert_eq!(*size, 4);
            assert_eq!(from_prev, &vec![((r + 3) % 4) as u64]);
        }
    }

    #[test]
    fn procs_collectives_and_stats_match_sim() {
        type Out = (
            (Vec<u64>, Vec<f64>, u64, (u64, u64)),
            (Vec<Vec<String>>, Vec<Vec<(u8, i64, bool)>>),
            CommStats,
        );
        fn workload<C: Comm>(comm: &C) -> Out {
            let r = comm.rank() as u64;
            let bcast = comm.bcast_vec(0, (comm.rank() == 0).then(|| vec![5u64, 6, 7]));
            comm.barrier();
            let reduced = comm.allreduce_vec(vec![r as f64, 1.0], |a, b| a + b);
            let all = comm.allgatherv(vec![r; comm.rank() + 1]);
            let flat: u64 = all.iter().flatten().sum();
            let scan = comm.exscan_sum(r + 1);
            let a2a = comm.alltoallv((0..comm.size()).map(|d| vec![r * 10 + d as u64]).collect());
            let a2a_sum: u64 = a2a.iter().flatten().sum();
            // any `Wire` payload crosses: strings and mixed-width tuples too
            let names = comm.allgatherv(vec![format!("rank {r}"); comm.rank()]);
            let tuples = comm.allgatherv(vec![(r as u8, -(r as i64), r.is_multiple_of(2)); 2]);
            (
                (bcast, reduced, flat + a2a_sum, scan),
                (names, tuples),
                comm.stats(),
            )
        }
        let u = Universe::new(4);
        let sim = u.run(workload);
        let procs = u.launch(Backend::Procs, workload);
        assert_eq!(sim, procs, "outputs and per-rank stats must be identical");
    }

    /// `f64` and `u64` are both 8 bytes wide, so only the type fingerprint
    /// tells the receiver it asked for the wrong type — from a peer
    /// (`sender` 0) and from itself (`sender` 1) alike.
    #[test]
    fn procs_receiver_of_the_wrong_type_panics_on_the_fingerprint() {
        let u = Universe::new(2).with_watchdog(Some(Duration::from_secs(30)));
        for sender in [0, 1] {
            let got = u.try_launch(Backend::Procs, |comm| {
                if comm.rank() == sender {
                    comm.send_vec(1, 4, vec![1.5f64, -0.0]);
                }
                if comm.rank() == 1 {
                    comm.recv_vec::<u64>(sender, 4);
                }
            });
            match &got[1] {
                Err(RankError::Panic { summary }) => {
                    assert!(summary.contains("message type mismatch"), "{summary}")
                }
                other => panic!("receiver: expected the fingerprint panic, got {other:?}"),
            }
            assert!(
                matches!(
                    got[0],
                    Err(RankError::Comm(CommError::PeerFailed { rank: 1, .. }))
                ),
                "rank 0 fails naming the receiver: {:?}",
                got[0]
            );
        }
    }

    #[test]
    fn procs_self_send_is_free() {
        let u = Universe::new(2);
        let got = u.launch(Backend::Procs, |comm| {
            let before = comm.stats();
            // A self-send meets the codec like any message, but is not
            // metered.
            comm.send_vec(comm.rank(), 3, vec![(1u8, String::from("x"))]);
            let v = comm.recv_vec::<(u8, String)>(comm.rank(), 3);
            let d = comm.stats() - before;
            (v, d.sent_msgs + d.recv_msgs + d.sent_bytes)
        });
        let sent = vec![(1u8, String::from("x"))];
        assert_eq!(got, vec![(sent.clone(), 0), (sent, 0)]);
    }

    #[test]
    fn procs_windows_serve_ranged_gets() {
        use crate::PairedWindow;
        let u = Universe::new(3);
        let got = u.launch(Backend::Procs, |comm| {
            let me = comm.rank();
            let data: Vec<u64> = (0..10).map(|i| (me * 100 + i) as u64).collect();
            let win = PairedWindow::create(comm, data, vec![me as f64 + 0.5; 10]);
            let get = |rank, range| {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                win.get_both_into(comm, rank, range, &mut a, &mut b)
                    .unwrap();
                (a, b)
            };
            let slice = get(1, 2..5).0;
            let before = comm.stats();
            let _ = get((me + 1) % 3, 0..4); // remote: 32 + 32 B
            let _ = get(me, 0..4); // local: free
            let empty = get((me + 1) % 3, 2..2).0;
            let d = comm.stats() - before;
            let (a, b) = get((me + 2) % 3, 1..3);
            comm.barrier();
            (slice, d, empty.len(), a, b)
        });
        for (r, (slice, d, empty_len, a, b)) in got.iter().enumerate() {
            assert_eq!(slice, &vec![102, 103, 104]);
            assert_eq!((d.rdma_gets, d.rdma_get_bytes), (4, 64), "rank {r}");
            assert_eq!(*empty_len, 0);
            let src = (r + 2) % 3;
            assert_eq!(a, &vec![(src * 100 + 1) as u64, (src * 100 + 2) as u64]);
            assert_eq!(b, &vec![src as f64 + 0.5; 2]);
        }
    }

    #[test]
    fn procs_split_matches_sim() {
        fn workload<C: Comm>(comm: &C) -> (usize, usize, Vec<u64>, CommStats) {
            let row = comm.split(comm.rank() / 2, comm.rank());
            let g = row.allgatherv(vec![comm.rank() as u64]);
            (
                row.rank(),
                row.size(),
                g.into_iter().flatten().collect(),
                comm.stats(),
            )
        }
        let u = Universe::new(4);
        let sim = u.run(workload);
        let procs = u.launch(Backend::Procs, workload);
        assert_eq!(sim, procs);
    }

    #[test]
    fn procs_abort_terminates_survivors_typed() {
        use crate::{FaultComm, FaultPlan};
        let u = Universe::new(3).with_watchdog(Some(Duration::from_secs(30)));
        let got = u.try_launch(Backend::Procs, |comm| {
            let fc = FaultComm::new(comm.split(0, comm.rank()), FaultPlan::abort_at(1, 2));
            for round in 0..4u64 {
                let v = fc.allreduce(round + fc.rank() as u64, |a, b| a + b);
                let _ = v;
            }
            fc.rank()
        });
        assert!(got[1].is_err(), "victim must fail: {:?}", got[1]);
        for r in [0, 2] {
            match &got[r] {
                Err(RankError::Comm(CommError::PeerFailed { rank, .. })) => {
                    assert_eq!(*rank, 1, "survivor {r} must name the victim")
                }
                other => panic!("survivor {r}: expected typed PeerFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn procs_launch_panics_with_typed_payload() {
        let u = Universe::new(2).with_watchdog(Some(Duration::from_secs(30)));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            u.launch(Backend::Procs, |comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 gives up");
                }
                comm.barrier();
            })
        }))
        .unwrap_err();
        let summary = if let Some(s) = err.downcast_ref::<String>() {
            s.clone()
        } else if let Some(e) = err.downcast_ref::<CommError>() {
            e.to_string()
        } else {
            panic!("unexpected payload type");
        };
        assert!(
            summary.contains("rank 1") || summary.contains("peer rank 1"),
            "panic payload must name the failure: {summary}"
        );
    }
}
