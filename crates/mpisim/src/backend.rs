//! The backend-neutral communicator contract.
//!
//! Every distributed algorithm in this workspace is written against the
//! [`Comm`] trait, not a concrete runtime. A backend supplies the small
//! **core surface** (identity, two-sided transport, split, window exposure
//! and the metering hooks); the collectives are *provided methods* built on
//! that core, so their byte and message accounting is identical across
//! backends by construction — the property the equivalence suite asserts
//! per rank.
//!
//! The control plane — [`Comm::barrier`], [`Comm::split`] and window
//! exposure — is one unmetered allgather on every backend,
//! [`Comm::control_allgather`]: ordinary `send_vec`/`recv_vec` traffic under
//! a reserved tag range (bit 62) that no backend meters. (The two payloads
//! no wire can carry — an in-process exposure's `Arc` deposits and a
//! split's new hub — take the same shape, `gather_release`, straight over
//! the in-process mailboxes.) One classifier, `control_primitive`, tells a
//! backend whether a tag is metered and which [`Primitive`] a wait on it
//! reports.
//!
//! Three backends ship with the crate, chosen at launch time by a
//! [`Backend`] value (see `docs/BACKENDS.md` for the full contract and an
//! extension guide). All three hand each rank a
//! [`RankComm`](crate::RankComm). Two run in-process and differ only in
//! scheduling:
//!
//! * [`Backend::Sim`] — the serial rank-loop **simulator**: one rank
//!   executes at a time (a global run permit is handed over at blocking
//!   calls), so per-rank timings are measured interference-free and a
//!   run's wall-clock is the *sum* of rank work. The default.
//! * [`Backend::Threads`] — **threads as ranks**: all rank threads run
//!   concurrently; wall-clock is real parallel execution.
//!
//! The third, [`Backend::Procs`], forks one process per rank.
//!
//! ```
//! use sa_mpisim::{Backend, Comm, Universe};
//!
//! // An algorithm written once against the trait ...
//! fn ring_sum<C: Comm>(comm: &C) -> u64 {
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! }
//!
//! // ... runs on the serial simulator and the threaded backend alike,
//! // with identical results and identical metered traffic.
//! let u = Universe::new(4);
//! let serial = u.launch(Backend::Sim, |comm| (ring_sum(comm), comm.stats()));
//! let threaded = u.launch(Backend::Threads, |comm| (ring_sum(comm), comm.stats()));
//! assert_eq!(serial, threaded);
//! ```

use crate::error::Primitive;
use crate::stats::CommStats;
use crate::window::{Exposure, WinElem};
use crate::wire::Wire;
use std::sync::Arc;

/// Internal tag namespace for collectives: high bit set, op id in the middle,
/// op kind in the low byte. User tags must stay below 2^48.
fn tag(op: u64, kind: u64) -> u64 {
    (1 << 63) | (op << 8) | kind
}

const K_BCAST: u64 = 1;
const K_GATHER: u64 = 2;
const K_SCATTER: u64 = 3;
const K_ALLTOALL: u64 = 4;
const K_REDUCE: u64 = 5;

const K_BARRIER: u64 = 1;
const K_EXCHANGE: u64 = 2;

/// The reserved control tag range: bit 62 set and bit 63 clear, op id in
/// the middle, the primitive a wait reports in the low byte.
pub(crate) fn control_tag(op: u64, primitive: Primitive) -> u64 {
    let kind = if primitive == Primitive::Barrier {
        K_BARRIER
    } else {
        K_EXCHANGE
    };
    (1 << 62) | (op << 8) | kind
}

/// The one tag classifier. `Some(primitive)` for a tag in the reserved
/// control range: no backend meters a transfer under it, and a wait on it
/// reports `primitive`. `None` for every other tag: metered, and a wait on
/// it reports [`Primitive::Recv`].
pub(crate) fn control_primitive(tag: u64) -> Option<Primitive> {
    match (tag >> 62, tag & 0xff) {
        (1, K_BARRIER) => Some(Primitive::Barrier),
        (1, _) => Some(Primitive::Exchange),
        _ => None,
    }
}

/// The one metering rule, applied by every backend at both ends of a
/// `send_vec`/`recv_vec`: a transfer of `data` between `rank` and `peer`
/// under `tag` counts `size_of_val(data)` bytes, unless it is rank-local or
/// under a control tag. Each side meters from the vector in its hand, so no
/// message carries its size.
pub(crate) fn metered_bytes<T>(rank: usize, peer: usize, tag: u64, data: &[T]) -> Option<usize> {
    (peer != rank && control_primitive(tag).is_none()).then(|| std::mem::size_of_val(data))
}

/// The control plane's one shape, linear through rank 0: rank 0 gathers
/// every rank's `mine`, then releases all of them, concatenated in rank
/// order, to every rank. `send(dst, v)` and `recv(src)` move one
/// contribution under the caller's control tag.
pub(crate) fn gather_release<T: Clone>(
    rank: usize,
    size: usize,
    mine: Vec<T>,
    send: impl Fn(usize, Vec<T>),
    recv: impl Fn(usize) -> Vec<T>,
) -> Vec<T> {
    if rank == 0 {
        let mut all = mine;
        for src in 1..size {
            all.extend(recv(src));
        }
        for dst in 1..size {
            send(dst, all.clone());
        }
        all
    } else {
        send(0, mine);
        recv(0)
    }
}

/// A split's group, shared by every backend's [`Comm::split`]: one control
/// allgather of each rank's `[color, key]`, then this rank's new rank and
/// the old ranks of its color ordered by `(key, old rank)`.
pub(crate) fn split_group<C: Comm>(comm: &C, color: usize, key: usize) -> (usize, Vec<usize>) {
    let all = comm.control_allgather(Primitive::Exchange, vec![color as u64, key as u64]);
    let mut group: Vec<(u64, usize)> = all
        .chunks(2)
        .enumerate()
        .filter(|(_, ck)| ck[0] == color as u64)
        .map(|(r, ck)| (ck[1], r))
        .collect();
    group.sort_unstable();
    let members: Vec<usize> = group.into_iter().map(|(_, r)| r).collect();
    let new_rank = members
        .iter()
        .position(|&r| r == comm.rank())
        .expect("own rank in own color group");
    (new_rank, members)
}

/// One rank's handle to a communicator — the backend-neutral analog of an
/// `MPI_Comm` plus the rank's compute ("OpenMP") pool.
///
/// # Contract
///
/// A conforming backend must guarantee, for the required methods:
///
/// * **Payloads.** Everything that crosses ranks is a `Vec<T>` of a
///   [`Wire`] type, checked at compile time: a program that compiles runs
///   on every backend. The in-process backends move the vector as it is;
///   a cross-process backend encodes it with `T`'s codec and checks the
///   receiver's `T` against the type fingerprint the sender stamped.
/// * **Identity.** [`rank`](Comm::rank) is stable and unique in
///   `0..size()`; every rank of the communicator observes the same
///   [`size`](Comm::size).
/// * **Ordering.** Messages between one `(sender, receiver, tag)` triple
///   are non-overtaking (FIFO), the MPI guarantee the linear collective
///   algorithms rely on. Messages under different tags are independent.
/// * **Progress.** [`send_vec`](Comm::send_vec) is eager and never blocks
///   (unbounded buffering); [`recv_vec`](Comm::recv_vec) blocks until a
///   matching message arrives. A backend whose ranks share a scheduler
///   (e.g. the serial simulator) must keep other ranks runnable while one
///   rank blocks — blocking a rank must never block the *job*.
/// * **Metering.** Every remote transfer is counted exactly once, on the
///   initiating side as sent and on the receiving side as received, with
///   `len * size_of::<T>()` bytes that each side reads off the vector in its
///   hand (no message carries its size); rank-local transfers are free. The
///   control tag range (bit 62 set, bit 63 clear) is reserved for
///   [`control_allgather`](Comm::control_allgather) and no backend meters
///   it: barrier, split and window exposure move no counted bytes. The
///   one-sided hook [`record_get`](Comm::record_get) charges the issuing
///   rank only. Counters are monotone; [`stats`](Comm::stats) snapshots
///   them without synchronizing.
/// * **Collectives.** The provided collectives must not be overridden with
///   different traffic shapes: their linear (root-relay) decomposition into
///   `send_vec`/`recv_vec` is what makes metered volume byte-identical
///   across backends, which the repo's reports and tests assert. A backend
///   that wants faster collectives must keep the accounting identical.
pub trait Comm: Sized {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in this communicator.
    fn size(&self) -> usize;

    /// Cumulative communication counters of this rank (on this
    /// communicator and windows created from it).
    fn stats(&self) -> CommStats;

    /// The rank's compute pool ("OpenMP threads"). Run local kernels inside
    /// [`Comm::install`] so they use this pool, not the global one.
    fn pool(&self) -> &rayon::ThreadPool;

    /// Send a `Vec<T>` to `dst` under `tag` (two-sided, eager, non-blocking).
    fn send_vec<T: Wire + Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>);

    /// Blocking receive of a `Vec<T>` from `(src, tag)`.
    fn recv_vec<T: Wire + Send + 'static>(&self, src: usize, tag: u64) -> Vec<T>;

    /// Split into sub-communicators by `color`, ranked by `(key, old
    /// rank)` — the analog of `MPI_Comm_split`. Collective over all ranks,
    /// over the unmetered [`control_allgather`](Comm::control_allgather); a
    /// wait in it reports [`Primitive::Exchange`]. Traffic on the
    /// sub-communicator still charges this rank's counters (one NIC per
    /// rank).
    fn split(&self, color: usize, key: usize) -> Self;

    /// Fresh collective-operation id; identical across ranks because MPI
    /// semantics require every rank to call collectives in the same order.
    #[doc(hidden)]
    fn next_op(&self) -> u64;

    /// Metering hook for one-sided transfers: charge one RDMA get of
    /// `bytes` to this rank. Called by the batched get,
    /// [`PairedWindow::get_many_at`](crate::PairedWindow::get_many_at), for
    /// remote fetches only.
    #[doc(hidden)]
    fn record_get(&self, bytes: usize);

    /// Collective window exposure (`MPI_Win_create`) of this rank's typed
    /// deposit, two parallel arrays; built on the unmetered
    /// [`control_allgather`](Comm::control_allgather) (the subsequent
    /// `get`s are what's metered); a wait in it reports
    /// [`Primitive::Exchange`]. Returns every rank's deposit, in rank
    /// order: an in-process backend allgathers the `Arc`s
    /// ([`Exposure::Shared`]); a cross-process backend writes the arrays'
    /// little-endian bytes (`T::put_slice`, then `U::put_slice`) where its
    /// peers map them read-only ([`Exposure::Mapped`]).
    #[doc(hidden)]
    fn expose<T: WinElem, U: WinElem>(&self, deposit: Arc<(Vec<T>, Vec<U>)>)
        -> Vec<Exposure<T, U>>;

    /// The control plane's one collective: every rank contributes `mine`
    /// (the same length on every rank) and receives all contributions
    /// concatenated in rank order. Linear through rank 0 under the reserved
    /// control tag range, so no backend meters it; a wait in it reports
    /// `primitive` ([`Primitive::Barrier`] or [`Primitive::Exchange`]).
    #[doc(hidden)]
    fn control_allgather<T: Wire + Clone + Send + 'static>(
        &self,
        primitive: Primitive,
        mine: Vec<T>,
    ) -> Vec<T> {
        let t = control_tag(self.next_op(), primitive);
        gather_release(
            self.rank(),
            self.size(),
            mine,
            |dst, v| self.send_vec(dst, t, v),
            |src| self.recv_vec(src, t),
        )
    }

    /// Synchronize all ranks of this communicator: a
    /// [`control_allgather`](Comm::control_allgather) of nothing, so it
    /// moves no metered bytes; a wait in it reports [`Primitive::Barrier`].
    fn barrier(&self) {
        self.control_allgather::<u64>(Primitive::Barrier, Vec::new());
    }

    /// Execute `f` on this rank's compute pool.
    fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        self.pool().install(f)
    }

    /// Broadcast `data` from `root` to every rank; all ranks return the
    /// payload. Non-roots pass `None`.
    fn bcast_vec<T: Wire + Clone + Send + 'static>(
        &self,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        let op = self.next_op();
        let t = tag(op, K_BCAST);
        if self.rank() == root {
            let data = data.expect("root must supply bcast data");
            for dst in 0..self.size() {
                if dst != root {
                    self.send_vec(dst, t, data.clone());
                }
            }
            data
        } else {
            self.recv_vec(root, t)
        }
    }

    /// Gather each rank's vector at `root`; returns `Some(per-rank vectors)`
    /// on the root, `None` elsewhere.
    fn gatherv<T: Wire + Send + 'static>(&self, root: usize, data: Vec<T>) -> Option<Vec<Vec<T>>> {
        let op = self.next_op();
        let t = tag(op, K_GATHER);
        if self.rank() == root {
            let mut out: Vec<Option<Vec<T>>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(data);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_vec(src, t));
                }
            }
            Some(out.into_iter().map(|v| v.unwrap()).collect())
        } else {
            self.send_vec(root, t, data);
            None
        }
    }

    /// Scatter per-destination vectors from `root`; every rank returns its
    /// piece. Non-roots pass `None`.
    fn scatterv<T: Wire + Send + 'static>(&self, root: usize, data: Option<Vec<Vec<T>>>) -> Vec<T> {
        let op = self.next_op();
        let t = tag(op, K_SCATTER);
        if self.rank() == root {
            let mut data = data.expect("root must supply scatter data");
            assert_eq!(data.len(), self.size());
            let mine = std::mem::take(&mut data[self.rank()]);
            for (dst, part) in data.into_iter().enumerate() {
                if dst != self.rank() {
                    self.send_vec(dst, t, part);
                }
            }
            mine
        } else {
            self.recv_vec(root, t)
        }
    }

    /// All ranks receive every rank's vector (gather + bcast volume).
    fn allgatherv<T: Wire + Clone + Send + 'static>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        // gather to 0, then broadcast lengths+flat data
        let gathered = self.gatherv(0, data);
        let (flat, lens) = if self.rank() == 0 {
            let parts = gathered.unwrap();
            let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
            let mut flat = Vec::with_capacity(lens.iter().sum());
            for p in parts {
                flat.extend(p);
            }
            (Some(flat), Some(lens))
        } else {
            (None, None)
        };
        let lens = self.bcast_vec(0, lens);
        let flat = self.bcast_vec(0, flat);
        let mut out = Vec::with_capacity(lens.len());
        let mut off = 0usize;
        for l in lens {
            out.push(flat[off..off + l].to_vec());
            off += l;
        }
        out
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns what
    /// each source sent here.
    fn alltoallv<T: Wire + Send + 'static>(&self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(sends.len(), self.size());
        let op = self.next_op();
        let t = tag(op, K_ALLTOALL);
        let mine = std::mem::take(&mut sends[self.rank()]);
        for (dst, part) in sends.into_iter().enumerate() {
            if dst != self.rank() {
                self.send_vec(dst, t, part);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
        let mut mine = Some(mine); // self-delivery: no network traffic
        for src in 0..self.size() {
            if src == self.rank() {
                out.push(mine.take().unwrap());
            } else {
                out.push(self.recv_vec(src, t));
            }
        }
        out
    }

    /// Reduce single values to `root` with `op_fn`; `Some` on root only.
    fn reduce<T: Wire + Send + 'static>(
        &self,
        root: usize,
        value: T,
        op_fn: impl Fn(T, T) -> T,
    ) -> Option<T> {
        let op = self.next_op();
        let t = tag(op, K_REDUCE);
        if self.rank() == root {
            let mut acc = value;
            for src in 0..self.size() {
                if src != root {
                    let v = self.recv_vec::<T>(src, t).pop().unwrap();
                    acc = op_fn(acc, v);
                }
            }
            Some(acc)
        } else {
            self.send_vec(root, t, vec![value]);
            None
        }
    }

    /// All-reduce single values (reduce at 0, then broadcast).
    fn allreduce<T: Wire + Clone + Send + 'static>(
        &self,
        value: T,
        op_fn: impl Fn(T, T) -> T,
    ) -> T {
        let reduced = self.reduce(0, value, op_fn);
        self.bcast_vec(0, reduced.map(|v| vec![v])).pop().unwrap()
    }

    /// Elementwise all-reduce of equal-length vectors.
    fn allreduce_vec<T: Wire + Clone + Send + 'static>(
        &self,
        value: Vec<T>,
        op_fn: impl Fn(&T, &T) -> T,
    ) -> Vec<T> {
        let reduced = self.reduce(0, value, |a, b| {
            a.iter().zip(b.iter()).map(|(x, y)| op_fn(x, y)).collect()
        });
        self.bcast_vec(0, reduced)
    }

    /// Exclusive prefix "scan" of a single u64 (rank 0 gets 0) plus the
    /// global total — the common "compute my offset" idiom.
    fn exscan_sum(&self, value: u64) -> (u64, u64) {
        let all = self.allgatherv(vec![value]);
        let mut prefix = 0u64;
        for (r, v) in all.iter().enumerate() {
            if r == self.rank() {
                break;
            }
            prefix += v[0];
        }
        let total = all.iter().map(|v| v[0]).sum();
        (prefix, total)
    }
}

/// The backend a job runs on, chosen at launch time (`--backend threads`,
/// `SA_BACKEND=threads`) and taken by every
/// [`Universe`](crate::Universe) launch. Each hands its ranks a
/// [`RankComm`](crate::RankComm).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Serial rank-loop simulator — the default.
    #[default]
    Sim,
    /// Truly-parallel threads-as-ranks.
    Threads,
    /// Process-per-rank socket-pair backend.
    Procs,
}

impl Backend {
    /// Parse a `--backend` value: `sim` | `serial` | `threads` | `thread` |
    /// `procs` | `proc` | `process`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sim" | "serial" => Some(Backend::Sim),
            "threads" | "thread" => Some(Backend::Threads),
            "procs" | "proc" | "process" => Some(Backend::Procs),
            _ => None,
        }
    }

    /// Backend from the `SA_BACKEND` environment variable (default
    /// [`Backend::Sim`]; unknown values panic so typos can't silently
    /// change what a bench measured).
    pub fn from_env() -> Backend {
        match std::env::var("SA_BACKEND") {
            Ok(v) => Backend::parse(&v)
                .unwrap_or_else(|| panic!("SA_BACKEND={v}: expected 'sim', 'threads', or 'procs'")),
            Err(_) => Backend::Sim,
        }
    }

    /// The backend's canonical name (`"sim"` / `"threads"` / `"procs"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threads => "threads",
            Backend::Procs => "procs",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing() {
        assert_eq!(Backend::parse("sim"), Some(Backend::Sim));
        assert_eq!(Backend::parse("Serial"), Some(Backend::Sim));
        assert_eq!(Backend::parse("threads"), Some(Backend::Threads));
        assert_eq!(Backend::parse("THREAD"), Some(Backend::Threads));
        assert_eq!(Backend::parse("procs"), Some(Backend::Procs));
        assert_eq!(Backend::parse("Process"), Some(Backend::Procs));
        assert_eq!(Backend::parse("mpi"), None);
        assert_eq!(Backend::default(), Backend::Sim);
    }

    #[test]
    fn one_classifier_separates_control_from_metered_tags() {
        assert_eq!(
            control_primitive(control_tag(9, Primitive::Barrier)),
            Some(Primitive::Barrier)
        );
        assert_eq!(
            control_primitive(control_tag(9, Primitive::Exchange)),
            Some(Primitive::Exchange)
        );
        for metered in [0, 7, (1 << 48) - 1, tag(9, K_BCAST), tag(9, K_REDUCE)] {
            assert_eq!(control_primitive(metered), None, "tag {metered:#x}");
        }
    }

    #[test]
    fn mode_names_match_backend_names() {
        assert_eq!(Backend::Sim.name(), "sim");
        assert_eq!(Backend::Threads.name(), "threads");
        assert_eq!(Backend::Procs.name(), "procs");
    }
}
