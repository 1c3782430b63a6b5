//! The per-rank communicator handle of every backend.
//!
//! [`RankComm`] is one implementation shared by all three backends. The
//! identity, the counters, the collective op ids and the compute pool are
//! the same everywhere; only the private transport differs, and only the
//! methods that move bytes (`send_vec`, `recv_vec`, `expose`, `split`)
//! branch on it:
//!
//! * the in-process mailbox hub, for
//!   [`Backend::Sim`](crate::Backend::Sim) and
//!   [`Backend::Threads`](crate::Backend::Threads). The job's
//!   [`Scheduler`] alone decides how rank *execution* is scheduled (see
//!   [`crate::scheduler`]): `sim` hands one run permit over at blocking
//!   calls (wall-clock is the *sum* of rank work), `threads` runs every
//!   rank thread at once. Windows are `Arc`-shared slices (gets are
//!   memcpys);
//! * the rank process's node, for
//!   [`Backend::Procs`](crate::Backend::Procs): sockets to every peer and
//!   read-only mappings of their window files (see `proc.rs`).
//!
//! Barrier, split and window exposure are the trait's one unmetered
//! control allgather on every transport. In-process, a split's new hub
//! and an exposure's `Arc` deposits are no `Wire` payload, so they take
//! the allgather's shape straight over the hub.
//!
//! Because metering reads the vector in hand before the transport is
//! consulted, the backends are byte-identical in everything the paper
//! measures; they differ only in wall-clock.

use crate::backend::{control_tag, gather_release, metered_bytes, split_group, Comm};
use crate::error::Primitive;
use crate::p2p::Hub;
use crate::proc::ProcLink;
use crate::scheduler::Scheduler;
use crate::stats::{CommStats, StatsCell};
use crate::window::{Exposure, WinElem};
use crate::wire::Wire;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// State shared by all ranks of one in-process communicator.
pub(crate) struct Shared {
    pub hub: Hub,
    /// The job-wide execution scheduler: one per [`crate::Universe`] launch,
    /// shared by every communicator split from the world (the serial run
    /// permit must be global, or two sub-communicators could run two ranks
    /// at once).
    pub sched: Arc<Scheduler>,
}

impl Shared {
    pub fn new(n: usize, sched: Arc<Scheduler>) -> Arc<Shared> {
        Arc::new(Shared {
            hub: Hub::new(n),
            sched,
        })
    }
}

/// How one communicator's messages travel.
pub(crate) enum Transport {
    /// The in-process mailbox hub (`sim`, `threads`).
    Shared(Arc<Shared>),
    /// The rank process's sockets and window files (`procs`).
    Proc(ProcLink),
}

/// One rank's handle to a communicator — the analog of an `MPI_Comm` plus
/// the rank's OpenMP pool, on whichever [`Backend`](crate::Backend) the
/// job was launched. Lives on exactly one thread (neither `Send` nor
/// `Sync`: the stats counter models the rank's NIC and is shared by `Rc`
/// across communicators split from this one, so traffic on a row/column
/// sub-communicator still charges this rank).
///
/// Use it through the [`Comm`] trait (`use sa_mpisim::Comm`), in
/// algorithms and in the closures handed to [`crate::Universe::run`]
/// alike; it cannot be constructed directly.
pub struct RankComm {
    rank: usize,
    size: usize,
    transport: Transport,
    stats: Rc<StatsCell>,
    op_counter: Cell<u64>,
    pool: Arc<rayon::ThreadPool>,
}

impl RankComm {
    /// Rank `rank` of a world of `size` over `transport`, with fresh
    /// counters.
    pub(crate) fn world(
        rank: usize,
        size: usize,
        transport: Transport,
        pool: Arc<rayon::ThreadPool>,
    ) -> RankComm {
        RankComm {
            rank,
            size,
            transport,
            stats: Rc::new(StatsCell::default()),
            op_counter: Cell::new(0),
            pool,
        }
    }

    /// [`Comm::control_allgather`] of one value no wire carries (`expose`'s
    /// deposit, `split`'s hub): the same op id, control tag and shape,
    /// straight over the in-process hub.
    fn hub_allgather<T: Clone + Send + 'static>(&self, shared: &Shared, mine: T) -> Vec<T> {
        let t = control_tag(self.next_op(), Primitive::Exchange);
        gather_release(
            self.rank,
            self.size,
            vec![mine],
            |dst, v: Vec<T>| shared.hub.send(self.rank, dst, t, Box::new(v)),
            |src| {
                let env = shared.hub.recv(self.rank, src, t, &shared.sched);
                *env.downcast().expect("a control round's own type")
            },
        )
    }
}

impl Comm for RankComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }

    fn pool(&self) -> &rayon::ThreadPool {
        &self.pool
    }

    fn send_vec<T: Wire + Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(
            dst < self.size,
            "send_vec to rank {dst}, communicator has {}",
            self.size
        );
        if let Some(bytes) = metered_bytes(self.rank, dst, tag, &data) {
            self.stats.record_send(bytes);
        }
        match &self.transport {
            Transport::Shared(shared) => shared.hub.send(self.rank, dst, tag, Box::new(data)),
            Transport::Proc(link) => link.send(self.rank, dst, tag, &data),
        }
    }

    fn recv_vec<T: Wire + Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        assert!(
            src < self.size,
            "recv_vec from rank {src}, communicator has {}",
            self.size
        );
        let data = match &self.transport {
            Transport::Shared(shared) => *shared
                .hub
                .recv(self.rank, src, tag, &shared.sched)
                .downcast::<Vec<T>>()
                .expect("message type mismatch: recv_vec::<T> on a different payload"),
            Transport::Proc(link) => link.recv(src, tag),
        };
        if let Some(bytes) = metered_bytes(self.rank, src, tag, &data) {
            self.stats.record_recv(bytes);
        }
        data
    }

    fn next_op(&self) -> u64 {
        let id = self.op_counter.get();
        self.op_counter.set(id + 1);
        id
    }

    fn record_get(&self, bytes: usize) {
        self.stats.record_get(bytes);
    }

    fn expose<T: WinElem, U: WinElem>(
        &self,
        deposit: Arc<(Vec<T>, Vec<U>)>,
    ) -> Vec<Exposure<T, U>> {
        match &self.transport {
            Transport::Shared(shared) => self
                .hub_allgather(shared, deposit)
                .into_iter()
                .map(Exposure::Shared)
                .collect(),
            Transport::Proc(link) => link.expose(self, deposit),
        }
    }

    fn split(&self, color: usize, key: usize) -> RankComm {
        let split_op = self.op_counter.get(); // pre-allgather, aligned across ranks
        let (new_rank, group) = split_group(self, color, key);
        let size = group.len();
        let transport = match &self.transport {
            Transport::Shared(shared) => {
                // Each color's leader (its first member) builds the group's
                // hub; one more control round hands it to the members.
                let leader = group[0];
                let mine = (self.rank == leader).then(|| Shared::new(size, shared.sched.clone()));
                let hub = self.hub_allgather(shared, mine).swap_remove(leader);
                Transport::Shared(hub.expect("leader published its group's hub"))
            }
            Transport::Proc(link) => Transport::Proc(link.split(split_op, color, group)),
        };
        RankComm {
            rank: new_rank,
            size,
            transport,
            stats: self.stats.clone(), // one NIC per rank: sub-comm traffic counts here
            op_counter: Cell::new(0),
            pool: self.pool.clone(),
        }
    }
}
