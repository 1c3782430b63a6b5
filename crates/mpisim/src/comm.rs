//! The per-rank communicator handle of the two in-process backends.
//!
//! [`RankComm`] is one implementation shared by
//! [`Backend::Sim`](crate::Backend::Sim) and
//! [`Backend::Threads`](crate::Backend::Threads) — the transport (mailbox
//! hub) and the control plane over it are identical; the job's
//! [`Scheduler`] alone decides how rank *execution* is scheduled (see
//! [`crate::scheduler`]):
//!
//! * `sim` — the serial rank-loop simulator: exactly one rank executes at
//!   any instant; the run permit is handed over at blocking communication
//!   calls. Wall-clock is the *sum* of rank work — fiction as a
//!   time-to-solution, but per-rank timings are interference-free.
//! * `threads` — truly-parallel threads: P OS threads sharing one process,
//!   windows as `Arc`-shared read-only slices (gets are memcpys).
//!   Wall-clock is real concurrent execution.
//!
//! Barrier, split and window exposure are the trait's one unmetered
//! control allgather over the hub, exactly as on the socket backend: a
//! split allgathers `[color, key]` and then the group's new hub, an
//! exposure allgathers the `Arc` deposits. Those two values are no `Wire`
//! payload, so they take the allgather's shape straight over the hub.
//!
//! Because the data path is shared, the two backends are byte-identical in
//! everything the paper measures; they differ only in wall-clock.

use crate::backend::{control_primitive, control_tag, gather_release, split_group, Comm};
use crate::error::Primitive;
use crate::p2p::{Envelope, Hub};
use crate::scheduler::Scheduler;
use crate::stats::{CommStats, StatsCell};
use crate::window::{Exposure, WindowSpec};
use crate::wire::Wire;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// State shared by all ranks of one communicator.
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

/// One rank's handle to a communicator on an in-process backend — the
/// analog of an `MPI_Comm` plus the rank's OpenMP pool. Lives on exactly
/// one thread (neither `Send` nor `Sync`: the stats counter models the
/// rank's NIC and is shared by `Rc` across communicators split from this
/// one, so traffic on a row/column sub-communicator still charges this
/// rank).
///
/// Use it through the [`Comm`] trait (`use sa_mpisim::Comm`), in
/// algorithms and in the closures handed to [`crate::Universe::run`]
/// alike. Created by [`crate::Universe::launch`] for
/// [`Backend::Sim`](crate::Backend::Sim) and
/// [`Backend::Threads`](crate::Backend::Threads).
pub struct RankComm {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    stats: Rc<StatsCell>,
    op_counter: Cell<u64>,
    pool: Arc<rayon::ThreadPool>,
}

impl RankComm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        shared: Arc<Shared>,
        pool: Arc<rayon::ThreadPool>,
        stats: Rc<StatsCell>,
    ) -> RankComm {
        RankComm {
            rank,
            size,
            shared,
            stats,
            op_counter: Cell::new(0),
            pool,
        }
    }

    /// [`Comm::control_allgather`] of one value no wire carries (`expose`'s
    /// deposit, `split`'s hub): the same op id, control tag and shape,
    /// straight over the hub.
    fn hub_allgather<T: Clone + Send + 'static>(&self, mine: T) -> Vec<T> {
        let t = control_tag(self.next_op(), Primitive::Exchange);
        let hub = &self.shared.hub;
        gather_release(
            self.rank,
            self.size,
            vec![mine],
            |dst, v: Vec<T>| {
                let payload = Box::new(v);
                hub.send(self.rank, dst, t, Envelope { bytes: 0, payload })
            },
            |src| {
                let env = hub.recv(self.rank, src, t, &self.shared.sched);
                *env.payload.downcast().expect("a control round's own type")
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
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let bytes = data.len() * std::mem::size_of::<T>();
        if dst != self.rank && control_primitive(tag).is_none() {
            self.stats.record_send(bytes);
        }
        self.shared.hub.send(
            self.rank,
            dst,
            tag,
            Envelope {
                bytes,
                payload: Box::new(data),
            },
        );
    }

    fn recv_vec<T: Wire + Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        let env = self
            .shared
            .hub
            .recv(self.rank, src, tag, &self.shared.sched);
        if src != self.rank && control_primitive(tag).is_none() {
            self.stats.record_recv(env.bytes);
        }
        *env.payload
            .downcast::<Vec<T>>()
            .expect("message type mismatch: recv_vec::<T> on a different payload")
    }

    fn next_op(&self) -> u64 {
        let id = self.op_counter.get();
        self.op_counter.set(id + 1);
        id
    }

    fn record_get(&self, bytes: usize) {
        self.stats.record_get(bytes);
    }

    fn expose(&self, spec: WindowSpec) -> Vec<Exposure> {
        let deposits = self.hub_allgather(spec.arc);
        deposits.into_iter().map(Exposure::Shared).collect()
    }

    fn split(&self, color: usize, key: usize) -> RankComm {
        let (new_rank, group) = split_group(self, color, key);
        // Each color's leader (its first member) builds the group's hub; one
        // more control round hands it to the members.
        let leader = group[0];
        let mine =
            (self.rank == leader).then(|| Shared::new(group.len(), self.shared.sched.clone()));
        let shared = self
            .hub_allgather(mine)
            .swap_remove(leader)
            .expect("leader published its group's hub");
        RankComm::new(
            new_rank,
            group.len(),
            shared,
            self.pool.clone(),
            self.stats.clone(), // one NIC per rank: sub-comm traffic counts here
        )
    }
}
