//! The per-rank communicator handle of the two in-process backends.
//!
//! [`RankComm`] is one implementation shared by
//! [`Backend::Sim`](crate::Backend::Sim) and
//! [`Backend::Threads`](crate::Backend::Threads) — the transport (mailbox
//! hub), collective rendezvous (blackboard) and window machinery are
//! identical; the job's [`Scheduler`] alone decides how rank *execution* is
//! scheduled (see [`crate::scheduler`]):
//!
//! * `sim` — the serial rank-loop simulator: exactly one rank executes at
//!   any instant; the run permit is handed over at blocking communication
//!   calls. Wall-clock is the *sum* of rank work — fiction as a
//!   time-to-solution, but per-rank timings are interference-free.
//! * `threads` — truly-parallel threads: P OS threads sharing one process,
//!   windows as `Arc`-shared read-only slices (gets are memcpys).
//!   Wall-clock is real concurrent execution.
//!
//! Because the data path is shared, the two backends are byte-identical in
//! everything the paper measures; they differ only in wall-clock.

use crate::backend::Comm;
use crate::blackboard::Blackboard;
use crate::p2p::{Envelope, Hub};
use crate::scheduler::{RankBarrier, Scheduler};
use crate::stats::{CommStats, StatsCell};
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// State shared by all ranks of one communicator.
pub(crate) struct Shared {
    pub hub: Hub,
    pub barrier: RankBarrier,
    pub board: Blackboard,
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
            barrier: RankBarrier::new(n),
            board: Blackboard::new(),
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
    pub(crate) shared: Arc<Shared>,
    pub(crate) stats: Rc<StatsCell>,
    pub(crate) op_counter: Cell<u64>,
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

    fn barrier(&self) {
        self.shared.barrier.wait(&self.shared.sched);
    }

    fn send_vec<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let bytes = data.len() * std::mem::size_of::<T>();
        if dst != self.rank {
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

    fn recv_vec<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        let env = self
            .shared
            .hub
            .recv(self.rank, src, tag, &self.shared.sched);
        if src != self.rank {
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

    fn exchange_arcs(&self, value: Arc<dyn Any + Send + Sync>) -> Vec<Arc<dyn Any + Send + Sync>> {
        let op = self.next_op() | (1 << 62); // namespace apart from p2p tags
        self.shared
            .board
            .exchange(op, self.size, self.rank, value, &self.shared.sched)
    }

    fn record_get(&self, bytes: usize) {
        self.stats.record_get(bytes);
    }

    fn split(&self, color: usize, key: usize) -> RankComm {
        // Round 1: learn everyone's (color, key).
        let mine = Arc::new((color, key, self.rank));
        let all = Comm::exchange_arcs(self, mine);
        let infos: Vec<(usize, usize, usize)> = all
            .into_iter()
            .map(|a| *a.downcast::<(usize, usize, usize)>().unwrap())
            .collect();
        let mut group: Vec<(usize, usize, usize)> = infos
            .iter()
            .copied()
            .filter(|&(c, _, _)| c == color)
            .collect();
        group.sort_by_key(|&(_, k, r)| (k, r));
        let new_rank = group
            .iter()
            .position(|&(_, _, r)| r == self.rank)
            .expect("self in own color group");
        let group_size = group.len();
        let leader = group[0].2;

        // Round 2: each color's leader publishes the new Shared.
        let deposit: Arc<dyn Any + Send + Sync> = if self.rank == leader {
            Arc::new(Some((
                color,
                Shared::new(group_size, self.shared.sched.clone()),
            )))
        } else {
            Arc::new(None::<(usize, Arc<Shared>)>)
        };
        let published = Comm::exchange_arcs(self, deposit);
        let mut my_shared: Option<Arc<Shared>> = None;
        for p in published {
            if let Some((c, s)) = p
                .downcast::<Option<(usize, Arc<Shared>)>>()
                .unwrap()
                .as_ref()
            {
                if *c == color {
                    my_shared = Some(s.clone());
                }
            }
        }
        RankComm::new(
            new_rank,
            group_size,
            my_shared.expect("leader published shared state"),
            self.pool.clone(),
            self.stats.clone(), // one NIC per rank: sub-comm traffic counts here
        )
    }
}
