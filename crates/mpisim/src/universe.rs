//! Launching a job: one thread (`sim`, `threads`) or one forked process
//! (`procs`) per rank, one Rayon pool per rank.

use crate::backend::{Backend, Comm};
use crate::comm::{RankComm, Shared, Transport};
use crate::error::{RankError, RankOutcome};
use crate::scheduler::{self, PoisonGuard, Scheduler};
use crate::wire::Wire;
use std::sync::Arc;
use std::time::Duration;

/// A per-rank workload written once against the [`Comm`] trait, so the
/// same body runs on a plain [`RankComm`] or on a wrapper such as
/// [`FaultComm`](crate::FaultComm). [`Universe::try_run_backend`] launches
/// it on any [`Backend`]. The output crosses a process boundary under the
/// `procs` backend, hence `Out: Wire`.
///
/// ```
/// use sa_mpisim::{Backend, Comm, RankJob, Universe};
///
/// struct Sum;
/// impl RankJob for Sum {
///     type Out = u64;
///     fn run<C: Comm>(&self, comm: &C) -> u64 {
///         comm.allreduce(comm.rank() as u64, |a, b| a + b)
///     }
/// }
/// let u = Universe::new(3);
/// let out = u.try_run_backend(Backend::Sim, &Sum);
/// assert!(out.iter().all(|o| o.as_ref() == Ok(&3)));
/// ```
pub trait RankJob: Sync {
    /// Per-rank result type.
    type Out: Wire + Send;
    /// The rank body, written once against the [`Comm`] trait.
    fn run<C: Comm>(&self, comm: &C) -> Self::Out;
}

/// A simulated machine allocation: `nranks` MPI ranks, each with
/// `threads_per_rank` compute threads (the paper's `c = p · t` Figure 7
/// configuration space).
///
/// The same allocation can be executed by any [`Backend`] through
/// [`Universe::launch`]: [`Backend::Sim`], the serial rank-loop simulator
/// (exact metering, interference-free per-rank timings, wall-clock = sum
/// of rank work), [`Backend::Threads`], the truly-parallel backend (same
/// metering, real concurrent wall-clock), or [`Backend::Procs`], one
/// forked OS process per rank. Every rank gets a [`RankComm`]; outputs and
/// metered traffic are identical across the three, only time differs. A
/// rank's result is [`Wire`], because under `procs` it crosses a process
/// boundary.
///
/// ```
/// use sa_mpisim::{Backend, Comm, Universe};
///
/// let u = Universe::new(4);
/// // every rank runs the closure; results come back in rank order
/// let sums = u.launch(Backend::Sim, |comm| comm.allreduce(comm.rank() as u64, |a, b| a + b));
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// // the threaded backend computes the same thing, in parallel
/// let t = u.launch(Backend::Threads, |comm| comm.allreduce(comm.rank() as u64, |a, b| a + b));
/// assert_eq!(t, sums);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Universe {
    nranks: usize,
    threads_per_rank: usize,
    watchdog: Option<Duration>,
    heartbeat: Option<Duration>,
}

impl Universe {
    /// `nranks` ranks with 1 compute thread each.
    pub fn new(nranks: usize) -> Universe {
        Universe::with_threads(nranks, 1)
    }

    /// `nranks` ranks × `threads_per_rank` compute threads.
    ///
    /// The stall watchdog starts from `SA_WATCHDOG_SECS` in the environment
    /// (unset or `0` = off — the default, so tests exercise the no-deadline
    /// path); [`Universe::with_watchdog`] overrides it per universe.
    pub fn with_threads(nranks: usize, threads_per_rank: usize) -> Universe {
        assert!(nranks >= 1 && threads_per_rank >= 1);
        Universe {
            nranks,
            threads_per_rank,
            watchdog: watchdog_from_env(),
            heartbeat: heartbeat_from_env(),
        }
    }

    /// Override the stall watchdog: a rank parked in one blocking primitive
    /// for longer than `deadline` fails the whole job with a typed
    /// [`CommError::Timeout`](crate::CommError::Timeout) (after printing a
    /// who-waits-on-whom diagnostic) instead of hanging. `None` disables it.
    pub fn with_watchdog(mut self, deadline: Option<Duration>) -> Universe {
        self.watchdog = deadline;
        self
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    pub fn threads_per_rank(&self) -> usize {
        self.threads_per_rank
    }

    /// The configured watchdog deadline, if any.
    pub fn watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    /// Override the peer-liveness heartbeat deadline for the `procs`
    /// backend: each rank sends a low-rate [`Frame::Heartbeat`](crate::Frame::Heartbeat) to every
    /// peer, and a peer not heard from (any frame counts) for longer than
    /// `deadline` is converted to a typed
    /// [`CommError::PeerFailed`](crate::CommError::PeerFailed) — detecting
    /// SIGKILLed or wedged peers in bounded time, well before the stall
    /// watchdog. `None` disables it (the default). In-process backends
    /// ignore it: their "peers" are threads whose death already poisons the
    /// job synchronously.
    pub fn with_heartbeat(mut self, deadline: Option<Duration>) -> Universe {
        self.heartbeat = deadline;
        self
    }

    /// The configured heartbeat deadline, if any.
    pub fn heartbeat(&self) -> Option<Duration> {
        self.heartbeat
    }

    /// Run `f` once per rank on the backend named by `SA_BACKEND`
    /// ([`Backend::from_env`]: `sim` when unset) and collect the per-rank
    /// results in rank order. Panics in any rank propagate.
    ///
    /// This is how the existing suites are re-run under concurrency and
    /// across a process boundary without rewriting them: outputs and
    /// traffic are backend-identical by contract, so CI re-runs the dist
    /// integration suites with `SA_BACKEND=threads` and
    /// `SA_BACKEND=procs`. Code that must pin a backend regardless of the
    /// environment uses [`Universe::launch`].
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&RankComm) -> R + Send + Sync,
        R: Wire + Send,
    {
        self.launch(Backend::from_env(), f)
    }

    /// Run `f` once per rank on `backend` and collect the per-rank results
    /// in rank order; the environment is never consulted. In-process, each
    /// rank is an OS thread named `sa-rank-{r}` (for readable backtraces)
    /// under a serial run permit (`Sim`) or free-running (`Threads`);
    /// under `Procs` each rank is a forked process and its result comes
    /// back over a socket. Every rank has its own compute pool.
    pub fn launch<F, R>(&self, backend: Backend, f: F) -> Vec<R>
    where
        F: Fn(&RankComm) -> R + Send + Sync,
        R: Wire + Send,
    {
        join_or_panic(self.try_launch(backend, f))
    }

    /// Fault-tolerant variant of [`Universe::run`]: joins **all** ranks
    /// and returns one [`RankOutcome`] per rank, in rank order, instead of
    /// re-raising the first panic. A rank that fails poisons the job, so
    /// its surviving peers unwind out of their blocking primitives with
    /// [`PeerFailed`](crate::CommError::PeerFailed) naming the victim —
    /// every rank terminates, none hangs. A rank whose closure returns
    /// enters one unmetered terminal barrier on the world communicator
    /// first, so the outcome is all-or-nothing: a survivor that needed
    /// nothing more from the victim fails `PeerFailed` too.
    ///
    /// To *complete* such a job instead of merely observing its typed
    /// failures, see [`Universe::run_recoverable`], which restarts the
    /// rank set under a [`RetryPolicy`](crate::RetryPolicy) so a
    /// checkpointing job resumes where the dying attempt left off.
    ///
    /// ```
    /// use sa_mpisim::{Comm, CommError, RankError, Universe};
    ///
    /// let u = Universe::new(3);
    /// let out = u.try_run(|comm| {
    ///     if comm.rank() == 1 {
    ///         panic!("rank 1 dies");
    ///     }
    ///     comm.barrier();
    ///     comm.rank()
    /// });
    /// assert!(matches!(out[1], Err(RankError::Panic { .. })));
    /// for r in [0, 2] {
    ///     assert!(matches!(
    ///         out[r],
    ///         Err(RankError::Comm(CommError::PeerFailed { rank: 1, .. }))
    ///     ));
    /// }
    /// ```
    pub fn try_run<F, R>(&self, f: F) -> Vec<RankOutcome<R>>
    where
        F: Fn(&RankComm) -> R + Send + Sync,
        R: Wire + Send,
    {
        self.try_launch(Backend::from_env(), f)
    }

    /// Fault-tolerant variant of [`Universe::launch`]: run and join
    /// **all** ranks on `backend`, returning each rank's result or
    /// classified failure in rank order. Joining everyone (rather than
    /// bailing at the first failed join) is what the poison machinery
    /// guarantees is safe: a failed rank wakes every parked peer, so no
    /// join can hang. A `procs` child that dies without reporting (crash,
    /// `kill -9`) is classified from its exit status.
    pub fn try_launch<F, R>(&self, backend: Backend, f: F) -> Vec<RankOutcome<R>>
    where
        F: Fn(&RankComm) -> R + Send + Sync,
        R: Wire + Send,
    {
        match backend {
            Backend::Sim => self.launch_on(Scheduler::serial(self.nranks, self.watchdog), f),
            Backend::Threads => self.launch_on(Scheduler::parallel(self.nranks, self.watchdog), f),
            Backend::Procs => crate::proc::launch_procs(*self, f),
        }
    }

    /// [`Universe::try_launch`] of a [`RankJob`]: one outcome per rank.
    pub fn try_run_backend<J: RankJob>(
        &self,
        backend: Backend,
        job: &J,
    ) -> Vec<RankOutcome<J::Out>> {
        self.try_launch(backend, |c| job.run(c))
    }

    /// [`Universe::try_launch`] in-process, under a given scheduler.
    pub(crate) fn launch_on<F, R>(&self, sched: Arc<Scheduler>, f: F) -> Vec<RankOutcome<R>>
    where
        F: Fn(&RankComm) -> R + Send + Sync,
        R: Send,
    {
        let shared = Shared::new(self.nranks, sched);
        let (nranks, tpr) = (self.nranks, self.threads_per_rank);
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nranks)
                .map(|rank| {
                    let shared = shared.clone();
                    std::thread::Builder::new()
                        .name(format!("sa-rank-{rank}"))
                        .spawn_scoped(scope, move || {
                            scheduler::set_world_rank(rank);
                            let sched = shared.sched.clone();
                            let pool = rank_pool(rank, tpr);
                            let comm =
                                RankComm::world(rank, nranks, Transport::Shared(shared), pool);
                            // Serial mode: hold the run permit whenever this
                            // rank executes; the guard releases it on return
                            // or panic. The poison guard is declared second
                            // so it drops *first* on unwind: peers learn of
                            // the failure before the permit recirculates.
                            let _run = sched.runner();
                            let _poison = PoisonGuard::new(&sched, rank);
                            let out = f(&comm);
                            // The terminal barrier: `Ok` only if every rank
                            // finished.
                            comm.barrier();
                            out
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|p| RankError::from_payload(p.as_ref())))
                .collect()
        })
    }
}

/// Rank `rank`'s compute pool of `threads` workers, named `rank{r}-w{i}`.
pub(crate) fn rank_pool(rank: usize, threads: usize) -> Arc<rayon::ThreadPool> {
    Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .thread_name(move |i| format!("rank{rank}-w{i}"))
            .build()
            .expect("rank pool"),
    )
}

/// The panicking join of every launcher: log **every** failed rank (a
/// multi-rank failure is debuggable only if the secondary outcomes are not
/// swallowed), then re-raise the first. A typed
/// [`CommError`](crate::CommError) travels as
/// the panic payload itself, a plain panic as its message, so callers (and
/// `#[should_panic(expected = ...)]` tests) see the rank's own message,
/// not a generic wrapper.
fn join_or_panic<R>(outcomes: Vec<RankOutcome<R>>) -> Vec<R> {
    let mut first = None;
    let mut values = Vec::with_capacity(outcomes.len());
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(v) => values.push(v),
            Err(e) => {
                eprintln!("[sa_mpisim] rank {rank} failed: {e}");
                first.get_or_insert(e);
            }
        }
    }
    match first {
        None => values,
        Some(RankError::Comm(e)) => std::panic::panic_any(e),
        Some(RankError::Panic { summary }) => std::panic::panic_any(summary),
    }
}

/// `SA_WATCHDOG_SECS` from the environment (see [`parse_heartbeat_secs`]).
fn watchdog_from_env() -> Option<Duration> {
    let var = "SA_WATCHDOG_SECS";
    parse_heartbeat_secs(var, std::env::var(var).ok().as_deref())
}

/// `SA_HEARTBEAT_SECS` from the environment (see [`parse_heartbeat_secs`]).
fn heartbeat_from_env() -> Option<Duration> {
    let var = "SA_HEARTBEAT_SECS";
    parse_heartbeat_secs(var, std::env::var(var).ok().as_deref())
}

/// A deadline knob's value `raw` (of variable `var`): fractional seconds
/// accepted, unset / `0` = off. An unparseable value is *logged* before
/// falling back to off — a deadline that was asked for but silently
/// ignored would look exactly like a hung detector.
fn parse_heartbeat_secs(var: &str, raw: Option<&str>) -> Option<Duration> {
    let raw = raw?;
    match raw.trim().parse::<f64>() {
        Ok(secs) if secs > 0.0 => Some(Duration::from_secs_f64(secs)),
        Ok(_) => None, // explicit 0 (or negative) = off, as documented
        Err(_) => {
            eprintln!(
                "[sa_mpisim] ignoring unparseable {var}={raw:?} \
                 (want fractional seconds, e.g. 0.5); deadline off"
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let u = Universe::new(6);
        let got = u.run(|comm| (comm.rank(), comm.size()));
        for (r, (rank, size)) in got.iter().enumerate() {
            assert_eq!(*rank, r);
            assert_eq!(*size, 6);
        }
    }

    #[test]
    fn p2p_ring() {
        let u = Universe::new(5);
        let got = u.run(|comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_vec(next, 0, vec![comm.rank() as u64]);
            comm.recv_vec::<u64>(prev, 0)[0]
        });
        assert_eq!(got, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn barrier_interleaves() {
        // All ranks must pass phase 1 before any passes phase 2.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let u = Universe::new(8);
        // in-process: every rank counts on the one shared counter
        u.launch(Backend::Sim, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn bcast_and_gather() {
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let data = comm.bcast_vec(2, (comm.rank() == 2).then(|| vec![7u32, 8, 9]));
            assert_eq!(data, vec![7, 8, 9]);
            comm.gatherv(0, vec![comm.rank() as u32])
        });
        let at_root = got[0].as_ref().unwrap();
        assert_eq!(at_root.len(), 4);
        assert_eq!(at_root[3], vec![3]);
        assert!(got[1].is_none());
    }

    #[test]
    fn allgatherv_uneven() {
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let mine: Vec<u64> = (0..comm.rank() as u64 + 1).collect();
            comm.allgatherv(mine)
        });
        for parts in got {
            assert_eq!(parts, vec![vec![0], vec![0, 1], vec![0, 1, 2]]);
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let sends: Vec<Vec<u64>> = (0..4)
                .map(|d| vec![(comm.rank() * 10 + d) as u64])
                .collect();
            comm.alltoallv(sends)
        });
        for (r, recvd) in got.iter().enumerate() {
            for (s, v) in recvd.iter().enumerate() {
                assert_eq!(v[0], (s * 10 + r) as u64, "from {s} at {r}");
            }
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        let u = Universe::new(5);
        let got = u.run(|comm| {
            let total = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
            let max = comm.reduce(0, comm.rank() as u64, |a, b| a.max(b));
            (total, max)
        });
        for (r, (total, max)) in got.iter().enumerate() {
            assert_eq!(*total, 15);
            if r == 0 {
                assert_eq!(*max, Some(4));
            } else {
                assert!(max.is_none());
            }
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let u = Universe::new(3);
        let got = u.run(|comm| comm.allreduce_vec(vec![comm.rank() as u64, 1], |a, b| a + b));
        for v in got {
            assert_eq!(v, vec![3, 3]);
        }
    }

    #[test]
    fn exscan_offsets() {
        let u = Universe::new(4);
        let got = u.run(|comm| comm.exscan_sum((comm.rank() as u64 + 1) * 10));
        assert_eq!(got, vec![(0, 100), (10, 100), (30, 100), (60, 100)]);
    }

    #[test]
    fn stats_meter_p2p() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            if comm.rank() == 0 {
                comm.send_vec(1, 3, vec![0u64; 100]); // 800 bytes
            } else {
                let _ = comm.recv_vec::<u64>(0, 3);
            }
            comm.barrier();
            comm.stats()
        });
        assert_eq!(got[0].sent_msgs, 1);
        assert_eq!(got[0].sent_bytes, 800);
        assert_eq!(got[1].recv_msgs, 1);
        assert_eq!(got[1].recv_bytes, 800);
    }

    #[test]
    fn self_sends_are_free() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            comm.send_vec(comm.rank(), 9, vec![1u8, 2, 3]);
            let v = comm.recv_vec::<u8>(comm.rank(), 9);
            assert_eq!(v, vec![1, 2, 3]);
            comm.stats()
        });
        assert_eq!(got[0].sent_bytes, 0);
        assert_eq!(got[0].recv_bytes, 0);
    }

    #[test]
    fn subcomm_traffic_charges_parent_stats() {
        // The rank's counters model its NIC: traffic on a split
        // communicator must appear in the world handle's stats too.
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let sub = comm.split(comm.rank() % 2, comm.rank());
            let before = comm.stats();
            if sub.rank() == 0 {
                sub.send_vec(1, 0, vec![0u64; 64]);
            } else {
                let _ = sub.recv_vec::<u64>(0, 0);
            }
            comm.barrier();
            comm.stats() - before
        });
        assert_eq!(got[0].sent_bytes, 512);
        assert_eq!(got[2].recv_bytes, 512);
    }

    #[test]
    fn split_into_rows() {
        // 6 ranks -> 2 colors of 3; new ranks ordered by key=old rank.
        let u = Universe::new(6);
        let got = u.run(|comm| {
            let color = comm.rank() / 3;
            let sub = comm.split(color, comm.rank());
            // sum of old ranks within each color group
            let s = sub.allreduce(comm.rank() as u64, |a, b| a + b);
            (sub.rank(), sub.size(), s)
        });
        assert_eq!(got[0], (0, 3, 3)); // 0+1+2
        assert_eq!(got[4], (1, 3, 12)); // 3+4+5
        assert_eq!(got[5], (2, 3, 12));
    }

    #[test]
    fn split_key_reorders() {
        let u = Universe::new(4);
        let got = u.run(|comm| {
            // single color, key reverses order
            let sub = comm.split(0, comm.size() - comm.rank());
            sub.rank()
        });
        assert_eq!(got, vec![3, 2, 1, 0]);
    }

    #[test]
    fn threads_backend_matches_sim_backend() {
        // Same collectives, same results, same metered traffic on both
        // backends — the contract the backend-equivalence suite asserts at
        // algorithm scale.
        let u = Universe::new(6);
        fn job<C: crate::Comm>(comm: &C) -> (u64, Vec<Vec<u64>>, crate::CommStats) {
            let s = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
            let parts = comm.allgatherv(vec![comm.rank() as u64; comm.rank() + 1]);
            comm.barrier();
            (s, parts, comm.stats())
        }
        let sim = u.run(job);
        let thr = u.launch(Backend::Threads, job);
        assert_eq!(sim, thr);
    }

    #[test]
    fn serial_backend_runs_one_rank_at_a_time() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inside = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let u = Universe::new(8);
        // launch(Backend::Sim) pins serial scheduling regardless of SA_BACKEND
        u.launch(Backend::Sim, |comm| {
            for _ in 0..5 {
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now(); // invite overlap if scheduling allowed it
                inside.fetch_sub(1, Ordering::SeqCst);
                comm.barrier();
            }
        });
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "the sim backend must serialize ranks"
        );
    }

    #[test]
    fn threads_backend_overlaps_ranks() {
        // All ranks enter a rendezvous region and wait for each other
        // WITHOUT a comm barrier: only truly-concurrent execution can get
        // every rank inside the region at once.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inside = AtomicUsize::new(0);
        let u = Universe::new(4);
        u.launch(Backend::Threads, |_comm| {
            inside.fetch_add(1, Ordering::SeqCst);
            while inside.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
        });
        assert_eq!(inside.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn threads_backend_p2p_and_windows() {
        use crate::PairedWindow;
        let u = Universe::new(5);
        let got = u.launch(Backend::Threads, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_vec(next, 0, vec![comm.rank() as u64]);
            let from_prev = comm.recv_vec::<u64>(prev, 0)[0];
            let r = comm.rank();
            let win = PairedWindow::create(comm, vec![r as u32; 4], vec![r as f64; 4]);
            let (mut ids, mut vals) = (Vec::new(), Vec::new());
            win.get_both_into(comm, next, 1..3, &mut ids, &mut vals)
                .unwrap();
            (from_prev, ids, vals)
        });
        for (r, (from_prev, ids, vals)) in got.iter().enumerate() {
            assert_eq!(*from_prev as usize, (r + 4) % 5);
            assert_eq!(*ids, vec![((r + 1) % 5) as u32; 2]);
            assert_eq!(*vals, vec![((r + 1) % 5) as f64; 2]);
        }
    }

    #[test]
    fn rank_threads_are_named() {
        let u = Universe::new(3);
        let got = u.launch(Backend::Sim, |_comm| {
            std::thread::current().name().map(String::from)
        });
        for (r, name) in got.iter().enumerate() {
            assert_eq!(name.as_deref(), Some(format!("sa-rank-{r}").as_str()));
        }
    }

    #[test]
    fn try_run_returns_every_rank_outcome() {
        use crate::{CommError, RankError};
        // Rank 2 dies mid-job on both backends; the others must terminate
        // with PeerFailed naming it, and ranks are joined in order.
        fn job(comm: &RankComm) -> usize {
            if comm.rank() == 2 {
                panic!("rank 2 gives up");
            }
            comm.barrier();
            comm.rank() * 10
        }
        for backend in [Backend::Threads, Backend::Sim] {
            let out = Universe::new(4).try_launch(backend, job);
            assert_eq!(out.len(), 4);
            assert!(matches!(
                &out[2],
                Err(RankError::Panic { summary }) if summary.contains("rank 2 gives up")
            ));
            for r in [0, 1, 3] {
                match &out[r] {
                    Err(RankError::Comm(CommError::PeerFailed { rank, .. })) => {
                        assert_eq!(*rank, 2, "survivor {r} must name the victim");
                    }
                    other => panic!("rank {r}: expected PeerFailed, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn try_run_is_all_ok_on_success() {
        let u = Universe::new(3);
        let out = u.try_run(|comm| comm.allreduce(1u64, |a, b| a + b));
        assert_eq!(
            out.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            vec![3, 3, 3]
        );
    }

    #[test]
    fn watchdog_converts_deadlock_into_typed_failure() {
        use crate::{CommError, RankError};
        // Both ranks receive a message nobody sends: a certain deadlock.
        // The watchdog must terminate the job — one rank times out, the
        // other unwinds with PeerFailed naming it. Pinned in-process (one
        // shared scheduler): under procs each rank process has its own
        // watchdog, and several ranks may time out.
        let u = Universe::new(2).with_watchdog(Some(Duration::from_millis(200)));
        let out = u.try_launch(Backend::Sim, |comm| {
            let from = (comm.rank() + 1) % 2;
            let _: Vec<u8> = comm.recv_vec(from, 0);
        });
        let timed_out: Vec<usize> = (0..2)
            .filter(|&r| matches!(out[r], Err(RankError::Comm(CommError::Timeout { .. }))))
            .collect();
        assert_eq!(
            timed_out.len(),
            1,
            "exactly one rank trips the watchdog: {out:?}"
        );
        let victim = timed_out[0];
        assert!(
            matches!(
                out[1 - victim],
                Err(RankError::Comm(CommError::PeerFailed { rank, .. })) if rank == victim
            ),
            "peer must name the timed-out rank: {out:?}"
        );
    }

    #[test]
    fn watchdog_env_knob_parses() {
        // Parsing only — the env var itself is process-global, so don't set
        // it here; with_watchdog covers the wiring.
        let u = Universe::new(2).with_watchdog(Some(Duration::from_secs(7)));
        assert_eq!(u.watchdog(), Some(Duration::from_secs(7)));
        assert_eq!(u.with_watchdog(None).watchdog(), None);
    }

    #[test]
    fn heartbeat_secs_parsing_accepts_and_rejects_explicitly() {
        // Parsing only — the env var is process-global, so exercise the
        // pure parser; with_heartbeat covers the wiring.
        for var in ["SA_HEARTBEAT_SECS", "SA_WATCHDOG_SECS"] {
            let parse = |raw| parse_heartbeat_secs(var, raw);
            assert_eq!(parse(None), None);
            assert_eq!(parse(Some("0.5")), Some(Duration::from_millis(500)));
            assert_eq!(parse(Some(" 2 ")), Some(Duration::from_secs(2)));
            assert_eq!(parse(Some("0")), None, "0 disables");
            assert_eq!(parse(Some("-1")), None);
            assert_eq!(parse(Some("soon")), None, "logged, off");
            assert_eq!(parse(Some("5s")), None, "logged, off");
        }
        let u = Universe::new(2).with_heartbeat(Some(Duration::from_millis(250)));
        assert_eq!(u.heartbeat(), Some(Duration::from_millis(250)));
        assert_eq!(u.with_heartbeat(None).heartbeat(), None);
    }

    #[test]
    fn per_rank_pools_have_requested_threads() {
        let u = Universe::with_threads(3, 2);
        let got = u.run(|comm| comm.pool().current_num_threads());
        assert_eq!(got, vec![2, 2, 2]);
    }

    #[test]
    fn install_runs_on_pool() {
        let u = Universe::with_threads(2, 3);
        let got = u.run(|comm| comm.install(rayon::current_num_threads));
        assert_eq!(got, vec![3, 3]);
    }
}
