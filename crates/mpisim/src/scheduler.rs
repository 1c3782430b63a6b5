//! Rank-execution scheduling and job-wide failure propagation: the one
//! place rank threads block, and therefore the one place a dead peer or a
//! stall can be noticed.
//!
//! # Scheduling
//!
//! Both in-process backends run every rank's [`RankComm`](crate::RankComm)
//! on its own OS thread — what differs is whether those threads may *run
//! concurrently*:
//!
//! * **Parallel** (the `threads` backend) never gates execution: all
//!   rank threads run whenever the OS lets them, so wall-clock reflects
//!   real parallel execution.
//! * **Serial** (the `sim` backend) holds a single global **run
//!   permit**: exactly one rank executes at any instant, and a rank hands
//!   the permit over only while it is blocked in a communication call
//!   (receive, barrier, collective rendezvous). This is the classic serial
//!   rank-loop simulator — wall-clock is the *sum* of per-rank work
//!   (fiction as a time-to-solution, but per-rank timings are measured
//!   interference-free), while bytes and message counts are exact and
//!   byte-identical to the parallel backend.
//!
//! The permit is cooperative, not preemptive: ranks only yield at blocking
//! communication points. That is safe here because the runtime has no
//! busy-wait loops — one-sided [`PairedWindow`](crate::PairedWindow) gets
//! never block in-process (they read `Arc`-shared buffers directly), and
//! every blocking primitive in this crate ([`Hub::recv`](crate::p2p::Hub),
//! blackboard exchange, barrier) parks through [`Scheduler::park_until`],
//! which releases the permit before sleeping and reacquires it on wake.
//!
//! # Failure propagation
//!
//! A rank that dies leaves its peers parked in primitives waiting for
//! messages that will never arrive. The scheduler therefore carries a
//! job-wide **poison flag** (the world rank of the first failed rank,
//! first-writer-wins): [`Universe`](crate::Universe) poisons it whenever a
//! rank thread unwinds, and every park loop re-checks it (notification-free,
//! via a short [`POLL`] backstop on the condvar wait) so parked peers wake
//! and unwind with [`CommError::PeerFailed`] naming the victim instead of
//! hanging. The optional **watchdog** rides the same loop: a rank parked in
//! one primitive past the deadline dumps a who-waits-on-whom table (under
//! serial scheduling, "all ranks parked" is a *proven* deadlock — no rank
//! is runnable) and fails the job with [`CommError::Timeout`].

use crate::error::{raise, CommError, Primitive};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a parked rank re-checks the poison flag and its watchdog
/// deadline when no notification arrives. Pure backstop: the normal wake
/// path is still an explicit `notify_all` from the peer that makes the
/// awaited condition true.
const POLL: Duration = Duration::from_millis(25);

thread_local! {
    /// World rank of the `Universe` rank thread running on this OS thread
    /// (set at launch); used to index the wait table and name poison
    /// victims.
    static WORLD_RANK: Cell<Option<usize>> = const { Cell::new(None) };
    /// Whether this thread currently holds the serial run permit. Makes
    /// [`Scheduler::release`] idempotent, so a rank that unwinds *between*
    /// handing the permit over and reacquiring it (the park-loop failure
    /// path) cannot release a permit some other rank now holds.
    static HOLDS_PERMIT: Cell<bool> = const { Cell::new(false) };
}

/// Record which world rank this thread executes (called once per rank
/// thread at launch).
pub(crate) fn set_world_rank(rank: usize) {
    WORLD_RANK.with(|c| c.set(Some(rank)));
}

/// The world rank of the current thread, if it is a `Universe` rank thread.
pub(crate) fn world_rank() -> Option<usize> {
    WORLD_RANK.with(|c| c.get())
}

/// Where a rank is parked, for the watchdog's who-waits-on-whom dump.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WaitSite {
    pub primitive: Primitive,
    pub detail: WaitDetail,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum WaitDetail {
    /// Barrier: no further coordinates (everyone waits on everyone).
    None,
    /// Receive: which `(src, tag)` mailbox key never filled.
    SrcTag { src: usize, tag: u64 },
    /// Blackboard rendezvous: which operation id never completed.
    Op(u64),
}

impl WaitSite {
    pub fn barrier() -> WaitSite {
        WaitSite {
            primitive: Primitive::Barrier,
            detail: WaitDetail::None,
        }
    }

    pub fn recv(src: usize, tag: u64) -> WaitSite {
        WaitSite {
            primitive: Primitive::Recv,
            detail: WaitDetail::SrcTag { src, tag },
        }
    }

    pub fn exchange(op: u64) -> WaitSite {
        WaitSite {
            primitive: Primitive::Exchange,
            detail: WaitDetail::Op(op),
        }
    }
}

impl std::fmt::Display for WaitSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.detail {
            WaitDetail::None => write!(f, "{}", self.primitive),
            WaitDetail::SrcTag { src, tag } => {
                write!(f, "{}(src={src}, tag={tag:#x})", self.primitive)
            }
            WaitDetail::Op(op) => write!(f, "{}(op={op:#x})", self.primitive),
        }
    }
}

/// Sentinel for "healthy" in the poison word (no rank can have this id).
const HEALTHY: usize = usize::MAX;

enum SchedMode {
    /// All rank threads run concurrently (`Backend::Threads`).
    Parallel,
    /// A single run permit serializes rank execution (`Backend::Sim`).
    Serial(Permit),
}

/// How a universe schedules its rank threads, plus the job-wide failure
/// state they all consult. See the module docs.
pub(crate) struct Scheduler {
    mode: SchedMode,
    nranks: usize,
    /// How long one rank may stay parked in a single blocking primitive
    /// before the watchdog fails the job. `None` = watchdog off.
    watchdog: Option<Duration>,
    /// World rank of the first failed rank, or [`HEALTHY`].
    poison: AtomicUsize,
    /// Per world-rank park site (None = runnable), for diagnostics.
    waits: Mutex<Vec<Option<(WaitSite, Instant)>>>,
}

impl Scheduler {
    pub fn parallel(nranks: usize, watchdog: Option<Duration>) -> Arc<Scheduler> {
        Scheduler::build(SchedMode::Parallel, nranks, watchdog)
    }

    pub fn serial(nranks: usize, watchdog: Option<Duration>) -> Arc<Scheduler> {
        Scheduler::build(SchedMode::Serial(Permit::default()), nranks, watchdog)
    }

    fn build(mode: SchedMode, nranks: usize, watchdog: Option<Duration>) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            mode,
            nranks,
            watchdog,
            poison: AtomicUsize::new(HEALTHY),
            waits: Mutex::new(vec![None; nranks]),
        })
    }

    /// Block until this thread holds the run permit (no-op when parallel).
    pub fn acquire(&self) {
        if let SchedMode::Serial(p) = &self.mode {
            let mut held = p.held.lock();
            while *held {
                p.cv.wait(&mut held);
            }
            *held = true;
            HOLDS_PERMIT.with(|c| c.set(true));
        }
    }

    /// Hand the run permit to some other runnable rank (no-op when parallel
    /// or when this thread does not hold it — the latter makes unwinding
    /// out of a park loop safe).
    pub fn release(&self) {
        if let SchedMode::Serial(p) = &self.mode {
            if !HOLDS_PERMIT.with(|c| c.get()) {
                return;
            }
            let mut held = p.held.lock();
            *held = false;
            HOLDS_PERMIT.with(|c| c.set(false));
            p.cv.notify_one();
        }
    }

    /// Acquire the permit for the duration of the returned guard; the guard
    /// releases it even on unwind, so a panicking rank cannot wedge the
    /// other ranks of a serial universe.
    pub fn runner(&self) -> RunGuard<'_> {
        self.acquire();
        RunGuard(self)
    }

    /// Record that `victim` failed. First writer wins: cascading secondary
    /// failures keep naming the original victim.
    pub fn poison(&self, victim: usize) {
        let _ = self
            .poison
            .compare_exchange(HEALTHY, victim, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// The first failed rank, if the job is poisoned.
    pub fn poison_victim(&self) -> Option<usize> {
        match self.poison.load(Ordering::SeqCst) {
            HEALTHY => None,
            victim => Some(victim),
        }
    }

    /// Fail fast at a blocking primitive's entry if the job is already
    /// poisoned: peers are unwinding, so completing (or starting to wait
    /// for) the collective is pointless.
    pub fn check_healthy(&self, primitive: Primitive) {
        if let Some(victim) = self.poison_victim() {
            raise(if world_rank() == Some(victim) {
                CommError::Poisoned
            } else {
                CommError::PeerFailed {
                    rank: victim,
                    primitive,
                }
            });
        }
    }

    /// Park the calling rank until `ready` holds for the state behind
    /// `mutex`, waking on `cv`.
    ///
    /// This is the single blocking point of the runtime. It releases the
    /// serial run permit before sleeping and — on the success path only —
    /// reacquires it with no locks held, so a permit-holding peer can never
    /// deadlock against `mutex`. `Ok(())` guarantees `ready` was observed
    /// true; the caller re-locks and consumes (safe because every awaited
    /// condition here is sticky for this rank: a queued message is popped
    /// only by its owner, a completed blackboard entry stays until all read,
    /// a barrier generation only advances).
    ///
    /// `Err` means the job failed while parked — a peer died
    /// ([`CommError::PeerFailed`]) or the watchdog deadline expired
    /// ([`CommError::Timeout`], after dumping the wait table). The permit is
    /// *not* reacquired on this path; the caller must unwind.
    pub fn park_until<T>(
        &self,
        mutex: &Mutex<T>,
        cv: &Condvar,
        site: WaitSite,
        ready: impl Fn(&T) -> bool,
    ) -> Result<(), CommError> {
        self.release();
        let me = world_rank();
        self.set_wait(me, Some((site, Instant::now())));
        let parked_at = Instant::now();
        let out = loop {
            if let Some(victim) = self.poison_victim() {
                break Err(if me == Some(victim) {
                    CommError::Poisoned
                } else {
                    CommError::PeerFailed {
                        rank: victim,
                        primitive: site.primitive,
                    }
                });
            }
            if let Some(deadline) = self.watchdog {
                let waited = parked_at.elapsed();
                if waited > deadline {
                    self.dump_waits(waited);
                    // A timed-out rank is the job's (first) victim: its
                    // peers unwind with PeerFailed naming it.
                    self.poison(me.unwrap_or(self.nranks));
                    break Err(CommError::Timeout {
                        primitive: site.primitive,
                        waited,
                    });
                }
            }
            let mut guard = mutex.lock();
            if ready(&guard) {
                break Ok(());
            }
            cv.wait_for(&mut guard, POLL);
            if ready(&guard) {
                break Ok(());
            }
        };
        self.set_wait(me, None);
        if out.is_ok() {
            self.acquire();
        }
        out
    }

    fn set_wait(&self, me: Option<usize>, site: Option<(WaitSite, Instant)>) {
        if let Some(r) = me {
            if r < self.nranks {
                self.waits.lock()[r] = site;
            }
        }
    }

    /// Who-waits-on-whom diagnostic, printed once when a watchdog expires.
    fn dump_waits(&self, waited: Duration) {
        let waits = self.waits.lock();
        eprintln!(
            "[sa_mpisim] watchdog: rank {:?} parked for {:.3}s past the deadline; wait table:",
            world_rank(),
            waited.as_secs_f64()
        );
        let mut parked = 0usize;
        for (r, w) in waits.iter().enumerate() {
            match w {
                Some((site, since)) => {
                    parked += 1;
                    eprintln!(
                        "[sa_mpisim]   rank {r}: parked in {site} for {:.3}s",
                        since.elapsed().as_secs_f64()
                    );
                }
                None => eprintln!("[sa_mpisim]   rank {r}: runnable"),
            }
        }
        if matches!(self.mode, SchedMode::Serial(_)) && parked == self.nranks {
            eprintln!(
                "[sa_mpisim]   all {} ranks parked with no runnable rank under serial \
                 scheduling: proven deadlock",
                self.nranks
            );
        }
    }
}

/// The serial backend's global run permit.
#[derive(Default)]
struct Permit {
    held: Mutex<bool>,
    cv: Condvar,
}

/// RAII holder of the run permit (see [`Scheduler::runner`]).
pub(crate) struct RunGuard<'a>(&'a Scheduler);

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Poisons the job if the guarded scope unwinds — armed around each rank
/// closure by [`Universe`](crate::Universe), so any rank panic (user code,
/// library assert, injected fault) wakes every parked peer. Declared
/// *after* the rank's [`RunGuard`] so it drops first: the poison is
/// recorded before the run permit goes back into circulation.
pub(crate) struct PoisonGuard<'a> {
    sched: &'a Scheduler,
    rank: usize,
}

impl<'a> PoisonGuard<'a> {
    pub fn new(sched: &'a Scheduler, rank: usize) -> PoisonGuard<'a> {
        PoisonGuard { sched, rank }
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sched.poison(self.rank);
        }
    }
}

/// A reusable sense-reversing barrier that integrates with the scheduler:
/// waiters park through [`Scheduler::park_until`], so a serial universe
/// cannot deadlock on its own barrier and a dead peer's survivors unwind
/// instead of waiting forever.
///
/// (`std::sync::Barrier` cannot be used here: its `wait` offers no hook to
/// release the permit, so under serial scheduling the first arriver would
/// sleep while still holding the only permit.)
pub(crate) struct RankBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    n: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl RankBarrier {
    pub fn new(n: usize) -> RankBarrier {
        RankBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    /// Block until all `n` ranks have arrived at this barrier generation.
    /// Unwinds with a [`CommError`] if the job is poisoned or the watchdog
    /// expires while waiting.
    pub fn wait(&self, sched: &Scheduler) {
        sched.check_healthy(Primitive::Barrier);
        let gen = {
            let mut s = self.state.lock();
            s.arrived += 1;
            if s.arrived == self.n {
                // Last arriver trips the barrier and keeps the permit.
                s.arrived = 0;
                s.generation += 1;
                self.cv.notify_all();
                return;
            }
            s.generation
        };
        if let Err(e) = sched.park_until(&self.state, &self.cv, WaitSite::barrier(), |s| {
            s.generation != gen
        }) {
            raise(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p2p::Hub;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_permit_admits_one_at_a_time() {
        let sched = Scheduler::serial(8, None);
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let sched = sched.clone();
                let inside = inside.clone();
                let peak = peak.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let _g = sched.runner();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "serial mode must not overlap ranks"
        );
    }

    #[test]
    fn permit_released_on_panic() {
        let sched = Scheduler::serial(2, None);
        let s2 = sched.clone();
        let t = std::thread::spawn(move || {
            let _g = s2.runner();
            panic!("rank dies holding the permit");
        });
        assert!(t.join().is_err());
        // If the guard leaked the permit this would hang forever.
        let _g = sched.runner();
    }

    #[test]
    fn release_without_permit_is_harmless() {
        // The park-loop failure path unwinds after handing the permit over;
        // the RunGuard's release on that unwind must not free a permit some
        // other rank now holds.
        let sched = Scheduler::serial(2, None);
        sched.acquire();
        sched.release();
        sched.release(); // idempotent: second release is a no-op
        let s2 = sched.clone();
        let t = std::thread::spawn(move || {
            let _g = s2.runner(); // still acquirable exactly once
        });
        t.join().unwrap();
    }

    #[test]
    fn barrier_trips_for_all_generations() {
        let sched = Scheduler::parallel(4, None);
        let bar = Arc::new(RankBarrier::new(4));
        let count = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (bar, sched, count) = (bar.clone(), sched.clone(), count.clone());
                scope.spawn(move || {
                    for round in 1..=3 {
                        count.fetch_add(1, Ordering::SeqCst);
                        bar.wait(&sched);
                        assert!(count.load(Ordering::SeqCst) >= 4 * round);
                        bar.wait(&sched);
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn barrier_under_serial_scheduler_does_not_deadlock() {
        let sched = Scheduler::serial(3, None);
        let bar = Arc::new(RankBarrier::new(3));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (bar, sched) = (bar.clone(), sched.clone());
                scope.spawn(move || {
                    let _g = sched.runner();
                    for _ in 0..20 {
                        bar.wait(&sched);
                    }
                });
            }
        });
    }

    /// Expect `f` to unwind with exactly `want` as its typed payload.
    fn expect_comm_error(f: impl FnOnce() + std::panic::UnwindSafe, want: CommError) {
        let payload = std::panic::catch_unwind(f).expect_err("must unwind");
        match payload.downcast_ref::<CommError>() {
            Some(got) => assert_eq!(*got, want),
            None => panic!("non-CommError payload"),
        }
    }

    fn both_modes(n: usize) -> [Arc<Scheduler>; 2] {
        [Scheduler::serial(n, None), Scheduler::parallel(n, None)]
    }

    #[test]
    fn poison_wakes_barrier_waiter_with_peer_failed() {
        // Rank 1 panics while holding the run permit; rank 0, parked in the
        // barrier, must wake with PeerFailed naming rank 1 — under both the
        // serial and the parallel scheduler.
        for sched in both_modes(2) {
            let bar = Arc::new(RankBarrier::new(2));
            std::thread::scope(|scope| {
                let waiter = {
                    let (bar, sched) = (bar.clone(), sched.clone());
                    scope.spawn(move || {
                        set_world_rank(0);
                        let _run = sched.runner();
                        expect_comm_error(
                            AssertUnwindSafe(|| bar.wait(&sched)),
                            CommError::PeerFailed {
                                rank: 1,
                                primitive: Primitive::Barrier,
                            },
                        );
                    })
                };
                let killer = {
                    let sched = sched.clone();
                    scope.spawn(move || {
                        set_world_rank(1);
                        let _run = sched.runner();
                        let _poison = PoisonGuard::new(&sched, 1);
                        panic!("rank 1 dies");
                    })
                };
                assert!(killer.join().is_err());
                waiter.join().unwrap();
            });
        }
    }

    #[test]
    fn poison_wakes_recv_waiter_with_peer_failed() {
        // Same as above but for a rank parked in Hub::recv on a message
        // that will never arrive.
        for sched in both_modes(2) {
            let hub = Arc::new(Hub::new(2));
            std::thread::scope(|scope| {
                let waiter = {
                    let (hub, sched) = (hub.clone(), sched.clone());
                    scope.spawn(move || {
                        set_world_rank(0);
                        let _run = sched.runner();
                        expect_comm_error(
                            AssertUnwindSafe(|| {
                                let _ = hub.recv(0, 1, 7, &sched);
                            }),
                            CommError::PeerFailed {
                                rank: 1,
                                primitive: Primitive::Recv,
                            },
                        );
                    })
                };
                let killer = {
                    let sched = sched.clone();
                    scope.spawn(move || {
                        set_world_rank(1);
                        let _run = sched.runner();
                        let _poison = PoisonGuard::new(&sched, 1);
                        panic!("rank 1 dies before sending");
                    })
                };
                assert!(killer.join().is_err());
                waiter.join().unwrap();
            });
        }
    }

    #[test]
    fn poisoned_job_fails_fast_at_primitive_entry() {
        let sched = Scheduler::serial(2, None);
        sched.poison(1);
        let bar = RankBarrier::new(2);
        std::thread::scope(|scope| {
            let sched = &sched;
            let bar = &bar;
            scope
                .spawn(move || {
                    set_world_rank(0);
                    expect_comm_error(
                        AssertUnwindSafe(|| bar.wait(sched)),
                        CommError::PeerFailed {
                            rank: 1,
                            primitive: Primitive::Barrier,
                        },
                    );
                })
                .join()
                .unwrap();
            // ... and the victim itself sees Poisoned, not PeerFailed.
            scope
                .spawn(move || {
                    set_world_rank(1);
                    expect_comm_error(AssertUnwindSafe(|| bar.wait(sched)), CommError::Poisoned);
                })
                .join()
                .unwrap();
        });
    }

    #[test]
    fn poison_is_first_writer_wins() {
        let sched = Scheduler::parallel(4, None);
        sched.poison(2);
        sched.poison(3);
        assert_eq!(sched.poison_victim(), Some(2));
    }

    #[test]
    fn watchdog_times_out_a_stuck_wait() {
        // One rank parks on a barrier nobody else ever reaches: the
        // watchdog must convert the hang into a typed Timeout.
        let sched = Scheduler::parallel(2, Some(Duration::from_millis(100)));
        let bar = RankBarrier::new(2);
        std::thread::scope(|scope| {
            let sched = &sched;
            let bar = &bar;
            scope
                .spawn(move || {
                    set_world_rank(0);
                    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| bar.wait(sched)))
                        .expect_err("must time out");
                    match payload.downcast_ref::<CommError>() {
                        Some(CommError::Timeout { primitive, waited }) => {
                            assert_eq!(*primitive, Primitive::Barrier);
                            assert!(*waited >= Duration::from_millis(100));
                        }
                        other => panic!("expected Timeout, got {other:?}"),
                    }
                })
                .join()
                .unwrap();
        });
        // the timed-out rank poisoned the job for its peers
        assert_eq!(sched.poison_victim(), Some(0));
    }
}
