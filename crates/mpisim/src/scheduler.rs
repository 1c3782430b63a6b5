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
//!   the permit over only while it is blocked in a receive. This is the
//!   classic serial rank-loop simulator — wall-clock is the *sum* of
//!   per-rank work (fiction as a time-to-solution, but per-rank timings are
//!   measured interference-free), while bytes and message counts are exact
//!   and byte-identical to the parallel backend.
//!
//! The permit is cooperative, not preemptive: ranks only yield at blocking
//! communication points. That is safe here because the runtime has no
//! busy-wait loops — one-sided [`PairedWindow`](crate::PairedWindow) gets
//! never block in-process (they read `Arc`-shared buffers directly), and
//! the one blocking wait in-process is a receive
//! ([`Hub::recv`](crate::p2p::Hub)): barrier, split and window exposure are
//! the control allgather's control-tagged receives. It parks through
//! [`Scheduler::park_until`], which releases the permit before sleeping
//! and reacquires it on wake; the tag's class names the [`Primitive`] a
//! failure in the wait reports.
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

use crate::backend::control_primitive;
use crate::error::{CommError, Primitive};
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

/// Where a rank is parked, for the watchdog's who-waits-on-whom dump: the
/// `(src, tag)` message it waits for, and the primitive that wait reports.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WaitSite {
    pub primitive: Primitive,
    src: usize,
    tag: u64,
}

impl WaitSite {
    /// A wait for message `(src, tag)`; the tag's class names the primitive.
    pub fn recv(src: usize, tag: u64) -> WaitSite {
        WaitSite {
            primitive: control_primitive(tag).unwrap_or(Primitive::Recv),
            src,
            tag,
        }
    }
}

impl std::fmt::Display for WaitSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (primitive, src, tag) = (self.primitive, self.src, self.tag);
        write!(f, "{primitive}(src={src}, tag={tag:#x})")
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

    /// Record that `victim` failed; returns whether this call named it.
    /// First writer wins: cascading secondary failures keep naming the
    /// original victim.
    pub fn poison(&self, victim: usize) -> bool {
        self.poison
            .compare_exchange(HEALTHY, victim, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// The first failed rank, if the job is poisoned.
    pub fn poison_victim(&self) -> Option<usize> {
        match self.poison.load(Ordering::SeqCst) {
            HEALTHY => None,
            victim => Some(victim),
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
    /// condition here is sticky for this rank: a queued message or get
    /// response is popped only by its owner).
    ///
    /// `Err` means the job failed while parked and `ready` still did not
    /// hold — a peer died ([`CommError::PeerFailed`]) or the watchdog
    /// deadline expired ([`CommError::Timeout`], after dumping the wait
    /// table). The permit is *not* reacquired on this path; the caller must
    /// unwind.
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
            // Readiness first: a rank whose awaited message already sits in
            // its inbox completes this primitive even if the job was
            // poisoned meanwhile, and fails typed at the next wait whose
            // message is missing — so a failure is always charged to the
            // primitive still waiting, whatever order the serial permit
            // visited the survivors in (the procs backend waits the same
            // way).
            let mut guard = mutex.lock();
            if ready(&guard) {
                break Ok(());
            }
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
                    drop(guard);
                    // A timed-out rank is the job's (first) victim: its
                    // peers unwind with PeerFailed naming it. Only the rank
                    // whose poison lands reports Timeout (a peer expiring in
                    // the same instant loops back and fails PeerFailed), and
                    // the table is read before the poison unparks anyone.
                    let waits = self.waits.lock().clone();
                    if !self.poison(me.unwrap_or(self.nranks)) {
                        continue;
                    }
                    self.dump_waits(&waits, waited);
                    break Err(CommError::Timeout {
                        primitive: site.primitive,
                        waited,
                    });
                }
            }
            cv.wait_for(&mut guard, POLL);
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
    fn dump_waits(&self, waits: &[Option<(WaitSite, Instant)>], waited: Duration) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{RankError, RankOutcome};
    use crate::p2p::Hub;
    use crate::{Comm, RankComm, Universe};
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

    /// Launch `body` on one in-process [`RankComm`] per rank of `sched` —
    /// a launch whose scheduler the test holds (to poison it up front, or
    /// to read the victim after).
    fn launch(
        sched: &Arc<Scheduler>,
        body: impl Fn(&RankComm) + Send + Sync,
    ) -> Vec<RankOutcome<()>> {
        Universe::new(sched.nranks).launch_on(sched.clone(), body)
    }

    #[test]
    fn barrier_trips_for_all_generations() {
        for sched in both_modes(4) {
            let count = AtomicUsize::new(0);
            let out = launch(&sched, |comm| {
                for round in 1..=3 {
                    count.fetch_add(1, Ordering::SeqCst);
                    comm.barrier();
                    assert!(count.load(Ordering::SeqCst) >= 4 * round);
                    comm.barrier();
                }
            });
            assert!(out.iter().all(Result::is_ok), "{out:?}");
            assert_eq!(count.load(Ordering::SeqCst), 12);
        }
    }

    #[test]
    fn barrier_under_serial_scheduler_does_not_deadlock() {
        for sched in both_modes(3) {
            let out = launch(&sched, |comm| {
                for _ in 0..20 {
                    comm.barrier();
                }
            });
            assert!(out.iter().all(Result::is_ok), "{out:?}");
        }
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
            let out = launch(&sched, |comm| {
                if comm.rank() == 0 {
                    comm.send_vec(1, 7, vec![0u8]);
                    comm.barrier();
                } else {
                    let _ = comm.recv_vec::<u8>(0, 7);
                    panic!("rank 1 dies");
                }
            });
            assert!(matches!(&out[1], Err(RankError::Panic { .. })), "{out:?}");
            let want = CommError::PeerFailed {
                rank: 1,
                primitive: Primitive::Barrier,
            };
            assert_eq!(out[0], Err(RankError::Comm(want)));
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
    fn a_delivered_message_wins_over_a_poison_seen_in_the_same_park() {
        // Both conditions hold before the park looks: the awaited message is
        // there and the job is poisoned. The wait completes, and the rank
        // fails typed at its next wait instead, so a failure is charged to
        // the primitive still waiting, never to one whose message had
        // arrived.
        for sched in both_modes(2) {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    set_world_rank(0);
                    let _run = sched.runner();
                    let site = WaitSite::recv(1, 7);
                    sched.poison(1);
                    let delivered = Mutex::new(true);
                    let cv = Condvar::new();
                    assert_eq!(sched.park_until(&delivered, &cv, site, |d| *d), Ok(()));
                    let missing = Mutex::new(false);
                    assert_eq!(
                        sched.park_until(&missing, &cv, site, |d| *d),
                        Err(CommError::PeerFailed {
                            rank: 1,
                            primitive: Primitive::Recv,
                        })
                    );
                });
            });
        }
    }

    #[test]
    fn poisoned_job_fails_fast_at_primitive_entry() {
        for sched in both_modes(2) {
            sched.poison(1);
            let out = launch(&sched, |comm| comm.barrier());
            let want = CommError::PeerFailed {
                rank: 1,
                primitive: Primitive::Barrier,
            };
            assert_eq!(out[0], Err(RankError::Comm(want)));
            // ... and the victim itself sees Poisoned, not PeerFailed.
            assert_eq!(out[1], Err(RankError::Comm(CommError::Poisoned)));
        }
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
        let deadline = Some(Duration::from_millis(100));
        for sched in [
            Scheduler::serial(2, deadline),
            Scheduler::parallel(2, deadline),
        ] {
            let out = launch(&sched, |comm| {
                if comm.rank() == 0 {
                    comm.barrier();
                }
            });
            match &out[0] {
                Err(RankError::Comm(CommError::Timeout { primitive, waited })) => {
                    assert_eq!(*primitive, Primitive::Barrier);
                    assert!(*waited >= Duration::from_millis(100));
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
            assert!(out[1].is_ok(), "{out:?}");
            // the timed-out rank poisoned the job for its peers
            assert_eq!(sched.poison_victim(), Some(0));
        }
    }
}
