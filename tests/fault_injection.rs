//! Fault-injection acceptance suite (PR 6): the runtime must convert rank
//! deaths into *typed, attributed, bounded* failures instead of hangs.
//!
//! The matrix: every distributed workload (1D / 2D / 3D sparsity-aware
//! multiply, a cached `SpgemmSession` multiply + `update_a`, and a
//! `pick_fetch_mode` pick followed by the 1D multiply it picked for) ×
//! every fault shape (abort at the victim's first communication call,
//! abort mid-stream inside a collective's constituent point-to-point
//! calls, and a straggler delay) × all three backends (`Backend::Sim` /
//! `Backend::Threads` / `Backend::Procs`, one `try_run_backend` each). In
//! every abort cell the job must terminate within
//! the watchdog deadline with the victim reporting its own panic and
//! **every** survivor reporting [`CommError::PeerFailed`] naming the
//! victim.
//!
//! The `procs` backend adds the fault shapes only real processes can
//! exhibit: a rank destroyed by `SIGKILL` mid-job (no unwinding, no abort
//! broadcast — survivors detect the dead socket, the parent classifies
//! the corpse from `waitpid`), and a cross-process deadlock where each
//! process's *own* watchdog must convert the stall into a typed
//! [`CommError::Timeout`] (unlike in-process backends there is one
//! watchdog per process, so several ranks may time out — see
//! docs/BACKENDS.md's porting log).
//!
//! Plus the two supporting properties:
//! * **wrapper neutrality** — a zero-fault [`FaultComm`] is byte-identical
//!   to the bare backend (same results, same metered traffic), so the
//!   harness measures the runtime, not itself;
//! * **replayability** — the same seeded [`FaultPlan`] yields the same
//!   surviving-rank error set run after run on the serial backend.
//!
//! PR 8 extends the suite from *detection* to *recovery*: the same typed
//! failures, now driven through [`Universe::run_recoverable`] with
//! checkpointing jobs. The recovery matrix sweeps {cached session
//! multiply, BC batches, MCL iteration} × {abort at the first op, a
//! straggler converted to `Timeout` by a short watchdog, `SIGKILL`
//! mid-iteration on procs} × {`Sim`, `Threads`, `Procs`}, asserting that
//! every recovered run's output is identical to the fault-free run and
//! the restart count stays within the [`RetryPolicy`]. The flagship
//! acceptance test SIGKILLs a rank mid-iteration under procs and checks
//! the recovered output *and* the post-restart `CommStats` segment
//! bit-identical against a fault-free continuation from the same
//! checkpoints; a zero-fault pass through `run_recoverable` must stay
//! byte-identical to `try_run` on every backend. `SA_FAULT_SEED` narrows
//! the seeded-replay sweeps to one seed for CI replay jobs.

use saspgemm::dist::{
    agreed_step, load_wire_or_fresh, pick_fetch_mode, save_wire, spgemm_1d, spgemm_split_3d_sa,
    spgemm_summa_2d_sa, uniform_offsets, CacheConfig, CheckpointStore, DistMat1D, DistMat2D,
    DistMat3D, FetchMode, FileStore, MemStore, Plan1D, SessionSnapshot, SpgemmSession,
};
use saspgemm::mpisim::{
    corrupt_next_frame, kill_self_with_sigkill, mute_heartbeats, Backend, Comm, CommError,
    CommStats, CostModel, FaultComm, FaultPlan, Grid2D, Grid3D, PairedWindow, Primitive, RankComm,
    RankError, RankJob, RecoverableJob, RecoveryReport, RetryPolicy, Universe,
};
use saspgemm::sparse::gen::erdos_renyi;
use saspgemm::sparse::{Csc, PlusTimes, SpgemmWorkspace};
use std::sync::Once;
use std::time::Duration;

/// Suppress the default panic banner for the panics this suite *plans*
/// (injected faults and the typed `CommError` payloads they trigger on
/// peers); real, unexpected panics still print.
fn quiet_expected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let expected = p.downcast_ref::<CommError>().is_some()
                || p.downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected fault"))
                || p.downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected fault"));
            if !expected {
                default(info);
            }
        }));
    });
}

/// ER matrix with small-integer values, so f64 accumulation is exact and
/// fingerprints compare with `==`.
fn int_er(n: usize, deg: f64, seed: u64) -> Csc<f64> {
    erdos_renyi(n, n, deg, seed).map(|v| (v * 7.0).round() + 1.0)
}

/// Position-weighted checksum of a matrix — order-independent, exact for
/// integer-valued operands.
fn fp(c: &Csc<f64>) -> String {
    let mut sum = 0.0f64;
    for (r, col, v) in c.iter() {
        sum += v * ((3 * r + 5 * col + 7) as f64);
    }
    format!("{}x{} nnz={} sum={}", c.nrows(), c.ncols(), c.nnz(), sum)
}

fn fp_opt(c: &Option<Csc<f64>>) -> String {
    match c {
        Some(c) => fp(c),
        None => "none".to_string(),
    }
}

/// Every workload of the fault matrix, identified by name so one generic
/// driver can sweep them. Returns a wall-clock-free fingerprint (results +
/// metered traffic), so a straggler run must fingerprint identically to a
/// clean one.
fn workload<C: Comm>(name: &str, comm: &C) -> String {
    match name {
        "1d" => {
            let a = int_er(48, 3.0, 101);
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let db = da.clone();
            let before = comm.stats();
            let (c, rep) = spgemm_1d(comm, &da, &db, &Plan1D::default());
            format!(
                "{} {:?} fetched={}",
                fp(&c.into_local_csc()),
                comm.stats() - before,
                rep.fetched_bytes
            )
        }
        "2d" => {
            let a = int_er(40, 3.0, 102);
            let b = int_er(40, 2.5, 103);
            let grid = Grid2D::new(comm, 2, 2);
            let da = DistMat2D::from_global(&grid, &a);
            let db = DistMat2D::from_global(&grid, &b);
            let before = comm.stats();
            let (c, rep) = spgemm_summa_2d_sa(comm, &grid, &da, &db, FetchMode::Block(4));
            format!(
                "{} {:?} shipped={}",
                fp_opt(&c.gather(comm, &grid)),
                comm.stats() - before,
                rep.b_shipped_bytes
            )
        }
        "3d" => {
            let a = int_er(36, 3.0, 104);
            let b = int_er(36, 3.0, 105);
            let grid = Grid3D::new(comm, 2, 1);
            let da = DistMat3D::from_global_split_cols(&grid, &a);
            let db = DistMat3D::from_global_split_rows(&grid, &b);
            let before = comm.stats();
            let (c, rep) = spgemm_split_3d_sa::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::Block(4),
                &SpgemmWorkspace::new(),
            );
            format!(
                "{} {:?} reduced={}",
                fp_opt(&c.gather(comm)),
                comm.stats() - before,
                rep.reduce_bytes
            )
        }
        "session" => {
            let a = int_er(60, 3.0, 106);
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let db = da.clone();
            let mut session = SpgemmSession::create(
                comm,
                da.clone(),
                Plan1D::default(),
                CacheConfig::unlimited(),
            );
            let (c1, r1) = session.multiply(comm, &db);
            let a2 = a.map(|v| v + 1.0);
            let invalidated = session.update_a(comm, DistMat1D::from_global(comm, &a2, &offsets));
            let (c2, r2) = session.multiply(comm, &db);
            format!(
                "{} {} inv={} fresh=({},{}) hit=({},{})",
                fp(&c1.into_local_csc()),
                fp(&c2.into_local_csc()),
                invalidated,
                r1.fresh_bytes,
                r2.fresh_bytes,
                r1.cache_hit_bytes,
                r2.cache_hit_bytes
            )
        }
        "pick" => {
            let a = int_er(48, 3.0, 107);
            let b = int_er(48, 3.0, 108);
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let db = DistMat1D::from_global(comm, &b, &offsets);
            let before = comm.stats();
            let modes = [FetchMode::default(), FetchMode::ContiguousRuns];
            let mode = pick_fetch_mode(comm, &da, &db, &modes, &CostModel::slingshot());
            let plan = Plan1D {
                fetch_mode: mode,
                ..Default::default()
            };
            let (c, _) = spgemm_1d(comm, &da, &db, &plan);
            format!(
                "{} {mode:?} {:?}",
                fp_opt(&c.gather(comm)),
                comm.stats() - before
            )
        }
        // One control-plane call each, fingerprinted by the traffic it metered.
        "barrier" | "split" | "window" => {
            let before = comm.stats();
            match name {
                "barrier" => comm.barrier(),
                "split" => drop(comm.split(comm.rank() % 2, comm.rank())),
                _ => drop(PairedWindow::create(comm, vec![1u64; 3], vec![0.5f64; 3])),
            }
            format!("{:?}", comm.stats() - before)
        }
        other => panic!("unknown workload {other}"),
    }
}

/// All workloads run on 4 ranks (the 3D case as a 2x2 grid x 1 layer).
const WORKLOADS: [&str; 5] = ["1d", "2d", "3d", "session", "pick"];
const NRANKS: usize = 4;
const VICTIM: usize = 1;

/// A long deadline that only fires if failure propagation itself is
/// broken: a regression hangs for a minute and then fails typed, instead
/// of hanging the suite forever.
fn universe() -> Universe {
    Universe::new(NRANKS).with_watchdog(Some(Duration::from_secs(60)))
}

/// `name` with `plan` injected on every rank.
struct Faulted<'a> {
    name: &'static str,
    plan: &'a FaultPlan,
}

impl RankJob for Faulted<'_> {
    type Out = String;
    fn run<C: Comm>(&self, comm: &C) -> String {
        let inner = comm.split(0, comm.rank());
        if self.name == "barrier" {
            // The harness split is an Exchange: a victim released from it
            // early can die while a survivor still waits for its own
            // release, and that survivor rightly reports Exchange. Leave
            // the split together, in the cell's own primitive.
            inner.barrier();
        }
        let fc = FaultComm::new(inner, self.plan.clone());
        workload(self.name, &fc)
    }
}

/// Run `name` with `plan` injected on every rank of `backend`; return the
/// per-rank outcomes. Under procs every rank is a forked OS process, the
/// injected panic unwinds inside the child, and the typed outcome crosses
/// back over a socket.
fn faulted_run(
    backend: Backend,
    name: &'static str,
    plan: &FaultPlan,
) -> Vec<Result<String, RankError>> {
    universe().try_run_backend(backend, &Faulted { name, plan })
}

/// `name` on the bare communicator, no wrapper.
struct Bare(&'static str);

impl RankJob for Bare {
    type Out = String;
    fn run<C: Comm>(&self, comm: &C) -> String {
        workload(self.0, comm)
    }
}

/// The control plane — barrier, split and window exposure — is one
/// unmetered allgather on every backend: each call moves zero `CommStats`,
/// and a victim that dies entering it leaves every survivor failing typed,
/// naming the victim and the primitive of the call it waits in.
#[test]
fn control_plane_is_silent_and_attributed_on_every_backend() {
    quiet_expected_panics();
    let silent = format!("{:?}", CommStats::default());
    let calls = [
        ("barrier", Primitive::Barrier),
        ("split", Primitive::Exchange),
        ("window", Primitive::Exchange),
    ];
    for backend in [Backend::Sim, Backend::Threads, Backend::Procs] {
        for (call, primitive) in calls {
            let out = universe().launch(backend, |c| Bare(call).run(c));
            for (r, stats) in out.iter().enumerate() {
                assert_eq!(stats, &silent, "{backend:?} {call}: rank {r} metered it");
            }
            let out = faulted_run(backend, call, &FaultPlan::abort_at(VICTIM, 0));
            let want = CommError::PeerFailed {
                rank: VICTIM,
                primitive,
            };
            for (r, o) in out.iter().enumerate() {
                match o {
                    Err(RankError::Panic { summary }) if r == VICTIM => {
                        assert!(summary.contains("injected fault"), "{summary}")
                    }
                    Err(RankError::Comm(e)) if r != VICTIM => {
                        assert_eq!(e, &want, "{backend:?} {call}: rank {r}")
                    }
                    other => panic!("{backend:?} {call}: rank {r} ended {other:?}"),
                }
            }
        }
    }
}

/// The abort half of the matrix: victim dies at `at_op`, every survivor
/// must fail typed, naming the victim. On procs the victim's Abort
/// broadcast, not a guessed-at socket EOF, carries the attribution.
fn assert_abort_matrix(backend: Backend, at_op: u64) {
    quiet_expected_panics();
    for name in WORKLOADS {
        let plan = FaultPlan::abort_at(VICTIM, at_op);
        let out = faulted_run(backend, name, &plan);
        assert_eq!(out.len(), NRANKS);
        for (r, o) in out.iter().enumerate() {
            match o {
                Ok(res) => panic!(
                    "{name} at_op={at_op}: rank {r} finished ({res}) despite the injected fault"
                ),
                Err(RankError::Panic { summary }) => {
                    assert_eq!(
                        r, VICTIM,
                        "{name} at_op={at_op}: non-victim rank {r} panicked: {summary}"
                    );
                    assert!(
                        summary.contains("injected fault"),
                        "{name} at_op={at_op}: victim died of something else: {summary}"
                    );
                }
                Err(RankError::Comm(CommError::PeerFailed { rank, primitive })) => {
                    assert_ne!(r, VICTIM, "{name} at_op={at_op}: victim saw a peer failure");
                    assert_eq!(
                        *rank, VICTIM,
                        "{name} at_op={at_op}: rank {r} blamed rank {rank} (in {primitive}) instead of the victim"
                    );
                }
                Err(e) => panic!("{name} at_op={at_op}: rank {r} failed untyped: {e:?}"),
            }
        }
    }
}

#[test]
fn abort_at_first_op_fails_every_survivor_typed_serial() {
    assert_abort_matrix(Backend::Sim, 0);
}

#[test]
fn abort_at_first_op_fails_every_survivor_typed_threads() {
    assert_abort_matrix(Backend::Threads, 0);
}

#[test]
fn abort_mid_collective_fails_every_survivor_typed_serial() {
    assert_abort_matrix(Backend::Sim, 5);
}

#[test]
fn abort_mid_collective_fails_every_survivor_typed_threads() {
    assert_abort_matrix(Backend::Threads, 5);
}

/// The straggler half of the matrix: a delayed rank stalls the job but
/// every rank still completes, with results and metered traffic identical
/// to a clean run.
fn assert_straggler_matrix(backend: Backend) {
    quiet_expected_panics();
    for name in WORKLOADS {
        let clean = faulted_run(backend, name, &FaultPlan::none());
        let slow = faulted_run(
            backend,
            name,
            &FaultPlan::delay_at(VICTIM, 3, Duration::from_millis(30)),
        );
        for (r, (c, s)) in clean.iter().zip(&slow).enumerate() {
            let c = c
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}: clean run failed on rank {r}: {e:?}"));
            let s = s
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}: straggler run failed on rank {r}: {e:?}"));
            assert_eq!(
                c, s,
                "{name}: a straggler changed rank {r}'s results/traffic"
            );
        }
    }
}

#[test]
fn straggler_stalls_but_completes_identically_serial() {
    assert_straggler_matrix(Backend::Sim);
}

#[test]
fn straggler_stalls_but_completes_identically_threads() {
    assert_straggler_matrix(Backend::Threads);
}

/// Wrapper neutrality: a zero-fault `FaultComm` must be indistinguishable
/// from the bare backend on the backend-equivalence surface — same
/// results, same metered traffic, per rank, on both backends.
#[test]
fn zero_fault_wrapper_is_byte_identical_to_bare_backend() {
    for name in WORKLOADS {
        let u = universe();
        let bare = u.launch(Backend::Sim, |comm| workload(name, comm));
        let wrapped = u.launch(Backend::Sim, |comm| {
            workload(
                name,
                &FaultComm::new(comm.split(0, comm.rank()), FaultPlan::none()),
            )
        });
        assert_eq!(
            bare, wrapped,
            "{name}: wrapper perturbed the serial backend"
        );
        let bare_t = u.launch(Backend::Threads, |comm| workload(name, comm));
        let wrapped_t = u.launch(Backend::Threads, |comm| {
            workload(
                name,
                &FaultComm::new(comm.split(0, comm.rank()), FaultPlan::none()),
            )
        });
        assert_eq!(
            bare_t, wrapped_t,
            "{name}: wrapper perturbed the threads backend"
        );
        assert_eq!(bare, bare_t, "{name}: backends diverged");
    }
}

// ---------------------------------------------------------------------------
// The procs backend: the same matrix across real process boundaries, plus
// the fault shapes only OS processes can exhibit.
// ---------------------------------------------------------------------------

#[test]
fn abort_at_first_op_fails_every_survivor_typed_procs() {
    assert_abort_matrix(Backend::Procs, 0);
}

#[test]
fn abort_mid_collective_fails_every_survivor_typed_procs() {
    assert_abort_matrix(Backend::Procs, 5);
}

#[test]
fn straggler_stalls_but_completes_identically_procs() {
    assert_straggler_matrix(Backend::Procs);
}

/// The fault no in-process backend can model: a rank destroyed by
/// `SIGKILL`. Nothing unwinds, no Abort is broadcast — survivors must
/// detect the dead sockets (EOF without a Bye poisons the job naming the
/// vanished peer) and the parent must classify the corpse from `waitpid`.
/// On the 1D job survivors wait in collectives over the world (a window
/// get never waits); on the 2D job also on two-sided B shipments over
/// sub-communicators.
#[test]
fn sigkill_mid_job_fails_every_survivor_typed_procs() {
    quiet_expected_panics();
    for name in ["1d", "2d"] {
        let out = universe().try_launch(Backend::Procs, |comm| {
            if comm.rank() == VICTIM {
                kill_self_with_sigkill();
            }
            workload(name, comm)
        });
        assert_eq!(out.len(), NRANKS);
        for (r, o) in out.iter().enumerate() {
            match o {
                Err(RankError::Panic { summary }) if r == VICTIM => assert!(
                    summary.contains("signal 9"),
                    "{name}: victim's corpse misclassified: {summary}"
                ),
                Err(RankError::Comm(CommError::PeerFailed { rank, .. })) if r != VICTIM => {
                    assert_eq!(
                        *rank, VICTIM,
                        "{name}: rank {r} blamed rank {rank} for the SIGKILL"
                    );
                }
                other => panic!("{name} rank {r}: expected typed SIGKILL fallout, got {other:?}"),
            }
        }
    }
}

/// `fork` copies every open descriptor, so two procs jobs launched at once
/// must not hand each other's mesh ends to their children. Job A loses a
/// rank to `SIGKILL` on entry; its survivors must see the dead socket at
/// once — not two seconds later, when job B's healthy, sleeping ranks exit
/// and close copies of A's ends they should never have held. A forks more
/// ranks than B, so an unserialized launch of B would fork inside A's
/// launch nearly every run.
#[test]
fn concurrent_launches_do_not_leak_mesh_ends_procs() {
    quiet_expected_panics();
    let start = std::sync::Barrier::new(2);
    let ((killed, elapsed), slow) = std::thread::scope(|scope| {
        let killed = scope.spawn(|| {
            let u = Universe::new(12)
                .with_watchdog(Some(Duration::from_secs(60)))
                .with_heartbeat(None);
            start.wait();
            let started = std::time::Instant::now();
            let out = u.try_launch(Backend::Procs, |comm| {
                if comm.rank() == VICTIM {
                    kill_self_with_sigkill();
                }
                comm.barrier();
            });
            (out, started.elapsed())
        });
        let slow = scope.spawn(|| {
            let u = Universe::new(8).with_watchdog(Some(Duration::from_secs(60)));
            start.wait();
            u.try_launch(Backend::Procs, |comm| {
                std::thread::sleep(Duration::from_secs(2));
                comm.barrier();
            })
        });
        (killed.join().unwrap(), slow.join().unwrap())
    });
    for (r, o) in killed.iter().enumerate().filter(|&(r, _)| r != VICTIM) {
        assert!(
            matches!(
                o,
                Err(RankError::Comm(CommError::PeerFailed { rank: VICTIM, .. }))
            ),
            "job A rank {r}: expected PeerFailed naming rank {VICTIM}, got {o:?}"
        );
    }
    assert!(
        elapsed < Duration::from_secs(1),
        "job A took {elapsed:?}: its survivors waited for job B to exit"
    );
    assert!(slow.iter().all(|o| o.is_ok()), "job B: {slow:?}");
}

/// `fork` copies only the calling thread, so a lock another thread of the
/// launching process holds at the fork stays held in the child for good —
/// and libtest runs every procs cell from a threaded process. Two threads
/// churn the allocator, stdout and stderr (their global locks and the
/// test's capture buffer) and the default panic hook while 24 small jobs
/// launch one after another. The 20 clean jobs must come back `Ok` on
/// every rank; in the last 4, rank 1 panics outside any injected-fault
/// filter, so its panic path runs in a child forked while the launcher's
/// threads were panicking too, and every outcome must still come back
/// typed.
#[test]
fn forks_under_allocator_print_and_panic_churn_complete_procs() {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    quiet_expected_panics();
    let stop = AtomicBool::new(false);
    let u = Universe::new(4).with_watchdog(Some(Duration::from_secs(30)));
    let jobs = std::thread::scope(|scope| {
        for churner in 0..2 {
            let stop = &stop;
            scope.spawn(move || {
                for i in 0u64.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let junk: Vec<Vec<u64>> = (0..64).map(|k| vec![i; 1 + 8 * k]).collect();
                    println!("churner {churner}: {} blocks", junk.len());
                    eprintln!("churner {churner}: round {i}");
                    let _ = std::io::stdout().lock().flush();
                    let _ = std::io::stderr().lock().flush();
                    let _ = std::panic::catch_unwind(|| panic!("churner {churner} round {i}"));
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        let jobs: Vec<_> = (0..24)
            .map(|job| {
                u.try_launch(Backend::Procs, |comm| {
                    comm.barrier();
                    let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
                    if job >= 20 && comm.rank() == 1 {
                        panic!("rank 1 gives up in job {job}");
                    }
                    sum
                })
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        jobs
    });
    for (job, out) in jobs.iter().enumerate().take(20) {
        assert!(out.iter().all(|o| o == &Ok(6)), "job {job}: {out:?}");
    }
    for (job, out) in jobs.iter().enumerate().skip(20) {
        assert!(
            matches!(&out[1], Err(RankError::Panic { summary }) if summary.contains("gives up")),
            "job {job} rank 1: {:?}",
            out[1]
        );
        for r in [0, 2, 3] {
            assert!(
                matches!(
                    out[r],
                    Err(RankError::Comm(CommError::PeerFailed { rank: 1, .. }))
                ),
                "job {job} rank {r}: {:?}",
                out[r]
            );
        }
    }
}

/// Cross-process stall detection: every process deadlocks in a circular
/// recv that no one serves; each process's own watchdog must fire and
/// convert the stall into a typed `Timeout` (or `PeerFailed`, if a peer's
/// abort broadcast lands first — with one watchdog per process, *several*
/// ranks may time out, unlike the in-process backends' single shared
/// scheduler; the porting log in docs/BACKENDS.md records this semantic
/// difference).
#[test]
fn cross_process_deadlock_times_out_typed_procs() {
    quiet_expected_panics();
    let out = Universe::new(NRANKS)
        .with_watchdog(Some(Duration::from_secs(2)))
        .try_launch(Backend::Procs, |comm| {
            let v: Vec<u64> = comm.recv_vec((comm.rank() + 1) % comm.size(), 999);
            format!("{v:?}") // never reached: tag 999 is never sent
        });
    let mut timeouts = 0;
    for (r, o) in out.iter().enumerate() {
        match o {
            Err(RankError::Comm(CommError::Timeout { primitive, .. })) => {
                timeouts += 1;
                assert_eq!(*primitive, Primitive::Recv, "rank {r} timed out elsewhere");
            }
            Err(RankError::Comm(CommError::PeerFailed { .. })) => {}
            other => panic!("rank {r}: expected Timeout or PeerFailed, got {other:?}"),
        }
    }
    assert!(timeouts >= 1, "no process watchdog fired: {out:?}");
}

/// The seeds the replay tests sweep. CI's seeded-replay job pins one
/// seed per matrix leg via `SA_FAULT_SEED`; without it the tests sweep
/// the three fixed seeds.
fn fault_seeds() -> Vec<u64> {
    match std::env::var("SA_FAULT_SEED") {
        Ok(s) => vec![s.trim().parse().expect("SA_FAULT_SEED must be a u64")],
        Err(_) => vec![1, 7, 99],
    }
}

/// The fault-ops the rank with the fewest takes in a clean serial run of
/// `body` — the range a seeded abort is drawn from, so it fires on
/// whichever rank it picks.
fn clean_ops<F>(body: F) -> u64
where
    F: Fn(&FaultComm<RankComm>) + Send + Sync,
{
    let ops = universe().launch(Backend::Sim, |comm| {
        let fc = FaultComm::new(comm.split(0, comm.rank()), FaultPlan::none());
        body(&fc);
        fc.ops()
    });
    ops.into_iter().min().expect("at least one rank")
}

/// Replayability: the same seeded plan must produce the same
/// surviving-rank error set on the deterministic serial backend, run
/// after run — what makes a red fault run debuggable.
#[test]
fn seeded_fault_runs_are_replayable() {
    quiet_expected_panics();
    let max_op = clean_ops(|fc| drop(workload("1d", fc)));
    for seed in fault_seeds() {
        let plan = FaultPlan::seeded(seed, NRANKS, max_op);
        let victim = plan.victim().expect("seeded plan kills someone");
        let shape = |out: &[Result<String, RankError>]| -> Vec<String> {
            out.iter()
                .map(|o| match o {
                    Ok(_) => "ok".to_string(),
                    Err(RankError::Panic { .. }) => "panic".to_string(),
                    Err(RankError::Comm(CommError::PeerFailed { rank, .. })) => {
                        format!("peer-failed({rank})")
                    }
                    Err(e) => format!("{e:?}"),
                })
                .collect()
        };
        let first = shape(&faulted_run(Backend::Sim, "1d", &plan));
        let second = shape(&faulted_run(Backend::Sim, "1d", &plan));
        assert_eq!(first, second, "seed {seed}: fault run not replayable");
        assert_eq!(
            first[victim], "panic",
            "seed {seed}: victim {victim} survived"
        );
    }
}

// ---------------------------------------------------------------------------
// Recovery (PR 8): the typed failures above, driven through
// `Universe::run_recoverable` with checkpointing jobs — faults become
// completed runs instead of red outcomes.
// ---------------------------------------------------------------------------

/// The three checkpointing workloads of the recovery matrix. Each returns
/// `(logical, segment)`: `logical` is the result fingerprint that must be
/// identical between a recovered run and a fault-free one (outputs,
/// iteration counts, cumulative `SessionStats` — all carried through the
/// checkpoint), `segment` is the final attempt's metered `CommStats`,
/// which is only comparable between runs that resumed from the same
/// checkpoint state (the flagship test below exploits exactly that).
fn recovery_workload<C: Comm>(
    name: &str,
    comm: &C,
    store: &dyn CheckpointStore,
) -> (String, String) {
    let me = comm.rank();
    let logical = match name {
        // Three cached multiplies with a `SessionSnapshot` checkpoint
        // before each; a restarted rank resumes with the fetch cache and
        // cumulative stats of the attempt that died.
        "session" => {
            let a = int_er(48, 3.0, 201);
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let db = da.clone();
            let tag = "rec.session";
            let loaded: Option<(u64, Vec<String>, SessionSnapshot)> =
                load_wire_or_fresh(store, me, tag).expect("readable checkpoint store");
            let step = agreed_step(comm, loaded.as_ref().map(|(k, ..)| *k));
            let resume = step.and_then(|k| loaded.filter(|(lk, ..)| *lk == k));
            let mut session = SpgemmSession::create(
                comm,
                da.clone(),
                Plan1D::default(),
                CacheConfig::unlimited(),
            );
            let (mut fps, mut k) = match resume {
                Some((k, fps, snap)) => {
                    session.restore(&snap);
                    (fps, k)
                }
                None => (Vec::new(), 0),
            };
            while k < 3 {
                save_wire(store, me, tag, &(k, fps.clone(), session.snapshot()))
                    .expect("writable checkpoint store");
                let (c, rep) = session.multiply(comm, &db);
                fps.push(format!(
                    "{} fresh={} hit={}",
                    fp(&c.into_local_csc()),
                    rep.fresh_bytes,
                    rep.cache_hit_bytes
                ));
                k += 1;
            }
            store.remove(me, tag).expect("removable checkpoint");
            format!("{fps:?} {:?}", session.stats())
        }
        // Two BC batches through the recoverable session engine.
        "bc" => {
            let a = int_er(40, 3.0, 202);
            let batches: Vec<Vec<u32>> = vec![
                saspgemm::apps::bc::pick_sources(40, 6, 301),
                saspgemm::apps::bc::pick_sources(40, 6, 302),
            ];
            let (outs, stats) = saspgemm::apps::bc::bc_batches_1d_session_recoverable(
                comm,
                &a,
                &batches,
                &Plan1D::default(),
                CacheConfig::unlimited(),
                store,
                "rec.bc",
            );
            let per_batch: Vec<String> = outs
                .iter()
                .map(|o| {
                    format!(
                        "{:?} lv={} cb={} cm={}",
                        o.scores, o.levels, o.comm_bytes, o.comm_msgs
                    )
                })
                .collect();
            format!("{per_batch:?} {:?}", stats.last())
        }
        // A bounded MCL run through the checkpointed driver.
        "mcl" => {
            let a = int_er(36, 3.0, 203);
            let cfg = saspgemm::apps::mcl::MclConfig {
                max_iters: 5,
                ..Default::default()
            };
            let (clusters, iters, stats) = saspgemm::apps::mcl::mcl_1d_checkpointed(
                comm,
                &a,
                &cfg,
                &Plan1D::default(),
                CacheConfig::unlimited(),
                store,
                "rec.mcl",
            );
            format!("{clusters:?} iters={iters} {stats:?}")
        }
        other => panic!("unknown recovery workload {other}"),
    };
    (logical, format!("{:?}", comm.stats()))
}

const RECOVERY_WORKLOADS: [&str; 3] = ["session", "bc", "mcl"];

/// A checkpointing workload as a [`RecoverableJob`]: the fault plan arms
/// itself for one attempt only, so the restarted attempt runs clean and
/// resumes from whatever the dying attempt checkpointed.
struct RecoveryJob<'a> {
    name: &'static str,
    plan: FaultPlan,
    store: &'a dyn CheckpointStore,
}

impl RecoverableJob for RecoveryJob<'_> {
    type Out = (String, String);
    fn run<C: Comm>(&self, comm: &C, attempt: u32) -> (String, String) {
        let fc = FaultComm::new(comm.split(0, comm.rank()), self.plan.for_attempt(attempt));
        recovery_workload(self.name, &fc, self.store)
    }
}

#[allow(clippy::type_complexity)]
fn recoverable_run(
    backend: Backend,
    name: &'static str,
    plan: &FaultPlan,
    store: &dyn CheckpointStore,
    policy: &RetryPolicy,
    watchdog: Duration,
) -> (Vec<Result<(String, String), RankError>>, RecoveryReport) {
    let job = RecoveryJob {
        name,
        plan: plan.clone(),
        store,
    };
    Universe::new(NRANKS)
        .with_watchdog(Some(watchdog))
        .run_recoverable(backend, policy, &job)
}

/// A fresh on-disk store whose path the procs children inherit through
/// the fork (created in the parent *before* the launch).
fn fresh_file_store(label: &str) -> (std::path::PathBuf, FileStore) {
    let dir = std::env::temp_dir().join(format!("sa_recover_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileStore::new(&dir).expect("create checkpoint dir");
    (dir, store)
}

/// In-memory checkpoints for the in-process backends, per-rank files for
/// real processes (a `MemStore` clone in a forked child would be invisible
/// to the parent and to respawned ranks).
fn make_store(
    backend: Backend,
    label: &str,
) -> (Box<dyn CheckpointStore>, Option<std::path::PathBuf>) {
    if backend == Backend::Procs {
        let (dir, store) = fresh_file_store(label);
        (Box::new(store), Some(dir))
    } else {
        (Box::new(MemStore::new()), None)
    }
}

/// The recovery matrix: every checkpointing workload × every fault shape
/// the backend can exhibit, each cell asserting the recovered output is
/// identical to the fault-free run and the restart count stays within
/// the policy. A recovered run must also clean up its checkpoints.
fn assert_recovery_matrix(backend: Backend) {
    quiet_expected_panics();
    let policy = RetryPolicy::new(2, Duration::from_millis(5));
    for name in RECOVERY_WORKLOADS {
        let (clean_store, clean_dir) = make_store(backend, &format!("clean_{name}"));
        let (clean, clean_rep) = recoverable_run(
            backend,
            name,
            &FaultPlan::none(),
            clean_store.as_ref(),
            &policy,
            Duration::from_secs(60),
        );
        assert!(
            clean_rep.recovered && clean_rep.restarts == 0,
            "{name}: fault-free run restarted: {clean_rep:?}"
        );
        let clean: Vec<String> = clean
            .iter()
            .enumerate()
            .map(|(r, o)| {
                o.as_ref()
                    .unwrap_or_else(|e| panic!("{name}: fault-free rank {r} failed: {e:?}"))
                    .0
                    .clone()
            })
            .collect();

        // (shape, plan armed for attempt 0 only, watchdog). The straggler
        // cell runs under a watchdog shorter than the injected delay, so
        // the stall surfaces as a typed `Timeout` that triggers a restart.
        let mut shapes: Vec<(&str, FaultPlan, Duration)> = vec![
            (
                "abort0",
                FaultPlan::abort_at(VICTIM, 0).on_attempt(0),
                Duration::from_secs(60),
            ),
            (
                "straggler",
                FaultPlan::delay_at(VICTIM, 3, Duration::from_secs(2)).on_attempt(0),
                Duration::from_millis(500),
            ),
        ];
        if backend == Backend::Procs {
            // half-way through the victim's clean run, so the kill fires
            // mid-run whatever the workload's collective count
            let victim_ops = universe().launch(Backend::Sim, |comm| {
                let fc = FaultComm::new(comm.split(0, comm.rank()), FaultPlan::none());
                drop(recovery_workload(name, &fc, &MemStore::new()));
                fc.ops()
            })[VICTIM];
            shapes.push((
                "sigkill",
                FaultPlan::kill_at(VICTIM, victim_ops / 2).on_attempt(0),
                Duration::from_secs(60),
            ));
        }
        for (shape, plan, watchdog) in shapes {
            let (store, dir) = make_store(backend, &format!("{shape}_{name}"));
            let (out, report) =
                recoverable_run(backend, name, &plan, store.as_ref(), &policy, watchdog);
            assert!(
                report.recovered,
                "{name}/{shape}: not recovered: {report:?}"
            );
            assert!(
                report.restarts <= policy.max_restarts,
                "{name}/{shape}: restarts exceeded the policy: {report:?}"
            );
            if shape != "straggler" {
                // Aborts and SIGKILLs always fail attempt 0; a straggler
                // may or may not trip the watchdog depending on backend
                // scheduling, so only the bound is asserted there.
                assert!(
                    report.restarts >= 1,
                    "{name}/{shape}: the injected fault never fired: {report:?}"
                );
            }
            for (r, o) in out.iter().enumerate() {
                let got = &o
                    .as_ref()
                    .unwrap_or_else(|e| {
                        panic!("{name}/{shape}: rank {r} failed after recovery: {e:?}")
                    })
                    .0;
                assert_eq!(
                    got, &clean[r],
                    "{name}/{shape}: rank {r}'s recovered output diverged from the fault-free run"
                );
            }
            if let Some(d) = dir {
                let leftover = std::fs::read_dir(&d).map(|it| it.count()).unwrap_or(0);
                assert_eq!(
                    leftover, 0,
                    "{name}/{shape}: recovered run left checkpoints behind"
                );
                let _ = std::fs::remove_dir_all(d);
            }
        }
        if let Some(d) = clean_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

#[test]
fn recovery_matrix_sim() {
    assert_recovery_matrix(Backend::Sim);
}

#[test]
fn recovery_matrix_threads() {
    assert_recovery_matrix(Backend::Threads);
}

#[test]
fn recovery_matrix_procs() {
    assert_recovery_matrix(Backend::Procs);
}

/// The PR's flagship acceptance test. A rank is destroyed by `SIGKILL`
/// mid-iteration under the procs backend; `run_recoverable` respawns the
/// full rank set and the job resumes from its per-rank file checkpoints.
/// Asserted bit-identical:
/// * the recovered logical output vs a fault-free run from an empty store;
/// * the recovered run (output *and* final per-rank `CommStats`, i.e. the
///   post-restart segment) vs a fault-free run resumed from the exact
///   checkpoints the killed attempt left behind — restart adds nothing
///   and loses nothing beyond re-executing the interrupted iteration.
#[test]
fn sigkilled_procs_job_recovers_bit_identical_via_run_recoverable() {
    quiet_expected_panics();
    let kill = FaultPlan::kill_at(VICTIM, 18).on_attempt(0);
    let policy = RetryPolicy::new(2, Duration::from_millis(5));
    let watchdog = Duration::from_secs(60);

    // Fault-free reference from an empty store.
    let (dir_clean, store_clean) = fresh_file_store("flagship_clean");
    let (clean, clean_rep) = recoverable_run(
        Backend::Procs,
        "mcl",
        &FaultPlan::none(),
        &store_clean,
        &policy,
        watchdog,
    );
    assert!(clean_rep.recovered && clean_rep.restarts == 0);

    // The kill alone (no restarts budgeted): the job dies mid-iteration
    // and leaves its checkpoints behind.
    let (dir_partial, store_partial) = fresh_file_store("flagship_partial");
    let (dead, dead_rep) = recoverable_run(
        Backend::Procs,
        "mcl",
        &kill,
        &store_partial,
        &RetryPolicy::no_restarts(),
        watchdog,
    );
    assert!(!dead_rep.recovered, "the SIGKILL plan did not fire");
    assert!(dead.iter().any(|o| o.is_err()));
    let leftovers = std::fs::read_dir(&dir_partial)
        .map(|it| it.count())
        .unwrap_or(0);
    assert!(
        leftovers > 0,
        "SIGKILL landed before the first checkpoint — not mid-iteration; move the fault later"
    );

    // Fault-free continuation from those exact checkpoints: what the
    // recovered run's post-restart segment must be bit-identical to.
    let (cont, cont_rep) = recoverable_run(
        Backend::Procs,
        "mcl",
        &FaultPlan::none(),
        &store_partial,
        &RetryPolicy::no_restarts(),
        watchdog,
    );
    assert!(cont_rep.recovered, "continuation failed: {cont_rep:?}");

    // The real thing: kill and recover end to end.
    let (dir_rec, store_rec) = fresh_file_store("flagship_recover");
    let (rec, rec_rep) =
        recoverable_run(Backend::Procs, "mcl", &kill, &store_rec, &policy, watchdog);
    assert!(rec_rep.recovered, "not recovered: {rec_rep:?}");
    assert!(
        rec_rep.restarts >= 1,
        "RecoveryReport must record the restart: {rec_rep:?}"
    );
    assert_eq!(rec_rep.history.len(), rec_rep.restarts as usize);

    for r in 0..NRANKS {
        let rec_r = rec[r]
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {r}: {e:?}"));
        let clean_r = clean[r].as_ref().unwrap();
        let cont_r = cont[r].as_ref().unwrap();
        assert_eq!(
            rec_r.0, clean_r.0,
            "rank {r}: recovered output diverged from the fault-free run"
        );
        assert_eq!(
            rec_r, cont_r,
            "rank {r}: post-restart segment (output + CommStats) diverged from the fault-free continuation"
        );
    }
    // A recovered run cleans up its checkpoints.
    assert_eq!(
        std::fs::read_dir(&dir_rec)
            .map(|it| it.count())
            .unwrap_or(0),
        0
    );
    for d in [dir_clean, dir_partial, dir_rec] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Zero-fault neutrality of the recovery wrapper itself: one pass through
/// `run_recoverable` with no faults must be byte-identical to `try_run` on
/// the conformance surface (results + metered traffic), with a trivial
/// report — on every backend.
#[test]
fn zero_fault_run_recoverable_is_byte_identical_to_try_run() {
    struct PlainJob(&'static str);
    impl RecoverableJob for PlainJob {
        type Out = String;
        fn run<C: Comm>(&self, comm: &C, _attempt: u32) -> String {
            workload(self.0, comm)
        }
    }
    let u = universe();
    let policy = RetryPolicy::no_restarts();
    let trivial = RecoveryReport {
        attempts: 1,
        restarts: 0,
        recovered: true,
        history: vec![],
    };
    for name in WORKLOADS {
        let (rec, report) = u.run_recoverable(Backend::Sim, &policy, &PlainJob(name));
        let bare = u.try_launch(Backend::Sim, |comm| workload(name, comm));
        assert_eq!(
            rec, bare,
            "{name}: run_recoverable perturbed the serial backend"
        );
        assert_eq!(report, trivial, "{name}: zero-fault report not trivial");
        let (rec_t, report_t) = u.run_recoverable(Backend::Threads, &policy, &PlainJob(name));
        let bare_t = u.try_launch(Backend::Threads, |comm| workload(name, comm));
        assert_eq!(
            rec_t, bare_t,
            "{name}: run_recoverable perturbed the threads backend"
        );
        assert_eq!(report_t, trivial, "{name}: zero-fault report not trivial");
    }
    let (rec_p, report_p) = u.run_recoverable(Backend::Procs, &policy, &PlainJob("1d"));
    let bare_p = u.try_launch(Backend::Procs, |comm| workload("1d", comm));
    assert_eq!(
        rec_p, bare_p,
        "1d: run_recoverable perturbed the procs backend"
    );
    assert_eq!(report_p, trivial, "1d: zero-fault report not trivial");
}

/// Seeded fault + recovery replay: the same seeded plan armed for attempt
/// 0 must produce the same `RecoveryReport` (restart count *and* per-rank
/// error history) and the same recovered output, run after run, on the
/// deterministic serial backend. `SA_FAULT_SEED` pins one seed (the CI
/// replay job runs one seed per matrix leg).
#[test]
fn seeded_kill_then_recover_is_replayable() {
    quiet_expected_panics();
    let policy = RetryPolicy::new(2, Duration::from_millis(2));
    let max_op = clean_ops(|fc| drop(recovery_workload("session", fc, &MemStore::new())));
    for seed in fault_seeds() {
        let plan = FaultPlan::seeded(seed, NRANKS, max_op).on_attempt(0);
        let run = || {
            let store = MemStore::new();
            let out = recoverable_run(
                Backend::Sim,
                "session",
                &plan,
                &store,
                &policy,
                Duration::from_secs(60),
            );
            assert!(
                store.is_empty(),
                "seed {seed}: recovered run left checkpoints behind"
            );
            out
        };
        let (o1, r1) = run();
        let (o2, r2) = run();
        assert!(r1.recovered, "seed {seed}: not recovered: {r1:?}");
        assert!(
            r1.restarts >= 1,
            "seed {seed}: seeded abort never fired: {r1:?}"
        );
        assert_eq!(r1, r2, "seed {seed}: recovery report not replayable");
        assert_eq!(o1, o2, "seed {seed}: recovered output not replayable");
    }
}

// ---------------------------------------------------------------------------
// Hostile peers: a sender whose bytes go bad, missed-heartbeat liveness,
// and checkpoint-integrity fallback — a peer may corrupt a frame or go
// silent, and the job must still either complete bit-identically or fail
// typed.
// ---------------------------------------------------------------------------

/// Corruption on a clean link is a typed failure, end to end: rank 1 flips
/// one bit of the next frame it writes and sends it to rank 0. TCP
/// delivers bytes once and in order, so the CRC rejection can only mean a
/// broken sender: rank 0 must fail `PeerFailed` naming rank 1 well inside
/// the watchdog, and no rank may return `Ok` with a wrong value.
#[test]
fn corrupt_frame_on_a_clean_link_fails_the_receiver_typed_procs() {
    quiet_expected_panics();
    const TAG: u64 = 0x62;
    let payload: Vec<u64> = (0..64).map(|i| i * 0x9e37_79b9 + 1).collect();
    let started = std::time::Instant::now();
    let out = universe().try_launch(Backend::Procs, |comm| {
        let got = match comm.rank() {
            0 => comm.recv_vec::<u64>(VICTIM, TAG),
            VICTIM => {
                corrupt_next_frame();
                comm.send_vec(0, TAG, payload.clone());
                Vec::new()
            }
            _ => Vec::new(),
        };
        comm.barrier();
        got
    });
    let elapsed = started.elapsed();
    assert_eq!(out.len(), NRANKS);
    match &out[0] {
        Err(RankError::Comm(CommError::PeerFailed { rank, .. })) => {
            assert_eq!(*rank, VICTIM, "rank 0 blamed rank {rank}")
        }
        other => panic!("rank 0: expected typed PeerFailed naming the sender, got {other:?}"),
    }
    for (r, o) in out.iter().enumerate().skip(1) {
        match o {
            Ok(v) => assert!(v.is_empty(), "rank {r} returned a wrong value: {v:?}"),
            Err(RankError::Comm(_)) => {}
            other => panic!("rank {r}: expected Ok or a typed failure, got {other:?}"),
        }
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "took {elapsed:?} — the watchdog must not be what detected the corruption"
    );
}

/// Peer liveness: a wedged (not dead) peer stops heartbeating; under
/// `SA_HEARTBEAT_SECS` semantics every survivor must fail typed
/// `PeerFailed` naming it via missed heartbeats — long before the 60 s
/// stall watchdog, which is exactly what distinguishes the two deadlines.
#[test]
fn wedged_peer_is_detected_by_missed_heartbeats_procs() {
    quiet_expected_panics();
    let started = std::time::Instant::now();
    let out = Universe::new(NRANKS)
        .with_watchdog(Some(Duration::from_secs(60)))
        .with_heartbeat(Some(Duration::from_millis(250)))
        .try_launch(Backend::Procs, |comm| {
            comm.barrier();
            if comm.rank() == VICTIM {
                // model a wedge: the process lives but goes silent
                mute_heartbeats();
                std::thread::sleep(Duration::from_secs(3));
            }
            // park in a recv nobody serves: only liveness detection can
            // terminate the job before the watchdog
            let v: Vec<u64> = comm.recv_vec((comm.rank() + 1) % comm.size(), 999);
            format!("{v:?}")
        });
    let elapsed = started.elapsed();
    for (r, o) in out.iter().enumerate() {
        match o {
            Err(RankError::Comm(CommError::PeerFailed { rank, .. })) if r != VICTIM => {
                assert_eq!(
                    *rank, VICTIM,
                    "rank {r} blamed rank {rank} instead of the silent peer"
                );
            }
            Err(RankError::Comm(_)) if r == VICTIM => {}
            other => panic!("rank {r}: expected typed heartbeat fallout, got {other:?}"),
        }
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "liveness detection took {elapsed:?} — the watchdog must not be what fired"
    );
}

/// Checkpoint integrity end to end: a SIGKILLed attempt leaves per-rank
/// checkpoints behind; one rank's slot is then corrupted on disk. The
/// resumed run must (a) detect the damage typed and quarantine the file,
/// (b) collapse to a unanimous fresh start via `agreed_step` (the damaged
/// rank reports "nothing durable", so nobody resumes ahead), and (c)
/// produce output bit-identical to a fault-free run from an empty store.
#[test]
fn corrupt_checkpoint_slot_triggers_unanimous_fresh_start_procs() {
    quiet_expected_panics();
    let policy = RetryPolicy::no_restarts();
    let watchdog = Duration::from_secs(60);

    // fault-free reference from an empty store
    let (dir_clean, store_clean) = fresh_file_store("ckptcorrupt_clean");
    let (clean, clean_rep) = recoverable_run(
        Backend::Procs,
        "mcl",
        &FaultPlan::none(),
        &store_clean,
        &policy,
        watchdog,
    );
    assert!(clean_rep.recovered && clean_rep.restarts == 0);

    // a killed attempt leaves mid-run checkpoints behind
    let (dir, store) = fresh_file_store("ckptcorrupt");
    let (_, dead_rep) = recoverable_run(
        Backend::Procs,
        "mcl",
        &FaultPlan::kill_at(VICTIM, 18).on_attempt(0),
        &store,
        &policy,
        watchdog,
    );
    assert!(!dead_rep.recovered, "the SIGKILL plan did not fire");

    // corrupt exactly one rank's slot: flip a payload byte on disk
    let slot = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .expect("the killed attempt left no checkpoint to corrupt");
    let mut raw = std::fs::read(&slot).expect("readable slot");
    assert!(raw.len() > 28, "slot smaller than its header");
    let last = raw.len() - 1;
    raw[last] ^= 0x10;
    std::fs::write(&slot, &raw).expect("rewrite slot");

    // resume against the damaged store: unanimous fresh start, output
    // identical to the fault-free run
    let (resumed, resumed_rep) = recoverable_run(
        Backend::Procs,
        "mcl",
        &FaultPlan::none(),
        &store,
        &policy,
        watchdog,
    );
    assert!(
        resumed_rep.recovered,
        "fresh-start recovery failed: {resumed_rep:?}"
    );
    for (r, o) in resumed.iter().enumerate() {
        let got = &o
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {r} failed after fresh start: {e:?}"))
            .0;
        assert_eq!(
            got,
            &clean[r].as_ref().unwrap().0,
            "rank {r}: fresh-start output diverged from the fault-free run"
        );
    }
    // forensics: the damaged file was quarantined, not deleted or reused
    let quarantined = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .any(|p| p.extension().is_some_and(|x| x == "quarantine"));
    assert!(quarantined, "corrupt slot was not quarantined");
    for d in [dir_clean, dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

// ---------------------------------------------------------------------------
// The late abort: the victim of the 2D job dies at `at_op = 8`, late enough
// that a survivor may need nothing more from it. The inline matrix above
// stops at `at_op = 5`.
// ---------------------------------------------------------------------------

/// One cell of the late-abort matrix: victim panics "injected fault", every
/// survivor fails `PeerFailed` naming it — also a survivor whose remaining
/// work needed nothing more from the victim: the launcher's terminal
/// barrier turns its `Ok` into the failure.
fn assert_late_abort_cell(what: &str, out: &[Result<String, RankError>]) {
    assert_eq!(out.len(), NRANKS);
    for (r, o) in out.iter().enumerate() {
        match o {
            Ok(res) => panic!("{what}: rank {r} finished ({res}) despite the injected fault"),
            Err(RankError::Panic { summary }) => {
                assert_eq!(r, VICTIM, "{what}: non-victim rank {r} panicked: {summary}");
                assert!(
                    summary.contains("injected fault"),
                    "{what}: victim died of something else: {summary}"
                );
            }
            Err(RankError::Comm(CommError::PeerFailed { rank, primitive })) => {
                assert_ne!(r, VICTIM, "{what}: victim saw a peer failure");
                assert_eq!(
                    *rank, VICTIM,
                    "{what}: rank {r} blamed rank {rank} (in {primitive}) instead of the victim"
                );
            }
            Err(e) => panic!("{what}: rank {r} failed untyped: {e:?}"),
        }
    }
}

const LATE_OP: u64 = 8;

#[test]
fn late_abort_is_typed_serial() {
    // one rank runs at a time, so even the late abort reaches every survivor
    quiet_expected_panics();
    let out = faulted_run(Backend::Sim, "2d", &FaultPlan::abort_at(VICTIM, LATE_OP));
    assert_late_abort_cell("2d late abort", &out);
}

#[test]
fn late_abort_is_typed_threads() {
    quiet_expected_panics();
    let out = faulted_run(
        Backend::Threads,
        "2d",
        &FaultPlan::abort_at(VICTIM, LATE_OP),
    );
    assert_late_abort_cell("2d late abort", &out);
}

#[test]
fn late_abort_is_typed_procs() {
    quiet_expected_panics();
    let out = faulted_run(Backend::Procs, "2d", &FaultPlan::abort_at(VICTIM, LATE_OP));
    assert_late_abort_cell("2d late abort", &out);
}

// ---------------------------------------------------------------------------
// Faults under window gets: a get is a copy out of the target's exposed
// deposit — in-process its `Arc`, across processes its read-only mapping —
// so a target can die while its peers are reading its window, and the
// peers learn of it at their next two-sided call or the terminal barrier.
// ---------------------------------------------------------------------------

/// How the target of [`FullWindowJob`] dies.
#[derive(Clone, Copy)]
enum Death {
    Abort,
    Sigkill,
}

/// Every survivor pulls a long plan from the victim in one
/// `get_many_at`; the victim dies as soon as every survivor has announced
/// (tag `GO`) that its batch is starting, i.e. while each of them reads.
struct FullWindowJob(Death);

impl RankJob for FullWindowJob {
    type Out = usize;
    fn run<C: Comm>(&self, comm: &C) -> usize {
        const GO: u64 = 0x60;
        const LEN: usize = 50_000;
        let me = comm.rank();
        let win =
            saspgemm::mpisim::PairedWindow::create(comm, vec![me as u32; LEN], vec![0.5; LEN]);
        if me == VICTIM {
            for r in (0..comm.size()).filter(|&r| r != VICTIM) {
                comm.recv_vec::<u64>(r, GO);
            }
            match self.0 {
                Death::Abort => {
                    panic!("injected fault: target dies with a window of gets in flight")
                }
                Death::Sigkill => kill_self_with_sigkill(),
            }
        }
        let plan: Vec<_> = (0..LEN).map(|k| (VICTIM, k..k + 1, k)).collect();
        comm.send_vec(VICTIM, GO, vec![me as u64]);
        let (mut a, mut b) = (vec![0; LEN], vec![0.0; LEN]);
        win.get_many_at(comm, &plan, &mut a, &mut b)
            .expect("plan within the exposed window");
        // a get is a copy out of the target's deposit or mapping and cannot
        // fail: the barrier is where a survivor learns of the death
        comm.barrier();
        a.len()
    }
}

/// The victim must be typed, and every survivor must fail `PeerFailed`
/// naming it well inside the watchdog.
fn assert_full_window_death(backend: Backend, death: Death) {
    quiet_expected_panics();
    let started = std::time::Instant::now();
    let out = universe().try_run_backend(backend, &FullWindowJob(death));
    let elapsed = started.elapsed();
    assert_eq!(out.len(), NRANKS);
    for (r, o) in out.iter().enumerate() {
        match o {
            Err(RankError::Panic { summary }) if r == VICTIM => {
                let cause = match death {
                    Death::Abort => "injected fault",
                    Death::Sigkill => "signal 9",
                };
                assert!(summary.contains(cause), "victim mistyped: {summary}");
            }
            Err(RankError::Comm(CommError::PeerFailed { rank, .. })) if r != VICTIM => {
                assert_eq!(*rank, VICTIM, "rank {r} blamed rank {rank}");
            }
            other => panic!(
                "{}: rank {r} expected typed mid-batch fallout, got {other:?}",
                backend.name()
            ),
        }
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "{}: took {elapsed:?} — the watchdog must not be what ended the batch",
        backend.name()
    );
}

#[test]
fn target_abort_with_a_full_get_window_in_flight_fails_typed_threads() {
    assert_full_window_death(Backend::Threads, Death::Abort);
}

#[test]
fn target_abort_with_a_full_get_window_in_flight_fails_typed_procs() {
    assert_full_window_death(Backend::Procs, Death::Abort);
}

/// `SIGKILL` exists only where ranks are processes: no Abort broadcast, the
/// survivors learn of the death from the dead socket alone.
#[test]
fn target_sigkill_with_a_full_get_window_in_flight_fails_typed_procs() {
    assert_full_window_death(Backend::Procs, Death::Sigkill);
}

/// A dead target's mapped window stays readable: the victim exposes a
/// window and `SIGKILL`s itself; each survivor waits for the death (a recv
/// the victim never answers fails `PeerFailed`), then gets the victim's
/// whole window, which must equal what it exposed bit for bit (a mismatch
/// panics the survivor). Every survivor must still end `PeerFailed` naming
/// the victim — at the terminal barrier — within 30 s.
#[test]
fn a_dead_targets_mapped_window_stays_readable_procs() {
    const LEN: usize = 50_000;
    const NEVER: u64 = 0x61;
    let ids = |rank: usize| -> Vec<u32> { (0..LEN).map(|i| (rank * LEN + i) as u32).collect() };
    let vals = |rank: usize| -> Vec<f64> {
        let bits = |i: usize| 0x7ff8_0000_0000_0001 ^ ((rank * LEN + i) as u64).rotate_left(13);
        (0..LEN).map(|i| f64::from_bits(bits(i))).collect()
    };
    quiet_expected_panics();
    let started = std::time::Instant::now();
    let out = universe().try_launch(Backend::Procs, |comm| {
        let me = comm.rank();
        let win = PairedWindow::create(comm, ids(me), vals(me));
        if me == VICTIM {
            kill_self_with_sigkill();
        }
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comm.recv_vec::<u64>(VICTIM, NEVER)
        }));
        let died = died.expect_err("the victim never sends");
        assert!(
            matches!(
                died.downcast_ref::<CommError>(),
                Some(CommError::PeerFailed { rank: VICTIM, .. })
            ),
            "the wait for the victim's death ended otherwise"
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        win.get_both_into(comm, VICTIM, 0..LEN, &mut a, &mut b)
            .expect("the whole window is in range");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            a == ids(VICTIM) && bits(&b) == bits(&vals(VICTIM)),
            "the dead target's window read back different bytes"
        );
        a.len()
    });
    let elapsed = started.elapsed();
    for (r, o) in out.iter().enumerate() {
        match o {
            Err(RankError::Panic { summary }) if r == VICTIM => {
                assert!(summary.contains("signal 9"), "victim mistyped: {summary}")
            }
            Err(RankError::Comm(CommError::PeerFailed { rank, .. })) if r != VICTIM => {
                assert_eq!(*rank, VICTIM, "rank {r} blamed rank {rank}")
            }
            other => panic!("rank {r}: expected a read window and PeerFailed, got {other:?}"),
        }
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "took {elapsed:?}: the watchdog, not the barrier, ended the job"
    );
}

/// A message-bound fetch: a `ColumnExact` multiply whose plan is ≥ 1 000
/// gets. Two ranks and a block lower-triangular operand: rank 1 needs no
/// remote column, so rank 0 only reads and rank 1 only exposes.
struct ColumnExactJob(Csc<f64>);

impl RankJob for ColumnExactJob {
    type Out = (String, u64);
    fn run<C: Comm>(&self, comm: &C) -> (String, u64) {
        let a = &self.0;
        let offsets = uniform_offsets(a.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, a, &offsets);
        let plan = Plan1D {
            fetch_mode: FetchMode::ColumnExact,
            global_stats: false,
            ..Default::default()
        };
        let before = comm.stats();
        let (c, rep) = spgemm_1d(comm, &da, &da.clone(), &plan);
        let fingerprint = format!("{} {:?}", fp(&c.into_local_csc()), comm.stats() - before);
        (fingerprint, rep.rdma_msgs)
    }
}

/// The ≥ 1 000-get plan of [`ColumnExactJob`] across processes, read from
/// the target's mapping: product and metered traffic bit-identical to the
/// simulator's, per rank.
#[test]
fn column_exact_fetch_of_a_thousand_gets_is_bit_identical_procs() {
    const N: usize = 1_400;
    let a = int_er(N, 6.0, 211).filter(|r, c, _| (r as usize) >= N / 2 || (c as usize) < N / 2);
    let job = ColumnExactJob(a);
    let u = Universe::new(2).with_watchdog(Some(Duration::from_secs(60)));
    let sim = u.launch(Backend::Sim, |c| job.run(c));
    assert!(sim[0].1 >= 1_000, "plan too short: {} gets", sim[0].1);
    assert_eq!(sim[1].1, 0, "rank 1 must only serve");
    let procs = u.launch(Backend::Procs, |c| job.run(c));
    for (r, (got, want)) in procs.iter().zip(&sim).enumerate() {
        assert_eq!(got, want, "rank {r} diverged from the simulator");
    }
}

/// Large gets: every fetched range is ≥ 1 MiB of the target's mapping.
/// A: rank 0 owns `2·RUN + 1` single-entry columns, rank 1 as many dense
/// ones. B: one column per rank — rank 0's needs both runs of rank 1's
/// columns but not the one between them (two gets per array), rank 1's
/// needs a column of its own.
struct LargeFrameJob {
    a: Csc<f64>,
    b: Csc<f64>,
}

impl RankJob for LargeFrameJob {
    type Out = (String, u64, u64);
    fn run<C: Comm>(&self, comm: &C) -> (String, u64, u64) {
        let (a, b) = (&self.a, &self.b);
        let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), 2));
        let db = DistMat1D::from_global(comm, b, &uniform_offsets(b.ncols(), 2));
        let plan = Plan1D {
            fetch_mode: FetchMode::Block(256),
            global_stats: false,
            ..Default::default()
        };
        let before = comm.stats();
        let (c, _) = spgemm_1d(comm, &da, &db, &plan);
        let delta = comm.stats() - before;
        let fingerprint = format!("{} {delta:?}", fp(&c.into_local_csc()));
        (fingerprint, delta.rdma_gets, delta.rdma_get_bytes)
    }
}

/// [`LargeFrameJob`] across processes: four ≥ 1 MiB gets, product and
/// metered traffic bit-identical to the simulator's, per rank.
#[test]
fn large_frame_fetch_is_bit_identical_procs() {
    const ROWS: usize = 4_200; // entries per served column
    const RUN: usize = 64; // served columns per get
    const _: () = assert!(RUN * ROWS * 4 >= 1 << 20);
    let half = 2 * RUN + 1;
    let mut colptr = vec![0usize];
    let (mut rowidx, mut vals) = (Vec::new(), Vec::new());
    for c in 0..2 * half {
        let rows = if c < half { c..c + 1 } else { 0..ROWS };
        for r in rows {
            rowidx.push(r as u32);
            vals.push(((r + c) % 7 + 1) as f64);
        }
        colptr.push(rowidx.len());
    }
    let a = Csc::from_parts(ROWS, 2 * half, colptr, rowidx, vals);
    let needed: Vec<u32> = (0..half)
        .filter(|&q| q != RUN)
        .map(|q| (half + q) as u32)
        .collect();
    let b = Csc::from_parts(
        2 * half,
        2,
        vec![0, needed.len(), needed.len() + 1],
        needed.iter().copied().chain([(half + 3) as u32]).collect(),
        vec![2.0; needed.len() + 1],
    );
    let job = LargeFrameJob { a, b };
    let u = Universe::new(2).with_watchdog(Some(Duration::from_secs(60)));
    let sim = u.launch(Backend::Sim, |c| job.run(c));
    assert_eq!(
        (sim[0].1, sim[0].2),
        (4, (2 * RUN * ROWS * 12) as u64),
        "rank 0 must fetch two runs of rank 1's columns, rows and values"
    );
    assert_eq!(sim[1].1, 0, "rank 1 must only serve");
    let procs = u.launch(Backend::Procs, |c| job.run(c));
    for (r, (got, want)) in procs.iter().zip(&sim).enumerate() {
        assert_eq!(got, want, "rank {r} diverged from the simulator");
    }
}

/// Gets and sends to one peer: rank 0 reads a ≥ 2 000-get `ColumnExact`
/// plan from rank 1's mapping (a block lower-triangular operand, as in
/// [`ColumnExactJob`]) while rank 1, which needs no remote column and so
/// leaves the multiply first, sends rank 0 [`SHARED_LINK_SENDS`] small
/// messages under one tag.
struct SharedLinkJob(Csc<f64>);

const SHARED_LINK_SENDS: u64 = 1_000;
const SHARED_LINK_TAG: u64 = 41;

impl RankJob for SharedLinkJob {
    type Out = (String, Vec<u64>, u64);
    fn run<C: Comm>(&self, comm: &C) -> (String, Vec<u64>, u64) {
        let a = &self.0;
        let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()));
        let plan = Plan1D {
            fetch_mode: FetchMode::ColumnExact,
            global_stats: false,
            ..Default::default()
        };
        let before = comm.stats();
        let (c, rep) = spgemm_1d(comm, &da, &da.clone(), &plan);
        let mut received = Vec::new();
        for i in 0..SHARED_LINK_SENDS {
            match comm.rank() {
                1 => comm.send_vec(0, SHARED_LINK_TAG, vec![i, i * i]),
                _ => received.extend(comm.recv_vec::<u64>(1, SHARED_LINK_TAG)),
            }
        }
        let fingerprint = format!("{} {:?}", fp(&c.into_local_csc()), comm.stats() - before);
        (fingerprint, received, rep.rdma_msgs)
    }
}

/// [`SharedLinkJob`] across processes: product, received sequence and
/// metered traffic bit-identical to the simulator's, per rank.
#[test]
fn gets_and_sends_sharing_a_link_are_bit_identical_procs() {
    const N: usize = 2_800;
    let a = int_er(N, 6.0, 223).filter(|r, c, _| (r as usize) >= N / 2 || (c as usize) < N / 2);
    let job = SharedLinkJob(a);
    let u = Universe::new(2).with_watchdog(Some(Duration::from_secs(60)));
    let sim = u.launch(Backend::Sim, |c| job.run(c));
    assert!(sim[0].2 >= 2_000, "plan too short: {} gets", sim[0].2);
    assert_eq!(sim[1].2, 0, "rank 1 must only serve");
    let want: Vec<u64> = (0..SHARED_LINK_SENDS).flat_map(|i| [i, i * i]).collect();
    assert_eq!(sim[0].1, want, "rank 0 receives every send, in order");
    let procs = u.launch(Backend::Procs, |c| job.run(c));
    for (r, (got, want)) in procs.iter().zip(&sim).enumerate() {
        assert_eq!(got, want, "rank {r} diverged from the simulator");
    }
}
