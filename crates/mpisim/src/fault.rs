//! Deterministic fault injection: a wrapping communicator that kills or
//! stalls ranks at chosen operation indices.
//!
//! [`FaultComm`] wraps any [`Comm`] and counts this rank's communication
//! calls (its *fault-op* index — a per-rank counter shared across
//! sub-communicators split from the wrapped handle, so an injection point
//! is a stable coordinate no matter how the algorithm splits). Before each
//! potentially-blocking call it consults the [`FaultPlan`]:
//!
//! * [`FaultAction::Abort`] — the rank panics ("injected fault: ..."),
//!   modeling a process crash. The runtime's poison machinery then wakes
//!   every parked peer with
//!   [`PeerFailed`](crate::CommError::PeerFailed) naming this rank.
//! * [`FaultAction::Delay`] — the rank sleeps before proceeding, modeling
//!   a straggler (under the serial scheduler the sleep stalls the whole
//!   job, exactly like a slow rank stalls a serial simulation).
//! * [`FaultAction::Kill`] — the "power cord pulled" fault: inside a
//!   forked `ProcComm` child the rank SIGKILLs its own process (no
//!   unwinding, no abort broadcast — survivors must detect the dead
//!   socket); on the in-process backends it degrades to an `Abort`-style
//!   panic, since a thread cannot be SIGKILLed in isolation.
//!
//! For recovery scenarios ([`Universe::run_recoverable`]
//! (crate::Universe::run_recoverable)) a plan can be armed for one attempt
//! only: [`FaultPlan::on_attempt`] records which attempt it fires on, and
//! the job calls [`FaultPlan::for_attempt`] each time it is (re-)entered —
//! the restarted attempt runs clean, which is what "kill-then-recover,
//! deterministic and replayable" means.
//!
//! Because the [`Comm`] collectives are *provided* methods, calling them on
//! the wrapper decomposes into the wrapper's own `send_vec`/`recv_vec` —
//! so a zero-fault `FaultComm` produces byte-identical traffic to the bare
//! backend (wrapper neutrality, asserted by `tests/fault_injection.rs`),
//! and an injected fault can land *inside* a collective, between its
//! constituent point-to-point calls. The control plane is the exception:
//! `barrier`, `split` and `expose` each take one fault-op checkpoint and
//! forward to the inner communicator, so their control traffic never
//! passes through the wrapper's `send_vec`/`recv_vec`.

use crate::backend::Comm;
use crate::stats::CommStats;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// What to inject when a rank reaches a planned fault-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the rank: panic with an "injected fault" message.
    Abort,
    /// Stall the rank for the given time, then proceed normally.
    Delay(Duration),
    /// Destroy the rank's whole process with SIGKILL (procs backend); on
    /// the in-process backends, where a lone thread cannot be SIGKILLed,
    /// degrades to an `Abort`-style panic.
    Kill,
}

/// One planned fault: `rank` triggers `action` at its `at_op`-th
/// communication call (0-based, counted by the wrapping [`FaultComm`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    pub rank: usize,
    pub at_op: u64,
    pub action: FaultAction,
}

/// What a lossy-transport shim does to one outgoing frame. Unlike
/// [`FaultAction`] (which fires at a rank's *communication-call* index),
/// frame faults fire at a rank's *droppable-frame* index — the n-th
/// `Data`/`GetReq`/`GetResp` frame that rank writes to any peer socket
/// under the procs backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// Never write the frame; the ack/retransmit layer must recover it.
    Drop,
    /// Flip a byte in the encoded frame before writing, so the receiver's
    /// CRC check rejects it (detected corruption, recovered by retransmit).
    Corrupt,
    /// Write the frame twice; the receiver must dedup by sequence number.
    Duplicate,
}

/// One planned frame fault: `rank`'s `at_frame`-th droppable frame
/// (0-based, counted across all its peer links) suffers `fault`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameFaultRule {
    pub rank: usize,
    pub at_frame: u64,
    pub fault: FrameFault,
}

/// A procedurally-generated lossy network: each droppable frame is
/// independently dropped / corrupted / duplicated with the given
/// per-mille probabilities, keyed by (`seed`, rank, frame index) — the
/// same seed always injures the same frames, so lossy runs replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossyRule {
    pub seed: u64,
    pub drop_permille: u16,
    pub corrupt_permille: u16,
    pub duplicate_permille: u16,
}

/// A deterministic schedule of injected faults, shared by all ranks of a
/// job (each rank consults only its own entries).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    /// Frame-level (transport) faults; only the procs backend has frames,
    /// so these are inert on the in-process backends.
    frame_faults: Vec<FrameFaultRule>,
    /// Procedural background loss on top of the explicit rules.
    lossy: Option<LossyRule>,
    /// Which [`run_recoverable`](crate::Universe::run_recoverable) attempt
    /// the plan fires on (see [`FaultPlan::for_attempt`]); 0 — the first
    /// attempt — unless overridden, so non-recovery uses are unaffected.
    fire_on_attempt: u32,
}

impl FaultPlan {
    /// The empty plan: a `FaultComm` under it is a transparent wrapper.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill `rank` at its `at_op`-th communication call.
    pub fn abort_at(rank: usize, at_op: u64) -> FaultPlan {
        FaultPlan::none().with(Fault {
            rank,
            at_op,
            action: FaultAction::Abort,
        })
    }

    /// Stall `rank` for `delay` at its `at_op`-th communication call.
    pub fn delay_at(rank: usize, at_op: u64, delay: Duration) -> FaultPlan {
        FaultPlan::none().with(Fault {
            rank,
            at_op,
            action: FaultAction::Delay(delay),
        })
    }

    /// SIGKILL `rank`'s process at its `at_op`-th communication call (the
    /// procs-only hard-crash fault; degrades to a panic in-process).
    pub fn kill_at(rank: usize, at_op: u64) -> FaultPlan {
        FaultPlan::none().with(Fault {
            rank,
            at_op,
            action: FaultAction::Kill,
        })
    }

    /// Append one more fault to the plan.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Arm the plan for one specific recovery attempt (0-based). Combined
    /// with [`FaultPlan::for_attempt`] in the job body, the fault fires on
    /// that attempt only and every other attempt runs clean — without
    /// this, a restarted attempt's fresh fault-op counter would re-trigger
    /// the same fault forever.
    pub fn on_attempt(mut self, attempt: u32) -> FaultPlan {
        self.fire_on_attempt = attempt;
        self
    }

    /// The plan as seen by recovery attempt `attempt`: the full plan if it
    /// is armed for that attempt, the empty plan otherwise. Deterministic
    /// plain data — the whole kill-then-recover scenario replays exactly.
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        if attempt == self.fire_on_attempt {
            self.clone()
        } else {
            FaultPlan::none()
        }
    }

    /// A pseudo-random single-abort plan: `seed` picks one victim rank in
    /// `0..nranks` and one abort point in `0..max_op`, reproducibly — the
    /// same seed always yields the same plan, which is what makes fault
    /// runs replayable.
    pub fn seeded(seed: u64, nranks: usize, max_op: u64) -> FaultPlan {
        let mut state = seed;
        let rank = (splitmix64(&mut state) % nranks.max(1) as u64) as usize;
        let at_op = splitmix64(&mut state) % max_op.max(1);
        FaultPlan::abort_at(rank, at_op)
    }

    /// The first aborted rank of the plan, if any — the rank every
    /// survivor's `PeerFailed` should name.
    pub fn victim(&self) -> Option<usize> {
        self.faults
            .iter()
            .find(|f| matches!(f.action, FaultAction::Abort | FaultAction::Kill))
            .map(|f| f.rank)
    }

    fn lookup(&self, rank: usize, op: u64) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|f| f.rank == rank && f.at_op == op)
            .map(|f| f.action)
    }

    /// Drop `rank`'s `at_frame`-th droppable frame on the floor.
    pub fn drop_frame_at(rank: usize, at_frame: u64) -> FaultPlan {
        FaultPlan::none().with_frame_fault(FrameFaultRule {
            rank,
            at_frame,
            fault: FrameFault::Drop,
        })
    }

    /// Corrupt a byte of `rank`'s `at_frame`-th droppable frame in flight.
    pub fn corrupt_frame_at(rank: usize, at_frame: u64) -> FaultPlan {
        FaultPlan::none().with_frame_fault(FrameFaultRule {
            rank,
            at_frame,
            fault: FrameFault::Corrupt,
        })
    }

    /// Append one more frame fault to the plan.
    pub fn with_frame_fault(mut self, rule: FrameFaultRule) -> FaultPlan {
        self.frame_faults.push(rule);
        self
    }

    /// A procedurally lossy network: every droppable frame of every rank is
    /// independently dropped / corrupted / duplicated with the given
    /// per-mille rates, reproducibly keyed by `seed`.
    pub fn seeded_lossy(
        seed: u64,
        drop_permille: u16,
        corrupt_permille: u16,
        duplicate_permille: u16,
    ) -> FaultPlan {
        assert!(
            (drop_permille + corrupt_permille + duplicate_permille) <= 1000,
            "lossy rates sum above 1000 permille"
        );
        FaultPlan {
            lossy: Some(LossyRule {
                seed,
                drop_permille,
                corrupt_permille,
                duplicate_permille,
            }),
            ..FaultPlan::none()
        }
    }

    /// Whether the plan injects any transport-level faults at all — the
    /// procs backend only arms its reliability layer when this is true, so
    /// clean runs pay nothing beyond the frame CRC.
    pub fn has_frame_faults(&self) -> bool {
        !self.frame_faults.is_empty() || self.lossy.is_some()
    }

    /// The fault (if any) for `rank`'s `idx`-th droppable frame: explicit
    /// rules win, then the procedural lossy hash. Pure data in, pure data
    /// out — the same (plan, rank, idx) always answers the same, which is
    /// what makes lossy runs replayable under `SA_FAULT_SEED`.
    pub fn frame_lookup(&self, rank: usize, idx: u64) -> Option<FrameFault> {
        if let Some(rule) = self
            .frame_faults
            .iter()
            .find(|r| r.rank == rank && r.at_frame == idx)
        {
            return Some(rule.fault);
        }
        let lossy = self.lossy?;
        let mut state = lossy.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx;
        let roll = splitmix64(&mut state) % 1000;
        let drop_to = lossy.drop_permille as u64;
        let corrupt_to = drop_to + lossy.corrupt_permille as u64;
        let dup_to = corrupt_to + lossy.duplicate_permille as u64;
        if roll < drop_to {
            Some(FrameFault::Drop)
        } else if roll < corrupt_to {
            Some(FrameFault::Corrupt)
        } else if roll < dup_to {
            Some(FrameFault::Duplicate)
        } else {
            None
        }
    }
}

thread_local! {
    /// The frame-fault plan the *next* procs launch on this thread runs
    /// under. Thread-local (not an env var) so parallel tests cannot race
    /// each other's arming; forked children inherit it because `fork`
    /// happens on the arming thread.
    static ARMED_FRAME_PLAN: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
}

/// Arm `plan`'s frame faults for procs launches started from this thread,
/// until the returned guard drops. Plans with no frame faults arm nothing.
pub fn arm_frame_plan(plan: &FaultPlan) -> FramePlanGuard {
    let armed = plan.has_frame_faults().then(|| Arc::new(plan.clone()));
    ARMED_FRAME_PLAN.with(|slot| *slot.borrow_mut() = armed);
    FramePlanGuard { _private: () }
}

/// RAII guard from [`arm_frame_plan`]: dropping it disarms the thread.
pub struct FramePlanGuard {
    _private: (),
}

impl Drop for FramePlanGuard {
    fn drop(&mut self) {
        ARMED_FRAME_PLAN.with(|slot| *slot.borrow_mut() = None);
    }
}

/// The plan armed on this thread, if any (consulted by the procs backend
/// at launch time, on the thread that is about to fork the children).
pub(crate) fn armed_frame_plan() -> Option<Arc<FaultPlan>> {
    ARMED_FRAME_PLAN.with(|slot| slot.borrow().clone())
}

/// A lossy-transport plan from the environment, for the CI soak jobs (see
/// [`parse_frame_plan`]).
pub(crate) fn frame_plan_from_env() -> Option<FaultPlan> {
    let var = |name| std::env::var(name).ok();
    parse_frame_plan(
        var("SA_LOSSY_RATE").as_deref(),
        var("SA_LOSSY_MODE").as_deref(),
        var("SA_FAULT_SEED").as_deref(),
    )
}

/// The lossy plan the raw values of `SA_LOSSY_RATE` (permille of droppable
/// frames injured, `0..=1000`; unset or 0 = clean), `SA_LOSSY_MODE`
/// (`drop` | `corrupt` | `duplicate`, default `drop`) and `SA_FAULT_SEED`
/// (a u64, default 1) name. Every unparseable value is logged and the
/// transport runs clean: a soak must never run under a plan it did not ask
/// for.
fn parse_frame_plan(
    rate: Option<&str>,
    mode: Option<&str>,
    seed: Option<&str>,
) -> Option<FaultPlan> {
    let raw_rate = rate?;
    let reject = |var: &str, raw: &str, want: &str| {
        eprintln!(
            "[sa_mpisim] ignoring unparseable {var}={raw:?} (want {want}); transport runs clean"
        );
    };
    let rate = raw_rate.trim().parse::<u16>().ok().filter(|&r| r <= 1000);
    if rate.is_none() {
        reject("SA_LOSSY_RATE", raw_rate, "permille, 0..=1000");
    }
    let kind = match mode.map_or("drop", str::trim) {
        "drop" => Some(0),
        "corrupt" => Some(1),
        "duplicate" => Some(2),
        _ => None,
    };
    if let (None, Some(raw)) = (kind, mode) {
        reject("SA_LOSSY_MODE", raw, "drop|corrupt|duplicate");
    }
    let seed = seed.map_or(Some(1), |raw| {
        let parsed = raw.trim().parse::<u64>().ok();
        if parsed.is_none() {
            reject("SA_FAULT_SEED", raw, "a u64");
        }
        parsed
    });
    let (rate, kind, seed) = (rate?, kind?, seed?);
    if rate == 0 {
        return None;
    }
    let mut permille = [0; 3];
    permille[kind] = rate;
    let [drop, corrupt, duplicate] = permille;
    Some(FaultPlan::seeded_lossy(seed, drop, corrupt, duplicate))
}

/// SplitMix64 step — a tiny, dependency-free PRNG, plenty for picking
/// injection coordinates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`Comm`] that injects the faults a [`FaultPlan`] schedules for this
/// rank, and is otherwise transparent. See the module docs.
pub struct FaultComm<C: Comm> {
    inner: C,
    plan: Arc<FaultPlan>,
    /// The wrapped rank's id in the communicator the wrapper was *created*
    /// on — the coordinate fault plans are written in, stable across splits.
    world_rank: usize,
    /// This rank's fault-op counter, shared (like a NIC) by every
    /// sub-communicator split from this wrapper.
    ops: Rc<Cell<u64>>,
}

impl<C: Comm> FaultComm<C> {
    /// Wrap `inner`, treating its current rank id as the plan coordinate.
    pub fn new(inner: C, plan: FaultPlan) -> FaultComm<C> {
        let world_rank = inner.rank();
        FaultComm {
            inner,
            plan: Arc::new(plan),
            world_rank,
            ops: Rc::new(Cell::new(0)),
        }
    }

    /// Advance this rank's fault-op counter and trigger any planned fault.
    fn checkpoint(&self) {
        let op = self.ops.get();
        self.ops.set(op + 1);
        match self.plan.lookup(self.world_rank, op) {
            Some(FaultAction::Abort) => panic!(
                "injected fault: rank {} aborted at fault-op {op}",
                self.world_rank
            ),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Kill) => {
                if crate::proc::in_forked_child() {
                    // The real thing: destroy the whole child process with
                    // no unwinding and no goodbye — survivors must detect
                    // the dead socket, the parent classifies the corpse.
                    crate::proc::kill_self_with_sigkill();
                }
                // In-process there is no lone-thread SIGKILL; the closest
                // honest model is an abort-style panic.
                panic!(
                    "injected fault: rank {} killed at fault-op {op}",
                    self.world_rank
                )
            }
            None => {}
        }
    }
}

impl<C: Comm> Comm for FaultComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn pool(&self) -> &rayon::ThreadPool {
        self.inner.pool()
    }

    fn barrier(&self) {
        self.checkpoint();
        self.inner.barrier();
    }

    fn send_vec<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.checkpoint();
        self.inner.send_vec(dst, tag, data);
    }

    fn recv_vec<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        self.checkpoint();
        self.inner.recv_vec(src, tag)
    }

    fn split(&self, color: usize, key: usize) -> FaultComm<C> {
        self.checkpoint();
        FaultComm {
            inner: self.inner.split(color, key),
            plan: self.plan.clone(),
            world_rank: self.world_rank,
            ops: self.ops.clone(),
        }
    }

    fn next_op(&self) -> u64 {
        self.inner.next_op()
    }

    fn record_get(&self, bytes: usize) {
        self.inner.record_get(bytes);
    }

    fn expose(&self, spec: crate::window::WindowSpec) -> crate::window::Exposure {
        self.checkpoint();
        self.inner.expose(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = FaultPlan::seeded(seed, 6, 100);
            let b = FaultPlan::seeded(seed, 6, 100);
            assert_eq!(a, b);
            let v = a.victim().expect("seeded plan aborts someone");
            assert!(v < 6);
        }
    }

    #[test]
    fn seeded_plans_vary_with_seed() {
        let plans: Vec<FaultPlan> = (0..32).map(|s| FaultPlan::seeded(s, 8, 1000)).collect();
        let distinct: std::collections::HashSet<_> =
            plans.iter().map(|p| format!("{p:?}")).collect();
        assert!(distinct.len() > 1, "seeds must actually spread");
    }

    #[test]
    fn lookup_matches_rank_and_op() {
        let plan = FaultPlan::abort_at(2, 5).with(Fault {
            rank: 1,
            at_op: 3,
            action: FaultAction::Delay(Duration::from_millis(1)),
        });
        assert_eq!(plan.lookup(2, 5), Some(FaultAction::Abort));
        assert_eq!(
            plan.lookup(1, 3),
            Some(FaultAction::Delay(Duration::from_millis(1)))
        );
        assert_eq!(plan.lookup(2, 4), None);
        assert_eq!(plan.lookup(0, 5), None);
        assert_eq!(plan.victim(), Some(2));
        assert_eq!(FaultPlan::none().victim(), None);
    }

    #[test]
    fn frame_lookup_matches_rank_and_index() {
        let plan = FaultPlan::drop_frame_at(2, 5).with_frame_fault(FrameFaultRule {
            rank: 1,
            at_frame: 3,
            fault: FrameFault::Duplicate,
        });
        assert!(plan.has_frame_faults());
        assert_eq!(plan.frame_lookup(2, 5), Some(FrameFault::Drop));
        assert_eq!(plan.frame_lookup(1, 3), Some(FrameFault::Duplicate));
        assert_eq!(plan.frame_lookup(2, 4), None);
        assert_eq!(plan.frame_lookup(0, 5), None);
        assert!(!FaultPlan::none().has_frame_faults());
        assert!(!FaultPlan::abort_at(0, 0).has_frame_faults());
    }

    #[test]
    fn seeded_lossy_is_reproducible_and_spreads() {
        let plan = FaultPlan::seeded_lossy(42, 50, 20, 10);
        assert!(plan.has_frame_faults());
        let sweep = |p: &FaultPlan| -> Vec<Option<FrameFault>> {
            (0..2000).map(|i| p.frame_lookup(1, i)).collect()
        };
        assert_eq!(sweep(&plan), sweep(&plan.clone()));
        let hits = sweep(&plan).iter().filter(|f| f.is_some()).count();
        // 80 permille over 2000 frames: expect ~160, allow wide slack.
        assert!((40..500).contains(&hits), "lossy rate off: {hits}");
        // Different seeds injure different frames.
        assert_ne!(
            sweep(&plan),
            sweep(&FaultPlan::seeded_lossy(43, 50, 20, 10))
        );
        // Different ranks are injured independently.
        let r0: Vec<_> = (0..2000).map(|i| plan.frame_lookup(0, i)).collect();
        assert_ne!(r0, sweep(&plan));
    }

    #[test]
    fn arming_is_thread_local_and_guard_scoped() {
        assert!(armed_frame_plan().is_none());
        {
            let _g = arm_frame_plan(&FaultPlan::drop_frame_at(0, 1));
            let armed = armed_frame_plan().expect("armed inside the guard");
            assert_eq!(armed.frame_lookup(0, 1), Some(FrameFault::Drop));
            // A plan with no frame faults arms nothing.
            std::thread::spawn(|| {
                assert!(armed_frame_plan().is_none(), "arming leaked across threads");
            })
            .join()
            .unwrap();
        }
        assert!(armed_frame_plan().is_none(), "guard did not disarm");
        let _g = arm_frame_plan(&FaultPlan::abort_at(0, 0));
        assert!(armed_frame_plan().is_none(), "op-level plan armed frames");
    }

    #[test]
    fn frame_plan_parsing_rejects_every_bad_value_and_runs_clean() {
        let parse = parse_frame_plan;
        assert_eq!(
            parse(None, Some("corrupt"), Some("7")),
            None,
            "no rate, clean"
        );
        assert_eq!(parse(Some("0"), None, None), None, "0 = clean");
        assert_eq!(
            parse(Some(" 50 "), None, None),
            Some(FaultPlan::seeded_lossy(1, 50, 0, 0))
        );
        assert_eq!(
            parse(Some("10"), Some("corrupt"), Some(" 7 ")),
            Some(FaultPlan::seeded_lossy(7, 0, 10, 0))
        );
        assert_eq!(
            parse(Some("1000"), Some("duplicate"), Some("99")),
            Some(FaultPlan::seeded_lossy(99, 0, 0, 1000))
        );
        // each rejection is logged and leaves the transport clean
        for rate in ["lots", "-1", "1001", "70000"] {
            assert_eq!(parse(Some(rate), None, None), None, "rate {rate:?}");
        }
        assert_eq!(parse(Some("50"), Some("loss"), None), None, "mode");
        for seed in ["seven", "-7", "1.5", ""] {
            assert_eq!(parse(Some("50"), None, Some(seed)), None, "seed {seed:?}");
        }
    }

    #[test]
    fn attempt_gating_arms_one_attempt_only() {
        let plan = FaultPlan::kill_at(1, 4).on_attempt(0);
        assert_eq!(plan.victim(), Some(1));
        // Attempt 0 sees the armed plan, attempt 1 (the restart) runs clean.
        assert_eq!(plan.for_attempt(0), plan);
        assert_eq!(plan.for_attempt(1), FaultPlan::none());
        // Arming for a later attempt leaves earlier attempts clean.
        let late = FaultPlan::abort_at(0, 2).on_attempt(2);
        assert_eq!(late.for_attempt(0).victim(), None);
        assert_eq!(late.for_attempt(2).victim(), Some(0));
        // Replayable: the gate is plain data, equality is structural.
        assert_eq!(
            FaultPlan::kill_at(1, 4).on_attempt(3),
            FaultPlan::kill_at(1, 4).on_attempt(3)
        );
    }
}
