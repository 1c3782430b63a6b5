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
//!   forked `procs` rank process the rank SIGKILLs its own process (no
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
use crate::window::{Exposure, WinElem};
use crate::wire::Wire;
use std::cell::Cell;
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

/// A deterministic schedule of injected faults, shared by all ranks of a
/// job (each rank consults only its own entries).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
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

    /// The fault-ops this rank has taken so far, splits included: a clean
    /// run's final count bounds the `at_op`s that can fire.
    pub fn ops(&self) -> u64 {
        self.ops.get()
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

    fn send_vec<T: Wire + Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.checkpoint();
        self.inner.send_vec(dst, tag, data);
    }

    fn recv_vec<T: Wire + Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
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

    fn expose<T: WinElem, U: WinElem>(
        &self,
        deposit: Arc<(Vec<T>, Vec<U>)>,
    ) -> Vec<Exposure<T, U>> {
        self.checkpoint();
        self.inner.expose(deposit)
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
