//! Recoverable jobs: turn typed rank failures into completed runs.
//!
//! PR 6 made failure a *value* ([`RankOutcome`]) and the procs backend made
//! it *real* (a SIGKILLable OS process) — but `try_launch` still ends the
//! job at the first failure. This module closes the detect→recover gap:
//! [`Universe::run_recoverable`] re-runs a [`RecoverableJob`] after a failed
//! attempt, tearing the whole rank set down first (every `try_` launch
//! already joins **all** rank threads / reaps all child processes, so
//! teardown is inherent) and respawning it fresh — re-forked processes under
//! [`Backend::Procs`], re-launched rank threads under `Sim`/`Threads`.
//!
//! Restarts are governed by a [`RetryPolicy`]: at most `max_restarts`
//! re-entries, separated by bounded exponential backoff.
//!
//! The job sees its attempt number, which is how checkpoint/restart
//! composes: attempt 0 starts fresh (or from a prior run's store), attempt
//! `n+1` re-enters and resumes from whatever the last attempt checkpointed
//! (see `sa_dist`'s `CheckpointStore`). A [`RecoveryReport`] records every
//! attempt's per-rank failures, so "it recovered" is auditable, not silent.
//!
//! Zero-fault runs pay nothing: attempt 0 is exactly one
//! [`Universe::try_launch`] call, byte-identical to `try_run` on the
//! conformance surface.

use crate::backend::Backend;
use crate::error::{RankError, RankOutcome};
use crate::universe::Universe;
use crate::wire::Wire;
use crate::Comm;
use std::time::Duration;

/// How many times to re-enter a failed job, and how long to wait between
/// re-entries. Backoff is bounded exponential: restart `k` sleeps
/// `backoff · 2^k`, capped at `max_backoff`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *restarts* (re-entries after the first attempt).
    /// `0` means one attempt, no recovery — the `try_run` semantics.
    pub max_restarts: u32,
    /// Base backoff before the first restart.
    pub backoff: Duration,
    /// Cap on the exponentially growing backoff.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// `max_restarts` re-entries with the given base backoff and a 1 s cap.
    pub fn new(max_restarts: u32, backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            max_restarts,
            backoff,
            max_backoff: Duration::from_secs(1),
        }
    }

    /// One attempt, no recovery.
    pub fn no_restarts() -> RetryPolicy {
        RetryPolicy::new(0, Duration::ZERO)
    }

    /// The sleep before restart number `restart` (0-based): bounded
    /// exponential, `backoff · 2^restart` capped at `max_backoff`.
    pub fn backoff_for(&self, restart: u32) -> Duration {
        self.backoff
            .saturating_mul(1u32.checked_shl(restart.min(20)).unwrap_or(u32::MAX))
            .min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    /// 2 restarts, 10 ms base backoff, 1 s cap.
    fn default() -> RetryPolicy {
        RetryPolicy::new(2, Duration::from_millis(10))
    }
}

/// The per-rank failures of one failed attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct AttemptFailure {
    /// Which attempt failed (0-based).
    pub attempt: u32,
    /// `(rank, error)` for every rank that did not return `Ok`.
    pub failures: Vec<(usize, RankError)>,
}

/// What [`Universe::run_recoverable`] did: how many attempts ran, how many
/// restarts that took, whether the final attempt succeeded, and every
/// failed attempt's per-rank errors (in attempt order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Total attempts executed (≥ 1).
    pub attempts: u32,
    /// Restarts performed (= `attempts - 1`).
    pub restarts: u32,
    /// `true` iff the final attempt returned `Ok` on every rank.
    pub recovered: bool,
    /// One entry per *failed* attempt, so a recovered run keeps the
    /// forensic record of what it recovered from.
    pub history: Vec<AttemptFailure>,
}

/// A backend-generic rank body that can be re-entered: like
/// [`RankJob`](crate::RankJob),
/// but the body also receives the attempt number, which is what lets it
/// resume from a checkpoint instead of starting over (and lets a fault
/// plan arm itself for one attempt only — see
/// [`FaultPlan::for_attempt`](crate::FaultPlan::for_attempt)).
pub trait RecoverableJob: Sync {
    /// Per-rank result type (crosses a process boundary under procs).
    type Out: Wire + Send;
    /// The rank body. `attempt` is 0 on the first entry and increments on
    /// every restart.
    fn run<C: Comm>(&self, comm: &C, attempt: u32) -> Self::Out;
}

impl Universe {
    /// Run `job` on `backend`, restarting the **entire rank set** after a
    /// failed attempt — up to `policy.max_restarts` times, with bounded
    /// exponential backoff between attempts.
    ///
    /// Teardown is complete before every restart: `try_launch` joins
    /// all rank threads (in-process) or reaps all child processes (procs),
    /// so a restart re-launches every rank from scratch — re-forked
    /// processes under [`Backend::Procs`], fresh `sa-rank-{r}` threads
    /// under `Sim`/`Threads` — with fresh communicators, windows, and
    /// `CommStats`. Cross-attempt state lives only where the job put it
    /// (its checkpoint store), which is what makes a recovered run's
    /// post-restart segment bit-identical to a fault-free run resumed from
    /// the same checkpoint.
    ///
    /// A zero-fault run executes exactly one `try_launch` call —
    /// byte-identical outcomes to [`Universe::try_run`] by construction.
    ///
    /// ```
    /// use sa_mpisim::{Backend, Comm, RecoverableJob, RetryPolicy, Universe};
    /// use std::time::Duration;
    ///
    /// /// Dies on its first attempt, succeeds when re-entered.
    /// struct FlakySum;
    /// impl RecoverableJob for FlakySum {
    ///     type Out = u64;
    ///     fn run<C: Comm>(&self, comm: &C, attempt: u32) -> u64 {
    ///         if attempt == 0 && comm.rank() == 1 {
    ///             panic!("injected fault: attempt 0 dies");
    ///         }
    ///         comm.allreduce(comm.rank() as u64, |a, b| a + b)
    ///     }
    /// }
    ///
    /// let u = Universe::new(3);
    /// let policy = RetryPolicy::new(2, Duration::from_millis(1));
    /// let (out, report) = u.run_recoverable(Backend::Sim, &policy, &FlakySum);
    /// assert_eq!(out.len(), 3);
    /// assert!(out.iter().all(|o| o.as_ref() == Ok(&3)));
    /// assert!(report.recovered);
    /// assert_eq!(report.restarts, 1);
    /// // the failed attempt stays on record
    /// assert_eq!(report.history[0].failures.len(), 3);
    /// ```
    pub fn run_recoverable<J: RecoverableJob>(
        &self,
        backend: Backend,
        policy: &RetryPolicy,
        job: &J,
    ) -> (Vec<RankOutcome<J::Out>>, RecoveryReport) {
        let mut history = Vec::new();
        let mut attempt = 0u32;
        loop {
            // The attempt number is ordinary captured data: under procs the
            // fork snapshots it, so every re-forked child sees the right one.
            let out = self.try_launch(backend, |c| job.run(c, attempt));
            let failures: Vec<(usize, RankError)> = out
                .iter()
                .enumerate()
                .filter_map(|(r, o)| o.as_ref().err().map(|e| (r, e.clone())))
                .collect();
            let recovered = failures.is_empty();
            if !recovered {
                history.push(AttemptFailure { attempt, failures });
            }
            if recovered || attempt >= policy.max_restarts {
                let report = RecoveryReport {
                    attempts: attempt + 1,
                    restarts: attempt,
                    recovered,
                    history,
                };
                return (out, report);
            }
            std::thread::sleep(policy.backoff_for(attempt));
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CommError;

    fn quiet_injected_panics() {
        use std::sync::Once;
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

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = RetryPolicy {
            max_backoff: Duration::from_millis(9),
            ..RetryPolicy::new(10, Duration::from_millis(2))
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(2));
        assert_eq!(p.backoff_for(1), Duration::from_millis(4));
        assert_eq!(p.backoff_for(2), Duration::from_millis(8));
        assert_eq!(p.backoff_for(3), Duration::from_millis(9)); // capped
        assert_eq!(p.backoff_for(40), Duration::from_millis(9)); // no overflow
        assert_eq!(RetryPolicy::no_restarts().backoff_for(0), Duration::ZERO);
    }

    #[test]
    fn zero_fault_job_runs_exactly_once() {
        struct CountingSum(std::sync::atomic::AtomicU32);
        impl RecoverableJob for CountingSum {
            type Out = u64;
            fn run<C: Comm>(&self, comm: &C, attempt: u32) -> u64 {
                assert_eq!(attempt, 0);
                if comm.rank() == 0 {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
                comm.allreduce(1u64, |a, b| a + b)
            }
        }
        let job = CountingSum(std::sync::atomic::AtomicU32::new(0));
        let u = Universe::new(4);
        let (out, report) = u.run_recoverable(Backend::Sim, &RetryPolicy::default(), &job);
        assert!(out.iter().all(|o| o.as_ref() == Ok(&4)));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.restarts, 0);
        assert!(report.recovered && report.history.is_empty());
        assert_eq!(job.0.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_attempts_are_bounded_by_policy() {
        quiet_injected_panics();
        struct AlwaysDies;
        impl RecoverableJob for AlwaysDies {
            type Out = u64;
            fn run<C: Comm>(&self, comm: &C, _attempt: u32) -> u64 {
                if comm.rank() == 1 {
                    panic!("injected fault: permanent");
                }
                comm.barrier();
                0
            }
        }
        let u = Universe::new(3);
        let policy = RetryPolicy::new(2, Duration::from_millis(1));
        let (out, report) = u.run_recoverable(Backend::Sim, &policy, &AlwaysDies);
        assert!(out.iter().all(|o| o.is_err()));
        assert!(!report.recovered);
        assert_eq!(report.attempts, 3); // 1 try + 2 restarts
        assert_eq!(report.restarts, 2);
        assert_eq!(report.history.len(), 3);
        for (i, h) in report.history.iter().enumerate() {
            assert_eq!(h.attempt, i as u32);
            assert!(h.failures.iter().any(|(r, _)| *r == 1));
        }
    }

    #[test]
    fn recovery_works_on_threads_backend_too() {
        quiet_injected_panics();
        struct FlakyOnce;
        impl RecoverableJob for FlakyOnce {
            type Out = u64;
            fn run<C: Comm>(&self, comm: &C, attempt: u32) -> u64 {
                if attempt == 0 && comm.rank() == 2 {
                    panic!("injected fault: attempt 0 dies");
                }
                comm.allreduce(comm.rank() as u64, |a, b| a + b)
            }
        }
        let u = Universe::new(4);
        let policy = RetryPolicy::new(1, Duration::from_millis(1));
        let (out, report) = u.run_recoverable(Backend::Threads, &policy, &FlakyOnce);
        assert!(out.iter().all(|o| o.as_ref() == Ok(&6)));
        assert!(report.recovered);
        assert_eq!(report.restarts, 1);
    }
}
