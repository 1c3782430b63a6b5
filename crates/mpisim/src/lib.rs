//! Simulated distributed-memory runtime.
//!
//! The paper runs on MPI (Cray MPICH) with passive-target RDMA windows.
//! This crate reproduces that programming model on one machine: every rank
//! is an OS thread, ranks communicate **only** through this API (two-sided
//! messages, collectives, and one-sided [`PairedWindow`] gets), and every
//! transfer is metered exactly (message counts and bytes, split by
//! operation class).
//!
//! Fidelity notes:
//! * **Volume and message counts are exact**, not modeled — they are the
//!   quantities the paper's analysis (Figures 5 and 6) is about, and they
//!   are byte-identical across backends by construction (the collectives
//!   are provided [`Comm`] methods over the metered two-sided core).
//! * **Three backends share one communicator**, [`RankComm`]: two run
//!   in-process and differ only in scheduling — [`Backend::Sim`] is the
//!   serial rank-loop simulator (one rank executes at a time, a run's
//!   wall-clock is the sum of rank work), [`Backend::Threads`] runs all
//!   rank threads concurrently (real parallel wall-clock) — and
//!   [`Backend::Procs`] forks one OS process per rank. See
//!   `docs/BACKENDS.md` for the contract and an extension guide.
//! * A Hockney **α–β model** ([`CostModel`]) converts the metered traffic
//!   into network-time estimates with Slingshot-like constants, for the
//!   figures whose shape depends on network latency/bandwidth rather than
//!   shared-memory copy speed.
//! * A window get is genuinely one-sided: the target rank's thread is not
//!   involved — the simulation reads the exposed buffer directly, exactly
//!   like RDMA bypassing the remote CPU.
//!
//! Type map (paper § in parentheses):
//!
//! * [`Comm`] — the backend-neutral communicator trait every distributed
//!   algorithm, and every closure handed to a [`Universe`], is written
//!   against (`use sa_mpisim::Comm`).
//! * [`Universe`] — launches a job on the [`Backend`] chosen at run time
//!   (`--backend threads`, `SA_BACKEND`): [`Universe::launch`] runs a
//!   closure on the backend it is given, [`Universe::run`] on the one
//!   `SA_BACKEND` names, [`Universe::try_run_backend`] a [`RankJob`]; the
//!   `try_` forms return one typed outcome per rank.
//! * [`Universe::run_recoverable`] — restart-on-failure execution of a
//!   [`RecoverableJob`] under a [`RetryPolicy`] (bounded exponential
//!   backoff), with a [`RecoveryReport`] recording every
//!   attempt; composes with checkpoint stores (`sa_dist`) so restarted
//!   iterative jobs resume mid-stream instead of starting over.
//! * [`PairedWindow`] — passive-target RDMA exposure of A's two arrays
//!   and ranged `get`s (Algorithm 1 lines 1 and 7); a session keeps one
//!   alive across iterative multiplies. Backend-neutral.
//! * [`CommStats`] — exact per-rank byte/message counters, split two-sided
//!   vs one-sided (Figs. 5/6).
//! * [`CostModel`] — the Hockney α–β network model (§IV setup).
//! * [`Grid2D`] / [`Grid3D`] — process grids for the 2D/3D baselines,
//!   generic over the backend.
//! * [`PhaseTimes`] — the symbolic / fetch / compute / assemble wall-clock
//!   split of one multiply, from which the figure breakdowns read the
//!   paper's comm/comp/other.

mod backend;
mod comm;
mod costmodel;
mod error;
mod fault;
mod grid;
mod p2p;
mod proc;
mod recover;
mod scheduler;
mod stats;
mod timer;
mod universe;
mod window;
mod wire;

pub use backend::{Backend, Comm};
pub use comm::RankComm;
pub use costmodel::CostModel;
pub use error::{CommError, Primitive, RankError, RankOutcome};
pub use fault::{Fault, FaultAction, FaultComm, FaultPlan};
pub use grid::{valid_layer_counts, Grid2D, Grid3D};
pub use proc::{corrupt_next_frame, kill_self_with_sigkill, mute_heartbeats};
pub use recover::{AttemptFailure, RecoverableJob, RecoveryReport, RetryPolicy};
pub use stats::CommStats;
pub use timer::PhaseTimes;
pub use universe::{RankJob, Universe};
pub use window::{Exposure, PairedWindow, WinElem, WindowError};
pub use wire::{crc32, Frame, Wire, WireError, MAX_FRAME};
