//! Distributed SpGEMM algorithms — the paper's contribution and its
//! baselines (Hong & Buluç, SC 2024, arXiv:2408.14558).
//!
//! * [`spgemm1d`] — **Algorithm 1**, the sparsity-aware 1D algorithm:
//!   `B` and `C` stay put in a 1D column layout while only the columns of
//!   `A` that the local `B` slice's sparsity *requires* are fetched over
//!   one-sided windows, coalesced per [`FetchMode`] into ranged
//!   `get`s (§III-A's block fetch strategy). [`analyze_1d`] prices the
//!   communication exactly *before* any data moves — the §V `CV/memA`
//!   criterion — and [`pick_fetch_mode`] prices several fetch modes in
//!   one such collective pass and returns the cheapest under the α–β
//!   [`CostModel`](sa_mpisim::CostModel), the same on every rank.
//! * [`outer1d`] — **Algorithm 3**, the outer-product 1D baseline
//!   (expand–multiply–reduce), the better 1D algorithm for the Galerkin
//!   right multiplication (Fig. 12).
//! * [`summa2d`] — 2D sparse SUMMA (CombBLAS' default), the
//!   sparsity-oblivious baseline of Figs. 4/5/9.
//! * [`summa2d_sa`] — Algorithm 1's needed-set communication on the 2D
//!   grid: the needed `A` columns fetched per process row by Algorithm 1's
//!   own expose / plan / assemble core, owner-filtered `B` shipping per
//!   process column, any `pr × pc` shape (`1 × P` degenerates to
//!   Algorithm 1 exactly).
//! * [`mat3d`] — the 3D split algorithm: per-layer SUMMA over a column/row
//!   split of the operands, with a fiber reduce-scatter of the partials —
//!   in oblivious ([`spgemm_split_3d`]) and sparsity-aware
//!   ([`spgemm_split_3d_sa`]) flavours.
//! * [`analyze`] — exact traffic predictors for the 2D and 3D multiplies:
//!   [`analyze_2d`] and [`analyze_3d`] replay the symbolic machinery on the
//!   global operands, and what they predict is what execution meters,
//!   byte for byte.
//! * [`session`] — cross-iteration extension of Algorithm 1: a persistent
//!   [`SpgemmSession`] pins the fetched operand (metadata + window exposure
//!   once), and its resident copy of that operand
//!   ([`FetchCache`](session::FetchCache)) keeps every remote column it
//!   fetches across multiplies (or, under [`CacheConfig::disabled`], none)
//!   so iterative workloads (§II-C batched BC / MCL / Galerkin) fetch only
//!   the per-iteration miss set. [`SessionAnalysis`] is the incremental,
//!   collective-free counterpart of [`analyze_1d`].
//! * [`checkpoint`] — per-rank checkpoint stores ([`MemStore`] for
//!   threads, [`FileStore`] for processes) and [`SessionSnapshot`]
//!   capture/restore, the durability layer under
//!   [`run_recoverable`](sa_mpisim::Universe::run_recoverable): restarted
//!   iterative jobs resume at the last agreed iteration with their fetch
//!   caches intact, bit-identical to an uninterrupted run.
//! * [`prepare`](crate::prepare::prepare) — the permutation strategies the
//!   paper compares (natural order, random symmetric, METIS-style
//!   partitioning) packaged as a preprocessing step.
//! * [`mod@reference`] — serial oracles the integration tests compare
//!   against.
//!
//! Each algorithm has one multiply, and it takes the caller's
//! [`SpgemmWorkspace`](sa_sparse::SpgemmWorkspace) (a one-off call passes
//! `&SpgemmWorkspace::new()`): [`try_spgemm_1d`],
//! [`try_spgemm_summa_2d_sa`] and [`spgemm_split_3d_sa`] (the last two
//! generic over the semiring), [`spgemm_summa_2d`] and [`spgemm_split_3d`].
//! [`spgemm_outer_1d`] needs no workspace. [`spgemm_1d`] and
//! [`spgemm_summa_2d_sa`] are the panicking one-line wrappers of their
//! `try_*` cores.

pub mod analyze;
pub mod checkpoint;
pub mod dist1d;
mod fetch;
pub mod mat3d;
pub mod outer1d;
pub mod prepare;
pub mod reference;
pub mod session;
pub mod shape;
pub mod spgemm1d;
pub mod summa2d;
pub mod summa2d_sa;
pub mod wired;

pub use analyze::{analyze_2d, analyze_3d, Analysis2D, Analysis3D, PhaseCost, Prediction};
pub use checkpoint::{
    agreed_step, load_agreed, load_wire, load_wire_or_fresh, save_wire, CheckpointStore, CkptError,
    FileStore, MatSnapshot, MemStore,
};
pub use dist1d::{uniform_offsets, DistMat1D};
pub use mat3d::{
    spgemm_split_3d, spgemm_split_3d_sa, DistMat3D, LayerSplit, Owned3DBlock, SaSplit3DReport,
    Split3DReport,
};
pub use outer1d::{spgemm_outer_1d, OuterReport};
pub use prepare::{prepare, PrepResult, Strategy};
pub use session::{CacheConfig, SessionAnalysis, SessionSnapshot, SessionStats, SpgemmSession};
pub use shape::ShapeError;
pub use spgemm1d::{
    analyze_1d, pick_fetch_mode, spgemm_1d, try_spgemm_1d, Analysis1D, FetchMode, Plan1D,
    SpgemmReport,
};
pub use summa2d::{spgemm_summa_2d, DistMat2D, SummaReport};
pub use summa2d_sa::{spgemm_summa_2d_sa, try_spgemm_summa_2d_sa, SaSummaReport};
pub use wired::Wired;
