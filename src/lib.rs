//! # saspgemm — Sparsity-Aware Distributed-Memory SpGEMM
//!
//! A from-scratch Rust reproduction of *"A Sparsity-Aware Distributed-Memory
//! Algorithm for Sparse-Sparse Matrix Multiplication"* (Hong & Buluç, SC 2024,
//! arXiv:2408.14558).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sparse`] — sparse-matrix substrate: COO/CSC/DCSC storage, heap-,
//!   hash- and SPA-based local SpGEMM kernels with a hybrid dispatcher,
//!   semirings, synthetic dataset generators, Matrix Market I/O.
//! * [`mpisim`] — simulated distributed-memory runtime: rank threads,
//!   MPI-style collectives, passive-target RDMA windows, exact communication
//!   accounting and an α–β network cost model; typed failures plus
//!   `run_recoverable` restart-on-failure execution under a `RetryPolicy`.
//! * [`partition`] — multilevel k-way graph partitioner (METIS-class) and
//!   random symmetric permutation.
//! * [`dist`] — the paper's contribution: the sparsity-aware 1D SpGEMM
//!   algorithm with block fetching, plus the 2D sparse SUMMA, 3D split, and
//!   outer-product 1D baselines; `SpgemmSession` extends Algorithm 1 across
//!   iterations with a persistent remote-column fetch cache; sparsity-aware
//!   2D/3D variants bring needed-set communication to the grid layouts,
//!   with exact traffic predictors (`analyze_2d` / `analyze_3d`), and
//!   `pick_fetch_mode` picks a 1D fetch mode from one collective analysis.
//! * [`apps`] — evaluation applications: algebraic-multigrid restriction
//!   (MIS-2 aggregation + Galerkin product) and batched betweenness
//!   centrality; triangle counting and Markov clustering as extensions.
//!
//! ## Quickstart
//!
//! ```
//! use saspgemm::prelude::*;
//!
//! // Generate a small structured matrix and square it with the
//! // sparsity-aware 1D algorithm on 4 simulated ranks.
//! let a = sa_sparse::gen::stencil3d(8, 8, 8, true);
//! let universe = Universe::new(4);
//! let per_rank = universe.run(|comm| {
//!     let offsets = uniform_offsets(a.ncols(), comm.size());
//!     let da = DistMat1D::from_global(comm, &a, &offsets);
//!     let db = da.clone();
//!     let (c, report) = spgemm_1d(comm, &da, &db, &Plan1D::default());
//!     (c.into_local_csc(), report)
//! });
//! assert_eq!(per_rank.len(), 4);
//! let (_, report0) = &per_rank[0];
//! // a banded stencil in natural order fetches only a fraction of A
//! assert!(report0.cv_over_mem < 0.5);
//! ```

pub use sa_apps as apps;
pub use sa_dist as dist;
pub use sa_mpisim as mpisim;
pub use sa_partition as partition;
pub use sa_sparse as sparse;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use sa_apps::{bc, galerkin, mcl, mis2, restriction, triangle};
    pub use sa_dist::{
        analyze_1d, pick_fetch_mode, spgemm_1d, spgemm_split_3d_sa, spgemm_summa_2d_sa,
        try_spgemm_1d, uniform_offsets, CacheConfig, CheckpointStore, CkptError, DistMat1D,
        DistMat2D, DistMat3D, FetchMode, FileStore, MatSnapshot, MemStore, Plan1D, SessionSnapshot,
        SessionStats, SpgemmReport, SpgemmSession,
    };
    pub use sa_mpisim::{
        Backend, Comm, CommError, CostModel, FaultComm, FaultPlan, PhaseTimes, RankComm, RankError,
        RankOutcome, RecoverableJob, RecoveryReport, RetryPolicy, Universe,
    };
    pub use sa_partition::{partition_kway, random_symmetric_perm, Graph, PartitionConfig};
    pub use sa_sparse as sparse_crate;
    pub use sa_sparse::{
        semiring::{OrAnd, PlusTimes},
        Coo, Csc, Dcsc, Perm, Schedule, SpgemmWorkspace,
    };
    pub use {sa_dist, sa_mpisim, sa_partition, sa_sparse};
}
