//! Sparse-matrix substrate for the sparsity-aware SpGEMM reproduction.
//!
//! Provides the storage formats the paper's implementation relies on
//! (most importantly **DCSC**, the double-compressed sparse column format of
//! Buluç & Gilbert used by CombBLAS), the local SpGEMM kernels (heap-based
//! [Azad et al. 2016], hash-based [Nagasaka et al. 2019], dense-accumulator,
//! and the hybrid dispatcher the paper uses), semiring abstraction, synthetic
//! dataset generators standing in for the SuiteSparse evaluation matrices,
//! and Matrix Market I/O.
//!
//! Module map (paper § in parentheses):
//!
//! * [`coo`] / [`csc`] — construction and baseline storage formats.
//! * [`dcsc`] — the hypersparse format of the 1D slices (§II).
//! * [`mod@spgemm`] — local kernels and the hybrid dispatcher (§II-B, Fig. 3).
//! * [`semiring`] — plus-times / min-plus / or-and algebras (§II-A).
//! * [`ewise`], [`permute`], [`stats`] — masked elementwise ops, symmetric
//!   permutations (§III-B), and distribution summaries.
//! * [`gen`] — scaled analogs of the Table II evaluation matrices.
//! * [`io`] — Matrix Market round-tripping.

pub mod coo;
pub mod csc;
pub mod dcsc;
pub mod ewise;
pub mod gen;
pub mod io;
pub mod permute;
pub mod semiring;
pub mod spgemm;
pub mod stats;
pub mod types;

pub use coo::Coo;
pub use csc::Csc;
pub use dcsc::Dcsc;
pub use permute::Perm;
pub use semiring::{MinPlus, OrAnd, PlusTimes, Semiring};
pub use spgemm::{
    spgemm, spgemm_kernel, spgemm_with, Kernel, Schedule, SpgemmWorkspace, WorkspaceCounters,
};
pub use types::Vidx;

/// The dense brute-force oracle of the unit tests (`stats`, `spgemm`).
#[cfg(test)]
mod dense;
