//! The 1D column-distributed matrix Algorithm 1 operates on.
//!
//! Rank `r` owns the contiguous column range `offsets[r]..offsets[r+1]` of
//! the global matrix, stored as a [`Dcsc`] with *local* column ids — after a
//! 1D split local slices are hypersparse, which is DCSC's reason to exist.
//! The offsets may be non-uniform (the partitioner's layouts are), and
//! slices may be empty.

use sa_mpisim::Comm;
use sa_sparse::types::Vidx;
use sa_sparse::{Csc, Dcsc};
use std::sync::Arc;

/// The uniform 1D layout: rank `r` gets columns `r·n/p .. (r+1)·n/p`.
pub fn uniform_offsets(n: usize, p: usize) -> Vec<usize> {
    (0..=p).map(|r| r * n / p).collect()
}

/// Uniform 2D block layout of `m` over a `pr × pc` grid plus the block at
/// grid position `(myrow, mycol)` — the offsets-then-extract step shared by
/// the 2D distribution constructor, the 3D layer splits, and the prepared
/// layouts, so the cut convention lives in exactly one place.
pub(crate) fn uniform_block_dist(
    m: &Csc<f64>,
    pr: usize,
    pc: usize,
    myrow: usize,
    mycol: usize,
) -> (Arc<Vec<usize>>, Arc<Vec<usize>>, Csc<f64>) {
    let row_offsets = Arc::new(uniform_offsets(m.nrows(), pr));
    let col_offsets = Arc::new(uniform_offsets(m.ncols(), pc));
    let local = m.extract_block(
        row_offsets[myrow],
        row_offsets[myrow + 1],
        col_offsets[mycol],
        col_offsets[mycol + 1],
    );
    (row_offsets, col_offsets, local)
}

/// A 1D column-distributed sparse matrix (one rank's view).
#[derive(Clone)]
pub struct DistMat1D {
    nrows: usize,
    ncols: usize,
    offsets: Arc<Vec<usize>>,
    /// This rank's column slice, local column ids `0..width`.
    local: Dcsc<f64>,
}

impl DistMat1D {
    /// Distribute `a` by columns: every rank extracts its own slice from the
    /// (replicated) global matrix. Panics if `offsets` is not a monotone
    /// cover of `a`'s columns with one range per rank.
    pub fn from_global<C: Comm>(comm: &C, a: &Csc<f64>, offsets: &[usize]) -> DistMat1D {
        assert!(
            offsets.len() == comm.size() + 1
                && offsets.first() == Some(&0)
                && offsets.last() == Some(&a.ncols())
                && offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets {:?} must cover all {} columns with one contiguous range per rank ({} ranks)",
            offsets,
            a.ncols(),
            comm.size()
        );
        let (c0, c1) = (offsets[comm.rank()], offsets[comm.rank() + 1]);
        DistMat1D {
            nrows: a.nrows(),
            ncols: a.ncols(),
            offsets: Arc::new(offsets.to_vec()),
            local: Dcsc::from_csc(&a.extract_cols(c0, c1)),
        }
    }

    /// Wrap an already-local slice (e.g. a frontier block the caller built
    /// in place). `local` must be this rank's slice under `offsets`, with
    /// local column ids.
    pub fn from_local(
        nrows: usize,
        ncols: usize,
        offsets: Arc<Vec<usize>>,
        local: Dcsc<f64>,
    ) -> DistMat1D {
        debug_assert_eq!(*offsets.last().unwrap(), ncols, "offsets must cover ncols");
        DistMat1D {
            nrows,
            ncols,
            offsets,
            local,
        }
    }

    /// Global row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global column count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The 1D layout (length `P + 1`).
    pub fn offsets(&self) -> &Arc<Vec<usize>> {
        &self.offsets
    }

    /// This rank's slice.
    pub fn local(&self) -> &Dcsc<f64> {
        &self.local
    }

    /// Stored entries in this rank's slice.
    pub fn local_nnz(&self) -> usize {
        self.local.nnz()
    }

    /// This rank's slice as CSC (width = owned columns).
    pub fn into_local_csc(self) -> Csc<f64> {
        self.local.into_csc()
    }

    /// Total stored entries across ranks. Collective.
    pub fn global_nnz<C: Comm>(&self, comm: &C) -> u64 {
        comm.allreduce(self.local.nnz() as u64, |x, y| x + y)
    }

    /// Reassemble the global matrix at rank 0 (`None` elsewhere),
    /// preserving each column's stored entry order exactly. Collective.
    pub fn gather<C: Comm>(&self, comm: &C) -> Option<Csc<f64>> {
        let me = comm.rank();
        let width = self.offsets[me + 1] - self.offsets[me];
        // per-column lengths, expanded from the compressed index
        let mut lens = vec![0u32; width];
        for q in 0..self.local.nzc() {
            lens[self.local.jc()[q] as usize] =
                (self.local.cp()[q + 1] - self.local.cp()[q]) as u32;
        }
        let lens_all = comm.gatherv(0, lens);
        let rows_all = comm.gatherv(0, self.local.ir().to_vec());
        let vals_all = comm.gatherv(0, self.local.num().to_vec());
        let (lens_all, rows_all, vals_all) = match (lens_all, rows_all, vals_all) {
            (Some(l), Some(r), Some(v)) => (l, r, v),
            _ => return None,
        };
        let mut colptr = Vec::with_capacity(self.ncols + 1);
        colptr.push(0usize);
        for lens in &lens_all {
            for &l in lens {
                colptr.push(colptr.last().unwrap() + l as usize);
            }
        }
        let nnz = *colptr.last().unwrap();
        let mut rowidx: Vec<Vidx> = Vec::with_capacity(nnz);
        let mut vals: Vec<f64> = Vec::with_capacity(nnz);
        for (r, v) in rows_all.into_iter().zip(vals_all) {
            rowidx.extend_from_slice(&r);
            vals.extend(v);
        }
        Some(Csc::from_parts(
            self.nrows, self.ncols, colptr, rowidx, vals,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_mpisim::Universe;
    use sa_sparse::gen::erdos_renyi;

    #[test]
    fn uniform_offsets_cover() {
        assert_eq!(uniform_offsets(10, 4), vec![0, 2, 5, 7, 10]);
        assert_eq!(uniform_offsets(3, 5), vec![0, 0, 1, 1, 2, 3]);
        assert_eq!(uniform_offsets(0, 2), vec![0, 0, 0]);
    }

    #[test]
    fn distribute_and_gather_roundtrip() {
        let a = erdos_renyi(40, 50, 3.0, 1);
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let d = DistMat1D::from_global(comm, &a, &uniform_offsets(50, 4));
            (d.local().nnz(), d.gather(comm))
        });
        let total: usize = got.iter().map(|(n, _)| n).sum();
        assert_eq!(total, a.nnz());
        assert_eq!(got[0].1.as_ref().unwrap(), &a, "gather must be exact");
        assert!(got[1].1.is_none());
    }

    #[test]
    fn global_nnz_sums_ranks() {
        let a = erdos_renyi(30, 30, 2.0, 2);
        let u = Universe::new(3);
        let got = u
            .run(|comm| DistMat1D::from_global(comm, &a, &uniform_offsets(30, 3)).global_nnz(comm));
        assert!(got.iter().all(|&n| n == a.nnz() as u64));
    }

    #[test]
    #[should_panic(expected = "offsets")]
    fn bad_offsets_rejected() {
        let a = erdos_renyi(8, 8, 1.0, 3);
        let u = Universe::new(2);
        u.run(move |comm| {
            let _ = DistMat1D::from_global(comm, &a, &[0, 9, 8]);
        });
    }
}
