//! The one `Wire` form of the `sa_sparse` values a rank hands back to its
//! launcher.
//!
//! Under the `procs` backend every rank's result crosses a process
//! boundary, so a [`Universe`](sa_mpisim::Universe) launch requires it to
//! be [`Wire`]. `sa_sparse` does not depend on `sa_mpisim`, so its types
//! cross wrapped: a rank closure returns `c.gather(comm).map(Wired)` or
//! `Wired(ws.counters())`, and the launcher gets back a value that derefs
//! to the matrix or counters and compares equal to them.

use sa_mpisim::{Wire, WireError};
use sa_sparse::spgemm::WorkspaceCounters;
use sa_sparse::types::Vidx;
use sa_sparse::Csc;
use std::ops::Deref;

/// A [`Csc`] matrix or a [`WorkspaceCounters`] in a form that crosses a
/// process boundary; values travel bit-exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Wired<T>(pub T);

impl<T> Deref for Wired<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: PartialEq> PartialEq<T> for Wired<T> {
    fn eq(&self, other: &T) -> bool {
        self.0 == *other
    }
}

impl Wire for Wired<Csc<f64>> {
    fn put(&self, out: &mut Vec<u8>) {
        let m = &self.0;
        (m.nrows(), m.ncols(), m.colptr().len(), m.nnz()).put(out);
        usize::put_slice(m.colptr(), out);
        Vidx::put_slice(m.rowidx(), out);
        f64::put_slice(m.vals(), out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (nrows, ncols, ptrs, nnz) = <(usize, usize, usize, usize)>::get(buf)?;
        let (mut colptr, mut rowidx, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        usize::get_into(buf, ptrs, &mut colptr)?;
        Vidx::get_into(buf, nnz, &mut rowidx)?;
        f64::get_into(buf, nnz, &mut vals)?;
        if ptrs != ncols + 1 || colptr.last() != Some(&nnz) {
            return Err(WireError::Malformed {
                what: "column pointers",
            });
        }
        Ok(Wired(Csc::from_parts(nrows, ncols, colptr, rowidx, vals)))
    }
}

impl Wire for Wired<WorkspaceCounters> {
    fn put(&self, out: &mut Vec<u8>) {
        let c = &self.0;
        (c.scratch_allocs, c.scratch_reuses, c.chunk_allocs).put(out);
        (c.chunk_reuses, c.idx_allocs, c.idx_reuses).put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (scratch_allocs, scratch_reuses, chunk_allocs) = Wire::get(buf)?;
        let (chunk_reuses, idx_allocs, idx_reuses) = Wire::get(buf)?;
        Ok(Wired(WorkspaceCounters {
            scratch_allocs,
            scratch_reuses,
            chunk_allocs,
            chunk_reuses,
            idx_allocs,
            idx_reuses,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sparse::gen::erdos_renyi;

    #[test]
    fn wired_values_round_trip_bit_exact() {
        let m = erdos_renyi(30, 20, 3.0, 1).map(|v| v * -1e-300);
        let w = Wired(m.clone());
        assert_eq!(Wired::<Csc<f64>>::from_bytes(&w.to_bytes()), Ok(w.clone()));
        assert_eq!(w, m);
        let empty = Wired(Csc::<f64>::zeros(0, 0));
        assert_eq!(Wired::from_bytes(&empty.to_bytes()), Ok(empty));
        let c = Wired(WorkspaceCounters {
            scratch_allocs: 1,
            scratch_reuses: 2,
            chunk_allocs: 3,
            chunk_reuses: 4,
            idx_allocs: 5,
            idx_reuses: 6,
        });
        assert_eq!(Wired::from_bytes(&c.to_bytes()), Ok(c));
        // a column-pointer array that does not end at nnz is typed damage
        let mut bad = w.to_bytes();
        bad[16..24].copy_from_slice(&3u64.to_le_bytes());
        assert!(Wired::<Csc<f64>>::from_bytes(&bad).is_err());
    }
}
