//! Compressed Sparse Column storage — the workhorse local format.
//!
//! Row indices within each column are kept sorted ascending; every kernel in
//! this workspace relies on that invariant (merge-based SpGEMM, binary-search
//! `get`, interval extraction for the block-fetch strategy).

use crate::coo::Coo;
use crate::types::{vidx, Vidx};

/// A CSC sparse matrix over element type `T`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csc<T> {
    nrows: usize,
    ncols: usize,
    /// `colptr[j]..colptr[j+1]` indexes column `j`'s entries. Length `ncols+1`.
    colptr: Vec<usize>,
    /// Row index of each entry, sorted ascending within a column.
    rowidx: Vec<Vidx>,
    /// Numeric value of each entry.
    vals: Vec<T>,
}

impl<T: Copy + Send + Sync> Csc<T> {
    /// Assemble from raw parts, checking invariants in debug builds.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<Vidx>,
        vals: Vec<T>,
    ) -> Self {
        assert_eq!(colptr.len(), ncols + 1);
        assert_eq!(rowidx.len(), vals.len());
        assert_eq!(*colptr.last().unwrap(), rowidx.len());
        debug_assert!(colptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(rowidx.iter().all(|&r| (r as usize) < nrows));
        debug_assert!((0..ncols).all(|j| {
            rowidx[colptr[j]..colptr[j + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        Csc {
            nrows,
            ncols,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Disassemble into `(colptr, rowidx, vals)` — the inverse of
    /// [`Csc::from_parts`].
    pub fn into_parts(self) -> (Vec<usize>, Vec<Vidx>, Vec<T>) {
        (self.colptr, self.rowidx, self.vals)
    }

    /// An empty `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Csc {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Identity-like matrix with `diag[i]` at `(i, i)`.
    pub fn diagonal(diag: &[T]) -> Self {
        let n = diag.len();
        Csc {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowidx: (0..n).map(vidx).collect(),
            vals: diag.to_vec(),
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    pub fn rowidx(&self) -> &[Vidx] {
        &self.rowidx
    }

    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    pub fn vals_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// The (row indices, values) of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        let (s, e) = (self.colptr[j], self.colptr[j + 1]);
        (&self.rowidx[s..e], &self.vals[s..e])
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Number of columns holding at least one entry (`nzc` in the paper).
    pub fn n_nonzero_cols(&self) -> usize {
        (0..self.ncols).filter(|&j| self.col_nnz(j) > 0).count()
    }

    /// Value at `(i, j)` if stored (binary search within the column).
    pub fn get(&self, i: usize, j: usize) -> Option<T> {
        let (rows, vals) = self.col(j);
        rows.binary_search(&vidx(i)).ok().map(|p| vals[p])
    }

    /// Iterate all entries as `(row, col, value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Vidx, Vidx, T)> + '_ {
        (0..self.ncols).flat_map(move |j| {
            let (rows, vals) = self.col(j);
            rows.iter().zip(vals).map(move |(&r, &v)| (r, vidx(j), v))
        })
    }

    /// Convert to COO triples.
    pub fn to_coo(&self) -> Coo<T> {
        Coo::from_entries(self.nrows, self.ncols, self.iter().collect())
    }

    /// Transpose via counting sort — O(nnz + nrows).
    pub fn transpose(&self) -> Csc<T> {
        let mut colptr = vec![0usize; self.nrows + 1];
        for &r in &self.rowidx {
            colptr[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            colptr[i + 1] += colptr[i];
        }
        if self.nnz() == 0 {
            return Csc {
                nrows: self.ncols,
                ncols: self.nrows,
                colptr,
                rowidx: Vec::new(),
                vals: Vec::new(),
            };
        }
        let mut cursor = colptr.clone();
        let mut rowidx = vec![0 as Vidx; self.nnz()];
        let mut vals = vec![self.vals[0]; self.nnz()];
        for j in 0..self.ncols {
            let (rows, v) = self.col(j);
            for (&r, &x) in rows.iter().zip(v) {
                let p = cursor[r as usize];
                rowidx[p] = vidx(j);
                vals[p] = x;
                cursor[r as usize] += 1;
            }
        }
        // Column-major traversal of the source emits ascending column ids per
        // target column, so sortedness is preserved by construction.
        Csc {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Extract the column range `[c0, c1)` as a standalone `nrows × (c1-c0)`
    /// matrix. This is how a 1D column slice of a global matrix is formed.
    pub fn extract_cols(&self, c0: usize, c1: usize) -> Csc<T> {
        assert!(c0 <= c1 && c1 <= self.ncols);
        let (s, e) = (self.colptr[c0], self.colptr[c1]);
        let colptr = self.colptr[c0..=c1].iter().map(|&p| p - s).collect();
        Csc {
            nrows: self.nrows,
            ncols: c1 - c0,
            colptr,
            rowidx: self.rowidx[s..e].to_vec(),
            vals: self.vals[s..e].to_vec(),
        }
    }

    /// Extract the row range `[r0, r1)` as a `(r1-r0) × ncols` matrix.
    /// Entries keep column order; O(nnz).
    pub fn extract_rows(&self, r0: usize, r1: usize) -> Csc<T> {
        assert!(r0 <= r1 && r1 <= self.nrows);
        let (lo, hi) = (vidx(r0), vidx(r1));
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::new();
        let mut vals = Vec::new();
        for j in 0..self.ncols {
            let (rows, v) = self.col(j);
            let a = rows.partition_point(|&r| r < lo);
            let b = rows.partition_point(|&r| r < hi);
            for t in a..b {
                rowidx.push(rows[t] - lo);
                vals.push(v[t]);
            }
            colptr[j + 1] = rowidx.len();
        }
        Csc {
            nrows: r1 - r0,
            ncols: self.ncols,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Extract both a row range and a column range (2D block).
    pub fn extract_block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Csc<T> {
        self.extract_cols(c0, c1).extract_rows(r0, r1)
    }

    /// The sorted set of rows that hold at least one entry — the `⃗H`
    /// vector of Algorithm 1 in index-list form.
    pub fn nonzero_rows(&self) -> Vec<Vidx> {
        let mut seen = vec![false; self.nrows];
        for &r in &self.rowidx {
            seen[r as usize] = true;
        }
        (0..self.nrows).filter(|&i| seen[i]).map(vidx).collect()
    }

    /// Dense boolean hit-vector over rows (`⃗H` of Algorithm 1).
    pub fn row_hit_vector(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nrows];
        for &r in &self.rowidx {
            seen[r as usize] = true;
        }
        seen
    }

    /// nnz of every column (length `ncols`).
    pub fn nnz_per_col(&self) -> Vec<usize> {
        (0..self.ncols).map(|j| self.col_nnz(j)).collect()
    }

    /// nnz of every row (length `nrows`).
    pub fn nnz_per_row(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for &r in &self.rowidx {
            counts[r as usize] += 1;
        }
        counts
    }

    /// Map values, keeping structure.
    pub fn map<U: Copy + Send + Sync>(&self, f: impl Fn(T) -> U) -> Csc<U> {
        Csc {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr: self.colptr.clone(),
            rowidx: self.rowidx.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Drop entries failing the predicate (e.g. prune explicit zeros).
    pub fn filter(&self, keep: impl Fn(Vidx, Vidx, T) -> bool) -> Csc<T> {
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for j in 0..self.ncols {
            let (rows, v) = self.col(j);
            for (&r, &x) in rows.iter().zip(v) {
                if keep(r, vidx(j), x) {
                    rowidx.push(r);
                    vals.push(x);
                }
            }
            colptr[j + 1] = rowidx.len();
        }
        Csc {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Estimated heap bytes of this matrix (what "memA" means in the paper's
    /// CV/memA criterion: index + value storage of the local A).
    pub fn mem_bytes(&self) -> usize {
        self.colptr.len() * std::mem::size_of::<usize>()
            + self.rowidx.len() * std::mem::size_of::<Vidx>()
            + self.vals.len() * std::mem::size_of::<T>()
    }
}

impl Csc<f64> {
    /// Structural pattern as a boolean matrix.
    pub fn pattern(&self) -> Csc<bool> {
        self.map(|_| true)
    }

    /// Max absolute elementwise difference against `other` on the union of
    /// their patterns (∞ if shapes differ).
    pub fn max_abs_diff(&self, other: &Csc<f64>) -> f64 {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return f64::INFINITY;
        }
        (0..self.ncols)
            .map(|j| col_max_abs_diff(self.col(j), other.col(j)))
            .fold(0.0, f64::max)
    }
}

/// Max absolute difference of two columns (ascending rows) on the union of
/// their patterns.
pub(crate) fn col_max_abs_diff((ra, va): (&[Vidx], &[f64]), (rb, vb): (&[Vidx], &[f64])) -> f64 {
    let mut worst = 0.0f64;
    let (mut i, mut k) = (0, 0);
    while i < ra.len() || k < rb.len() {
        let (r1, r2) = (
            ra.get(i).copied().unwrap_or(Vidx::MAX),
            rb.get(k).copied().unwrap_or(Vidx::MAX),
        );
        if r1 < r2 {
            worst = worst.max(va[i].abs());
            i += 1;
        } else if r2 < r1 {
            worst = worst.max(vb[k].abs());
            k += 1;
        } else {
            worst = worst.max((va[i] - vb[k]).abs());
            i += 1;
            k += 1;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csc<f64> {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut m = Coo::new(3, 3);
        for &(r, c, v) in &[
            (0, 0, 1.0),
            (2, 0, 4.0),
            (1, 1, 3.0),
            (0, 2, 2.0),
            (2, 2, 5.0),
        ] {
            m.push(r, c, v);
        }
        m.to_csc()
    }

    #[test]
    fn get_and_col() {
        let m = sample();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(2, 2), Some(5.0));
        assert_eq!(m.col(1), (&[1][..], &[3.0][..]));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_values() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), Some(4.0));
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.nnz(), m.nnz());
    }

    #[test]
    fn extract_cols_slice() {
        let m = sample();
        let s = m.extract_cols(1, 3);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.get(1, 0), Some(3.0));
        assert_eq!(s.get(2, 1), Some(5.0));
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn extract_rows_slice() {
        let m = sample();
        let s = m.extract_rows(1, 3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 1), Some(3.0)); // old row 1 -> new row 0
        assert_eq!(s.get(1, 2), Some(5.0)); // old row 2 -> new row 1
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn extract_block_corner() {
        let m = sample();
        let b = m.extract_block(0, 2, 0, 2);
        assert_eq!((b.nrows(), b.ncols()), (2, 2));
        assert_eq!(b.get(0, 0), Some(1.0));
        assert_eq!(b.get(1, 1), Some(3.0));
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn nonzero_rows_and_hits() {
        let m = sample();
        assert_eq!(m.nonzero_rows(), vec![0, 1, 2]);
        let s = m.extract_cols(1, 2); // only column 1 => row 1
        assert_eq!(s.nonzero_rows(), vec![1]);
        assert_eq!(s.row_hit_vector(), vec![false, true, false]);
    }

    #[test]
    fn per_col_and_row_counts() {
        let m = sample();
        assert_eq!(m.nnz_per_col(), vec![2, 1, 2]);
        assert_eq!(m.nnz_per_row(), vec![2, 1, 2]);
        assert_eq!(m.n_nonzero_cols(), 3);
    }

    #[test]
    fn filter_prunes() {
        let m = sample();
        let f = m.filter(|_, _, v| v > 2.5);
        assert_eq!(f.nnz(), 3);
        assert_eq!(f.get(0, 0), None);
        assert_eq!(f.get(2, 0), Some(4.0));
    }

    #[test]
    fn diagonal_matrix() {
        let d = Csc::diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.get(1, 1), Some(2.0));
        assert_eq!(d.get(0, 1), None);
    }

    #[test]
    fn max_abs_diff_detects() {
        let a = sample();
        let mut b = sample();
        b.vals_mut()[0] += 0.5;
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn empty_extract() {
        let m = sample();
        let e = m.extract_cols(1, 1);
        assert_eq!(e.ncols(), 0);
        assert_eq!(e.nnz(), 0);
    }
}
