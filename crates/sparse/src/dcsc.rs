//! Double-Compressed Sparse Column (DCSC) — the hypersparse format of
//! Buluç & Gilbert (IPDPS'08) that CombBLAS stores local submatrices in and
//! that the paper's implementation uses (§II).
//!
//! Where CSC spends `O(ncols)` on `colptr` even when almost every column is
//! empty, DCSC stores only the `nzc` nonzero columns: `jc[q]` is the q-th
//! nonzero column id and `cp[q]..cp[q+1]` indexes its entries. After a 1D or
//! 2D split, local submatrices are hypersparse (`nnz ≪ ncols`), which is
//! exactly when this matters.

use crate::csc::{col_max_abs_diff, Csc};
use crate::types::{vidx, Vidx};

/// A DCSC sparse matrix over element type `T`.
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsc<T> {
    nrows: usize,
    ncols: usize,
    /// Ids of columns holding at least one entry, ascending. Length `nzc`.
    jc: Vec<Vidx>,
    /// Entry ranges: column `jc[q]` owns entries `cp[q]..cp[q+1]`.
    /// Length `nzc + 1`.
    cp: Vec<usize>,
    /// Row ids, ascending within each column.
    ir: Vec<Vidx>,
    /// Values, parallel to `ir`.
    num: Vec<T>,
}

impl<T: Copy + Send + Sync> Dcsc<T> {
    /// Assemble from raw parts, checking invariants in debug builds.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        jc: Vec<Vidx>,
        cp: Vec<usize>,
        ir: Vec<Vidx>,
        num: Vec<T>,
    ) -> Self {
        assert_eq!(cp.len(), jc.len() + 1);
        assert_eq!(ir.len(), num.len());
        assert_eq!(*cp.last().unwrap_or(&0), ir.len());
        debug_assert!(jc.windows(2).all(|w| w[0] < w[1]), "jc strictly ascending");
        debug_assert!(jc.iter().all(|&j| (j as usize) < ncols));
        debug_assert!(
            cp.windows(2).all(|w| w[0] < w[1]),
            "no empty columns stored"
        );
        debug_assert!(ir.iter().all(|&r| (r as usize) < nrows));
        debug_assert!(
            cp.windows(2)
                .all(|c| ir[c[0]..c[1]].windows(2).all(|w| w[0] < w[1])),
            "row ids strictly ascending within each column"
        );
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
        }
    }

    /// Disassemble into `(jc, cp, ir, num)` — the inverse of
    /// [`Dcsc::from_parts`]. Iterative callers use this to hand a consumed
    /// `Ã`'s buffers back to a workspace pool so the next iteration's
    /// assembly reuses their capacity instead of reallocating.
    pub fn into_parts(self) -> (Vec<Vidx>, Vec<usize>, Vec<Vidx>, Vec<T>) {
        (self.jc, self.cp, self.ir, self.num)
    }

    /// An empty matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Dcsc {
            nrows,
            ncols,
            jc: Vec::new(),
            cp: vec![0],
            ir: Vec::new(),
            num: Vec::new(),
        }
    }

    /// Compress a CSC matrix (dropping empty columns from the index).
    pub fn from_csc(m: &Csc<T>) -> Self {
        Self::compress(m, |_| true)
    }

    /// The columns of `m` flagged in `keep`, and no others: `Ã` as
    /// Algorithm 1 assembles it from `B`'s needed set, without the
    /// communication. Benches and tests feed the local kernels through it
    /// the operand shape the ranks feed them.
    pub fn from_csc_cols(m: &Csc<T>, keep: &[bool]) -> Self {
        assert_eq!(keep.len(), m.ncols());
        Self::compress(m, |j| keep[j])
    }

    fn compress(m: &Csc<T>, keep: impl Fn(usize) -> bool) -> Self {
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut ir = Vec::with_capacity(m.nnz());
        let mut num = Vec::with_capacity(m.nnz());
        for j in (0..m.ncols()).filter(|&j| keep(j)) {
            let (rows, vals) = m.col(j);
            if rows.is_empty() {
                continue;
            }
            jc.push(vidx(j));
            ir.extend_from_slice(rows);
            num.extend_from_slice(vals);
            cp.push(ir.len());
        }
        Dcsc {
            nrows: m.nrows(),
            ncols: m.ncols(),
            jc,
            cp,
            ir,
            num,
        }
    }

    /// `colptr` of the CSC expansion.
    fn expand_colptr(&self) -> Vec<usize> {
        let mut colptr = vec![0usize; self.ncols + 1];
        for q in 0..self.jc.len() {
            colptr[self.jc[q] as usize + 1] = self.cp[q + 1] - self.cp[q];
        }
        for j in 0..self.ncols {
            colptr[j + 1] += colptr[j];
        }
        colptr
    }

    /// Expand back to CSC.
    pub fn to_csc(&self) -> Csc<T> {
        Csc::from_parts(
            self.nrows,
            self.ncols,
            self.expand_colptr(),
            self.ir.clone(),
            self.num.clone(),
        )
    }

    /// Expand an owned matrix back to CSC: the inverse of `Dcsc::from(Csc)`.
    /// The entry arrays move over untouched; only `colptr` is built.
    pub fn into_csc(self) -> Csc<T> {
        let colptr = self.expand_colptr();
        Csc::from_parts(self.nrows, self.ncols, colptr, self.ir, self.num)
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Number of nonzero columns (`nzc`).
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Nonzero column ids (ascending) — the per-rank contribution to the
    /// paper's allgathered `⃗D` vector.
    pub fn jc(&self) -> &[Vidx] {
        &self.jc
    }

    /// Entry-range prefix over nonzero columns. `cp()[q+1]-cp()[q]` is the
    /// nnz of column `jc()[q]`; this is the "prefix sum of non-zero elements
    /// in the column" replicated on every rank in Algorithm 1.
    pub fn cp(&self) -> &[usize] {
        &self.cp
    }

    /// Row-id array (what the paper exposes through the first MPI window).
    pub fn ir(&self) -> &[Vidx] {
        &self.ir
    }

    /// Value array (the second MPI window).
    pub fn num(&self) -> &[T] {
        &self.num
    }

    /// Column `j` by global id (binary search over `jc`); empty if absent.
    pub fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        match self.jc.binary_search(&vidx(j)) {
            Ok(q) => self.col_by_pos(q),
            Err(_) => (&[], &[]),
        }
    }

    /// Column by position `q` in the nonzero-column list.
    #[inline]
    pub fn col_by_pos(&self, q: usize) -> (&[Vidx], &[T]) {
        let (s, e) = (self.cp[q], self.cp[q + 1]);
        (&self.ir[s..e], &self.num[s..e])
    }

    /// Iterate `(global column id, rows, vals)` over nonzero columns.
    pub fn iter_cols(&self) -> impl Iterator<Item = (Vidx, &[Vidx], &[T])> + '_ {
        (0..self.jc.len()).map(move |q| {
            let (r, v) = self.col_by_pos(q);
            (self.jc[q], r, v)
        })
    }

    /// Dense boolean vector over rows marking which rows hold entries —
    /// `⃗Hᵢ` of Algorithm 1 (computed from the local B slice).
    pub fn row_hit_vector(&self) -> Vec<bool> {
        let mut h = vec![false; self.nrows];
        for &r in &self.ir {
            h[r as usize] = true;
        }
        h
    }

    /// Estimated heap bytes (index + value arrays).
    pub fn mem_bytes(&self) -> usize {
        self.jc.len() * std::mem::size_of::<Vidx>()
            + self.cp.len() * std::mem::size_of::<usize>()
            + self.ir.len() * std::mem::size_of::<Vidx>()
            + self.num.len() * std::mem::size_of::<T>()
    }
}

impl Dcsc<f64> {
    /// [`Csc::max_abs_diff`] between two compressed matrices, expanding
    /// neither.
    pub fn max_abs_diff(&self, other: &Dcsc<f64>) -> f64 {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return f64::INFINITY;
        }
        // every column either side stores, each once
        let only_other = other
            .jc
            .iter()
            .filter(|j| self.jc.binary_search(j).is_err());
        self.jc
            .iter()
            .chain(only_other)
            .map(|&j| col_max_abs_diff(self.col(j as usize), other.col(j as usize)))
            .fold(0.0, f64::max)
    }
}

/// Compress an owned CSC: the entry arrays move over untouched (a CSC and a
/// DCSC lay their entries out identically) and only `colptr` is rewritten
/// into `jc`/`cp` — `O(ncols)`, where [`Dcsc::from_csc`] copies all `nnz`
/// entries. Every multiply hands its product over this way.
impl<T: Copy + Send + Sync> From<Csc<T>> for Dcsc<T> {
    fn from(m: Csc<T>) -> Self {
        let (nrows, ncols) = (m.nrows(), m.ncols());
        let (colptr, ir, num) = m.into_parts();
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        for (j, w) in colptr.windows(2).enumerate() {
            if w[1] > w[0] {
                jc.push(vidx(j));
                cp.push(w[1]);
            }
        }
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn hypersparse() -> Csc<f64> {
        // 6x8 with entries only in columns 1, 5, 6
        let mut m = Coo::new(6, 8);
        m.push(2, 1, 1.0);
        m.push(4, 1, 2.0);
        m.push(0, 5, 3.0);
        m.push(5, 6, 4.0);
        m.to_csc()
    }

    #[test]
    fn roundtrip_csc() {
        let c = hypersparse();
        let d = Dcsc::from_csc(&c);
        assert_eq!(d.to_csc(), c);
    }

    #[test]
    fn by_value_conversion_equals_from_csc() {
        // empty columns leading (0), between (2..=4) and trailing (7)
        let c = hypersparse();
        assert_eq!(Dcsc::from(c.clone()), Dcsc::from_csc(&c));
        let all_empty: Csc<f64> = Csc::zeros(3, 5);
        let d = Dcsc::from(all_empty.clone());
        assert_eq!(d, Dcsc::from_csc(&all_empty));
        assert_eq!((d.nzc(), d.cp()), (0, &[0][..]));
        let no_cols: Csc<f64> = Csc::zeros(3, 0);
        assert_eq!(Dcsc::from(no_cols), Dcsc::zeros(3, 0));
        // no column empty: jc is the identity
        let full = Csc::diagonal(&[1.0, 2.0, 3.0]);
        let d = Dcsc::from(full.clone());
        assert_eq!(d, Dcsc::from_csc(&full));
        assert_eq!(d.jc(), &[0, 1, 2]);
    }

    #[test]
    fn by_value_conversion_keeps_the_entry_buffers() {
        let c = hypersparse();
        let (rows_at, vals_at) = (c.rowidx().as_ptr(), c.vals().as_ptr());
        let d = Dcsc::from(c);
        assert_eq!((d.ir().as_ptr(), d.num().as_ptr()), (rows_at, vals_at));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "row ids strictly ascending")]
    fn from_parts_rejects_unsorted_rows() {
        // sorted across the column boundary, descending inside column 5
        let _ = Dcsc::from_parts(6, 8, vec![1, 5], vec![0, 1, 3], vec![2, 4, 3], vec![1.0; 3]);
    }

    #[test]
    fn compression_skips_empty_columns() {
        let d = Dcsc::from_csc(&hypersparse());
        assert_eq!(d.nzc(), 3);
        assert_eq!(d.jc(), &[1, 5, 6]);
        assert_eq!(d.cp(), &[0, 2, 3, 4]);
        assert_eq!(d.nnz(), 4);
    }

    #[test]
    fn col_lookup() {
        let d = Dcsc::from_csc(&hypersparse());
        assert_eq!(d.col(1), (&[2, 4][..], &[1.0, 2.0][..]));
        assert_eq!(d.col(5), (&[0][..], &[3.0][..]));
        assert_eq!(d.col(0), (&[][..], &[][..]), "absent column is empty");
        assert_eq!(d.col(7), (&[][..], &[][..]));
    }

    #[test]
    fn row_hits() {
        let d = Dcsc::from_csc(&hypersparse());
        assert_eq!(
            d.row_hit_vector(),
            vec![true, false, true, false, true, true]
        );
    }

    #[test]
    fn empty() {
        let d: Dcsc<f64> = Dcsc::zeros(4, 4);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.nzc(), 0);
        assert_eq!(d.to_csc().nnz(), 0);
    }

    #[test]
    fn mem_smaller_than_csc_when_hypersparse() {
        // 4 entries in a 6x10_000 matrix: DCSC index cost ~ nzc, CSC ~ ncols.
        let mut m = Coo::new(6, 10_000);
        m.push(0, 3, 1.0);
        m.push(1, 5_000, 1.0);
        m.push(2, 9_999, 1.0);
        let c = m.to_csc();
        let d = Dcsc::from_csc(&c);
        assert!(d.mem_bytes() < c.mem_bytes() / 100);
    }
}
