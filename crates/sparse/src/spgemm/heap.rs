//! Heap-based column kernel (Azad et al., SISC 2016).
//!
//! Merges the `nnz(B(:,j))` scaled columns of `A` with a binary min-heap
//! keyed on row index. Work is `O(flops · log nnz(B(:,j)))` with no state
//! sized by `nrows` or by the flops. Measured the slowest accumulator on
//! every operand class (docs/PERFORMANCE.md "ISSUE 16"), so the hybrid does
//! not dispatch to it; kept selectable for the kernel-comparison benches.

use super::ColSource;
use crate::semiring::Semiring;
use crate::types::Vidx;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Append `C(:,j) = ⊕_k A(:,k) ⊗ B(k,j)` to `rows_out`/`vals_out` by k-way
/// merge. `heap` and `pos` are the caller's reusable cursor state: sources
/// are B's entries by index (ties on a row pop in B-column order), so a
/// column allocates nothing.
pub fn heap_column<S: Semiring, A: ColSource<S::T> + ?Sized>(
    a: &A,
    brows: &[Vidx],
    bvals: &[S::T],
    heap: &mut BinaryHeap<Reverse<(Vidx, u32)>>,
    pos: &mut Vec<u32>,
    rows_out: &mut Vec<Vidx>,
    vals_out: &mut Vec<S::T>,
) {
    let start = rows_out.len();
    // Drop the column's tail entry if it summed to zero.
    let drop_zero_tail = |rows_out: &mut Vec<Vidx>, vals_out: &mut Vec<S::T>| {
        if rows_out.len() > start && S::is_zero(&vals_out[vals_out.len() - 1]) {
            rows_out.pop();
            vals_out.pop();
        }
    };
    heap.clear();
    pos.clear();
    pos.resize(brows.len(), 0);
    for (s, &k) in brows.iter().enumerate() {
        if let Some(&r) = a.col(k as usize).0.first() {
            heap.push(Reverse((r, s as u32)));
        }
    }
    while let Some(Reverse((row, src))) = heap.pop() {
        let s = src as usize;
        let (ar, av) = a.col(brows[s] as usize);
        let p = pos[s] as usize;
        let contrib = S::mul(av[p], bvals[s]);
        // Accumulate into the running tail entry if it has the same row.
        if rows_out.len() > start && rows_out[rows_out.len() - 1] == row {
            let t = vals_out.len() - 1;
            vals_out[t] = S::add(vals_out[t], contrib);
        } else {
            drop_zero_tail(rows_out, vals_out);
            rows_out.push(row);
            vals_out.push(contrib);
        }
        pos[s] += 1;
        if let Some(&r) = ar.get(p + 1) {
            heap.push(Reverse((r, src)));
        }
    }
    drop_zero_tail(rows_out, vals_out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csc::Csc;
    use crate::semiring::PlusTimes;

    fn a_matrix() -> Csc<f64> {
        // col0 = rows {0: 1, 2: 2}; col1 = rows {1: 3}; col2 = rows {0: 4, 2: -2}
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(2, 0, 2.0);
        m.push(1, 1, 3.0);
        m.push(0, 2, 4.0);
        m.push(2, 2, -2.0);
        m.to_csc()
    }

    fn run(brows: &[Vidx], bvals: &[f64]) -> (Vec<Vidx>, Vec<f64>) {
        let a = a_matrix();
        // a non-empty tail stands for the chunk's earlier columns
        let (mut r, mut v) = (vec![0], vec![0.0]);
        let (mut heap, mut pos) = (BinaryHeap::new(), vec![7; 9]);
        heap_column::<PlusTimes<f64>, _>(&a, brows, bvals, &mut heap, &mut pos, &mut r, &mut v);
        (r.split_off(1), v.split_off(1))
    }

    #[test]
    fn merges_two_columns() {
        // 1*col0 + 1*col2 = rows {0: 5, 2: 0} — row 2 cancels exactly.
        let (r, v) = run(&[0, 2], &[1.0, 1.0]);
        assert_eq!(r, vec![0]);
        assert_eq!(v, vec![5.0]);
    }

    #[test]
    fn disjoint_columns_interleave_sorted() {
        let (r, v) = run(&[0, 1], &[1.0, 1.0]);
        assert_eq!(r, vec![0, 1, 2]);
        assert_eq!(v, vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn scaling_applies() {
        let (r, v) = run(&[1], &[-2.0]);
        assert_eq!(r, vec![1]);
        assert_eq!(v, vec![-6.0]);
    }

    #[test]
    fn empty_b_column() {
        let (r, v) = run(&[], &[]);
        assert!(r.is_empty() && v.is_empty());
    }

    #[test]
    fn repeated_source_column() {
        // B may reference the same A column twice after merges upstream;
        // kernel treats them as independent merge sources.
        let (r, v) = run(&[0, 0], &[1.0, 1.0]);
        assert_eq!(r, vec![0, 2]);
        assert_eq!(v, vec![2.0, 4.0]);
    }
}
