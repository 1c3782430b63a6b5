//! Hash-based column kernel (Nagasaka, Matsuoka, Azad, Buluç; ParCo 2019).
//!
//! Accumulates each column's products in an open-addressing linear-probing
//! table keyed by row index, then extracts and sorts the survivors. `O(flops
//! + out·log out)` with small constants; the mid-range workhorse.

use super::ColSource;
use crate::semiring::Semiring;
use crate::types::Vidx;

const EMPTY: Vidx = Vidx::MAX;

/// Reusable open-addressing accumulator. The addressed region is a power
/// of two sized up front from the column's upper-bound flop count, so the
/// probe loop masks (never a modulo) and the table can never fill
/// mid-column (`ub` bounds the distinct keys; load factor stays ≤ 0.5):
/// there is no rehash path at all. Backing storage grows geometrically
/// and is retained across columns. Occupied slots are recorded in
/// `touched`, so both extracting a column and clearing the table for the
/// next cost that column's entries — not its `ub`-sized prefix, and not the
/// largest column seen.
pub struct HashAcc<T> {
    keys: Vec<Vidx>,
    vals: Vec<T>,
    mask: usize,
    /// Slots filled since the last `reset`, in insertion order.
    touched: Vec<u32>,
    /// Extraction staging (sorted survivors), reused across columns.
    pairs: Vec<(Vidx, T)>,
}

impl<T: Copy> HashAcc<T> {
    pub fn new() -> Self {
        HashAcc {
            keys: Vec::new(),
            vals: Vec::new(),
            mask: 0,
            touched: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Prepare for up to `expected` insertions (load factor ≤ 0.5): the
    /// addressed prefix becomes `next_power_of_two(2·expected)` slots, and
    /// the slots the previous column filled are emptied.
    fn reset(&mut self, expected: usize, zero: T) {
        let cap = (expected.max(4) * 2).next_power_of_two();
        if self.keys.len() < cap {
            self.keys = vec![EMPTY; cap];
            self.vals = vec![zero; cap];
        } else {
            for &s in &self.touched {
                self.keys[s as usize] = EMPTY;
            }
        }
        self.touched.clear();
        self.mask = cap - 1;
    }

    /// Multiplicative hash (Fibonacci) — cheap and adequate for row ids.
    #[inline]
    fn slot(&self, key: Vidx) -> usize {
        ((key as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & self.mask
    }
}

impl<T: Copy> Default for HashAcc<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Append `C(:,j)` by hash accumulation; `ub_flops` sizes the table.
pub fn hash_column<S: Semiring, A: ColSource<S::T> + ?Sized>(
    a: &A,
    brows: &[Vidx],
    bvals: &[S::T],
    ub_flops: usize,
    acc: &mut HashAcc<S::T>,
    rows_out: &mut Vec<Vidx>,
    vals_out: &mut Vec<S::T>,
) {
    acc.reset(ub_flops, S::zero());
    for (&k, &bv) in brows.iter().zip(bvals) {
        let (ar, av) = a.col(k as usize);
        for (&r, &x) in ar.iter().zip(av) {
            let contrib = S::mul(x, bv);
            let mut s = acc.slot(r);
            loop {
                let key = acc.keys[s];
                if key == r {
                    acc.vals[s] = S::add(acc.vals[s], contrib);
                    break;
                }
                if key == EMPTY {
                    acc.keys[s] = r;
                    acc.vals[s] = contrib;
                    acc.touched.push(s as u32);
                    break;
                }
                s = (s + 1) & acc.mask;
            }
        }
    }
    // Extract the occupied slots, drop zeros, sort by row id. The staging
    // vector lives in the accumulator so repeated columns don't reallocate
    // it.
    acc.pairs.clear();
    for &s in &acc.touched {
        let (k, v) = (acc.keys[s as usize], acc.vals[s as usize]);
        if !S::is_zero(&v) {
            acc.pairs.push((k, v));
        }
    }
    acc.pairs.sort_unstable_by_key(|p| p.0);
    rows_out.extend(acc.pairs.iter().map(|p| p.0));
    vals_out.extend(acc.pairs.iter().map(|p| p.1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csc::Csc;
    use crate::semiring::PlusTimes;

    fn a_matrix() -> Csc<f64> {
        let mut m = Coo::new(4, 3);
        m.push(0, 0, 1.0);
        m.push(3, 0, 2.0);
        m.push(1, 1, 3.0);
        m.push(0, 2, -1.0);
        m.push(3, 2, -2.0);
        m.to_csc()
    }

    #[test]
    fn accumulates_and_sorts() {
        let a = a_matrix();
        let mut acc = HashAcc::new();
        let (mut r, mut v) = (Vec::new(), Vec::new());
        hash_column::<PlusTimes<f64>, _>(&a, &[0, 1], &[2.0, 1.0], 3, &mut acc, &mut r, &mut v);
        assert_eq!(r, vec![0, 1, 3]);
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn cancellation_dropped() {
        let a = a_matrix();
        let mut acc = HashAcc::new();
        let (mut r, mut v) = (Vec::new(), Vec::new());
        // col0 + col2 cancels both entries exactly... (1-1, 2-2)
        hash_column::<PlusTimes<f64>, _>(&a, &[0, 2], &[1.0, 1.0], 4, &mut acc, &mut r, &mut v);
        assert!(r.is_empty(), "fully cancelled column stores nothing");
    }

    #[test]
    fn reuse_across_columns_is_clean() {
        let a = a_matrix();
        let mut acc = HashAcc::new();
        let (mut r, mut v) = (Vec::new(), Vec::new());
        hash_column::<PlusTimes<f64>, _>(&a, &[0], &[1.0], 2, &mut acc, &mut r, &mut v);
        let first = (r.clone(), v.clone());
        r.clear();
        v.clear();
        hash_column::<PlusTimes<f64>, _>(&a, &[0], &[1.0], 2, &mut acc, &mut r, &mut v);
        assert_eq!((r, v), first, "stale entries must not leak between columns");
    }

    #[test]
    fn large_table_reused_for_small_column_masks_prefix() {
        // Grow the table with a wide column, then run a small column: the
        // addressed prefix shrinks back (mask + 1 slots), the wide
        // column's keys are gone, and results stay exact.
        let n = 1024;
        let mut m = Coo::new(n, 2);
        for i in 0..n as u32 {
            m.push(i, 0, 1.0);
        }
        m.push(3, 1, 5.0);
        m.push(900, 1, 7.0);
        let a = m.to_csc();
        let mut acc = HashAcc::new();
        let (mut r, mut v) = (Vec::new(), Vec::new());
        hash_column::<PlusTimes<f64>, _>(&a, &[0], &[1.0], n, &mut acc, &mut r, &mut v);
        assert_eq!(r.len(), n);
        let grown = acc.keys.len();
        r.clear();
        v.clear();
        hash_column::<PlusTimes<f64>, _>(&a, &[1], &[2.0], 2, &mut acc, &mut r, &mut v);
        assert_eq!(acc.keys.len(), grown, "backing storage is retained");
        assert!(acc.mask + 1 < grown, "small column addresses a prefix");
        assert_eq!(r, vec![3, 900]);
        assert_eq!(v, vec![10.0, 14.0]);
    }

    #[test]
    fn many_collisions_still_correct() {
        // 512 rows hitting a small table exercise probing + growth.
        let n = 512;
        let mut m = Coo::new(n, 2);
        for i in 0..n as u32 {
            m.push(i, 0, 1.0);
            m.push(i, 1, 1.0);
        }
        let a = m.to_csc();
        let mut acc = HashAcc::new();
        let (mut r, mut v) = (Vec::new(), Vec::new());
        hash_column::<PlusTimes<f64>, _>(&a, &[0, 1], &[1.0, 2.0], 2 * n, &mut acc, &mut r, &mut v);
        assert_eq!(r.len(), n);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        assert!(v.iter().all(|&x| x == 3.0));
    }
}
