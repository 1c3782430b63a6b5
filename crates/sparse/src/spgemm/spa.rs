//! Dense-accumulator ("SPA") column kernel.
//!
//! A dense value array over the row dimension plus an occupancy bitmap
//! ([`RowBitmap`]): O(flops) with no hashing or heap overhead, at the cost
//! of an `O(nrows)` allocation that the per-thread scratch amortizes. The
//! hybrid dispatcher selects it whenever that state is small enough to stay
//! cache-resident, or the column's flop upper bound is a sizable fraction of
//! `nrows`.
//!
//! Every slot of the value array holds the semiring's zero between columns,
//! so a flop is `vals[r] = vals[r] ⊕ (a ⊗ b)` with no "first touch?" branch
//! (`0 ⊕ x = x`), and whoever reads a slot back puts the zero back. The
//! bitmap is what orders the output: a column's rows are read back off the
//! set bits, lowest first, so nothing is listed and nothing is sorted. A
//! column whose flop bound reaches the width of its row window
//! (`SPA_DENSE_FLOPS`, [`dense_window`]) skips the bitmap as well and scans
//! the window. Both paths emit the same rows and the same bits.

use super::{ColSource, SPA_DENSE_FLOPS};
use crate::semiring::Semiring;
use crate::types::Vidx;

/// Which rows of the dense accumulator the current column has touched.
///
/// Level 0 holds one bit per row; each level above holds one bit per `u64`
/// word of the level below, set while that word is non-zero. Reading the
/// rows back walks the top level and descends only into non-zero words, so
/// it costs the rows touched plus `nrows / 64³` words — a column of a few
/// entries in millions of rows pays for its entries, not for the rows.
/// Every level is all-zero between columns: the walk zeroes each word as it
/// reads it.
#[derive(Default)]
pub(crate) struct RowBitmap {
    levels: [Vec<u64>; 3],
    /// Set while [`spa_column`] is between its first flop and the end of its
    /// read-back, on either path: an accumulator that went back to the pool
    /// in that state (a panic unwinding through the kernel) has its bitmap
    /// cleared by the next [`RowBitmap::ensure`] and its values re-zeroed by
    /// the `Scratch::ensure_spa` that calls it.
    pub(crate) dirty: bool,
}

impl RowBitmap {
    /// Cover `nrows` rows, all clear. Levels grow monotonically, by zero
    /// words, and no column sets a bit at or past its own `nrows`: a
    /// multiply of more rows than the last one finds no stale bit.
    pub(crate) fn ensure(&mut self, nrows: usize) {
        if self.dirty {
            self.levels.iter_mut().for_each(|level| level.fill(0));
            self.dirty = false;
        }
        let mut len = nrows;
        for level in &mut self.levels {
            len = len.div_ceil(64);
            if level.len() < len {
                level.resize(len, 0);
            }
        }
    }
}

/// The set bits of `*word`, lowest first; `*word` is left zero.
#[inline]
fn drain_bits(word: &mut u64) -> impl Iterator<Item = usize> {
    let mut rest = std::mem::take(word);
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            bit
        })
    })
}

/// The rows `lo..hi` a product column can touch — A's columns are row-sorted,
/// so each of the A columns `brows` names spans its first row to its last —
/// when the column's flop bound `ub` reaches `SPA_DENSE_FLOPS` per row of
/// them; `None` when the column is too sparse over its window to scan it.
///
/// The window of the first and last B entry alone lies inside the whole
/// one, so a column that fails the rule on those two is turned away before
/// the other A columns are looked at.
fn dense_window<T, A: ColSource<T> + ?Sized>(
    a: &A,
    brows: &[Vidx],
    ub: usize,
) -> Option<(usize, usize)> {
    const NO_ROWS: (usize, usize) = (usize::MAX, 0);
    let extent = |k: &Vidx| match a.col(*k as usize).0 {
        [] => NO_ROWS,
        [first, .., last] => (*first as usize, *last as usize + 1),
        [only] => (*only as usize, *only as usize + 1),
    };
    let join = |w: (usize, usize), x: (usize, usize)| (w.0.min(x.0), w.1.max(x.1));
    let dense = |w: (usize, usize)| ub >= SPA_DENSE_FLOPS * w.1.saturating_sub(w.0);
    let (first, last) = (brows.first()?, brows.last()?);
    if !dense(join(extent(first), extent(last))) {
        return None;
    }
    let (lo, hi) = brows.iter().map(extent).fold(NO_ROWS, join);
    dense((lo, hi)).then_some((lo.min(hi), hi))
}

/// Append `C(:,j)` with a dense accumulator over `vals.len()` rows; `ub` is
/// the column's upper-bound flop count. `occupied` must cover those rows and
/// every slot of `vals` must hold `S::zero()` (`Scratch::ensure_spa`); both
/// are left that way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spa_column<S: Semiring, A: ColSource<S::T> + ?Sized>(
    a: &A,
    brows: &[Vidx],
    bvals: &[S::T],
    ub: usize,
    vals: &mut [S::T],
    occupied: &mut RowBitmap,
    rows_out: &mut Vec<Vidx>,
    vals_out: &mut Vec<S::T>,
) {
    occupied.dirty = true;
    if let Some((lo, hi)) = dense_window(a, brows, ub) {
        // No bitmap: accumulate unconditionally, then scan the window. The
        // rows left non-zero are the ones the bitmap path keeps, since it
        // drops the touched rows that reduce to zero.
        for (&k, &bv) in brows.iter().zip(bvals) {
            let (ar, av) = a.col(k as usize);
            for (&r, &x) in ar.iter().zip(av) {
                let ri = r as usize;
                vals[ri] = S::add(vals[ri], S::mul(x, bv));
            }
        }
        // Every position is stored and the cursor advances by the flag, so
        // the loop has no branch for a half-full column to mispredict.
        let start = rows_out.len();
        rows_out.resize(start + (hi - lo), 0);
        let mut n = start;
        for (r, v) in (lo..hi).zip(&vals[lo..hi]) {
            rows_out[n] = r as Vidx;
            n += !S::is_zero(v) as usize;
        }
        rows_out.truncate(n);
        vals_out.extend(rows_out[start..].iter().map(|&r| vals[r as usize]));
        vals[lo..hi].fill(S::zero());
    } else {
        let [bits, words, top] = &mut occupied.levels;
        for (&k, &bv) in brows.iter().zip(bvals) {
            let (ar, av) = a.col(k as usize);
            for (&r, &x) in ar.iter().zip(av) {
                let ri = r as usize;
                vals[ri] = S::add(vals[ri], S::mul(x, bv));
                let w = ri / 64;
                // the summary levels hear of a word once, not of every row
                // in it
                if bits[w] == 0 {
                    words[w / 64] |= 1u64 << (w % 64);
                    top[w / 4096] |= 1u64 << (w / 64 % 64);
                }
                bits[w] |= 1u64 << (ri % 64);
            }
        }
        for (t, tword) in top.iter_mut().enumerate() {
            for s in drain_bits(tword) {
                let s = t * 64 + s;
                for w in drain_bits(&mut words[s]) {
                    let w = s * 64 + w;
                    for r in drain_bits(&mut bits[w]) {
                        let ri = w * 64 + r;
                        let v = std::mem::replace(&mut vals[ri], S::zero());
                        if !S::is_zero(&v) {
                            rows_out.push(ri as Vidx);
                            vals_out.push(v);
                        }
                    }
                }
            }
        }
    }
    occupied.dirty = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csc::Csc;
    use crate::semiring::PlusTimes;

    fn a_matrix() -> Csc<f64> {
        let mut m = Coo::new(5, 2);
        m.push(0, 0, 1.0);
        m.push(4, 0, 2.0);
        m.push(0, 1, 3.0);
        m.push(2, 1, 4.0);
        m.to_csc()
    }

    type ColOut = (Vec<Vidx>, Vec<f64>);

    /// Two columns through one accumulator, the first with flop bound `ub`:
    /// its 4 flops span all 5 rows, so 4 walks the bitmap and 5 scans.
    fn run_twice(ub: usize) -> (ColOut, ColOut) {
        let a = a_matrix();
        let mut vals = vec![0.0; 5];
        let mut occupied = RowBitmap::default();
        occupied.ensure(5);
        let mut run = |brows: &[Vidx], bvals: &[f64], ub: usize| {
            let (mut r, mut v) = (Vec::new(), Vec::new());
            spa_column::<PlusTimes<f64>, _>(
                &a,
                brows,
                bvals,
                ub,
                &mut vals,
                &mut occupied,
                &mut r,
                &mut v,
            );
            assert!(!occupied.dirty);
            assert!(
                occupied.levels.iter().flatten().all(|&w| w == 0),
                "left clear"
            );
            assert_eq!(vals, [0.0; 5], "left zero");
            (r, v)
        };
        let first = run(&[0, 1], &[1.0, 1.0], ub);
        let second = run(&[1], &[1.0], 2);
        (first, second)
    }

    #[test]
    fn accumulates_sorted() {
        for ub in [4, 5] {
            let (first, _) = run_twice(ub);
            assert_eq!(first.0, vec![0, 2, 4]);
            assert_eq!(first.1, vec![4.0, 4.0, 2.0]);
        }
    }

    #[test]
    fn cleared_bitmap_isolates_columns() {
        for ub in [4, 5] {
            let (_, second) = run_twice(ub);
            assert_eq!(second.0, vec![0, 2], "no leakage from prior column");
            assert_eq!(second.1, vec![3.0, 4.0]);
        }
    }

    #[test]
    fn window_is_the_span_of_the_named_columns_or_nothing() {
        // column 0 spans rows 0..5, column 1 rows 0..3
        let a = a_matrix();
        assert_eq!(dense_window(&a, &[0, 1], 5), Some((0, 5)));
        assert_eq!(dense_window(&a, &[0, 1], 4), None);
        assert_eq!(dense_window(&a, &[1], 3), Some((0, 3)));
        assert_eq!(dense_window(&a, &[1], 2), None);
    }

    #[test]
    fn bitmap_is_lazy_monotone_and_grows_clear() {
        let mut occupied = RowBitmap::default();
        assert!(occupied.levels.iter().all(Vec::is_empty));
        let lens = |b: &RowBitmap| b.levels.each_ref().map(Vec::len);
        occupied.ensure(100);
        assert_eq!(lens(&occupied), [2, 1, 1]);
        occupied.ensure(50);
        assert_eq!(lens(&occupied), [2, 1, 1], "never shrinks");
        occupied.ensure(64 * 64 * 64 + 1);
        assert_eq!(lens(&occupied), [4097, 65, 2]);
        assert!(occupied.levels.iter().flatten().all(|&w| w == 0));
    }

    #[test]
    fn ensure_clears_a_bitmap_abandoned_mid_column() {
        let mut occupied = RowBitmap::default();
        occupied.ensure(200);
        // a column that set bits and never reached the end of its walk
        occupied.dirty = true;
        occupied.levels[0][3] = 0b101;
        occupied.levels[1][0] = 1 << 3;
        occupied.levels[2][0] = 1;
        // the next column is of a larger multiply: cleared and grown
        occupied.ensure(5000);
        assert!(!occupied.dirty);
        assert_eq!(occupied.levels[0].len(), 5000usize.div_ceil(64));
        assert!(occupied.levels.iter().flatten().all(|&w| w == 0));
    }
}
