//! Dense-accumulator ("SPA") column kernel.
//!
//! A dense value array over the row dimension plus an occupancy bitmap
//! ([`RowBitmap`]): O(flops) with no hashing or heap overhead, at the cost
//! of an `O(nrows)` allocation that the per-thread scratch amortizes. The
//! hybrid dispatcher selects it whenever that state is small enough to stay
//! cache-resident, or the column's flop upper bound is a sizable fraction of
//! `nrows`.
//!
//! The bitmap is what orders the output: a column's rows are read back off
//! the set bits, lowest first, so nothing is listed and nothing is sorted. A
//! column whose flop bound reaches `nrows` (`SPA_DENSE_FLOPS`) skips the
//! bitmap as well. Both paths emit the same rows and the same bits.

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
    /// Set while a column is between its first bit and the end of its walk:
    /// a bitmap that went back to the pool in that state (a panic unwinding
    /// through the kernel) is cleared by the next [`RowBitmap::ensure`].
    dirty: bool,
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

/// Append `C(:,j)` with a dense accumulator over `vals.len()` rows; `ub` is
/// the column's upper-bound flop count. `occupied` must cover those rows
/// ([`RowBitmap::ensure`]); a row's slot in `vals` is live only while its bit
/// is set.
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
    let nrows = vals.len();
    if ub >= SPA_DENSE_FLOPS * nrows {
        // No bitmap: zero-fill and accumulate unconditionally (`0 ⊕ x = x`).
        // The rows left non-zero are the ones the bitmap path keeps, since
        // it drops the touched rows that reduce to zero.
        vals.fill(S::zero());
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
        rows_out.resize(start + nrows, 0);
        let mut n = start;
        for (r, v) in vals.iter().enumerate() {
            rows_out[n] = r as Vidx;
            n += !S::is_zero(v) as usize;
        }
        rows_out.truncate(n);
        vals_out.extend(rows_out[start..].iter().map(|&r| vals[r as usize]));
        return;
    }
    occupied.dirty = true;
    let [bits, words, top] = &mut occupied.levels;
    for (&k, &bv) in brows.iter().zip(bvals) {
        let (ar, av) = a.col(k as usize);
        for (&r, &x) in ar.iter().zip(av) {
            let contrib = S::mul(x, bv);
            let ri = r as usize;
            let (w, bit) = (ri / 64, 1u64 << (ri % 64));
            if bits[w] & bit != 0 {
                vals[ri] = S::add(vals[ri], contrib);
            } else {
                bits[w] |= bit;
                words[w / 64] |= 1u64 << (w % 64);
                top[w / 4096] |= 1u64 << (w / 64 % 64);
                vals[ri] = contrib;
            }
        }
    }
    for (t, tword) in top.iter_mut().enumerate() {
        for s in drain_bits(tword) {
            let s = t * 64 + s;
            for w in drain_bits(&mut words[s]) {
                let w = s * 64 + w;
                for r in drain_bits(&mut bits[w]) {
                    let ri = w * 64 + r;
                    let v = vals[ri];
                    if !S::is_zero(&v) {
                        rows_out.push(ri as Vidx);
                        vals_out.push(v);
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

    fn run_twice() -> (ColOut, ColOut) {
        let a = a_matrix();
        let mut vals = vec![0.0; 5];
        let mut occupied = RowBitmap::default();
        occupied.ensure(5);
        let mut run = |brows: &[Vidx], bvals: &[f64]| {
            let (mut r, mut v) = (Vec::new(), Vec::new());
            // ub = 4 flops on 5 rows: the bitmap path
            spa_column::<PlusTimes<f64>, _>(
                &a,
                brows,
                bvals,
                4,
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
            (r, v)
        };
        let first = run(&[0, 1], &[1.0, 1.0]);
        let second = run(&[1], &[1.0]);
        (first, second)
    }

    #[test]
    fn accumulates_sorted() {
        let (first, _) = run_twice();
        assert_eq!(first.0, vec![0, 2, 4]);
        assert_eq!(first.1, vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn cleared_bitmap_isolates_columns() {
        let (_, second) = run_twice();
        assert_eq!(second.0, vec![0, 2], "no leakage from prior column");
        assert_eq!(second.1, vec![3.0, 4.0]);
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
