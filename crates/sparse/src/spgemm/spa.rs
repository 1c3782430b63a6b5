//! Dense-accumulator ("SPA") column kernel.
//!
//! A generation-stamped dense array over the row dimension: O(flops) with no
//! hashing or heap overhead, at the cost of an `O(nrows)` allocation that the
//! per-thread scratch amortizes. The hybrid dispatcher selects it whenever
//! those arrays are small enough to stay cache-resident, or the column's
//! flop upper bound is a sizable fraction of `nrows`.
//!
//! A column that fills a sizable share of the rows finds them by scanning
//! the stamps instead of sorting the touched list, and one whose flop bound
//! reaches `nrows` skips the stamps as well (`SPA_SCAN_SHARE`,
//! `SPA_DENSE_FLOPS`). All three paths emit the same rows and the same bits.

use super::{ColSource, SPA_DENSE_FLOPS, SPA_SCAN_SHARE};
use crate::semiring::Semiring;
use crate::types::Vidx;

/// Append `C(:,j)` with a dense accumulator over `vals.len()` rows; `ub` is
/// the column's upper-bound flop count.
///
/// `gen`/`generation` implement O(1) clearing: a slot is live only when its
/// stamp equals the current generation, so consecutive columns never touch
/// slots they don't use.
#[allow(clippy::too_many_arguments)]
pub fn spa_column<S: Semiring, A: ColSource<S::T> + ?Sized>(
    a: &A,
    brows: &[Vidx],
    bvals: &[S::T],
    ub: usize,
    vals: &mut [S::T],
    gen: &mut [u32],
    generation: &mut u32,
    touched: &mut Vec<Vidx>,
    rows_out: &mut Vec<Vidx>,
    vals_out: &mut Vec<S::T>,
) {
    let nrows = vals.len();
    if ub >= SPA_DENSE_FLOPS * nrows {
        // No stamps: zero-fill and accumulate unconditionally (`0 ⊕ x = x`).
        // The rows left non-zero are the ones the stamped path keeps, since
        // it drops the touched rows that reduce to zero.
        vals.fill(S::zero());
        for (&k, &bv) in brows.iter().zip(bvals) {
            let (ar, av) = a.col(k as usize);
            for (&r, &x) in ar.iter().zip(av) {
                let ri = r as usize;
                vals[ri] = S::add(vals[ri], S::mul(x, bv));
            }
        }
        ascending_rows(touched, vals.iter().map(|v| !S::is_zero(v)));
    } else {
        *generation = generation.wrapping_add(1);
        if *generation == 0 {
            // Stamp wrap-around: reset all stamps once every 2^32 columns.
            gen.fill(0);
            *generation = 1;
        }
        let g = *generation;
        touched.clear();
        for (&k, &bv) in brows.iter().zip(bvals) {
            let (ar, av) = a.col(k as usize);
            for (&r, &x) in ar.iter().zip(av) {
                let contrib = S::mul(x, bv);
                let ri = r as usize;
                if gen[ri] == g {
                    vals[ri] = S::add(vals[ri], contrib);
                } else {
                    gen[ri] = g;
                    vals[ri] = contrib;
                    touched.push(r);
                }
            }
        }
        if touched.len() * SPA_SCAN_SHARE >= nrows {
            ascending_rows(touched, gen.iter().map(|&stamp| stamp == g));
        } else {
            touched.sort_unstable();
        }
    }
    for &r in touched.iter() {
        let v = vals[r as usize];
        if !S::is_zero(&v) {
            rows_out.push(r);
            vals_out.push(v);
        }
    }
}

/// Overwrite `rows` with the positions of the set `flags`, ascending — what
/// sorting the touched list yields, in one pass over the rows. Every
/// position is stored and the cursor advances by the flag, so the loop has
/// no branch for a half-full column to mispredict (a branching gather
/// measured slower than the sort below ≈ 30 % fill).
fn ascending_rows(rows: &mut Vec<Vidx>, flags: impl ExactSizeIterator<Item = bool>) {
    rows.clear();
    rows.resize(flags.len(), 0);
    let mut n = 0;
    for (r, hit) in flags.enumerate() {
        rows[n] = r as Vidx;
        n += hit as usize;
    }
    rows.truncate(n);
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
        let mut gen = vec![0u32; 5];
        let mut g = 0u32;
        let mut touched = Vec::new();
        let run = |brows: &[Vidx],
                   bvals: &[f64],
                   vals: &mut [f64],
                   gen: &mut [u32],
                   g: &mut u32,
                   touched: &mut Vec<Vidx>| {
            let (mut r, mut v) = (Vec::new(), Vec::new());
            // ub = 4 flops on 5 rows: the stamped path
            spa_column::<PlusTimes<f64>, _>(
                &a, brows, bvals, 4, vals, gen, g, touched, &mut r, &mut v,
            );
            (r, v)
        };
        let first = run(
            &[0, 1],
            &[1.0, 1.0],
            &mut vals,
            &mut gen,
            &mut g,
            &mut touched,
        );
        let second = run(&[1], &[1.0], &mut vals, &mut gen, &mut g, &mut touched);
        (first, second)
    }

    #[test]
    fn accumulates_sorted() {
        let (first, _) = run_twice();
        assert_eq!(first.0, vec![0, 2, 4]);
        assert_eq!(first.1, vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn generation_stamps_isolate_columns() {
        let (_, second) = run_twice();
        assert_eq!(second.0, vec![0, 2], "no leakage from prior column");
        assert_eq!(second.1, vec![3.0, 4.0]);
    }
}
