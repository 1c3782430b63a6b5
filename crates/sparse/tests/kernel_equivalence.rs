//! One product, however it is computed: every accumulator × A-source format
//! × schedule × thread count must return the same bits — on real-valued,
//! non-integer operands, where a different ⊕ order would show (every
//! accumulator reduces an output entry in B-column order).
//!
//! The operands carry the shapes the column-resolution paths can trip on:
//! A columns that are empty (so a DCSC `jc` lacks ids that B still names),
//! a needed-columns-only `Ã`, empty and single-entry B columns, `nrows` on
//! both sides of the hybrid's dense/hash cut, and one workspace shared by
//! multiplies of different inner dimension.
//!
//! Two further properties ride on the same bits: a column epilogue fused into
//! the kernel equals the same epilogue run over the finished product, and the
//! dense accumulator's two ways of finding a column's rows (reading them off
//! its occupancy bitmap, and scanning the column's row window once its flop
//! bound reaches one per row of it) agree with each other, with the hash and
//! with the heap — on columns a few entries either side of the cut-off, on
//! windows at either end of the rows, on a window its first and last A column
//! understate, and on columns whose rows sit on the word boundaries of the
//! bitmap and of its summary levels, and on the last row.

use proptest::prelude::*;
use sa_sparse::semiring::{MinPlus, OrAnd, PlusTimes, Semiring};
use sa_sparse::spgemm::{
    spgemm_with, spgemm_with_epilogue, ColSource, Kernel, NoEpilogue, Schedule, SpgemmWorkspace,
};
use sa_sparse::{Coo, Csc, Dcsc, Vidx};

const KERNELS: [Kernel; 4] = [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid];
const SCHEDULES: [Schedule; 3] = [
    Schedule::Fixed(256),
    Schedule::Fixed(3),
    Schedule::FlopBalanced,
];
/// Rows of the small operands, and of the tall ones: past the hybrid's cut
/// for `f64` (22 MiB / 8.13 B ≈ 2.8 M rows), so `Hybrid` takes the hash there.
const SMALL: usize = 60;
const TALL: usize = 3_000_000;

type Triples = Vec<(u32, u32, i32)>;

fn triples(nrows: usize, ncols: usize, nnz: usize) -> impl Strategy<Value = Triples> {
    collection::vec((0..nrows as u32, 0..ncols as u32, -500i32..=500), nnz)
}

/// `nrows × ncols` matrix of `t`'s entries with non-integer values, rows
/// spread by `stride`; `keep(col, is the col's first entry)` thins the
/// columns.
fn matrix(
    nrows: usize,
    ncols: usize,
    stride: usize,
    t: &Triples,
    keep: impl Fn(usize, bool) -> bool,
) -> Csc<f64> {
    let mut coo = Coo::new(nrows, ncols);
    for &(r, c, v) in t {
        let (r, c) = (r as usize * stride % nrows, c as usize % ncols);
        coo.push(r as u32, c as u32, v as f64 * 0.1 + 0.003);
    }
    let m = coo.to_csc_with(|a, b| a + b);
    m.filter(|r, c, _| keep(c as usize, m.col(c as usize).0[0] == r))
}

/// Value bits, so `-0.0`, `0.0` and NaNs cannot hide behind `==`.
trait Bits {
    fn bits(&self) -> u64;
}
impl Bits for f64 {
    fn bits(&self) -> u64 {
        self.to_bits()
    }
}
impl Bits for bool {
    fn bits(&self) -> u64 {
        *self as u64
    }
}

fn bits<T: Bits + Copy + Send + Sync>(c: &Csc<T>) -> (&[usize], &[u32], Vec<u64>) {
    (
        c.colptr(),
        c.rowidx(),
        c.vals().iter().map(Bits::bits).collect(),
    )
}

/// Every kernel × schedule × thread count over `(a, b)` through `ws`, with
/// `epilogue` fused in when there is one, against `expect`.
fn check<S, A, B, E>(
    what: &str,
    a: &A,
    b: &B,
    ws: &SpgemmWorkspace<S::T>,
    epilogue: Option<&E>,
    expect: &Csc<S::T>,
) -> Result<(), TestCaseError>
where
    S: Semiring,
    S::T: Bits,
    A: ColSource<S::T>,
    B: ColSource<S::T>,
    E: Fn(&[Vidx], &mut [S::T], &mut Vec<Vidx>, &mut Vec<S::T>) + Sync,
{
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool");
        for kernel in KERNELS {
            for schedule in SCHEDULES {
                let got = pool.install(|| {
                    spgemm_with_epilogue::<S, A, B, E>(a, b, kernel, schedule, ws, epilogue)
                });
                prop_assert!(
                    bits(&got) == bits(expect),
                    "{what} / {kernel:?} / {schedule:?} / {threads} threads diverged"
                );
            }
        }
    }
    Ok(())
}

/// [`check`] over every way the operands reach the kernel: both as `Csc`, A
/// as DCSC, both as DCSC, and A as the needed-columns-only `Ã` of
/// Algorithm 1.
fn check_sources<S, E>(
    a: &Csc<S::T>,
    b: &Csc<S::T>,
    ws: &SpgemmWorkspace<S::T>,
    epilogue: Option<&E>,
    expect: &Csc<S::T>,
) -> Result<(), TestCaseError>
where
    S: Semiring,
    S::T: Bits,
    E: Fn(&[Vidx], &mut [S::T], &mut Vec<Vidx>, &mut Vec<S::T>) + Sync,
{
    let (ad, bd) = (Dcsc::from_csc(a), Dcsc::from_csc(b));
    let needed = Dcsc::from_csc_cols(a, &b.row_hit_vector());
    prop_assert!(needed.nzc() <= ad.nzc());
    check::<S, _, _, E>("csc·csc", a, b, ws, epilogue, expect)?;
    check::<S, _, _, E>("dcsc·csc", &ad, b, ws, epilogue, expect)?;
    check::<S, _, _, E>("dcsc·dcsc", &ad, &bd, ws, epilogue, expect)?;
    check::<S, _, _, E>(
        "needed-columns dcsc·dcsc",
        &needed,
        &bd,
        ws,
        epilogue,
        expect,
    )
}

/// `epilogue` run over each finished column of `plain`, values copied out
/// first: what a multiply with the epilogue fused in must return.
fn post_pass<T: Copy + Send + Sync>(
    plain: &Csc<T>,
    epilogue: impl Fn(&[Vidx], &mut [T], &mut Vec<Vidx>, &mut Vec<T>),
) -> Csc<T> {
    let mut colptr = vec![0usize];
    let (mut rowidx, mut vals) = (Vec::new(), Vec::new());
    for j in 0..plain.ncols() {
        let (rows, col_vals) = plain.col(j);
        if !rows.is_empty() {
            epilogue(rows, &mut col_vals.to_vec(), &mut rowidx, &mut vals);
        }
        colptr.push(rowidx.len());
    }
    Csc::from_parts(plain.nrows(), plain.ncols(), colptr, rowidx, vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_kernel_source_and_schedule_agree_bit_for_bit(
        ta in triples(SMALL, 40, 260),
        tb in triples(40, 30, 170),
        k in 25usize..=40,
    ) {
        // one arena across all cases and both heights: `k` varies, so a
        // position map or SPA left by one multiply meets a different shape
        let ws = SpgemmWorkspace::new();
        for nrows in [SMALL, TALL] {
            // every fifth A column empty; B columns cycle empty / one entry / free
            let a = matrix(nrows, k, nrows / SMALL, &ta, |c, _| c % 5 != 2);
            let b = matrix(k, 30, 1, &tb, |c, first| match c % 4 {
                0 => false,
                1 => first,
                _ => true,
            });
            prop_assert!(a.n_nonzero_cols() < k && b.col_nnz(1) <= 1 && b.col_nnz(0) == 0);
            let expect = spgemm_with::<PlusTimes<f64>, _, _>(
                &a, &b, Kernel::Spa, Schedule::Fixed(256), &SpgemmWorkspace::new(),
            );
            check_sources::<PlusTimes<f64>, NoEpilogue<f64>>(&a, &b, &ws, None, &expect)?;
        }
    }

    #[test]
    fn fused_epilogue_equals_the_post_pass(
        ta in triples(SMALL, 40, 260),
        tb in triples(40, 30, 170),
    ) {
        let ws = SpgemmWorkspace::new();
        for nrows in [SMALL, TALL] {
            let a = matrix(nrows, 40, nrows / SMALL, &ta, |c, _| c % 5 != 2);
            let b = matrix(40, 30, 1, &tb, |c, first| c % 4 != 0 && (c % 4 != 1 || first));
            let plain = spgemm_with::<PlusTimes<f64>, _, _>(
                &a, &b, Kernel::Spa, Schedule::Fixed(256), &SpgemmWorkspace::new(),
            );
            let expect = post_pass(&plain, keep_large_rescaled);
            prop_assert!(expect.nnz() > 0 && expect.nnz() < plain.nnz(), "the epilogue filters");
            let ad = Dcsc::from_csc(&a);
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("test pool");
                for kernel in KERNELS {
                    for schedule in SCHEDULES {
                        let fused = |a: &dyn ColSource<f64>| {
                            pool.install(|| {
                                spgemm_with_epilogue::<PlusTimes<f64>, _, _, _>(
                                    a, &b, kernel, schedule, &ws, Some(&keep_large_rescaled),
                                )
                            })
                        };
                        prop_assert!(
                            bits(&fused(&a)) == bits(&expect) && bits(&fused(&ad)) == bits(&expect),
                            "{nrows} rows / {kernel:?} / {schedule:?} / {threads} threads diverged"
                        );
                    }
                }
            }
        }
    }
}

/// A filtering-and-rescaling epilogue: scale the column to unit 1-norm (in
/// place — the staged values are scratch) and keep the entries of at least
/// a twentieth.
fn keep_large_rescaled(
    rows: &[Vidx],
    vals: &mut [f64],
    rows_out: &mut Vec<Vidx>,
    vals_out: &mut Vec<f64>,
) {
    let norm: f64 = vals.iter().map(|v| v.abs()).sum();
    for v in vals.iter_mut() {
        *v /= norm;
    }
    for (&r, &v) in rows.iter().zip(vals.iter()) {
        if v.abs() >= 0.05 {
            rows_out.push(r);
            vals_out.push(v);
        }
    }
}

// ---------------------------------------------------------------------------
// The dense accumulator's bitmap and its cut-off
// ---------------------------------------------------------------------------

/// One B column of the boundary operand: the rows it hits and how often.
type Hits = Vec<(usize, usize)>;

/// The columns that can trip a bitmap of 64-bit words over `nrows` rows with
/// two summary levels above it (a word of the first covers 64² = 4 096 rows,
/// a word of the second 64³ = 262 144), and the cut-off beside it: the
/// accumulator leaves the bitmap from `nrows` flops up.
fn boundary_columns(nrows: usize) -> Vec<Hits> {
    let mut cols: Vec<Hits> = Vec::new();
    // a few rows, a flop or two each
    for touched in [1, 2, 3, 7, 18] {
        cols.push((0..touched).map(|r| (r * 5 % nrows, 1 + r % 2)).collect());
    }
    // flop counts either side of the cut-off — and, where that stays cheap,
    // of half and twice it in case the constant moves — over a third and a
    // half of the rows
    let arounds = match nrows {
        0..=100 => vec![nrows / 2, nrows, 2 * nrows],
        101..=8192 => vec![nrows],
        _ => vec![],
    };
    for around in arounds {
        for flops in around - 2..=around + 2 {
            for touched in [nrows / 3, nrows / 2] {
                let hits = |r: usize| flops / touched + (r < flops % touched) as usize;
                cols.push((0..touched).map(|r| (r * 2, hits(r))).collect());
            }
        }
    }
    // neighbours across a word boundary of each level
    for edge in [64, 64 * 64, 64 * 64 * 64] {
        let around = [(edge - 2, 1), (edge - 1, 2), (edge, 3), (edge + 1, 2)];
        cols.push(around.into_iter().filter(|h| h.0 < nrows).collect());
    }
    // the last row, alone and with the first
    cols.push(vec![(nrows - 1, 2)]);
    cols.push(vec![(0, 1), (nrows - 1, 3)]);
    // exactly one row in every word of each level
    for span in [64, 64 * 64, 64 * 64 * 64] {
        cols.push(
            (0..nrows.div_ceil(span))
                .map(|w| ((w * span + w * 7 % span).min(nrows - 1), 2))
                .collect(),
        );
    }
    // both ends of every word
    cols.push(
        (0..nrows)
            .filter(|r| r % 64 == 0 || r % 64 == 63)
            .map(|r| (r, 1 + r % 2))
            .collect(),
    );
    cols.retain(|hits| !hits.is_empty());
    cols
}

/// Columns either side of the row-window rule — the accumulator leaves the
/// bitmap once a column's flops reach the width of the rows it spans: bands
/// of 40 and of 9 rows at `width − 1`, `width` and `width + 1` flops, one
/// starting at row 0, one across a bitmap word boundary, one ending at the
/// last row.
fn window_columns(nrows: usize) -> Vec<Hits> {
    let mut cols: Vec<Hits> = Vec::new();
    for width in [40, 9] {
        for lo in [0, 64 - width / 2, nrows - width] {
            // every other row of the band, and both of its ends
            let rows: Vec<usize> = (lo..lo + width - 1)
                .step_by(2)
                .chain([lo + width - 1])
                .collect();
            for flops in width - 1..=width + 1 {
                let hits = |i: usize| flops / rows.len() + (i < flops % rows.len()) as usize;
                cols.push(
                    rows.iter()
                        .enumerate()
                        .map(|(i, &r)| (r, hits(i)))
                        .collect(),
                );
            }
        }
    }
    cols
}

/// `A·B` under `S` at each of `heights`, every B column one of
/// `columns(nrows)`: every kernel, source format, schedule and thread
/// count against the hash, with and without an epilogue fused in, through
/// one workspace — so each height's bitmap and value array are the ones the
/// last height left.
///
/// A's column `copy · nrows + slot` holds the single entry
/// `(row_of(slot), a_val(copy, row))`; a B column that hits a row `h` times
/// names that row's slot in copies `0..h`, so the row is reduced in copy
/// order and the rows of one copy arrive unsorted.
fn check_boundaries<S: Semiring>(
    heights: &[usize],
    columns: fn(usize) -> Vec<Hits>,
    a_val: impl Fn(usize, usize) -> S::T,
    b_val: impl Fn(usize) -> S::T,
) where
    S::T: Bits,
{
    let ws = SpgemmWorkspace::new();
    for &nrows in heights {
        let cols = columns(nrows);
        let copies = cols.iter().flatten().map(|h| h.1).max().unwrap();
        let row_of = |slot: usize| (slot * 37 + 11) % nrows;
        let mut slot_of = vec![usize::MAX; nrows];
        for slot in 0..nrows {
            slot_of[row_of(slot)] = slot;
        }
        assert!(slot_of.iter().all(|&s| s < nrows), "row_of is a bijection");
        let mut a = Coo::new(nrows, copies * nrows);
        for copy in 0..copies {
            for slot in 0..nrows {
                let row = row_of(slot);
                a.push(row as Vidx, (copy * nrows + slot) as Vidx, a_val(copy, row));
            }
        }
        let mut b = Coo::new(copies * nrows, cols.len());
        for (j, hits) in cols.iter().enumerate() {
            for &(row, times) in hits {
                for copy in 0..times {
                    b.push((copy * nrows + slot_of[row]) as Vidx, j as Vidx, b_val(j));
                }
            }
        }
        let (a, b) = (a.to_csc_with(|x, _| x), b.to_csc_with(|x, _| x));
        let plain = spgemm_with::<S, _, _>(
            &a,
            &b,
            Kernel::Hash,
            Schedule::Fixed(256),
            &SpgemmWorkspace::new(),
        );
        // the operand does drop rows (exact cancellation, lone −0.0, the
        // semiring's zero), and does keep every height's last row
        assert!(plain.nnz() < cols.iter().map(Vec::len).sum::<usize>());
        assert!(plain.rowidx().contains(&(nrows as Vidx - 1)));
        check_sources::<S, NoEpilogue<S::T>>(&a, &b, &ws, None, &plain)
            .unwrap_or_else(|e| panic!("{nrows} rows: {e}"));
        let thinned = post_pass(&plain, keep_even_positions);
        assert!(thinned.nnz() < plain.nnz());
        check_sources::<S, _>(&a, &b, &ws, Some(&keep_even_positions), &thinned)
            .unwrap_or_else(|e| panic!("{nrows} rows, epilogue: {e}"));
    }
}

/// An epilogue for any value type, sensitive to the order a column arrives
/// in: keep its first, third, fifth … entry.
fn keep_even_positions<T: Copy>(
    rows: &[Vidx],
    vals: &mut [T],
    rows_out: &mut Vec<Vidx>,
    vals_out: &mut Vec<T>,
) {
    rows_out.extend(rows.iter().step_by(2));
    vals_out.extend(vals.iter().step_by(2));
}

/// [`check_boundaries`] under the three semirings, on operands that do drop
/// rows: `PlusTimes<f64>` at every height, `MinPlus` and `OrAnd` at `few`.
fn check_boundaries_under_each_semiring(
    heights: &[usize],
    few: std::ops::Range<usize>,
    columns: fn(usize) -> Vec<Hits>,
) {
    check_boundaries::<PlusTimes<f64>>(heights, columns, cancelling, |j| 0.5 + 0.25 * j as f64);
    check_boundaries::<MinPlus>(&heights[few.clone()], columns, some_infinite, |j| {
        0.25 * j as f64
    });
    check_boundaries::<OrAnd>(&heights[few], columns, some_false, |_| true);
}

/// `PlusTimes<f64>` values of A's `copy`-th entry in `row`: rows ≡ 1 (mod 4)
/// alternate x, −x (cancel exactly when hit an even number of times); rows
/// ≡ 2 open with a −0.0 contribution (alone, it is dropped; followed by
/// others, it must not show).
fn cancelling(copy: usize, row: usize) -> f64 {
    match row % 4 {
        1 if copy.is_multiple_of(2) => 0.7,
        1 => -0.7,
        2 if copy == 0 => -0.0,
        _ => 0.1 * (copy + 1) as f64 + 0.003 * (row % 97 + 1) as f64,
    }
}

/// `MinPlus` values: rows ≡ 1 (mod 4) contribute only the semiring zero, ∞.
fn some_infinite(copy: usize, row: usize) -> f64 {
    match row % 4 {
        1 => f64::INFINITY,
        _ => 1.0 + ((copy * 7 + row * 3) % 11) as f64 * 0.3,
    }
}

/// `OrAnd` values: rows ≡ 1 (mod 4) contribute only `false`.
fn some_false(copy: usize, row: usize) -> bool {
    row % 4 != 1 && !(copy + row).is_multiple_of(3)
}

#[test]
fn dense_accumulator_agrees_on_bitmap_boundaries_and_across_its_cutoff() {
    // below one bitmap word, exactly one, a partial last word, partial last
    // words of both summary levels, exact multiples — larger after smaller
    // and smaller after larger
    let heights = [100, 8192, 40, 4133, 64, 262_244];
    check_boundaries_under_each_semiring(&heights, 2..4, boundary_columns);
}

/// An arrow under `S`: A's columns 0 and 2 lie inside rows 50..56, column 1
/// reaches rows 3 and 199. B's column 0 names all three — its first and last
/// entry span 6 rows for 9 flops, the whole column 197 — column 1 names the
/// two short ones (6 flops on 6 rows: scanned), column 2 the first two.
/// Row 53 cancels between A's columns 1 and 2, rows 50 and 54 are lone −0.0
/// contributions under [`cancelling`].
fn check_arrow<S: Semiring>(a_val: impl Fn(usize, usize) -> S::T, b_val: impl Fn(usize) -> S::T)
where
    S::T: Bits,
{
    let mut a = Coo::new(200, 3);
    for (col, rows) in [[50, 52, 54], [3, 53, 199], [51, 53, 55]]
        .iter()
        .enumerate()
    {
        for &row in rows {
            a.push(row as Vidx, col as Vidx, a_val(col, row));
        }
    }
    let mut b = Coo::new(3, 3);
    for (j, names) in [&[0, 1, 2][..], &[0, 2], &[0, 1]].iter().enumerate() {
        for &k in *names {
            b.push(k, j as Vidx, b_val(j));
        }
    }
    let (a, b) = (a.to_csc_with(|x, _| x), b.to_csc_with(|x, _| x));
    let ws = SpgemmWorkspace::new();
    let plain = spgemm_with::<S, _, _>(&a, &b, Kernel::Hash, Schedule::Fixed(256), &ws);
    assert!(plain.nnz() < 9 + 6 + 6, "the operand does drop rows");
    check_sources::<S, NoEpilogue<S::T>>(&a, &b, &ws, None, &plain).unwrap();
    let thinned = post_pass(&plain, keep_even_positions);
    check_sources::<S, _>(&a, &b, &ws, Some(&keep_even_positions), &thinned).unwrap();
}

#[test]
fn dense_accumulator_agrees_on_row_windows_and_across_their_cutoff() {
    // the last band ends inside a bitmap word, on a word boundary, in the
    // second word of the first summary level — larger after smaller and
    // smaller after larger
    let heights = [300, 128, 5000, 100];
    check_boundaries_under_each_semiring(&heights, 0..2, window_columns);
    check_arrow::<PlusTimes<f64>>(cancelling, |j| 0.5 + 0.25 * j as f64);
    check_arrow::<MinPlus>(some_infinite, |j| 0.25 * j as f64);
    check_arrow::<OrAnd>(some_false, |_| true);
}

#[test]
fn stale_position_map_entries_do_not_leak() {
    // first multiply: A stores every column of a wide inner dimension;
    // second, through the same arena: a narrower A that stores only column
    // 3, times a B naming columns the first map had positions for
    let wide = Csc::diagonal(&[1.5; 50]);
    let ws = SpgemmWorkspace::new();
    let first = spgemm_with::<PlusTimes<f64>, _, _>(
        &Dcsc::from_csc(&wide),
        &Dcsc::from_csc(&wide),
        Kernel::Hybrid,
        Schedule::FlopBalanced,
        &ws,
    );
    assert_eq!(first.nnz(), 50);
    let mut am = Coo::new(8, 10);
    am.push(2, 3, 0.7);
    let mut bm = Coo::new(10, 4);
    for (r, c) in [(0, 0), (3, 0), (9, 1), (3, 2), (5, 2)] {
        bm.push(r, c, 1.1);
    }
    let (a, b) = (am.to_csc(), bm.to_csc());
    let got = spgemm_with::<PlusTimes<f64>, _, _>(
        &Dcsc::from_csc(&a),
        &Dcsc::from_csc(&b),
        Kernel::Hybrid,
        Schedule::FlopBalanced,
        &ws,
    );
    let fresh = sa_sparse::spgemm::spgemm::<PlusTimes<f64>, _, _>(&a, &b);
    assert_eq!(bits(&got), bits(&fresh));
    assert_eq!(
        got.colptr(),
        &[0, 1, 1, 2, 2],
        "only A's column 3 contributes"
    );
}
