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
//! Two further properties ride on the same bits: the dense accumulator's
//! three ways of finding a column's rows (sorted touched list, stamp scan,
//! stamp-free accumulation) agree with each other and with the hash on
//! columns a few entries either side of each cut-off, and a column epilogue
//! fused into the kernel equals the same epilogue run over the finished
//! product.

use proptest::prelude::*;
use sa_sparse::semiring::{MinPlus, OrAnd, PlusTimes, Semiring};
use sa_sparse::spgemm::{
    spgemm_with, spgemm_with_epilogue, ColSource, Kernel, Schedule, SpgemmWorkspace,
};
use sa_sparse::{Coo, Csc, Dcsc, Vidx};

const KERNELS: [Kernel; 4] = [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid];
const SCHEDULES: [Schedule; 3] = [
    Schedule::Fixed(256),
    Schedule::Fixed(3),
    Schedule::FlopBalanced,
];
/// Rows of the small operands, and of the tall ones: past the hybrid's cut
/// for `f64` (32 MiB / 12 B ≈ 2.8 M rows), so `Hybrid` takes the hash there.
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

fn bits(c: &Csc<f64>) -> (&[usize], &[u32], Vec<u64>) {
    (
        c.colptr(),
        c.rowidx(),
        c.vals().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Every kernel × schedule × thread count over `(a, b)` through `ws`
/// against `expect`.
fn check<A: ColSource<f64>, B: ColSource<f64>>(
    what: &str,
    a: &A,
    b: &B,
    ws: &SpgemmWorkspace<f64>,
    expect: &Csc<f64>,
) -> Result<(), TestCaseError> {
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool");
        for kernel in KERNELS {
            for schedule in SCHEDULES {
                let got = pool
                    .install(|| spgemm_with::<PlusTimes<f64>, A, B>(a, b, kernel, schedule, ws));
                prop_assert!(
                    bits(&got) == bits(expect),
                    "{what} / {kernel:?} / {schedule:?} / {threads} threads diverged"
                );
            }
        }
    }
    Ok(())
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
            let (ad, bd) = (Dcsc::from_csc(&a), Dcsc::from_csc(&b));
            let needed = Dcsc::from_csc_cols(&a, &b.row_hit_vector());
            prop_assert!(needed.nzc() <= ad.nzc());
            check("csc·csc", &a, &b, &ws, &expect)?;
            check("dcsc·csc", &ad, &b, &ws, &expect)?;
            check("dcsc·dcsc", &ad, &bd, &ws, &expect)?;
            check("needed-columns dcsc·dcsc", &needed, &bd, &ws, &expect)?;
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
            // the epilogue over each finished column, values copied out first
            let mut colptr = vec![0usize];
            let (mut rowidx, mut vals) = (Vec::new(), Vec::new());
            for j in 0..plain.ncols() {
                let (rows, col_vals) = plain.col(j);
                if !rows.is_empty() {
                    keep_large_rescaled(rows, &mut col_vals.to_vec(), &mut rowidx, &mut vals);
                }
                colptr.push(rowidx.len());
            }
            let expect = Csc::from_parts(nrows, plain.ncols(), colptr, rowidx, vals);
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
// The dense accumulator's gather paths
// ---------------------------------------------------------------------------

/// Rows of the straddling operand. At 64 rows the stamp scan starts at 8
/// touched rows (an eighth) and the stamp-free accumulation at 64 flops
/// (one per row); the cases below run a few entries either side of both, and
/// of twice and half of each in case the constants move.
const ROWS: usize = 64;

/// `(flops, touched rows)` of each B column.
fn straddling_cases() -> Vec<(usize, usize)> {
    let sparse = (1..=18).map(|touched| (touched + 2, touched));
    let dense = [29..=35, 61..=67, 125..=131]
        .into_iter()
        .flatten()
        .flat_map(|flops| [(flops, 3), (flops, 24)]);
    sparse.chain(dense).collect()
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

/// `A·B` under `S` with every B column one of [`straddling_cases`], by the
/// dense accumulator — whichever way it finds the rows — against the hash,
/// the heap, and the dense accumulator over the same entries in a matrix
/// tall enough that every column takes the sorted touched list.
///
/// A's column `copy · ROWS + slot` holds the single entry
/// `(row_of(slot), a_val(copy, slot))`; a B column of `flops` entries names
/// `touched` slots, `flops / touched` copies of each, so the slot's row is
/// hit that many times in copy order.
fn check_straddle<S: Semiring>(a_val: impl Fn(usize, usize) -> S::T, b_val: impl Fn(usize) -> S::T)
where
    S::T: Bits,
{
    let cases = straddling_cases();
    let copies = cases.iter().map(|&(f, t)| f.div_ceil(t)).max().unwrap();
    let row_of = |slot: usize| (slot * 37 + 11) % ROWS; // unsorted arrival
    let build = |nrows: usize| {
        let mut a = Coo::new(nrows, copies * ROWS);
        for copy in 0..copies {
            for slot in 0..ROWS {
                let col = copy * ROWS + slot;
                a.push(row_of(slot) as Vidx, col as Vidx, a_val(copy, slot));
            }
        }
        a.to_csc_with(|x, _| x)
    };
    let mut b = Coo::new(copies * ROWS, cases.len());
    for (j, &(flops, touched)) in cases.iter().enumerate() {
        for e in 0..flops {
            let (copy, slot) = (e / touched, e % touched);
            b.push((copy * ROWS + slot) as Vidx, j as Vidx, b_val(j));
        }
    }
    let b = b.to_csc_with(|x, _| x);
    let run = |a: &Csc<S::T>, kernel| {
        let c = spgemm_with::<S, _, _>(
            a,
            &b,
            kernel,
            Schedule::FlopBalanced,
            &SpgemmWorkspace::new(),
        );
        let vals: Vec<u64> = c.vals().iter().map(Bits::bits).collect();
        (c.colptr().to_vec(), c.rowidx().to_vec(), vals)
    };
    let (a, tall) = (build(ROWS), build(ROWS * ROWS));
    let hash = run(&a, Kernel::Hash);
    assert_eq!(run(&a, Kernel::Spa), hash, "dense accumulator vs hash");
    assert_eq!(run(&a, Kernel::Hybrid), hash, "hybrid vs hash");
    assert_eq!(run(&a, Kernel::Heap), hash, "heap vs hash");
    assert_eq!(
        run(&tall, Kernel::Spa),
        hash,
        "scan / stamp-free gather vs sorted touched list"
    );
    // the cases do drop rows: slot 1 reduces to zero in every column that
    // hits it an even number of times
    assert!(hash.1.len() < cases.iter().map(|c| c.1).sum::<usize>());
}

#[test]
fn dense_accumulator_gathers_agree_across_their_cutoffs() {
    // slot 1 alternates x, −x (cancels exactly when hit an even number of
    // times), slot 2 opens with a −0.0 contribution (alone, it is dropped;
    // followed by others, it must not show)
    check_straddle::<PlusTimes<f64>>(
        |copy, slot| match slot {
            1 if copy % 2 == 0 => 0.7,
            1 => -0.7,
            2 if copy == 0 => -0.0,
            _ => 0.1 * (copy + 1) as f64 + 0.003 * (slot + 1) as f64,
        },
        |j| 0.5 + 0.25 * j as f64,
    );
    // slot 1 contributes only the semiring zero (∞, false): dropped
    check_straddle::<MinPlus>(
        |copy, slot| match slot {
            1 => f64::INFINITY,
            _ => 1.0 + ((copy * 7 + slot * 3) % 11) as f64 * 0.3,
        },
        |j| 0.25 * j as f64,
    );
    check_straddle::<OrAnd>(|copy, slot| slot != 1 && (copy + slot) % 3 != 0, |_| true);
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
