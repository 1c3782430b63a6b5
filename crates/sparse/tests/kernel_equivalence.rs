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

use proptest::prelude::*;
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_with, ColSource, Kernel, Schedule, SpgemmWorkspace};
use sa_sparse::{Coo, Csc, Dcsc};

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
