//! Integration tests of the communication-volume claims the paper's
//! analysis rests on: the sparsity-aware algorithm's traffic is bounded by
//! the oblivious baseline's, the pre-communication analysis is exact, and
//! structure translates into volume.

use saspgemm::dist::{analyze_1d, spgemm_1d, uniform_offsets, DistMat1D, FetchMode, Plan1D};
use saspgemm::mpisim::Universe;
use saspgemm::sparse::gen::{banded, erdos_renyi, sbm};
use saspgemm::sparse::Csc;

fn reports_for(a: &Csc<f64>, p: usize, mode: FetchMode) -> Vec<saspgemm::dist::SpgemmReport> {
    let u = Universe::new(p);
    u.run(|comm| {
        let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), p));
        let db = da.clone();
        let plan = Plan1D {
            fetch_mode: mode,
            ..Default::default()
        };
        let (_c, rep) = spgemm_1d(comm, &da, &db, &plan);
        rep
    })
}

#[test]
fn sparsity_aware_never_exceeds_full_fetch() {
    for seed in [1u64, 2, 3] {
        let a = erdos_renyi(200, 200, 4.0, seed);
        let aware = reports_for(&a, 4, FetchMode::Block(32));
        let oblivious = reports_for(&a, 4, FetchMode::FullMatrix);
        for (x, y) in aware.iter().zip(&oblivious) {
            assert!(x.fetched_bytes <= y.fetched_bytes, "seed {seed}");
        }
    }
}

#[test]
fn exact_mode_is_byte_minimal() {
    let a = sbm(300, 6, 8.0, 1.0, true, 4);
    let exact = reports_for(&a, 4, FetchMode::ColumnExact);
    for k in [4usize, 32, 512] {
        let block = reports_for(&a, 4, FetchMode::Block(k));
        for (e, b) in exact.iter().zip(&block) {
            assert!(e.fetched_bytes <= b.fetched_bytes, "K={k}");
            assert_eq!(e.fetched_bytes, e.needed_bytes, "exact fetches only needs");
        }
    }
}

#[test]
fn block_mode_bounds_messages_per_remote_rank() {
    let a = erdos_renyi(300, 300, 6.0, 5);
    let p = 5;
    for k in [4usize, 16] {
        let reps = reports_for(&a, p, FetchMode::Block(k));
        for r in &reps {
            // 2 windows x K intervals x (P-1) remote ranks
            assert!(
                r.rdma_msgs <= (2 * k * (p - 1)) as u64,
                "K={k}: {} msgs",
                r.rdma_msgs
            );
        }
    }
}

#[test]
fn metered_traffic_equals_planned_traffic() {
    let a = banded(300, 12, 0.5, false, 6);
    let reps = reports_for(&a, 4, FetchMode::Block(16));
    for r in &reps {
        assert_eq!(r.comm.rdma_get_bytes, r.fetched_bytes);
        assert_eq!(r.comm.rdma_gets, r.rdma_msgs);
    }
}

#[test]
fn analysis_predicts_execution_exactly() {
    let a = sbm(250, 5, 7.0, 1.5, true, 7);
    let u = Universe::new(5);
    let pairs = u.run(|comm| {
        let da = DistMat1D::from_global(comm, &a, &uniform_offsets(a.ncols(), 5));
        let db = da.clone();
        let pre = analyze_1d(comm, &da, &db, FetchMode::Block(8));
        let (_c, rep) = spgemm_1d(
            comm,
            &da,
            &db,
            &Plan1D {
                fetch_mode: FetchMode::Block(8),
                ..Default::default()
            },
        );
        (pre, rep)
    });
    for (pre, rep) in pairs {
        assert_eq!(pre.planned_fetch_bytes, rep.fetched_bytes);
        assert_eq!(pre.planned_intervals * 2, rep.rdma_msgs);
        assert!((pre.cv_over_mem - rep.cv_over_mem).abs() < 1e-12);
    }
}

#[test]
fn structure_reduces_volume_banded_vs_random_positions() {
    // same nnz budget, banded vs uniform placement: banded must fetch far less
    let n = 400;
    let banded_m = banded(n, 8, 0.5, false, 8);
    let er = erdos_renyi(n, n, banded_m.nnz() as f64 / n as f64, 9);
    let vb: u64 = reports_for(&banded_m, 4, FetchMode::ColumnExact)[0].fetched_bytes_global;
    let ve: u64 = reports_for(&er, 4, FetchMode::ColumnExact)[0].fetched_bytes_global;
    assert!(
        vb * 3 < ve,
        "banded volume {vb} should be well under ER volume {ve}"
    );
}

#[test]
fn self_contained_slices_communicate_nothing() {
    // block-diagonal matrix aligned with the rank boundaries: zero fetches
    let p = 4;
    let n = 80;
    let mut coo = saspgemm::sparse::Coo::new(n, n);
    for b in 0..p {
        let lo = b * (n / p);
        for i in 0..(n / p) as u32 {
            for j in 0..(n / p) as u32 {
                if (i + 2 * j) % 3 == 0 {
                    coo.push(lo as u32 + i, lo as u32 + j, 1.0);
                }
            }
        }
    }
    let a = coo.to_csc_with(|x, _| x);
    let reps = reports_for(&a, p, FetchMode::Block(16));
    for r in &reps {
        assert_eq!(r.fetched_bytes, 0);
        assert_eq!(r.rdma_msgs, 0);
        assert_eq!(r.cv_over_mem, 0.0);
    }
}

#[test]
fn window_errors_are_reported_not_panics() {
    use saspgemm::mpisim::{PairedWindow, WindowError};
    let u = Universe::new(2);
    let errs = u.run(|comm| {
        let win = PairedWindow::create(comm, vec![1u32; 8], vec![1.0f64; 8]);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let oob = win.get_both_into(comm, 0, 4..20, &mut a, &mut b).err();
        let bad = win.get_both_into(comm, 5, 0..1, &mut a, &mut b).err();
        (oob, bad)
    });
    for (oob, bad) in errs {
        assert!(matches!(oob, Some(WindowError::OutOfRange { .. })));
        assert!(matches!(bad, Some(WindowError::BadRank { .. })));
    }
}
