//! Simulated-runtime semantics the distributed algorithms rely on:
//! paired windows, degenerate 1D layouts, collective algebra, and
//! failure injection at the crate boundary.
//!
//! Backend policy: this suite tests `Universe::run` semantics through
//! in-process closures, so it honors the `SA_BACKEND` escape hatch for
//! the two in-process schedulers (`sim`, `threads`) and **explicitly pins
//! the serial scheduler, saying so once,** when the environment selects a
//! backend these closures cannot run on (`procs` — its coverage lives in
//! `backend_conformance.rs` and `fault_injection.rs`). See
//! [`run_in_process`].

use saspgemm::dist::{
    spgemm_1d, spgemm_outer_1d, spgemm_split_3d, spgemm_split_3d_sa, spgemm_summa_2d,
    try_spgemm_1d, try_spgemm_summa_2d_sa, uniform_offsets, DistMat1D, DistMat2D, DistMat3D,
    FetchMode, Plan1D, ShapeError,
};
use saspgemm::mpisim::{
    Backend, Comm, CommStats, Grid2D, Grid3D, PairedWindow, PhaseTimes, RankComm, Universe,
};
use saspgemm::sparse::gen::{banded, erdos_renyi};
use saspgemm::sparse::{Csc, Dcsc, PlusTimes, SpgemmWorkspace};
use std::sync::Once;
use std::time::Instant;

/// The suite's runner: the backend `SA_BACKEND` names when it is an
/// in-process one (unset, `sim`, or the `threads` upgrade), otherwise a
/// pinned `launch(Backend::Sim, ..)` with a one-time notice — never a
/// silent fallback, and never a panic inside the launcher.
fn run_in_process<R: Send>(u: &Universe, f: impl Fn(&RankComm) -> R + Send + Sync) -> Vec<R> {
    let be = Backend::from_env();
    if be.in_process() {
        return u.launch(be, f);
    }
    static NOTE: Once = Once::new();
    NOTE.call_once(|| {
        eprintln!(
            "[runtime_semantics] SA_BACKEND={} is not an in-process backend; \
             this suite's closures cannot cross a process boundary, so it pins \
             the serial reference scheduler instead (procs coverage lives in \
             backend_conformance.rs and fault_injection.rs)",
            be.name()
        );
    });
    u.launch(Backend::Sim, f)
}

// ---------------------------------------------------------------------
// paired windows
// ---------------------------------------------------------------------

#[test]
fn paired_window_matches_two_plain_windows() {
    // Both arrays come back exactly as rank 2 exposed them, as two plain
    // windows over the same arrays would return them.
    let ir_of = |rank: usize| (0..20).map(move |i| (rank * 1000 + i) as u32);
    let num_of = |rank: usize| (0..20).map(move |i| (rank * 10 + i) as f64);
    let u = Universe::new(3);
    let got = run_in_process(&u, |comm| {
        let paired = PairedWindow::create(
            comm,
            ir_of(comm.rank()).collect(),
            num_of(comm.rank()).collect(),
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        paired.get_both_into(comm, 2, 3..9, &mut a, &mut b).unwrap();
        (a, b)
    });
    let want_ir: Vec<u32> = ir_of(2).skip(3).take(6).collect();
    let want_num: Vec<f64> = num_of(2).skip(3).take(6).collect();
    assert!(got.iter().all(|(a, b)| *a == want_ir && *b == want_num));
}

#[test]
fn paired_window_meters_two_messages_per_get() {
    let u = Universe::new(2);
    let got = run_in_process(&u, |comm| {
        let win = PairedWindow::create(comm, vec![1u32; 10], vec![2.0f64; 10]);
        let before = comm.stats();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        win.get_both_into(comm, 1 - comm.rank(), 0..10, &mut a, &mut b)
            .unwrap();
        // local reads are free
        win.get_both_into(comm, comm.rank(), 0..10, &mut a, &mut b)
            .unwrap();
        comm.stats() - before
    });
    for s in got {
        assert_eq!(s.rdma_gets, 2, "one message per exposed array");
        assert_eq!(s.rdma_get_bytes, 10 * 4 + 10 * 8);
    }
}

#[test]
fn paired_window_rejects_out_of_range_and_bad_rank() {
    let u = Universe::new(2);
    let got = run_in_process(&u, |comm| {
        let win = PairedWindow::create(
            comm,
            vec![0u32; comm.rank() * 2],
            vec![0f64; comm.rank() * 2],
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let oor = win.get_both_into(comm, 0, 0..5, &mut a, &mut b).is_err();
        let bad = win.get_both_into(comm, 9, 0..1, &mut a, &mut b).is_err();
        (oor, bad)
    });
    assert!(got.iter().all(|&(o, b)| o && b));
}

#[test]
#[should_panic(expected = "parallel")]
fn paired_window_requires_parallel_arrays() {
    let u = Universe::new(1);
    run_in_process(&u, |comm| {
        let _ = PairedWindow::create(comm, vec![1u32; 3], vec![1.0f64; 4]);
    });
}

// ---------------------------------------------------------------------
// degenerate 1D layouts
// ---------------------------------------------------------------------

#[test]
fn empty_rank_slices_are_harmless() {
    // rank 1 owns zero columns of A and B; results must still be exact
    let a = erdos_renyi(24, 24, 3.0, 5);
    let expect = saspgemm::dist::reference::serial_spgemm(&a, &a);
    let u = Universe::new(3);
    let a2 = a.clone();
    let got = run_in_process(&u, move |comm| {
        let offsets = vec![0usize, 12, 12, 24];
        let da = DistMat1D::from_global(comm, &a2, &offsets);
        let (c, rep) = spgemm_1d(comm, &da, &da.clone(), &Plan1D::default());
        assert!(
            rep.fetched_bytes == 0 || comm.rank() != 1,
            "empty slice fetches nothing"
        );
        c.gather(comm)
    });
    assert_eq!(got[0].as_ref().unwrap(), &expect);
}

#[test]
fn more_ranks_than_columns() {
    let a = erdos_renyi(6, 6, 2.0, 8);
    let expect = saspgemm::dist::reference::serial_spgemm(&a, &a);
    let u = Universe::new(8); // 8 ranks, 6 columns: two ranks idle
    let a2 = a.clone();
    let got = run_in_process(&u, move |comm| {
        let offsets = uniform_offsets(6, comm.size());
        let da = DistMat1D::from_global(comm, &a2, &offsets);
        let (c, _) = spgemm_1d(comm, &da, &da.clone(), &Plan1D::default());
        c.gather(comm)
    });
    assert_eq!(got[0].as_ref().unwrap(), &expect);
}

#[test]
fn single_column_per_rank() {
    let a = banded(5, 2, 1.0, true, 2);
    let expect = saspgemm::dist::reference::serial_spgemm(&a, &a);
    let u = Universe::new(5);
    let a2 = a.clone();
    let got = run_in_process(&u, move |comm| {
        let da = DistMat1D::from_global(comm, &a2, &uniform_offsets(5, 5));
        let (c, _) = spgemm_1d(comm, &da, &da.clone(), &Plan1D::default());
        c.gather(comm)
    });
    assert_eq!(got[0].as_ref().unwrap(), &expect);
}

// ---------------------------------------------------------------------
// collective algebra the algorithms depend on
// ---------------------------------------------------------------------

#[test]
fn allreduce_tuple_matches_two_scalars() {
    // spgemm_1d's global stats use a tuple allreduce; verify against parts
    let u = Universe::new(4);
    let got = run_in_process(&u, |comm| {
        let r = comm.rank() as u64;
        let pair = comm.allreduce((r, 10 * r), |x, y| (x.0 + y.0, x.1 + y.1));
        let a = comm.allreduce(r, |x, y| x + y);
        let b = comm.allreduce(10 * r, |x, y| x + y);
        (pair, a, b)
    });
    for (pair, a, b) in got {
        assert_eq!(pair, (a, b));
        assert_eq!(pair, (6, 60));
    }
}

#[test]
fn concurrent_universes_do_not_interfere() {
    // two simulated jobs running at once on separate threads (benches do
    // this implicitly when criterion warms up while another job drains)
    let t1 = std::thread::spawn(|| {
        let u = Universe::new(3);
        run_in_process(&u, |comm| {
            comm.allreduce(comm.rank() as u64 + 1, |x, y| x + y)
        })
    });
    let t2 = std::thread::spawn(|| {
        let u = Universe::new(5);
        run_in_process(&u, |comm| {
            comm.allreduce(comm.rank() as u64 + 1, |x, y| x + y)
        })
    });
    assert!(t1.join().unwrap().iter().all(|&x| x == 6));
    assert!(t2.join().unwrap().iter().all(|&x| x == 15));
}

#[test]
fn stats_deltas_are_monotone_and_additive() {
    let a = banded(60, 4, 1.0, true, 9);
    let u = Universe::new(4);
    let got = run_in_process(&u, move |comm| {
        let s0 = comm.stats();
        let da = DistMat1D::from_global(comm, &a, &uniform_offsets(60, 4));
        let (_, rep1) = spgemm_1d(comm, &da, &da.clone(), &Plan1D::default());
        let s1 = comm.stats();
        let (_, rep2) = spgemm_1d(comm, &da, &da.clone(), &Plan1D::default());
        let s2 = comm.stats();
        let d1 = s1 - s0;
        let d2 = s2 - s1;
        // identical multiplies → identical metered traffic, and the raw
        // counters never decrease
        (
            rep1.fetched_bytes,
            rep2.fetched_bytes,
            d1.rdma_get_bytes,
            d2.rdma_get_bytes,
        )
    });
    for (f1, f2, d1, d2) in got {
        assert_eq!(f1, f2);
        assert_eq!(d1, d2);
        assert_eq!(d1, f1, "metered == planned");
    }
}

// ---------------------------------------------------------------------
// multiply reports
// ---------------------------------------------------------------------

/// One rank's reported phases, its traffic, and the wall time the caller
/// measured around the multiply.
type Timed = (PhaseTimes, CommStats, f64);

fn timed<C: Comm>(comm: &C, multiply: impl FnOnce() -> PhaseTimes) -> Timed {
    let (stats0, t0) = (comm.stats(), Instant::now());
    let phases = multiply();
    let wall = t0.elapsed().as_secs_f64();
    (phases, comm.stats() - stats0, wall)
}

#[test]
fn grid_and_outer_reports_split_their_time_into_phases() {
    let a = erdos_renyi(48, 48, 4.0, 21);
    let (u4, u8) = (Universe::new(4), Universe::new(8));
    let summa = run_in_process(&u4, |comm| {
        let grid = Grid2D::square(comm);
        let da = DistMat2D::from_global(&grid, &a);
        let ws = SpgemmWorkspace::new();
        timed(comm, || {
            spgemm_summa_2d(comm, &grid, &da, &da, &ws).1.phases
        })
    });
    let outer = run_in_process(&u4, |comm| {
        let da = DistMat1D::from_global(comm, &a, &uniform_offsets(48, 4));
        timed(comm, || spgemm_outer_1d(comm, &da, &da).1.phases)
    });
    let split_3d = |aware: bool| {
        run_in_process(&u8, |comm| {
            let grid = Grid3D::new(comm, 2, 2);
            let da = DistMat3D::from_global_split_cols(&grid, &a);
            let db = DistMat3D::from_global_split_rows(&grid, &a);
            let (ws, mode) = (SpgemmWorkspace::new(), FetchMode::default());
            timed(comm, || {
                if aware {
                    spgemm_split_3d_sa::<_, PlusTimes<f64>>(comm, &grid, &da, &db, mode, &ws)
                        .1
                        .phases
                } else {
                    spgemm_split_3d(comm, &grid, &da, &db, &ws).1.phases
                }
            })
        })
    };
    let runs = [
        ("summa_2d", summa),
        ("outer_1d", outer),
        ("split_3d", split_3d(false)),
        ("split_3d_sa", split_3d(true)),
    ];
    for (what, ranks) in runs {
        assert!(ranks.iter().any(|(_, d, _)| *d != CommStats::default()));
        for (rank, (p, delta, wall)) in ranks.into_iter().enumerate() {
            assert!(p.compute_s > 0.0, "{what} rank {rank}: {p:?}");
            if delta != CommStats::default() {
                assert!(p.fetch_s > 0.0, "{what} rank {rank} moved data: {p:?}");
            }
            assert!(
                p.total_s() <= wall,
                "{what} rank {rank}: phases {p:?} exceed the wall {wall}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// DCSC ↔ window round trip (what Algorithm 1 exposes)
// ---------------------------------------------------------------------

#[test]
fn exposed_dcsc_arrays_reassemble_to_original_columns() {
    let a = erdos_renyi(30, 40, 2.5, 13);
    let u = Universe::new(4);
    let a2 = a.clone();
    let got = run_in_process(&u, move |comm| {
        let offsets = uniform_offsets(40, 4);
        let da = DistMat1D::from_global(comm, &a2, &offsets);
        let local = da.local().clone();
        let win = PairedWindow::create(comm, local.ir().to_vec(), local.num().to_vec());
        // every rank fetches rank 2's whole exposure and rebuilds its slice
        let len = win.len_of(2);
        let (mut ir, mut num) = (Vec::new(), Vec::new());
        win.get_both_into(comm, 2, 0..len, &mut ir, &mut num)
            .unwrap();
        (ir, num)
    });
    let slice = a.extract_cols(20, 30); // rank 2's columns under uniform(40,4)
    let d = Dcsc::from_csc(&slice);
    for (ir, num) in got {
        assert_eq!(ir, d.ir());
        assert_eq!(num, d.num());
    }
}

// ---------------------------------------------------------------------
// failure injection at the API boundary
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "A is")]
fn dimension_mismatch_reported_with_shapes() {
    let a = erdos_renyi(10, 12, 2.0, 1);
    let b = erdos_renyi(10, 12, 2.0, 2); // 12 ≠ 10: A·B invalid
    let u = Universe::new(2);
    run_in_process(&u, move |comm| {
        let da = DistMat1D::from_global(comm, &a, &uniform_offsets(12, 2));
        let db = DistMat1D::from_global(comm, &b, &uniform_offsets(12, 2));
        let _ = spgemm_1d(comm, &da, &db, &Plan1D::default());
    });
}

#[test]
fn try_entry_points_reject_bad_operands_alike_on_every_rank_before_moving_anything() {
    let a = erdos_renyi(10, 12, 2.0, 1);
    let b = erdos_renyi(10, 12, 2.0, 2); // 12 ≠ 10: A·B invalid
    let sq = erdos_renyi(12, 12, 2.0, 3);
    let u = Universe::new(4);
    let got = run_in_process(&u, move |comm| {
        // operands and grids first: the baseline covers the calls alone
        let offsets = uniform_offsets(12, 4);
        let (da, db) = (
            DistMat1D::from_global(comm, &a, &offsets),
            DistMat1D::from_global(comm, &b, &offsets),
        );
        let (square, flat) = (Grid2D::square(comm), Grid2D::new(comm, 1, 4));
        let (a2, b2) = (
            DistMat2D::from_global(&square, &a),
            DistMat2D::from_global(&square, &b),
        );
        // conformal, but blocked for a 1 × 4 grid and multiplied on 2 × 2
        let (s_flat, s_square) = (
            DistMat2D::from_global(&flat, &sq),
            DistMat2D::from_global(&square, &sq),
        );
        let ws = SpgemmWorkspace::new();
        let (stats0, counters0) = (comm.stats(), ws.counters());
        let mode = FetchMode::default();
        let errs = [
            try_spgemm_1d(comm, &da, &db, &Plan1D::default(), &ws).err(),
            try_spgemm_summa_2d_sa::<_, PlusTimes<f64>>(comm, &square, &a2, &b2, mode, &ws).err(),
            try_spgemm_summa_2d_sa::<_, PlusTimes<f64>>(
                comm, &square, &s_flat, &s_square, mode, &ws,
            )
            .err(),
        ];
        (errs, comm.stats() - stats0, ws.counters() == counters0)
    });
    let not_conformal = ShapeError::NotConformal {
        a_rows: 10,
        a_cols: 12,
        b_rows: 10,
        b_cols: 12,
    };
    let blocking = ShapeError::BlockingMismatch {
        matrix: "A",
        axis: "row",
        blocks: 1,
        grid: 2,
    };
    for (rank, (errs, delta, ws_untouched)) in got.into_iter().enumerate() {
        let expect = [not_conformal, not_conformal, blocking].map(Some);
        assert_eq!(errs, expect, "rank {rank}: the same typed error everywhere");
        assert_eq!(delta, CommStats::default(), "rank {rank}: nothing moved");
        assert!(ws_untouched, "rank {rank}: the workspace was not touched");
    }
}

#[test]
#[should_panic(expected = "offsets")]
fn offsets_must_cover_all_columns() {
    let a: Csc<f64> = erdos_renyi(8, 8, 2.0, 3);
    let u = Universe::new(2);
    run_in_process(&u, move |comm| {
        let _ = DistMat1D::from_global(comm, &a, &[0, 4, 7]); // 7 ≠ 8
    });
}
