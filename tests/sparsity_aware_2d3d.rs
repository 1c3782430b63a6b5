//! Properties of the sparsity-aware 2D/3D subsystem (PR 4 acceptance):
//!
//! * bit-identical to the serial reference across grid shapes (`1×P`,
//!   `P×1`, `√P×√P`, layer counts `c ∈ {1, 2, 4}`), fetch modes,
//!   semirings, and hub/empty-slice edge cases — integer-valued operands
//!   make every floating-point accumulation exact, so equality is `==`,
//!   not a tolerance;
//! * the collective-free `analyze_2d`/`analyze_3d` predictions equal the
//!   metered execution byte-for-byte, per rank and in total;
//! * steady-state 2D/3D multiplies through one [`SpgemmWorkspace`]
//!   allocate nothing (pool counters frozen, as in `workspace_reuse.rs`).

use saspgemm::dist::{
    analyze_2d, analyze_3d, spgemm_split_3d, spgemm_split_3d_sa, spgemm_summa_2d,
    spgemm_summa_2d_sa, try_spgemm_summa_2d_sa, DistMat2D, DistMat3D, FetchMode,
};
use saspgemm::mpisim::{Comm, Grid2D, Grid3D, Universe};
use saspgemm::sparse::gen::{erdos_renyi, rmat};
use saspgemm::sparse::semiring::{MinPlus, PlusTimes};
use saspgemm::sparse::spgemm::spgemm;
use saspgemm::sparse::{Coo, Csc, SpgemmWorkspace};

/// ER matrix with small-integer values: f64 sums over products of these
/// are exact, so distributed accumulation order cannot perturb results.
fn int_er(nrows: usize, ncols: usize, deg: f64, seed: u64) -> Csc<f64> {
    erdos_renyi(nrows, ncols, deg, seed).map(|v| (v * 7.0).round() + 1.0)
}

const MODES: [FetchMode; 4] = [
    FetchMode::FullMatrix,
    FetchMode::Block(4),
    FetchMode::ContiguousRuns,
    FetchMode::ColumnExact,
];

#[test]
fn aware_2d_bit_identical_across_grid_shapes_and_modes() {
    let a = int_er(48, 48, 4.0, 1);
    let b = int_er(48, 48, 3.0, 2);
    let expect = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
    for (pr, pc) in [(1, 4), (4, 1), (2, 2), (2, 3), (3, 2)] {
        for mode in MODES {
            let u = Universe::new(pr * pc);
            let got = u.run(|comm| {
                let grid = Grid2D::new(comm, pr, pc);
                let da = DistMat2D::from_global(&grid, &a);
                let db = DistMat2D::from_global(&grid, &b);
                let (c, rep) = spgemm_summa_2d_sa(comm, &grid, &da, &db, mode);
                assert!(
                    rep.a_fetched_bytes >= rep.a_needed_bytes,
                    "over-fetch only ever adds"
                );
                c.gather(comm, &grid)
            });
            assert_eq!(got[0].as_ref().unwrap(), &expect, "{pr}x{pc} {mode:?}");
        }
    }
}

#[test]
fn one_by_p_grid_moves_no_b_and_p_by_one_moves_no_a() {
    let a = int_er(40, 40, 4.0, 9);
    // 1×P: every rank owns its full column block of B — Algorithm 1 exactly
    let u = Universe::new(4);
    let reps = u.run(|comm| {
        let grid = Grid2D::new(comm, 1, 4);
        let da = DistMat2D::from_global(&grid, &a);
        let db = da.clone();
        let (_c, rep) = spgemm_summa_2d_sa(comm, &grid, &da, &db, FetchMode::ColumnExact);
        rep
    });
    for rep in &reps {
        assert_eq!(rep.b_shipped_bytes, 0, "1xP ships no B");
        assert_eq!(rep.b_request_bytes, 0);
    }
    assert!(reps.iter().any(|r| r.a_fetched_bytes > 0), "A moves in 1xP");
    // P×1: A stays put (each rank's block row needs only its own block)
    let reps = u.run(|comm| {
        let grid = Grid2D::new(comm, 4, 1);
        let da = DistMat2D::from_global(&grid, &a);
        let db = da.clone();
        let (_c, rep) = spgemm_summa_2d_sa(comm, &grid, &da, &db, FetchMode::ColumnExact);
        rep
    });
    for rep in &reps {
        assert_eq!(rep.a_fetched_bytes, 0, "Px1 fetches no A");
        assert_eq!(rep.a_rdma_msgs, 0);
    }
    assert!(reps.iter().any(|r| r.b_shipped_bytes > 0), "B moves in Px1");
}

#[test]
fn aware_2d_rectangular_hub_and_empty_slices() {
    // rectangular operands with a hub column, a hub row, and an empty band
    let mut coo = Coo::new(40, 56);
    for r in 0..40u32 {
        coo.push(r, 3, 1.0); // hub column
    }
    for c in 0..56u32 {
        if !(20..30).contains(&c) {
            coo.push(7, c, 2.0); // hub row with a dead band
        }
    }
    for i in 0..120u32 {
        let (r, c) = ((i * 17) % 40, (i * 31) % 56);
        if !(44..52).contains(&c) {
            coo.push(r, c, ((i % 5) + 1) as f64);
        }
    }
    let a = coo.to_csc_with(|x, _| x);
    let b = int_er(56, 33, 2.5, 4);
    let expect = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
    for (pr, pc) in [(2, 2), (1, 4), (4, 1)] {
        let u = Universe::new(pr * pc);
        let got = u.run(|comm| {
            let grid = Grid2D::new(comm, pr, pc);
            let da = DistMat2D::from_global(&grid, &a);
            let db = DistMat2D::from_global(&grid, &b);
            let (c, _) = spgemm_summa_2d_sa(comm, &grid, &da, &db, FetchMode::Block(3));
            c.gather(comm, &grid)
        });
        assert_eq!(got[0].as_ref().unwrap(), &expect, "{pr}x{pc}");
    }
    // more ranks than B columns: some ranks own empty slices
    let tiny = int_er(6, 3, 1.5, 5);
    let ta = int_er(6, 6, 2.0, 6);
    let expect = spgemm::<PlusTimes<f64>, _, _>(&ta, &tiny);
    let u = Universe::new(4);
    let got = u.run(|comm| {
        let grid = Grid2D::new(comm, 1, 4);
        let da = DistMat2D::from_global(&grid, &ta);
        let db = DistMat2D::from_global(&grid, &tiny);
        let (c, _) = spgemm_summa_2d_sa(comm, &grid, &da, &db, FetchMode::ColumnExact);
        c.gather(comm, &grid)
    });
    assert_eq!(got[0].as_ref().unwrap(), &expect);
}

#[test]
fn aware_2d_and_3d_respect_semirings() {
    // tropical (min, +) over integer weights: exact arithmetic, and a
    // genuinely different algebra than the arithmetic default
    let a = int_er(36, 36, 3.0, 11);
    let expect = spgemm::<MinPlus, _, _>(&a, &a);
    let u = Universe::new(4);
    let got = u.run(|comm| {
        let grid = Grid2D::square(comm);
        let da = DistMat2D::from_global(&grid, &a);
        let db = da.clone();
        let ws = SpgemmWorkspace::new();
        let (c, _) = try_spgemm_summa_2d_sa::<_, MinPlus>(
            comm,
            &grid,
            &da,
            &db,
            FetchMode::ContiguousRuns,
            &ws,
        )
        .unwrap();
        c.gather(comm, &grid)
    });
    assert_eq!(got[0].as_ref().unwrap(), &expect, "2D tropical");
    // the fiber reduction combines partials with the semiring's ⊕, so the
    // tropical algebra survives the layer split too
    let u = Universe::new(8);
    let got = u.run(|comm| {
        let grid = Grid3D::new(comm, 2, 2);
        let da = DistMat3D::from_global_split_cols(&grid, &a);
        let db = DistMat3D::from_global_split_rows(&grid, &a);
        let ws = SpgemmWorkspace::new();
        let (c, _) =
            spgemm_split_3d_sa::<_, MinPlus>(comm, &grid, &da, &db, FetchMode::Block(4), &ws);
        c.gather(comm)
    });
    assert_eq!(got[0].as_ref().unwrap(), &expect, "3D tropical");
}

#[test]
fn aware_3d_bit_identical_across_layer_counts() {
    let a = int_er(48, 48, 4.0, 21);
    let b = int_er(48, 48, 3.0, 22);
    let expect = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
    for (q, layers) in [(2, 1), (2, 2), (1, 4), (2, 4)] {
        for mode in [FetchMode::Block(4), FetchMode::ColumnExact] {
            let u = Universe::new(q * q * layers);
            let got = u.run(|comm| {
                let grid = Grid3D::new(comm, q, layers);
                let da = DistMat3D::from_global_split_cols(&grid, &a);
                let db = DistMat3D::from_global_split_rows(&grid, &b);
                let ws = SpgemmWorkspace::new();
                let (c, rep) =
                    spgemm_split_3d_sa::<_, PlusTimes<f64>>(comm, &grid, &da, &db, mode, &ws);
                assert!(rep.peak_local_bytes > 0);
                c.gather(comm)
            });
            assert_eq!(
                got[0].as_ref().unwrap(),
                &expect,
                "{q}x{q}x{layers} {mode:?}"
            );
        }
    }
}

#[test]
fn analyze_2d_predicts_metered_traffic_exactly() {
    let a = rmat(6, 6, (0.57, 0.19, 0.19, 0.05), 1);
    let b = rmat(6, 5, (0.57, 0.19, 0.19, 0.05), 2);
    for (pr, pc) in [(2, 2), (1, 4), (4, 1), (2, 3)] {
        for mode in MODES {
            let pred = analyze_2d(&a, &b, pr, pc, mode);
            let u = Universe::new(pr * pc);
            let reps = u.run(|comm| {
                let grid = Grid2D::new(comm, pr, pc);
                let da = DistMat2D::from_global(&grid, &a);
                let db = DistMat2D::from_global(&grid, &b);
                let stats0 = comm.stats();
                let (_c, rep) = spgemm_summa_2d_sa(comm, &grid, &da, &db, mode);
                (rep, comm.stats() - stats0)
            });
            for (rank, (rep, delta)) in reps.iter().enumerate() {
                let rc = &pred.per_rank[rank];
                let tag = format!("{pr}x{pc} {mode:?} rank {rank}");
                assert_eq!(rc.a_fetch_bytes, rep.a_fetched_bytes, "{tag}: A bytes");
                assert_eq!(rc.a_rdma_msgs, rep.a_rdma_msgs, "{tag}: A msgs");
                assert_eq!(rc.b_request_bytes, rep.b_request_bytes, "{tag}: B req");
                assert_eq!(rc.b_served_bytes, rep.b_served_bytes, "{tag}: B served");
                assert_eq!(rc.b_shipped_bytes, rep.b_shipped_bytes, "{tag}: B shipped");
                assert_eq!(rc.meta_bytes, rep.meta_bytes, "{tag}: meta bytes");
                assert_eq!(
                    rc.a_fetch_bytes + rep.b_request_bytes + rep.b_served_bytes + rep.meta_bytes,
                    delta.injected_bytes(),
                    "{tag}: every injected byte accounted"
                );
            }
            let injected: u64 = reps.iter().map(|(_, d)| d.injected_bytes()).sum();
            let inj_msgs: u64 = reps.iter().map(|(_, d)| d.injected_msgs()).sum();
            assert_eq!(pred.aware.meta.bytes + pred.aware.data.bytes, injected);
            assert_eq!(pred.aware.meta.msgs + pred.aware.data.msgs, inj_msgs);
        }
    }
}

#[test]
fn analyze_2d_predicts_oblivious_summa_exactly() {
    let a = rmat(6, 6, (0.57, 0.19, 0.19, 0.05), 3);
    let pred = analyze_2d(&a, &a, 2, 2, FetchMode::ColumnExact);
    let obl = pred.oblivious.expect("square grid stages align");
    let u = Universe::new(4);
    let deltas = u.run(|comm| {
        let grid = Grid2D::square(comm);
        let da = DistMat2D::from_global(&grid, &a);
        let db = da.clone();
        let stats0 = comm.stats();
        let (_c, _rep) = spgemm_summa_2d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
        comm.stats() - stats0
    });
    let injected: u64 = deltas.iter().map(|d| d.injected_bytes()).sum();
    let inj_msgs: u64 = deltas.iter().map(|d| d.injected_msgs()).sum();
    assert_eq!(obl.data.bytes, injected, "oblivious bytes");
    assert_eq!(obl.data.msgs, inj_msgs, "oblivious msgs");
    // rectangular stage cut (uniform over pr != pc) does not align
    assert!(analyze_2d(&a, &a, 2, 3, FetchMode::ColumnExact)
        .oblivious
        .is_none());
}

#[test]
fn analyze_3d_predicts_metered_traffic_exactly() {
    let a = int_er(40, 40, 3.5, 31);
    let b = int_er(40, 40, 3.0, 32);
    for (q, layers) in [(2, 2), (1, 4), (2, 1)] {
        let mode = FetchMode::Block(8);
        let pred = analyze_3d(&a, &b, q, layers, mode);
        let u = Universe::new(q * q * layers);
        let reps = u.run(|comm| {
            let grid = Grid3D::new(comm, q, layers);
            let da = DistMat3D::from_global_split_cols(&grid, &a);
            let db = DistMat3D::from_global_split_rows(&grid, &b);
            let ws = SpgemmWorkspace::new();
            let stats0 = comm.stats();
            let (_c, rep) =
                spgemm_split_3d_sa::<_, PlusTimes<f64>>(comm, &grid, &da, &db, mode, &ws);
            (rep, comm.stats() - stats0)
        });
        for (wr, (rep, _)) in reps.iter().enumerate() {
            assert_eq!(
                pred.per_rank_reduce[wr].bytes, rep.reduce_bytes,
                "{q}x{q}x{layers} rank {wr}: reduce bytes"
            );
        }
        let injected: u64 = reps.iter().map(|(_, d)| d.injected_bytes()).sum();
        let inj_msgs: u64 = reps.iter().map(|(_, d)| d.injected_msgs()).sum();
        assert_eq!(
            pred.aware.meta.bytes + pred.aware.data.bytes,
            injected,
            "{q}x{q}x{layers}: total bytes"
        );
        assert_eq!(
            pred.aware.meta.msgs + pred.aware.data.msgs,
            inj_msgs,
            "{q}x{q}x{layers}: total msgs"
        );
    }
}

#[test]
fn steady_state_2d_multiplies_allocate_nothing() {
    let a = erdos_renyi(120, 120, 4.0, 5);
    let u = Universe::new(4);
    let results = u.run(|comm| {
        let grid = Grid2D::square(comm);
        let da = DistMat2D::from_global(&grid, &a);
        let db = da.clone();
        let aware_ws = SpgemmWorkspace::new();
        let obl_ws = SpgemmWorkspace::new();
        let aware = |ws: &SpgemmWorkspace<f64>| {
            try_spgemm_summa_2d_sa::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::default(),
                ws,
            )
            .unwrap()
            .0
        };
        let obl = |ws: &SpgemmWorkspace<f64>| spgemm_summa_2d(comm, &grid, &da, &db, ws).0;
        let first_aware = aware(&aware_ws);
        let first_obl = obl(&obl_ws);
        let _ = (aware(&aware_ws), obl(&obl_ws)); // second warm-up settles sizes
        let (warm_a, warm_o) = (aware_ws.counters(), obl_ws.counters());
        for _ in 0..3 {
            assert_eq!(aware(&aware_ws).local(), first_aware.local());
            assert_eq!(obl(&obl_ws).local(), first_obl.local());
        }
        (warm_a, aware_ws.counters(), warm_o, obl_ws.counters())
    });
    for (warm_a, steady_a, warm_o, steady_o) in results {
        for (warm, steady, label) in [(warm_a, steady_a, "aware"), (warm_o, steady_o, "oblivious")]
        {
            assert!(warm.total_allocs() > 0, "{label}: warm-up does allocate");
            assert_eq!(
                steady.scratch_allocs, warm.scratch_allocs,
                "{label}: steady state creates no scratch"
            );
            assert_eq!(
                steady.chunk_allocs, warm.chunk_allocs,
                "{label}: steady state creates no chunk buffers"
            );
            assert_eq!(
                steady.idx_allocs, warm.idx_allocs,
                "{label}: steady state creates no index buffers"
            );
            assert!(
                steady.chunk_reuses > warm.chunk_reuses,
                "{label}: steady state is served from the pools"
            );
        }
    }
}

#[test]
fn steady_state_3d_multiplies_allocate_nothing() {
    let a = erdos_renyi(96, 96, 4.0, 8);
    let u = Universe::new(8);
    let results = u.run(|comm| {
        let grid = Grid3D::new(comm, 2, 2);
        let da = DistMat3D::from_global_split_cols(&grid, &a);
        let db = DistMat3D::from_global_split_rows(&grid, &a);
        let ws = SpgemmWorkspace::new();
        let run = || {
            spgemm_split_3d_sa::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::default(),
                &ws,
            )
            .0
        };
        let obl_ws = SpgemmWorkspace::new();
        let obl = || spgemm_split_3d(comm, &grid, &da, &db, &obl_ws).0;
        let first = run();
        let first_obl = obl();
        let _ = (run(), obl());
        let (warm, warm_o) = (ws.counters(), obl_ws.counters());
        for _ in 0..3 {
            assert_eq!(run().local, first.local);
            assert_eq!(obl().local, first_obl.local);
        }
        (warm, ws.counters(), warm_o, obl_ws.counters())
    });
    for (warm, steady, warm_o, steady_o) in results {
        for (w, s) in [(warm, steady), (warm_o, steady_o)] {
            assert_eq!(s.scratch_allocs, w.scratch_allocs);
            assert_eq!(s.chunk_allocs, w.chunk_allocs);
            assert_eq!(s.idx_allocs, w.idx_allocs);
        }
    }
}
