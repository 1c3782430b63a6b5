//! Cross-crate integration: all four distributed SpGEMM algorithms must
//! produce exactly the result of the serial reference, across shapes,
//! sparsities, structures, and process-grid geometries.

use saspgemm::dist::mat3d::DistMat3D;
use saspgemm::dist::reference::serial_spgemm;
use saspgemm::dist::{
    spgemm_1d, spgemm_outer_1d, spgemm_split_3d, spgemm_summa_2d, uniform_offsets, DistMat1D,
    DistMat2D, FetchMode, Plan1D,
};
use saspgemm::mpisim::{Grid2D, Grid3D, Universe};
use saspgemm::sparse::gen::{banded, erdos_renyi, rmat, sbm, stencil3d};
use saspgemm::sparse::{Csc, SpgemmWorkspace};

fn check_all_algorithms(a: &Csc<f64>, b: &Csc<f64>, label: &str) {
    let expect = serial_spgemm(a, b);

    // 1D sparsity-aware, several P and fetch modes
    for p in [2usize, 3, 5] {
        for mode in [FetchMode::Block(7), FetchMode::ColumnExact] {
            let u = Universe::new(p);
            let got = u
                .run(|comm| {
                    let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), p));
                    let db = DistMat1D::from_global(comm, b, &uniform_offsets(b.ncols(), p));
                    let plan = Plan1D {
                        fetch_mode: mode,
                        ..Default::default()
                    };
                    let (c, _) = spgemm_1d(comm, &da, &db, &plan);
                    c.gather(comm)
                })
                .remove(0)
                .unwrap();
            assert!(
                got.max_abs_diff(&expect) < 1e-10,
                "{label}: 1D P={p} {mode:?}"
            );
        }
    }

    // outer-product 1D
    {
        let u = Universe::new(4);
        let got = u
            .run(|comm| {
                let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), 4));
                let db = DistMat1D::from_global(comm, b, &uniform_offsets(b.ncols(), 4));
                let (c, _) = spgemm_outer_1d(comm, &da, &db);
                c.gather(comm)
            })
            .remove(0)
            .unwrap();
        assert!(got.max_abs_diff(&expect) < 1e-10, "{label}: outer-1D");
    }

    // 2D SUMMA
    {
        let u = Universe::new(4);
        let got = u
            .run(|comm| {
                let grid = Grid2D::square(comm);
                let da = DistMat2D::from_global(&grid, a);
                let db = DistMat2D::from_global(&grid, b);
                let (c, _) = spgemm_summa_2d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
                c.gather(comm, &grid)
            })
            .remove(0)
            .unwrap();
        assert!(got.max_abs_diff(&expect) < 1e-10, "{label}: 2D SUMMA");
    }

    // 3D split, two geometries
    for (q, layers) in [(2usize, 2usize), (1, 4)] {
        let u = Universe::new(q * q * layers);
        let got = u
            .run(|comm| {
                let grid = Grid3D::new(comm, q, layers);
                let da = DistMat3D::from_global_split_cols(&grid, a);
                let db = DistMat3D::from_global_split_rows(&grid, b);
                let (c, _) = spgemm_split_3d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
                c.gather(comm)
            })
            .remove(0)
            .unwrap();
        assert!(
            got.max_abs_diff(&expect) < 1e-10,
            "{label}: 3D {q}x{q}x{layers}"
        );
    }
}

#[test]
fn random_square() {
    let a = erdos_renyi(64, 64, 5.0, 1);
    check_all_algorithms(&a, &a, "er_square");
}

#[test]
fn rectangular_chain() {
    let a = erdos_renyi(50, 36, 4.0, 2);
    let b = erdos_renyi(36, 44, 4.0, 3);
    check_all_algorithms(&a, &b, "rect");
}

#[test]
fn structured_stencil() {
    let a = stencil3d(5, 4, 4, true);
    check_all_algorithms(&a, &a, "stencil");
}

#[test]
fn banded_nonsymmetric() {
    let a = banded(70, 6, 0.5, false, 4);
    check_all_algorithms(&a, &a, "banded");
}

#[test]
fn powerlaw_graph() {
    let a = rmat(6, 6, (0.57, 0.19, 0.19, 0.05), 5);
    check_all_algorithms(&a, &a, "rmat");
}

#[test]
fn hidden_cluster_graph() {
    let a = sbm(80, 4, 8.0, 1.0, true, 6);
    check_all_algorithms(&a, &a, "sbm");
}

#[test]
fn hypersparse_input() {
    // nnz far below n: DCSC's home turf
    let a = erdos_renyi(400, 400, 0.05, 7);
    assert!(a.nnz() < 60);
    check_all_algorithms(&a, &a, "hypersparse");
}

#[test]
fn tall_skinny_times_short_fat() {
    let a = erdos_renyi(90, 8, 2.0, 8);
    let b = erdos_renyi(8, 90, 2.0, 9);
    check_all_algorithms(&a, &b, "outerish");
}

#[test]
fn empty_and_identity() {
    let z: Csc<f64> = Csc::zeros(30, 30);
    check_all_algorithms(&z, &z, "zero");
    let i = Csc::diagonal(&vec![1.0; 30]);
    let a = erdos_renyi(30, 30, 3.0, 10);
    check_all_algorithms(&i, &a, "identity_left");
    check_all_algorithms(&a, &i, "identity_right");
}
