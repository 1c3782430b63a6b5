//! Figure 11: strong scaling of the RᵀA operation on four datasets, plus
//! the algorithm comparison on queen for the full restriction pipeline
//! (RᵀA + (RᵀA)R summed, RᵀA dominant).
//!
//! Paper: scaling saturates (insufficient workload in R); the 1D variant
//! beats the 2D and 3D algorithms on queen.

use sa_apps::galerkin::{galerkin_product, RightAlgo};
use sa_apps::restriction::restriction_operator;
use sa_bench::*;
use sa_dist::mat3d::DistMat3D;
use sa_dist::{prepare, spgemm_split_3d, spgemm_summa_2d, DistMat1D, DistMat2D, Strategy};
use sa_mpisim::{Comm, Grid2D, Grid3D};
use sa_sparse::gen::Dataset;
use sa_sparse::SpgemmWorkspace;
use std::time::Instant;

fn main() {
    banner(
        "Fig 11",
        "RtA strong scaling (4 datasets) + full Galerkin algorithm comparison on queen",
        "RtA stops scaling at high P (small workload); 1D beats 2D/3D on queen",
    );

    // --- panel 1: RtA scaling across datasets with the 1D algorithm ---
    row(&["matrix".into(), "P".into(), "rta_1d_ms".into()]);
    for d in Dataset::SCALING_SET {
        let a = load(d);
        let r = restriction_operator(&a, 42);
        let rt = r.transpose();
        for p in rank_counts() {
            let prep = prepare(&a, p, Strategy::Original);
            let u = universe(p);
            let times = u.run(|comm| {
                let da = DistMat1D::from_global(comm, &prep.a, &prep.offsets);
                let drt = DistMat1D::from_global(comm, &rt, &prep.offsets);
                let t0 = Instant::now();
                let (_rta, _rep) = sa_dist::spgemm_1d(comm, &drt, &da, &plan());
                t0.elapsed().as_secs_f64()
            });
            row(&[
                d.name().into(),
                p.to_string(),
                ms(times.into_iter().fold(0.0f64, f64::max)),
            ]);
        }
    }

    // --- panel 2: full Galerkin (RtA + (RtA)R) on queen, all algorithms ---
    println!("\n# queen: full restriction pipeline by algorithm");
    row(&["P".into(), "algo".into(), "total_ms".into()]);
    let a = load(Dataset::QueenLike);
    let r = restriction_operator(&a, 42);
    for p in rank_counts() {
        // 1D (left: Alg.1, right: outer-product per the paper's §III-C)
        let u = universe(p);
        let t1d = u
            .run(|comm| {
                let offsets = sa_dist::uniform_offsets(a.ncols(), comm.size());
                let da = DistMat1D::from_global(comm, &a, &offsets);
                let t0 = Instant::now();
                let (_c, _rep) = galerkin_product(comm, &da, &r, RightAlgo::Outer, &plan());
                t0.elapsed().as_secs_f64()
            })
            .into_iter()
            .fold(0.0f64, f64::max);
        row(&[p.to_string(), "1D".into(), ms(t1d)]);

        // 2D SUMMA: Rt*A then (RtA)*R on the grid (random permuted A, as
        // the sparsity-oblivious pipeline requires)
        let prep = prepare(&a, p, Strategy::RandomPerm { seed: 4 });
        let r_perm = sa_sparse::permute::permute(
            &r,
            prep.perm.as_ref().unwrap(),
            &sa_sparse::Perm::identity(r.ncols()),
        );
        let rt_perm = r_perm.transpose();
        let u = universe(p);
        let t2d = u
            .run(|comm| {
                let grid = Grid2D::square(comm);
                let da = DistMat2D::from_global(&grid, &prep.a);
                let drt = DistMat2D::from_global(&grid, &rt_perm);
                let dr = DistMat2D::from_global(&grid, &r_perm);
                let t0 = Instant::now();
                let (rta, _) = spgemm_summa_2d(comm, &grid, &drt, &da, &SpgemmWorkspace::new());
                let (_c, _) = spgemm_summa_2d(comm, &grid, &rta, &dr, &SpgemmWorkspace::new());
                t0.elapsed().as_secs_f64()
            })
            .into_iter()
            .fold(0.0f64, f64::max);
        row(&[p.to_string(), "2D".into(), ms(t2d)]);

        // 3D split (best c), same permuted operands
        let mut best: Option<(usize, f64)> = None;
        for c in sa_mpisim::valid_layer_counts(p) {
            if c > 8 && c != p {
                continue;
            }
            let q = ((p / c) as f64).sqrt().round() as usize;
            let u = universe(p);
            let t = u
                .run(|comm| {
                    let grid = Grid3D::new(comm, q, c);
                    let drt = DistMat3D::from_global_split_cols(&grid, &rt_perm);
                    let da = DistMat3D::from_global_split_rows(&grid, &prep.a);
                    let t0 = Instant::now();
                    // left multiplication (dominant per the paper)
                    let (_rta, _) =
                        spgemm_split_3d(comm, &grid, &drt, &da, &SpgemmWorkspace::new());
                    t0.elapsed().as_secs_f64()
                })
                .into_iter()
                .fold(0.0f64, f64::max);
            if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                best = Some((c, t));
            }
        }
        let (c_best, t3d) = best.unwrap();
        row(&[p.to_string(), format!("3D(c={c_best},RtA only)"), ms(t3d)]);
        println!(
            "## queen P={p}: 1D full pipeline vs 2D full {:.2}x (paper: 1D fastest)",
            t2d / t1d
        );
    }
}
