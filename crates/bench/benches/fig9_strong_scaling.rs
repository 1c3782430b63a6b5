//! Figure 9: strong scaling of the squaring operation on four datasets,
//! comparing the sparsity-aware 1D algorithm (no permutation) against 2D
//! sparse SUMMA and split-3D (randomly permuted, reported with and without
//! permutation time; 3D uses the best layer count).
//!
//! Paper: 1D scales on all four; on hv15r and queen it is an order of
//! magnitude faster than 2D/3D even counting only their kernel time; on
//! stokes and nlpkkt200 it wins once permutation time is included.

use sa_bench::*;
use sa_dist::mat3d::DistMat3D;
use sa_dist::{prepare, spgemm_split_3d, spgemm_summa_2d, DistMat2D, Strategy};
use sa_mpisim::{Grid2D, Grid3D};
use sa_sparse::gen::Dataset;
use sa_sparse::SpgemmWorkspace;
use std::time::Instant;

fn main() {
    banner(
        "Fig 9",
        "strong scaling of squaring: 1D vs 2D vs 3D (4 datasets)",
        "1D fastest on structured inputs (~10x on hv15r/queen); beats 2D/3D everywhere once permutation time counts",
    );
    row(&[
        "matrix".into(),
        "P".into(),
        "algo".into(),
        "kernel_ms".into(),
        "kernel_plus_perm_ms".into(),
    ]);
    for d in Dataset::SCALING_SET {
        let a = load(d);
        for p in rank_counts() {
            // --- sparsity-aware 1D, original ordering (no permutation) ---
            let (reps, _) = square_1d(&a, p, Strategy::Original, plan());
            let t1d = reps
                .iter()
                .map(|r| r.phases.total_s())
                .fold(0.0f64, f64::max);
            row(&[
                d.name().into(),
                p.to_string(),
                "1D".into(),
                ms(t1d),
                ms(t1d),
            ]);

            // --- 2D SUMMA with random permutation ---
            let prep = prepare(&a, p, Strategy::RandomPerm { seed: 5 });
            let u = universe(p);
            let t2d = {
                let times = u.run(|comm| {
                    let grid = Grid2D::square(comm);
                    let da = DistMat2D::from_global(&grid, &prep.a);
                    let db = da.clone();
                    let t0 = Instant::now();
                    let (_c, _rep) =
                        spgemm_summa_2d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
                    t0.elapsed().as_secs_f64()
                });
                times.into_iter().fold(0.0f64, f64::max)
            };
            row(&[
                d.name().into(),
                p.to_string(),
                "2D".into(),
                ms(t2d),
                ms(t2d + prep.prep_seconds),
            ]);

            // --- 3D split, best layer count ---
            let mut best: Option<(usize, f64)> = None;
            for c in sa_mpisim::valid_layer_counts(p) {
                if c > 8 && c != p {
                    continue; // skip silly middle grounds at bench scale
                }
                let q2 = p / c;
                let q = (q2 as f64).sqrt().round() as usize;
                let u = universe(p);
                let times = u.run(|comm| {
                    let grid = Grid3D::new(comm, q, c);
                    let da = DistMat3D::from_global_split_cols(&grid, &prep.a);
                    let db = DistMat3D::from_global_split_rows(&grid, &prep.a);
                    let t0 = Instant::now();
                    let (_c, _rep) =
                        spgemm_split_3d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
                    t0.elapsed().as_secs_f64()
                });
                let t = times.into_iter().fold(0.0f64, f64::max);
                if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    best = Some((c, t));
                }
            }
            let (c_best, t3d) = best.unwrap();
            row(&[
                d.name().into(),
                p.to_string(),
                format!("3D(c={c_best})"),
                ms(t3d),
                ms(t3d + prep.prep_seconds),
            ]);
            println!(
                "## {} P={p}: 1D vs best-of(2D,3D) kernel-only speedup {:.2}x; incl. perm {:.2}x",
                d.name(),
                t2d.min(t3d) / t1d,
                (t2d.min(t3d) + prep.prep_seconds) / t1d
            );
        }
    }
}
