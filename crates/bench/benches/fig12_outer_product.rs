//! Figure 12: the right Galerkin multiplication `(RᵀA)·R` — sparsity-aware
//! 1D (Algorithm 1) vs outer-product 1D (Algorithm 3).
//!
//! Paper: the outer-product algorithm wins for this shape.

use sa_apps::restriction::restriction_operator;
use sa_bench::*;
use sa_dist::{spgemm_1d, spgemm_outer_1d, uniform_offsets, DistMat1D};
use sa_mpisim::Comm;

use sa_sparse::gen::Dataset;
use std::time::Instant;

fn main() {
    banner(
        "Fig 12",
        "(RtA)R: sparsity-aware 1D vs outer-product 1D",
        "outer-product is the better 1D algorithm for the right multiplication",
    );
    row(&[
        "matrix".into(),
        "P".into(),
        "right_1d_ms".into(),
        "right_outer_ms".into(),
        "outer_speedup".into(),
    ]);
    for d in [Dataset::QueenLike, Dataset::StokesLike] {
        let a = load(d);
        let r = restriction_operator(&a, 42);
        let rt = r.transpose();
        for p in rank_counts() {
            let u = universe(p);
            let pair = u.run(|comm| {
                let offsets = uniform_offsets(a.ncols(), comm.size());
                let da = DistMat1D::from_global(comm, &a, &offsets);
                let drt = DistMat1D::from_global(comm, &rt, &offsets);
                // left product once (shared input to both right variants)
                let (rta, _) = spgemm_1d(comm, &drt, &da, &plan());
                let r_offsets = uniform_offsets(r.ncols(), comm.size());
                let dr = DistMat1D::from_global(comm, &r, &r_offsets);
                let t0 = Instant::now();
                let (_c1, _) = spgemm_1d(comm, &rta, &dr, &plan());
                let t_1d = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let (_c2, _) = spgemm_outer_1d(comm, &rta, &dr);
                let t_outer = t0.elapsed().as_secs_f64();
                (t_1d, t_outer)
            });
            let t1d = pair.iter().map(|p| p.0).fold(0.0f64, f64::max);
            let tout = pair.iter().map(|p| p.1).fold(0.0f64, f64::max);
            row(&[
                d.name().into(),
                p.to_string(),
                ms(t1d),
                ms(tout),
                format!("{:.2}", t1d / tout.max(1e-12)),
            ]);
        }
    }
    println!("## expected shape: outer_speedup > 1 (paper Fig. 12)");
}
