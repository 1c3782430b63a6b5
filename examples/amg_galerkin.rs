//! AMG setup scenario: build a multilevel hierarchy of Galerkin products
//! `Rᵀ A R` from MIS-2 aggregation, the §IV-B workload (up to 80% of AMG
//! construction time in the paper's motivation).
//!
//! Run with: `cargo run --release --example amg_galerkin`

use saspgemm::apps::restriction::{restriction_operator, restriction_stats};
use saspgemm::prelude::*;
use saspgemm::sparse::gen;

fn main() {
    let p = 8;
    // A fine-level 3D Poisson-like operator (the queen_4147 structure class)
    let mut fine = gen::stencil3d(24, 24, 24, true);
    println!("AMG hierarchy via distributed Galerkin products on {p} ranks");
    println!("level 0: n = {}, nnz = {}", fine.nrows(), fine.nnz());

    let universe = Universe::new(p);
    for level in 1..=4 {
        if fine.nrows() < 200 {
            break;
        }
        // 1. coarse point selection + aggregation (MIS-2, Table III shape)
        let r = restriction_operator(&fine, 42 + level as u64);
        let s = restriction_stats(&r);
        assert!(r.nnz_per_row().iter().all(|&c| c == 1));

        // 2. distributed Galerkin product: RᵀA with the sparsity-aware 1D
        //    algorithm, (RᵀA)R with the outer-product algorithm (Fig. 12's
        //    winner)
        let r_ref = &r;
        let fine_ref = &fine;
        let mut results = universe.run(|comm| {
            let offsets = uniform_offsets(fine_ref.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, fine_ref, &offsets);
            let (coarse, rep) = saspgemm::apps::galerkin::galerkin_product(
                comm,
                &da,
                r_ref,
                saspgemm::apps::galerkin::RightAlgo::Outer,
                &Plan1D::default(),
            );
            (coarse.gather(comm).map(Wired), rep)
        });
        let (gathered, rep) = results.remove(0);
        let coarse = gathered.expect("rank 0 gathers").0;
        println!(
            "level {level}: n = {} ({:.1}x coarser), nnz = {}, RtA comm: {} RDMA msgs / {:.1} KB fetched",
            coarse.nrows(),
            s.coarsening_ratio,
            coarse.nnz(),
            rep.left.rdma_msgs,
            rep.left.fetched_bytes as f64 / 1e3,
        );
        fine = coarse;
    }
    println!("hierarchy complete — each level one distributed RtA + (RtA)R");
}
