//! Figure 10: per-rank time breakdown of the RᵀA (left Galerkin)
//! multiplication on queen, original ordering vs random permutation.
//!
//! Paper: the original ordering significantly reduces communication and
//! computation time; "other" time dominates because the workload is small.

use sa_apps::restriction::restriction_operator;
use sa_bench::*;
use sa_dist::{prepare, spgemm_1d, DistMat1D, Strategy};
use sa_mpisim::PhaseTimes;
use sa_sparse::gen::Dataset;
use sa_sparse::permute::permute;

fn main() {
    banner(
        "Fig 10",
        "RtA per-rank breakdown on queen: original vs random permutation",
        "original order cuts comm+comp; 'other' dominates (workload too small)",
    );
    let p = 16;
    let a = load(Dataset::QueenLike);
    let r = restriction_operator(&a, 42);
    for strat in [Strategy::Original, Strategy::RandomPerm { seed: 3 }] {
        let prep = prepare(&a, p, strat);
        // permute R's fine dimension consistently with A's relabeling
        let r_used = match &prep.perm {
            Some(perm) => permute(&r, perm, &sa_sparse::Perm::identity(r.ncols())),
            None => r.clone(),
        };
        let rt = r_used.transpose();
        let u = universe(p);
        let phases: Vec<PhaseTimes> = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &prep.a, &prep.offsets);
            let drt = DistMat1D::from_global(comm, &rt, &prep.offsets);
            let (_rta, rep) = spgemm_1d(comm, &drt, &da, &plan());
            rep.phases
        });
        print_rank_phases(&format!("queen RtA / {}", strat.name()), &phases);
        println!(
            "## {}: other/total share {:.0}% (paper: other dominates)",
            strat.name(),
            100.0 * max_phase(&phases, |p| p.symbolic_s + p.assemble_s)
                / critical_path(&phases).max(1e-12)
        );
    }
}
