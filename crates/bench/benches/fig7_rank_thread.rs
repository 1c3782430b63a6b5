//! Figure 7: MPI ranks × OpenMP threads configuration sweep at a fixed
//! core budget `c = p · t`, squaring hv15r with the 1D algorithm.
//!
//! Paper: intermediate configurations win — few ranks suffer serial
//! packing/copy overhead, many ranks become communication-dominated.

use sa_bench::*;
use sa_dist::{prepare, spgemm_1d, DistMat1D, Strategy};

use sa_sparse::gen::Dataset;

fn main() {
    banner(
        "Fig 7",
        "p (ranks) x t (threads) sweep at fixed core budget, hv15r squaring",
        "intermediate rank counts (64..256 of 1024 cores) are fastest",
    );
    let a = load(Dataset::Hv15rLike);
    let budget = 16usize; // c = p*t kept constant
    row(&[
        "ranks_p".into(),
        "threads_t".into(),
        "total_ms".into(),
        "comm_ms_max".into(),
        "comp_ms_max".into(),
        "other_ms_max".into(),
    ]);
    let mut results = Vec::new();
    for p in [1usize, 2, 4, 8, 16] {
        let t = budget / p;
        let prep = prepare(&a, p, Strategy::Original);
        let u = universe_with_threads(p, t);
        let reps = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &prep.a, &prep.offsets);
            let db = da.clone();
            let (_c, rep) = spgemm_1d(comm, &da, &db, &plan());
            rep.phases
        });
        let total = critical_path(&reps);
        row(&[
            p.to_string(),
            t.to_string(),
            ms(total),
            ms(max_phase(&reps, |p| p.fetch_s)),
            ms(max_phase(&reps, |p| p.compute_s)),
            ms(max_phase(&reps, |p| p.symbolic_s + p.assemble_s)),
        ]);
        results.push((p, total));
    }
    let best = results
        .iter()
        .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
        .unwrap();
    println!(
        "## best configuration: p={} (paper: intermediate p wins; extremes lose to serial overhead / comm dominance)",
        best.0
    );
}
