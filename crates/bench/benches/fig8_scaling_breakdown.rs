//! Figure 8: strong-scaling per-rank breakdown of the 1D algorithm on
//! hv15r squaring — load imbalance is visible at small P and tamed at
//! larger concurrency.

use sa_bench::*;
use sa_dist::Strategy;
use sa_sparse::gen::Dataset;
use sa_sparse::stats::summarize;

fn main() {
    banner(
        "Fig 8",
        "strong-scaling per-rank breakdown, hv15r squaring (1D, original order)",
        "some load imbalance is expected; it shrinks in impact at higher concurrency",
    );
    let a = load(Dataset::Hv15rLike);
    let ps: Vec<usize> = if std::env::var("SA_QUICK").is_ok() {
        vec![4, 16]
    } else {
        vec![4, 8, 16, 32]
    };
    for p in ps {
        let (reps, _) = square_1d(&a, p, Strategy::Original, plan());
        let phases: Vec<_> = reps.iter().map(|r| r.phases).collect();
        print_rank_phases(&format!("P={p}"), &phases);
        let totals: Vec<f64> = phases.iter().map(|p| p.total_s()).collect();
        let s = summarize(&totals);
        println!(
            "## P={p}: imbalance (max/mean) {:.2}",
            s.max / s.mean.max(1e-12)
        );
    }
}
