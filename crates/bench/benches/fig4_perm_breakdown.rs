//! Figure 4: impact of permutation strategy on the sparsity-aware 1D
//! SpGEMM's per-rank time breakdown, squaring hv15r (original vs random)
//! and eukarya (original vs random vs METIS).
//!
//! Paper: on hv15r, keeping the original ordering cuts communication time
//! 16.86× (5725.5 ms → 339.4 ms), a 5.73× end-to-end speedup; on eukarya
//! the natural order has no structure and METIS gives 2.05× over random
//! (excluding partitioning cost; 1.27× including it).
//!
//! Two totals are reported: measured wall time (all phases on this
//! machine) and the hybrid modeled total (measured compute, symbolic and
//! assemble, α–β-modeled fetch) — the latter carries the paper's comm/comp
//! balance, which a shared-memory interconnect compresses.

use sa_bench::*;
use sa_dist::SpgemmReport;
use sa_mpisim::PhaseTimes;
use sa_sparse::gen::Dataset;

fn main() {
    banner(
        "Fig 4",
        "permutation impact on squaring time breakdown (1D algorithm)",
        "hv15r: original beats random ~5.7x total, ~17x comm; eukarya: METIS beats random ~2x",
    );
    let p = 16;
    for d in [Dataset::Hv15rLike, Dataset::EukaryaLike] {
        let a = load(d);
        let mut per_strategy: Vec<(String, Vec<SpgemmReport>, f64)> = Vec::new();
        for strat in strategies_for(d) {
            let (reps, prep_s) = square_1d(&a, p, strat, plan());
            let phases: Vec<PhaseTimes> = reps.iter().map(|r| r.phases).collect();
            print_rank_phases(&format!("{} / {}", d.name(), strat.name()), &phases);
            if prep_s > 0.0 {
                println!("# preprocessing time ({}): {} ms", strat.name(), ms(prep_s));
            }
            per_strategy.push((strat.name().to_string(), reps, prep_s));
        }
        let find = |name: &str| per_strategy.iter().find(|(n, _, _)| n == name);
        let measured = |reps: &[SpgemmReport]| {
            reps.iter()
                .map(|r| r.phases.total_s())
                .fold(0.0f64, f64::max)
        };
        let comm_measured =
            |reps: &[SpgemmReport]| reps.iter().map(|r| r.phases.fetch_s).fold(0.0f64, f64::max);
        if let Some((_, rand_reps, _)) = find("random") {
            if d == Dataset::Hv15rLike {
                let (_, orig_reps, _) = find("original").unwrap();
                println!(
                    "## {}: random/original comm ratio {:.2}x measured, {:.2}x by volume (paper 16.9x); \
                     total speedup {:.2}x measured, {:.2}x modeled (paper 5.73x)",
                    d.name(),
                    comm_measured(rand_reps) / comm_measured(orig_reps).max(1e-9),
                    rand_reps[0].fetched_bytes_global as f64
                        / orig_reps[0].fetched_bytes_global.max(1) as f64,
                    measured(rand_reps) / measured(orig_reps),
                    modeled_critical_path(rand_reps) / modeled_critical_path(orig_reps),
                );
            } else if let Some((_, metis_reps, prep_s)) = find("metis") {
                println!(
                    "## {}: metis speedup over random {:.2}x measured / {:.2}x modeled excl. partitioning \
                     (paper 2.05x), {:.2}x incl. (paper 1.27x); partition cost {} ms",
                    d.name(),
                    measured(rand_reps) / measured(metis_reps),
                    modeled_critical_path(rand_reps) / modeled_critical_path(metis_reps),
                    measured(rand_reps) / (measured(metis_reps) + prep_s),
                    ms(*prep_s)
                );
            }
        }
    }
}
