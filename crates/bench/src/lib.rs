//! Shared harness for the figure/table regeneration benches.
//!
//! Every `cargo bench --bench figN_*` target prints the same series the
//! paper's figure plots, as a CSV-ish table plus a "paper claim vs measured"
//! summary line that EXPERIMENTS.md records. Beyond the paper's figures,
//! `--bench session_cache` plots the cross-iteration fetch-cache curves
//! (cumulative fetched volume flattening for BC batches / Galerkin resetup /
//! MCL — the `SpgemmSession` subsystem's claim).
//!
//! Environment knobs:
//! * `SA_SCALE` = `tiny` | `small` (default) | `medium` — dataset sizes;
//! * `SA_QUICK=1` — fewer rank counts / iterations for smoke runs;
//! * `SA_REPS=n` — repetitions per measurement (best kept);
//! * `SA_BACKEND` = `sim` (default) | `threads` | `procs`, or the
//!   `--backend <name>` bench argument — which communicator backend
//!   executes the simulated ranks (the serial rank-loop, truly-parallel
//!   threads, or one OS process per rank over Unix socket pairs; every
//!   rank holds a [`RankComm`](sa_mpisim::RankComm)). Metered traffic is
//!   byte-identical across all three; only wall-clock changes.
//!
//! Harness map: [`plan`]/[`scale`]/[`load`] configure a run,
//! [`square_1d`] executes the canonical squaring workload,
//! [`banner`]/[`row`]/[`mb`]/[`ms`]/[`print_rank_phases`] format the
//! output, [`critical_path`]/[`max_phase`] read the per-rank
//! [`PhaseTimes`], and
//! [`model`]/[`modeled_total`]/[`modeled_critical_path`] apply the α–β
//! network model to the exact metered traffic.

use sa_dist::{
    prepare, spgemm_1d, DistMat1D, FetchMode, Plan1D, PrepResult, SpgemmReport, Strategy,
};
use sa_mpisim::{Backend, CostModel, PhaseTimes, Universe};
use sa_sparse::gen::{Dataset, Scale};
use sa_sparse::spgemm::Kernel;
use sa_sparse::stats::summarize;
use sa_sparse::Csc;

pub use sa_dist::Strategy as Strat;

/// Dataset scale from the environment.
pub fn scale() -> Scale {
    Scale::from_env()
}

/// The 1D plan used by the benches. The paper's K = 2048 assumes millions
/// of nonzero columns per rank; our scaled datasets have thousands, so the
/// same ~15-columns-per-block granularity lands at K = 256.
pub fn plan() -> Plan1D {
    Plan1D {
        fetch_mode: FetchMode::Block(256),
        kernel: Kernel::Hybrid,
        global_stats: true,
        ..Default::default()
    }
}

/// The communicator backend the benches run on: `--backend <name>` in the
/// bench arguments wins, then `SA_BACKEND`, then the serial simulator.
/// Benches that call [`run_square_prepared`] (directly or through
/// [`square_1d`]) honor both spellings; benches that spin up a
/// [`Universe`] themselves and call `Universe::run` honor `SA_BACKEND`
/// only. Every launch runs on all three backends.
pub fn backend() -> Backend {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--backend" {
            let v = args.next().expect("--backend requires a value");
            return Backend::parse(&v)
                .unwrap_or_else(|| panic!("--backend {v}: expected 'sim', 'threads', or 'procs'"));
        }
    }
    Backend::from_env()
}

/// The `SA_THREADS` knob, if set to a positive integer.
fn sa_threads() -> Option<usize> {
    std::env::var("SA_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
}

/// Compute threads per simulated rank (`SA_THREADS`, default 1 — the
/// paper's rank-dominant end of the `c = p·t` space). Honored by every
/// bench that spins up a [`Universe`].
pub fn threads_per_rank() -> usize {
    sa_threads().unwrap_or(1)
}

/// The [`Universe`] the benches run on: like `Universe::with_threads`,
/// but with the stall watchdog ON by default (10 minutes), so a deadlocked
/// or wedged configuration fails typed instead of hanging a sweep
/// overnight. `SA_WATCHDOG_SECS` still wins when set — including `0` to
/// disable the deadline.
pub fn universe_with_threads(p: usize, t: usize) -> Universe {
    let u = Universe::with_threads(p, t);
    if u.watchdog().is_some() || std::env::var("SA_WATCHDOG_SECS").is_ok() {
        u
    } else {
        u.with_watchdog(Some(std::time::Duration::from_secs(600)))
    }
}

/// [`universe_with_threads`] at the `SA_THREADS` thread count.
pub fn universe(p: usize) -> Universe {
    universe_with_threads(p, threads_per_rank())
}

/// Thread counts for the local-kernel scheduling sweep (`sched_compare`):
/// `SA_THREADS` pins a single count, `SA_QUICK` trims the sweep.
pub fn thread_sweep() -> Vec<usize> {
    if let Some(n) = sa_threads() {
        return vec![n];
    }
    if std::env::var("SA_QUICK").is_ok() {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Repetitions per measurement (best run kept, washing out cold-start
/// effects: pool spin-up, first-touch page faults). `SA_REPS` overrides.
pub fn reps() -> usize {
    std::env::var("SA_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Run `f` `n` times, keep the result with the smallest time key.
pub fn best_of<T>(n: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut best = f();
    for _ in 1..n {
        let next = f();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// Hybrid time estimate for one rank's 1D multiply: measured local work
/// plus α–β-modeled network time for the exact metered traffic. Used where
/// the figure's shape depends on network constants a shared-memory machine
/// cannot reproduce (see DESIGN.md §"Measurement conventions").
pub fn modeled_total(rep: &SpgemmReport) -> f64 {
    let p = &rep.phases;
    p.compute_s + other_s(p) + model().time_s(rep.rdma_msgs, rep.fetched_bytes)
}

/// Max modeled total across ranks.
pub fn modeled_critical_path(reps: &[SpgemmReport]) -> f64 {
    reps.iter().map(modeled_total).fold(0.0, f64::max)
}

/// Simulated-rank counts for strong-scaling sweeps (perfect squares so the
/// 2D/3D grids are valid; the paper's CombBLAS convention).
pub fn rank_counts() -> Vec<usize> {
    if std::env::var("SA_QUICK").is_ok() {
        vec![4, 9]
    } else {
        vec![4, 9, 16, 25]
    }
}

/// Header banner for a bench target.
pub fn banner(fig: &str, what: &str, claim: &str) {
    println!("\n=== {fig}: {what} ===");
    println!("paper claim: {claim}");
    println!("scale: {:?}", scale());
}

/// Print a CSV row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join(","));
}

/// ms formatting.
pub fn ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

/// MB formatting.
pub fn mb(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / 1e6)
}

/// The α–β model used for modeled communication times.
pub fn model() -> CostModel {
    CostModel::slingshot()
}

/// One squaring run of the sparsity-aware 1D algorithm under a strategy.
/// Returns per-rank reports plus the preprocessing seconds.
pub fn square_1d(
    a: &Csc<f64>,
    p: usize,
    strategy: Strategy,
    plan: Plan1D,
) -> (Vec<SpgemmReport>, f64) {
    let prep = prepare(a, p, strategy);
    let reports = run_square_prepared(&prep, p, plan);
    (reports, prep.prep_seconds)
}

/// Squaring on an already-prepared (permuted + offset) matrix; best of
/// [`reps`] runs by whole-universe wall time (launch to join). Executes on
/// the backend selected by [`backend`] (the serial simulator unless
/// `SA_BACKEND`/`--backend` overrides).
pub fn run_square_prepared(prep: &PrepResult, p: usize, plan: Plan1D) -> Vec<SpgemmReport> {
    let be = backend();
    let (_wall, reports) = best_of(reps(), || {
        let u = universe(p);
        let t0 = std::time::Instant::now();
        // launch(be, ..) pins the backend: a `--backend` argument must win
        // over any SA_BACKEND in the environment
        let reports = u.launch(be, |comm| {
            let da = DistMat1D::from_global(comm, &prep.a, &prep.offsets);
            let db = da.clone();
            spgemm_1d(comm, &da, &db, &plan).1
        });
        (t0.elapsed().as_secs_f64(), reports)
    });
    reports
}

/// The paper's *other* bucket: everything but fetch and compute.
fn other_s(p: &PhaseTimes) -> f64 {
    p.symbolic_s + p.assemble_s
}

/// Print the per-rank breakdown block the paper's Figs. 4/8/10 show:
/// every rank's four phases in ms, the paper's *other* column (symbolic +
/// assemble; its comm and comp are fetch and compute) and the total, then
/// a median/max summary of comm / comp / other / total.
///
/// Caveat (see [`PhaseTimes`]): under the default serial backend the fetch
/// column of a rank that *blocked* includes other ranks' serialized
/// execution — it is "time until the data was ready", not wait skew. The
/// figure-shape conclusions in the benches therefore rest on compute and
/// modeled columns ([`modeled_total`]), which are backend-independent.
pub fn print_rank_phases(label: &str, phases: &[PhaseTimes]) {
    println!("# per-rank phases: {label}");
    row(&[
        "rank".into(),
        "symbolic_ms".into(),
        "fetch_ms".into(),
        "compute_ms".into(),
        "assemble_ms".into(),
        "other_ms".into(),
        "total_ms".into(),
    ]);
    for (r, p) in phases.iter().enumerate() {
        row(&[
            r.to_string(),
            ms(p.symbolic_s),
            ms(p.fetch_s),
            ms(p.compute_s),
            ms(p.assemble_s),
            ms(other_s(p)),
            ms(p.total_s()),
        ]);
    }
    let column = |f: fn(&PhaseTimes) -> f64| summarize(&phases.iter().map(f).collect::<Vec<_>>());
    let (sc, sp) = (column(|p| p.fetch_s), column(|p| p.compute_s));
    let (so, st) = (column(other_s), column(PhaseTimes::total_s));
    println!(
        "# summary {label}: comm (fetch) med {} max {} | comp (compute) med {} max {} | \
         other (symbolic+assemble) med {} max {} | total med {} max {} (ms)",
        ms(sc.median),
        ms(sc.max),
        ms(sp.median),
        ms(sp.max),
        ms(so.median),
        ms(so.max),
        ms(st.median),
        ms(st.max)
    );
}

/// The slowest rank's total — the paper's time-to-solution for a phase.
pub fn critical_path(reps: &[PhaseTimes]) -> f64 {
    max_phase(reps, PhaseTimes::total_s)
}

/// Max across ranks of one phase.
pub fn max_phase(reps: &[PhaseTimes], f: impl Fn(&PhaseTimes) -> f64) -> f64 {
    reps.iter().map(f).fold(0.0, f64::max)
}

/// Build a dataset at the bench scale.
pub fn load(d: Dataset) -> Csc<f64> {
    d.build(scale())
}

/// Strategies the paper compares for a dataset in the 1D algorithm
/// (eukarya gets METIS; the naturally-structured ones don't need it).
pub fn strategies_for(d: Dataset) -> Vec<Strategy> {
    let mut v = vec![Strategy::Original, Strategy::RandomPerm { seed: 99 }];
    if !d.naturally_structured() {
        v.push(Strategy::Partition {
            seed: 1,
            epsilon: 0.05,
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_smoke() {
        std::env::set_var("SA_SCALE", "tiny");
        let a = load(Dataset::Hv15rLike);
        let (reps, prep_s) = square_1d(&a, 4, Strategy::Original, Plan1D::default());
        assert_eq!(reps.len(), 4);
        assert_eq!(prep_s, 0.0);
        let phases: Vec<PhaseTimes> = reps.iter().map(|r| r.phases).collect();
        assert!(critical_path(&phases) > 0.0);
    }
}
