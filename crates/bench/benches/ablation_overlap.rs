//! Ablation (the paper's noted-but-unimplemented optimization, §III-A):
//! overlapping the RDMA fetches with the local partial product.
//!
//! `spgemm_1d_overlap` computes `C = Ã_loc·B ⊕ Ã_rem·B`, running the
//! local partial product while the remote blocks are in flight. Traffic is
//! identical to Algorithm 1 (verified by tests); the question is wall
//! time: the win is bounded by min(comm, comp_loc) and is paid for with
//! one extra elementwise merge of the partial outputs.

use sa_bench::*;
use sa_dist::{
    prepare, spgemm_1d, spgemm_1d_overlap, spgemm_summa_2d_sa_ws_cfg, DistMat1D, DistMat2D,
    FetchMode, Strategy,
};
use sa_mpisim::{Backend, Comm, Grid2D, PrefetchConfig, RankJob};
use sa_sparse::gen::Dataset;
use sa_sparse::semiring::PlusTimes;
use sa_sparse::{Csc, SpgemmWorkspace};

/// 2D staged row: `iters` back-to-back sparsity-aware SUMMA multiplies,
/// the generic prefetch engine staging stage k+1's A-panel gets behind
/// stage k's foreground work (B request/ship + metadata walk + kernel).
struct Staged2D {
    a: Csc<f64>,
    pr: usize,
    pc: usize,
    iters: usize,
    cfg: PrefetchConfig,
}

impl RankJob for Staged2D {
    type Out = u64;
    fn run<C: Comm>(&self, comm: &C) -> u64 {
        let grid = Grid2D::new(comm, self.pr, self.pc);
        let da = DistMat2D::from_global(&grid, &self.a);
        let db = DistMat2D::from_global(&grid, &self.a);
        let ws = SpgemmWorkspace::new();
        let mut acc = 0u64;
        for _ in 0..self.iters {
            let (c, rep) = spgemm_summa_2d_sa_ws_cfg::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::Block(256),
                self.cfg,
                &ws,
            );
            acc ^= c.local().nnz() as u64 ^ rep.a_fetched_bytes;
        }
        acc
    }
}

/// Parent-side wall (launch to join) on the `backend()`-selected backend,
/// best of [`reps`] runs — the number that differs between overlap off/on.
fn staged_wall<J: RankJob>(p: usize, job: &J) -> f64 {
    let be = backend();
    let (wall, ()) = best_of(reps(), || {
        let u = universe(p);
        let t0 = std::time::Instant::now();
        let out = u.run_backend(be, job);
        assert_eq!(out.len(), p, "every rank must report");
        (t0.elapsed().as_secs_f64(), ())
    });
    wall
}

fn main() {
    banner(
        "Ablation",
        "communication/computation overlap in the 1D algorithm",
        "extension: paper notes 'no overlap between communication and computation'",
    );
    // Legacy 1D section: per-rank comm+comp sums from the report breakdown.
    // Uses Universe::run (an in-process closure), so it is skipped when the
    // selected backend is procs — the staged wall rows below cover procs.
    if backend() != Backend::Procs {
        row(&[
            "matrix".into(),
            "strategy".into(),
            "P".into(),
            "serial_ms_max".into(),
            "overlap_ms_max".into(),
            "speedup".into(),
        ]);
        // random ordering maximizes comm, making overlap potential visible;
        // original ordering shows the structured case where comm ≈ 0.
        for (d, strat) in [
            (Dataset::Hv15rLike, Strategy::Original),
            (Dataset::Hv15rLike, Strategy::RandomPerm { seed: 5 }),
            (Dataset::EukaryaLike, Strategy::Original),
        ] {
            let a = load(d);
            for p in [4, 16] {
                let prep = prepare(&a, p, strat);
                let am = prep.a.clone();
                let offsets = prep.offsets.clone();
                let u = universe(p);
                let pl = plan();
                let pairs = u.run(move |comm| {
                    let da = DistMat1D::from_global(comm, &am, &offsets);
                    let (_, r1) = spgemm_1d(comm, &da, &da.clone(), &pl);
                    let (_, r2) = spgemm_1d_overlap(comm, &da, &da.clone(), &pl);
                    (
                        r1.breakdown.comm_s + r1.breakdown.comp_s,
                        r2.breakdown.comm_s + r2.breakdown.comp_s,
                    )
                });
                let serial = pairs.iter().map(|x| x.0).fold(0.0f64, f64::max);
                let overlap = pairs.iter().map(|x| x.1).fold(0.0f64, f64::max);
                row(&[
                    d.name().into(),
                    strat.name().into(),
                    p.to_string(),
                    ms(serial),
                    ms(overlap),
                    format!("{:.2}", serial / overlap.max(1e-12)),
                ]);
            }
        }
        println!(
            "## expected shape: overlap ≥ 1x where comm is substantial (random ordering); \
             ≈ 1x where the sparsity-aware fetch already eliminated comm (original ordering)"
        );
    }

    // Staged wall rows (PR 10): the generic prefetch engine behind the 2D
    // SUMMA stages, overlap off vs on, measured as parent-side wall on the
    // SA_BACKEND/--backend-selected backend. On procs, GetReq/GetResp round-trips are genuinely
    // asynchronous, so the on-column's delta is hidden fetch time; on sim
    // the Prefetcher degrades to deterministic in-order issue and the
    // ratio pins ≈ 1 by design.
    println!(
        "\n## staged wall rows (backend={}): overlap off vs on, parent wall, best of {} runs",
        backend().name(),
        reps()
    );
    row(&[
        "workload".into(),
        "matrix".into(),
        "P".into(),
        "grid".into(),
        "iters".into(),
        "off_wall_ms".into(),
        "on_wall_ms".into(),
        "speedup".into(),
    ]);
    let quick = std::env::var("SA_QUICK").is_ok();
    let iters = if quick { 2 } else { 4 };
    // the randomly permuted operand maximizes cross-rank traffic — the
    // fetch time overlap exists to hide
    let a = load(Dataset::Hv15rLike);
    let scrambled = prepare(&a, 8, Strategy::RandomPerm { seed: 5 }).a.clone();
    let grids: &[(usize, usize)] = if quick { &[(2, 2)] } else { &[(2, 2), (2, 4)] };
    for &(pr, pc) in grids {
        let p = pr * pc;
        let mk = |cfg| Staged2D {
            a: scrambled.clone(),
            pr,
            pc,
            iters,
            cfg,
        };
        let off = staged_wall(p, &mk(PrefetchConfig::disabled()));
        let on = staged_wall(p, &mk(PrefetchConfig::on()));
        row(&[
            "2d-staged".into(),
            "hv15r-rand".into(),
            p.to_string(),
            format!("{pr}x{pc}"),
            iters.to_string(),
            ms(off),
            ms(on),
            format!("{:.2}", off / on.max(1e-12)),
        ]);
    }
    println!(
        "## staged rows run identical work per cell (checksummed); only the prefetch \
         config differs — record the procs P=8 rows in BENCH_pr10.json"
    );
}
