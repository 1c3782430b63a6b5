//! Overlap-equivalence suite (PR 10): turning prefetch overlap on must be
//! observationally invisible everywhere except wall-clock. Every staged
//! consumer of the [`Prefetcher`] — 2D SUMMA's A-panel staging and the 3D
//! split's per-layer pipelines — is run as a
//! `{overlap off, overlap on, overlap under a byte budget} × {SimComm,
//! SA_BACKEND}` matrix and every cell is diffed against the pinned serial
//! overlap-off baseline:
//!
//! * outputs are bit-identical (`f64::to_bits` fingerprints over
//!   integer-valued operands, so sums are exact and scheduling cannot
//!   perturb them);
//! * per-rank [`CommStats`] are byte-identical — gets are metered at
//!   issue time, so the async fetch path cannot change counters or
//!   double-meter a prefetched-then-demanded range;
//! * prefetch staging buffers come from the workspace arena — steady-state
//!   alloc counters freeze with overlap on, exactly as they do without it.
//!
//! CI runs this suite once per `SA_BACKEND` value (sim / threads / procs),
//! so the promise holds when GetReq/GetResp round-trips are genuinely
//! asynchronous over sockets, not just on the deterministic simulator.

use saspgemm::dist::{
    spgemm_split_3d_sa_ws_cfg, spgemm_summa_2d_sa_ws_cfg, DistMat2D, DistMat3D, FetchMode,
};
use saspgemm::mpisim::{
    Backend, Comm, CommStats, Grid2D, Grid3D, Mode, PrefetchConfig, RankJob, Serial, Threads,
    Universe,
};
use saspgemm::sparse::gen::erdos_renyi;
use saspgemm::sparse::semiring::{MinPlus, PlusTimes};
use saspgemm::sparse::{Csc, SpgemmWorkspace};
use std::fmt::Write as _;
use std::time::Duration;

/// ER matrix with small-integer values: f64 sums over products of these
/// are exact, so overlap scheduling cannot perturb results even where an
/// entry point reassociates the ⊕-reduction.
fn int_er(nrows: usize, ncols: usize, deg: f64, seed: u64) -> Csc<f64> {
    erdos_renyi(nrows, ncols, deg, seed).map(|v| (v * 7.0).round() + 1.0)
}

/// Bit-exact fingerprint: dims + every (row, col, value-bits) triple.
fn fp_csc(c: &Csc<f64>) -> String {
    let mut s = format!("{}x{}#{}:", c.nrows(), c.ncols(), c.nnz());
    for (i, j, v) in c.iter() {
        write!(s, "{i},{j},{:x};", v.to_bits()).unwrap();
    }
    s
}

fn fp_opt(c: &Option<Csc<f64>>) -> String {
    match c {
        Some(c) => fp_csc(c),
        None => "-".into(),
    }
}

type Verdict = (String, CommStats);

/// The overlap axis: disabled, unlimited, and a deliberately tiny byte
/// budget that forces most ranges onto the demand path at rendezvous.
fn overlap_configs() -> [(&'static str, PrefetchConfig); 3] {
    [
        ("off", PrefetchConfig::disabled()),
        ("on", PrefetchConfig::on()),
        ("budget1k", PrefetchConfig::budget(1024)),
    ]
}

/// The driver: pin the serial overlap-off run as the baseline, then demand
/// per-rank bit-identical outputs and byte-identical traffic from every
/// (overlap config, backend) cell.
fn assert_overlap_equivalence<J, F>(nranks: usize, mk: F, what: &str)
where
    J: RankJob<Out = Verdict>,
    F: Fn(PrefetchConfig) -> J,
{
    let u = Universe::new(nranks).with_watchdog(Some(Duration::from_secs(120)));
    let baseline = u.run_backend(Backend::Sim, &mk(PrefetchConfig::disabled()));
    for (cname, cfg) in overlap_configs() {
        for be in [Backend::Sim, Backend::from_env()] {
            let got = u.run_backend(be, &mk(cfg));
            assert_eq!(
                baseline.len(),
                got.len(),
                "{what} [{cname}/{}]: rank count",
                be.name()
            );
            for (rank, (base, g)) in baseline.iter().zip(&got).enumerate() {
                assert_eq!(
                    base.0,
                    g.0,
                    "{what} [{cname}/{}]: rank {rank} output diverged from overlap-off serial baseline",
                    be.name()
                );
                assert_eq!(
                    base.1,
                    g.1,
                    "{what} [{cname}/{}]: rank {rank} metered traffic diverged from overlap-off serial baseline",
                    be.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cells — one per staged consumer of the prefetch engine
// ---------------------------------------------------------------------------

/// 2D SUMMA staged cell: the A panel is prefetched while the B
/// request/ship exchange and the Ã metadata walk run in the foreground.
struct TwoD<'a> {
    a: &'a Csc<f64>,
    b: &'a Csc<f64>,
    pr: usize,
    pc: usize,
    tropical: bool,
    cfg: PrefetchConfig,
}

impl RankJob for TwoD<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let grid = Grid2D::new(comm, self.pr, self.pc);
        let da = DistMat2D::from_global(&grid, self.a);
        let db = DistMat2D::from_global(&grid, self.b);
        let ws = SpgemmWorkspace::new();
        let before = comm.stats();
        let s = if self.tropical {
            let (c, _rep) = spgemm_summa_2d_sa_ws_cfg::<_, MinPlus>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::Block(4),
                self.cfg,
                &ws,
            );
            fp_opt(&c.gather(comm, &grid))
        } else {
            let (c, rep) = spgemm_summa_2d_sa_ws_cfg::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::Block(4),
                self.cfg,
                &ws,
            );
            format!(
                "{}|af={} am={} bs={}",
                fp_opt(&c.gather(comm, &grid)),
                rep.a_fetched_bytes,
                rep.a_rdma_msgs,
                rep.b_shipped_bytes,
            )
        };
        (s, comm.stats() - before)
    }
}

#[test]
fn overlap_2d_is_byte_identical() {
    let a = int_er(40, 40, 3.5, 121);
    let b = int_er(40, 40, 2.5, 122);
    for (pr, pc) in [(2, 2), (1, 4)] {
        for tropical in [false, true] {
            assert_overlap_equivalence(
                pr * pc,
                |cfg| TwoD {
                    a: &a,
                    b: &b,
                    pr,
                    pc,
                    tropical,
                    cfg,
                },
                &format!("2D staged {pr}x{pc} tropical={tropical}"),
            );
        }
    }
}

/// 3D split cell: the prefetch config threads into every layer's SUMMA.
struct ThreeD<'a> {
    a: &'a Csc<f64>,
    b: &'a Csc<f64>,
    q: usize,
    layers: usize,
    cfg: PrefetchConfig,
}

impl RankJob for ThreeD<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let grid = Grid3D::new(comm, self.q, self.layers);
        let da = DistMat3D::from_global_split_cols(&grid, self.a);
        let db = DistMat3D::from_global_split_rows(&grid, self.b);
        let ws = SpgemmWorkspace::new();
        let before = comm.stats();
        let (c, rep) = spgemm_split_3d_sa_ws_cfg::<_, PlusTimes<f64>>(
            comm,
            &grid,
            &da,
            &db,
            FetchMode::Block(4),
            self.cfg,
            &ws,
        );
        let s = format!(
            "{}|af={} rb={} bs={}",
            fp_opt(&c.gather(comm)),
            rep.summa.a_fetched_bytes,
            rep.reduce_bytes,
            rep.summa.b_shipped_bytes,
        );
        (s, comm.stats() - before)
    }
}

#[test]
fn overlap_3d_is_byte_identical() {
    let a = int_er(36, 36, 3.0, 131);
    let b = int_er(36, 36, 3.0, 132);
    for (q, layers) in [(2, 1), (2, 2)] {
        assert_overlap_equivalence(
            q * q * layers,
            |cfg| ThreeD {
                a: &a,
                b: &b,
                q,
                layers,
                cfg,
            },
            &format!("3D layered q={q} l={layers}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Arena discipline
// ---------------------------------------------------------------------------

/// Arena discipline: prefetch staging buffers come from the workspace
/// pools. After warm-up, further overlapped multiplies freeze the alloc
/// counters — only the reuse counters move.
#[test]
fn overlap_staging_is_arena_backed() {
    staging_is_arena_backed::<Serial>();
    staging_is_arena_backed::<Threads>();
}

/// The workspace counters are read inside the rank closure, so these two
/// tests launch in-process whatever `SA_BACKEND` says (`Universe::run`
/// would refuse `procs`): once degraded to inline issue, once overlapped.
fn staging_is_arena_backed<M: Mode>() {
    let a = int_er(120, 120, 4.0, 161);
    let u = Universe::new(4);
    let results = u.launch::<M, _, _>(|comm| {
        let grid = Grid2D::new(comm, 2, 2);
        let da = DistMat2D::from_global(&grid, &a);
        let db = da.clone();
        let ws = SpgemmWorkspace::new();
        let staged = || {
            spgemm_summa_2d_sa_ws_cfg::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::default(),
                PrefetchConfig::on(),
                &ws,
            )
            .0
        };
        // two warm-up iterations populate and size-settle the pools
        let first = staged();
        let _ = staged();
        let warm = ws.counters();
        let mut last = None;
        for _ in 0..3 {
            last = Some(staged());
        }
        let steady = ws.counters();
        (
            first.local().clone(),
            last.unwrap().local().clone(),
            warm,
            steady,
        )
    });
    for (first, last, warm, steady) in results {
        assert_eq!(first, last, "steady-state iterations stay correct");
        assert!(warm.total_allocs() > 0, "warm-up does allocate");
        assert_eq!(
            steady.chunk_allocs, warm.chunk_allocs,
            "steady state allocates no staging chunks — prefetch buffers come from the arena"
        );
        assert_eq!(
            steady.idx_allocs, warm.idx_allocs,
            "steady state allocates no index buffers"
        );
        assert_eq!(
            steady.scratch_allocs, warm.scratch_allocs,
            "steady state allocates no per-thread scratch"
        );
        assert!(
            steady.chunk_reuses > warm.chunk_reuses,
            "steady state is served from the pools"
        );
    }
}
