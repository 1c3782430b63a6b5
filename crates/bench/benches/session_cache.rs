//! Session cache: cumulative fetched volume across iterative SpGEMM
//! workloads, cached vs uncached.
//!
//! The sessionless engines refetch the stationary operand's columns every
//! iteration, so cumulative fetched bytes grow linearly. With a
//! [`SpgemmSession`] fetch cache the curve flattens after the first
//! iteration (BC batches, Galerkin resetup) or decays with the convergence
//! delta (MCL): only the per-iteration *miss set* travels. This bench
//! prints both curves for three workloads; the README's session table
//! records the totals.

use sa_apps::bc::{bc_batches_1d_session, pick_sources};
use sa_apps::galerkin::GalerkinSession;
use sa_apps::mcl::{mcl_1d_session, MclConfig};
use sa_apps::restriction::restriction_operator;
use sa_bench::*;
use sa_dist::{uniform_offsets, CacheConfig, DistMat1D, SpgemmSession};
use sa_mpisim::Comm;

use sa_sparse::gen::{Dataset, Scale};
use sa_sparse::{Csc, Vidx};

/// Per-iteration cumulative fresh bytes (Σ over ranks) for one config.
fn cumulative(series: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(series.len());
    let mut acc = 0u64;
    for &x in series {
        acc += x;
        out.push(acc);
    }
    out
}

fn print_curves(workload: &str, cached: &[u64], uncached: &[u64]) {
    for (i, (c, u)) in cumulative(cached)
        .iter()
        .zip(cumulative(uncached))
        .enumerate()
    {
        row(&[
            workload.into(),
            (i + 1).to_string(),
            mb(*c),
            mb(u),
            format!("{:.3}", *c as f64 / (u as f64).max(1.0)),
        ]);
    }
}

/// Repeated squaring of a stationary matrix — the distilled session case.
fn squaring(a: &Csc<f64>, p: usize, iters: usize) -> (Vec<u64>, Vec<u64>) {
    let run = |cache: CacheConfig| -> Vec<u64> {
        let u = universe(p);
        let per_rank = u.run(|comm| {
            let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()));
            let db = da.clone();
            let mut s = SpgemmSession::create(comm, da, plan(), cache);
            (0..iters)
                .map(|_| s.multiply(comm, &db).1.fresh_bytes)
                .collect::<Vec<u64>>()
        });
        (0..iters)
            .map(|i| per_rank.iter().map(|v| v[i]).sum())
            .collect()
    };
    (run(CacheConfig::unlimited()), run(CacheConfig::disabled()))
}

/// Batched BC: one entry per batch (increments of the cumulative session
/// snapshots).
fn bc(a: &Csc<f64>, p: usize, batches: &[Vec<Vidx>]) -> (Vec<u64>, Vec<u64>) {
    let run = |cache: CacheConfig| -> Vec<u64> {
        let u = universe(p);
        let per_rank = u.run(|comm| {
            let (_outcomes, snapshots) = bc_batches_1d_session(comm, a, batches, &plan(), cache);
            snapshots
                .iter()
                .map(|s| s.fresh_bytes())
                .collect::<Vec<u64>>()
        });
        // sum cumulative snapshots over ranks, then de-accumulate
        let mut prev = 0u64;
        (0..batches.len())
            .map(|i| {
                let t: u64 = per_rank.iter().map(|v| v[i]).sum();
                let d = t - prev;
                prev = t;
                d
            })
            .collect()
    };
    (run(CacheConfig::unlimited()), run(CacheConfig::disabled()))
}

/// Galerkin resetup: one entry per restriction operator. Counts the whole
/// product's wire traffic — the cacheable `A·R` half plus the `Rᵀ·(AR)`
/// fetch both configurations pay identically.
fn galerkin(a: &Csc<f64>, p: usize, rs: &[Csc<f64>]) -> (Vec<u64>, Vec<u64>) {
    let run = |cache: CacheConfig| -> Vec<u64> {
        let u = universe(p);
        let per_rank = u.run(|comm| {
            let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()));
            let mut s = GalerkinSession::create(comm, da, plan(), cache);
            rs.iter()
                .map(|r| {
                    let rep = s.product(comm, r).1;
                    rep.ar.fresh_bytes + rep.rap.fresh_bytes
                })
                .collect::<Vec<u64>>()
        });
        (0..rs.len())
            .map(|i| per_rank.iter().map(|v| v[i]).sum())
            .collect()
    };
    (run(CacheConfig::unlimited()), run(CacheConfig::disabled()))
}

fn main() {
    banner(
        "Session cache",
        "cumulative fetched volume across iterations, cached vs uncached",
        "the cached curve flattens after iteration 1 while the uncached one grows linearly",
    );
    let p = 8;
    let iters = if std::env::var("SA_QUICK").is_ok() {
        4
    } else {
        6
    };
    row(&[
        "workload".into(),
        "iter".into(),
        "cached_cum_MB".into(),
        "uncached_cum_MB".into(),
        "ratio".into(),
    ]);

    // 1. repeated squaring of the hv15r analog (stationary operand)
    let a = load(Dataset::Hv15rLike);
    let (c, u) = squaring(&a, p, iters);
    print_curves("square_hv15r", &c, &u);

    // 2. batched BC on the eukarya analog (persistent adjacency sessions)
    let g = match scale() {
        Scale::Tiny => load(Dataset::EukaryaLike),
        _ => Dataset::EukaryaLike.build(Scale::Tiny), // BFS levels dominate runtime
    };
    let batches: Vec<Vec<Vidx>> = (0..iters as u64)
        .map(|s| pick_sources(g.nrows(), 16, s))
        .collect();
    let (c, u) = bc(&g, 4, &batches);
    print_curves("bc_batches", &c, &u);

    // 3. Galerkin resetup on the queen analog (stationary fine operator)
    let f = load(Dataset::QueenLike);
    let rs: Vec<Csc<f64>> = (0..iters as u64)
        .map(|s| restriction_operator(&f, s))
        .collect();
    let (c, u) = galerkin(&f, p, &rs);
    print_curves("galerkin_resetup", &c, &u);

    // 4. MCL (delta shrinks with convergence rather than vanishing)
    let m = Dataset::EukaryaLike.build(Scale::Tiny);
    let un = universe(4);
    let got = un.run(|comm| {
        let (_c1, _i1, cached) = mcl_1d_session(
            comm,
            &m,
            &MclConfig::default(),
            &plan(),
            CacheConfig::unlimited(),
        );
        let (_c2, _i2, uncached) = mcl_1d_session(
            comm,
            &m,
            &MclConfig::default(),
            &plan(),
            CacheConfig::disabled(),
        );
        (cached, uncached)
    });
    let cached: u64 = got.iter().map(|(c, _)| c.fresh_bytes).sum();
    let uncached: u64 = got.iter().map(|(_, u)| u.fresh_bytes).sum();
    let hits: u64 = got.iter().map(|(c, _)| c.cache_hit_bytes).sum();
    row(&[
        "mcl_total".into(),
        got[0].0.multiplies.to_string(),
        mb(cached),
        mb(uncached),
        format!("{:.3}", cached as f64 / (uncached as f64).max(1.0)),
    ]);
    println!(
        "## mcl cache-hit volume: {} (delta fetching; hits grow as columns freeze)",
        mb(hits)
    );
    println!("## expected shape: cached cumulative volume flattens after iteration 1; uncached grows linearly with iterations");
}
