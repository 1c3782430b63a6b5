//! Markov clustering (MCL) — §II-C1 names matrix squaring as the bottleneck
//! of HipMCL [Azad et al. 2018]; this module implements the MCL iteration
//! (expansion = distributed squaring, inflation + pruning = local column
//! ops) so the squaring benchmarks have their motivating application in the
//! repository.

use sa_dist::{
    load_agreed, pick_fetch_mode, save_wire, uniform_offsets, CacheConfig, CheckpointStore,
    DistMat1D, FetchMode, MatSnapshot, Plan1D, SessionSnapshot, SessionStats, SpgemmSession,
};
use sa_mpisim::{Comm, CostModel};
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_with_epilogue, Kernel, Schedule, SpgemmWorkspace};
use sa_sparse::{Csc, Vidx};

/// MCL parameters.
#[derive(Clone, Copy, Debug)]
pub struct MclConfig {
    /// Inflation exponent (typically 2.0).
    pub inflation: f64,
    /// Drop entries below this value after inflation.
    pub prune_threshold: f64,
    /// Maximum expansion/inflation rounds.
    pub max_iters: usize,
}

impl Default for MclConfig {
    fn default() -> Self {
        MclConfig {
            inflation: 2.0,
            prune_threshold: 1e-4,
            max_iters: 20,
        }
    }
}

/// Column-normalize (make column-stochastic) in place.
pub fn normalize_columns(m: &mut Csc<f64>) {
    let colptr = m.colptr().to_vec();
    let vals = m.vals_mut();
    for j in 0..colptr.len() - 1 {
        let (s, e) = (colptr[j], colptr[j + 1]);
        let sum: f64 = vals[s..e].iter().sum();
        if sum > 0.0 {
            for v in &mut vals[s..e] {
                *v /= sum;
            }
        }
    }
}

/// Raise every entry of `vals` to the power `inflation`, in place, and return
/// the sum of the powers. The exponent is the same for every entry of every
/// column, so the loop is picked once: a multiply for exactly 2.0 (the
/// default, and ≈ 10× cheaper per entry than `powf`), `powf` otherwise.
/// `v * v` is the correctly rounded square, which `powf(v, 2.0)` misses by one
/// ulp on about one input in a thousand: every inflation goes through here,
/// so iterates are bit-identical across backends, kernels, schedules and
/// thread counts, but not to a build that called `powf`.
fn inflate(vals: &mut [f64], inflation: f64) -> f64 {
    let mut sum = 0.0f64;
    if inflation == 2.0 {
        for v in vals.iter_mut() {
            *v *= *v;
            sum += *v;
        }
    } else {
        for v in vals.iter_mut() {
            *v = v.powf(inflation);
            sum += *v;
        }
    }
    sum
}

/// Inflate (elementwise power) + prune + renormalize one column, appending
/// the survivors to `(rows_out, vals_out)`. `vals` is scratch: each entry's
/// power is stored back into it, so every power is taken once. This is the
/// column epilogue the expansion fuses into its kernel
/// ([`SpgemmSession::multiply_with`]).
fn inflate_prune_col(
    rows: &[Vidx],
    vals: &mut [f64],
    inflation: f64,
    threshold: f64,
    rows_out: &mut Vec<Vidx>,
    vals_out: &mut Vec<f64>,
) {
    let start = vals_out.len();
    let sum = inflate(vals, inflation);
    // an all-zero column is pruned as it stands (`v / 1.0` is `v` exactly)
    let scale = if sum > 0.0 { sum } else { 1.0 };
    for (&r, &v) in rows.iter().zip(vals.iter()) {
        let x = v / scale;
        if x >= threshold {
            rows_out.push(r);
            vals_out.push(x);
        }
    }
    let kept: f64 = vals_out[start..].iter().sum();
    if kept > 0.0 {
        for v in &mut vals_out[start..] {
            *v /= kept;
        }
    }
}

/// [`inflate_prune_col`] under `cfg`, in the shape a multiply takes its
/// column epilogue in.
fn inflate_prune(
    cfg: &MclConfig,
) -> impl Fn(&[Vidx], &mut [f64], &mut Vec<Vidx>, &mut Vec<f64>) + Sync {
    let (inflation, threshold) = (cfg.inflation, cfg.prune_threshold);
    move |rows, vals, rows_out, vals_out| {
        inflate_prune_col(rows, vals, inflation, threshold, rows_out, vals_out)
    }
}

/// Extract clusters from a converged MCL matrix: vertices sharing an
/// "attractor" row form a cluster. Returns cluster id per vertex.
pub fn interpret_clusters(m: &Csc<f64>) -> Vec<u32> {
    let n = m.ncols();
    let mut cluster = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut attractor_cluster: std::collections::HashMap<Vidx, u32> =
        std::collections::HashMap::new();
    for (j, slot) in cluster.iter_mut().enumerate() {
        let (rows, vals) = m.col(j);
        // attractor = max-valued row of the column
        if let Some(pos) = vals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
        {
            let att = rows[pos];
            let id = *attractor_cluster.entry(att).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            *slot = id;
        } else {
            *slot = next;
            next += 1;
        }
    }
    cluster
}

/// The matrix the first expansion squares: `a` with self-loops added
/// (standard MCL) and columns normalized.
fn expansion_seed(a: &Csc<f64>) -> Csc<f64> {
    let n = a.ncols();
    let mut coo = a.to_coo();
    for v in 0..n {
        coo.push(v as Vidx, v as Vidx, 1.0);
    }
    let mut with_loops = coo.to_csc_with(|x, y| x + y);
    normalize_columns(&mut with_loops);
    with_loops
}

/// [`expansion_seed`] in the 1D layout every driver iterates on.
fn distributed_seed<C: Comm>(comm: &C, a: &Csc<f64>) -> DistMat1D {
    let m0 = expansion_seed(a);
    DistMat1D::from_global(comm, &m0, &uniform_offsets(m0.ncols(), comm.size()))
}

/// The matrix serial MCL holds after `iters` rounds of expansion + inflation
/// on `a`. After one round its square is the dense-output multiply the early
/// iterations run (most product columns fill most rows before pruning) —
/// the operand class `examples/kernel_rates.rs` and the `local_kernels`
/// bench measure the accumulators on.
pub fn mcl_iterate(a: &Csc<f64>, cfg: &MclConfig, iters: usize) -> Csc<f64> {
    let ws = SpgemmWorkspace::new();
    let inflate_prune = inflate_prune(cfg);
    (0..iters).fold(expansion_seed(a), |m, _| {
        spgemm_with_epilogue::<PlusTimes<f64>, _, _, _>(
            &m,
            &m,
            Kernel::Hybrid,
            Schedule::default(),
            &ws,
            Some(&inflate_prune),
        )
    })
}

/// [`mcl_1d`] with the expansion's fetch mode picked by
/// [`pick_fetch_mode`] between the default block size and contiguous runs:
/// each is priced on the first squaring `M₀²` (the dominant
/// multiply — later iterations only shrink), and the cheapest under the
/// α–β model drives the whole run (exact columns could never win: contiguous
/// runs move the same bytes in no more gets). Returns the clusters,
/// iteration count, session counters, and the mode picked. Collective.
pub fn mcl_1d_auto<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    cfg: &MclConfig,
    cache: CacheConfig,
    model: &CostModel,
) -> (Vec<u32>, usize, SessionStats, FetchMode) {
    let m0 = distributed_seed(comm, a);
    let modes = [FetchMode::default(), FetchMode::ContiguousRuns];
    let best = pick_fetch_mode(comm, &m0, &m0, &modes, model);
    let plan = Plan1D {
        fetch_mode: best,
        ..Default::default()
    };
    let (clusters, iters, stats) = mcl_run(comm, || m0, cfg, &plan, cache, None);
    (clusters, iters, stats, best)
}

/// Run distributed MCL: expansion via sparsity-aware 1D squaring,
/// inflation locally. Returns the converged matrix slice's clusters
/// (identical on all ranks) and the number of iterations. Collective.
///
/// Expansion runs through a cached [`SpgemmSession`] ([`CacheConfig::unlimited`]) —
/// see [`mcl_1d_session`] for the cache-aware entry point and what the
/// cache saves.
pub fn mcl_1d<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    cfg: &MclConfig,
    plan: &Plan1D,
) -> (Vec<u32>, usize) {
    let (clusters, iters, _) = mcl_1d_session(comm, a, cfg, plan, CacheConfig::unlimited());
    (clusters, iters)
}

/// [`mcl_1d`] with an explicit [`CacheConfig`], returning the session
/// counters. Collective.
///
/// The expansion `M ← M²` multiplies a *changing* operand. After each
/// inflation the session is re-anchored with [`SpgemmSession::update_a`],
/// which invalidates exactly the columns whose content changed; every
/// frozen column stays cached. Inflation rewrites the values of nearly
/// every column every iteration, and the columns that freeze bit for bit
/// are tiny and many: the cache saves gets, not bytes (see
/// `cached_mcl_issues_a_quarter_fewer_gets_than_uncached`).
///
/// Inflation and pruning run inside the expansion, as its column epilogue
/// (HipMCL's design): a column of `M²` is inflated, pruned and renormalized
/// the moment its accumulator finishes it, so the unpruned product — 80 %
/// dense in the early iterations — is never stored, and what the multiply
/// returns is the next iterate.
pub fn mcl_1d_session<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    cfg: &MclConfig,
    plan: &Plan1D,
    cache: CacheConfig,
) -> (Vec<u32>, usize, SessionStats) {
    mcl_run(comm, || distributed_seed(comm, a), cfg, plan, cache, None)
}

/// [`mcl_1d_session`] with per-iteration checkpointing, for execution under
/// [`run_recoverable`](sa_mpisim::Universe::run_recoverable). Collective.
///
/// At the top of every iteration — *after* the session has been re-anchored
/// on the current operand, so the snapshotted cache is consistent with it —
/// each rank saves `(iteration, operand slice, session snapshot)` under
/// `(rank, tag)` in `store`. On entry the ranks agree collectively
/// ([`load_agreed`]) on the last iteration **all** of them checkpointed:
/// unanimity resumes there (skipping the already-applied re-anchor),
/// anything ragged starts the whole run fresh. Iterations are therefore
/// at-least-once: a rank killed mid-iteration re-runs that iteration after
/// restart, with a cache state identical to the fault-free run's at that
/// boundary, so clusters and iteration count come out identical. Completed
/// runs remove their checkpoint.
pub fn mcl_1d_checkpointed<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    cfg: &MclConfig,
    plan: &Plan1D,
    cache: CacheConfig,
    store: &dyn CheckpointStore,
    tag: &str,
) -> (Vec<u32>, usize, SessionStats) {
    mcl_run(
        comm,
        || distributed_seed(comm, a),
        cfg,
        plan,
        cache,
        Some((store, tag)),
    )
}

/// Every driver's run: iterate to convergence ([`mcl_converge`]), read the
/// clusters off the gathered matrix, drop the finished run's checkpoint.
fn mcl_run<C: Comm>(
    comm: &C,
    seed: impl FnOnce() -> DistMat1D,
    cfg: &MclConfig,
    plan: &Plan1D,
    cache: CacheConfig,
    checkpoint: Option<(&dyn CheckpointStore, &str)>,
) -> (Vec<u32>, usize, SessionStats) {
    let (converged, iters, stats) = mcl_converge(comm, seed, cfg, plan, cache, checkpoint);
    let full = converged.gather(comm);
    let clusters = comm.bcast_vec(0, full.map(|m| interpret_clusters(&m)));
    if let Some((store, tag)) = checkpoint {
        store
            .remove(comm.rank(), tag)
            .expect("removable checkpoint");
    }
    (clusters, iters, stats)
}

/// The one MCL iteration loop. `seed` distributes the column-stochastic
/// matrix the first expansion squares ([`mcl_1d_auto`] hands over the one it
/// priced the fetch modes on); it is not called when the run resumes from
/// `checkpoint`.
/// Without a `checkpoint` nothing is loaded or saved. Returns the last
/// iterate, the iterations run, and the session counters.
fn mcl_converge<C: Comm>(
    comm: &C,
    seed: impl FnOnce() -> DistMat1D,
    cfg: &MclConfig,
    plan: &Plan1D,
    cache: CacheConfig,
    checkpoint: Option<(&dyn CheckpointStore, &str)>,
) -> (DistMat1D, usize, SessionStats) {
    let me = comm.rank();
    let resume = checkpoint.and_then(|(store, tag)| {
        load_agreed(
            comm,
            store,
            tag,
            |c: &(u64, MatSnapshot, SessionSnapshot)| c.0,
        )
    });
    let (mut current, mut session, mut iters, mut resumed) = match resume {
        Some((k, mat, snap)) => {
            let current = mat.restore();
            let mut session = SpgemmSession::create(comm, current.clone(), *plan, cache);
            session.restore(&snap);
            (current, session, k as usize, true)
        }
        None => {
            let current = seed();
            let session = SpgemmSession::create(comm, current.clone(), *plan, cache);
            (current, session, 0usize, false)
        }
    };
    let inflate_prune = inflate_prune(cfg);
    while iters < cfg.max_iters {
        if iters > 0 && !resumed {
            // re-anchor the session on the inflated matrix: only changed
            // columns are invalidated (deferred to here so a terminating
            // iteration never pays a collective + window refresh it will
            // not use)
            session.update_a(comm, current.clone());
        }
        resumed = false;
        if let Some((store, tag)) = checkpoint {
            save_wire(
                store,
                me,
                tag,
                &(iters as u64, MatSnapshot::of(&current), session.snapshot()),
            )
            .expect("writable checkpoint store");
        }
        iters += 1;
        // expansion M <- M² (the HipMCL bottleneck), fetching only columns
        // the cache lost to invalidation, with inflation + pruning applied
        // to each column as the kernel finishes it
        let (next, _rep) = session.multiply_with(comm, &current, Some(&inflate_prune));
        // convergence: nnz and values stable (cheap: compare local diff)
        let delta = current.local().max_abs_diff(next.local());
        let max_delta = comm.allreduce(delta, |x, y| x.max(y));
        current = next;
        if max_delta < 1e-8 {
            break;
        }
    }
    (current, iters, *session.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_mpisim::Universe;
    use sa_sparse::gen::sbm;

    #[test]
    fn normalization_makes_columns_stochastic() {
        let mut a = sbm(60, 3, 6.0, 1.0, false, 1);
        normalize_columns(&mut a);
        for j in 0..a.ncols() {
            let (_, vals) = a.col(j);
            if !vals.is_empty() {
                let s: f64 = vals.iter().sum();
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn auto_mode_pick_is_rank_consistent_and_result_preserving() {
        let a = sbm(60, 3, 8.0, 0.4, false, 5);
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let (auto_clusters, _, _, mode) = mcl_1d_auto(
                comm,
                &a,
                &MclConfig::default(),
                CacheConfig::unlimited(),
                &CostModel::default(),
            );
            let (fixed_clusters, _) = mcl_1d(comm, &a, &MclConfig::default(), &Plan1D::default());
            (auto_clusters, fixed_clusters, mode)
        });
        let mode0 = got[0].2;
        for (auto_c, fixed_c, mode) in &got {
            assert_eq!(mode, &mode0, "all ranks pick the same mode");
            assert_eq!(auto_c, fixed_c, "fetch mode never changes the result");
        }
    }

    #[test]
    fn recovers_planted_clusters() {
        // 3 dense communities, no relabeling: MCL should find ~3 clusters
        // agreeing with the ground truth.
        let n = 90;
        let a = sbm(n, 3, 12.0, 0.3, false, 2);
        let u = Universe::new(3);
        let got = u.run(|comm| mcl_1d(comm, &a, &MclConfig::default(), &Plan1D::default()));
        let (clusters, iters) = &got[0];
        assert!(*iters >= 2);
        // ground truth block = i / 30; measure majority agreement
        let mut agree = 0usize;
        for block in 0..3 {
            let ids: Vec<u32> = (block * 30..(block + 1) * 30)
                .map(|v| clusters[v])
                .collect();
            let mut counts = std::collections::HashMap::new();
            for &c in &ids {
                *counts.entry(c).or_insert(0usize) += 1;
            }
            agree += counts.values().max().copied().unwrap_or(0);
        }
        assert!(
            agree >= 72,
            "cluster agreement {agree}/90 too low: {clusters:?}"
        );
    }

    #[test]
    fn ranks_agree_on_clusters() {
        let a = sbm(60, 2, 10.0, 0.5, false, 3);
        let u = Universe::new(4);
        let got = u.run(|comm| mcl_1d(comm, &a, &MclConfig::default(), &Plan1D::default()));
        for w in got.windows(2) {
            assert_eq!(w[0].0, w[1].0);
        }
    }

    #[test]
    fn inflate_squares_by_multiplying_and_is_powf_otherwise() {
        let inputs: Vec<f64> = (1..=4000)
            .map(|i| (i as f64 * 0.618_033_988_749_895).fract() / (1 + i % 7) as f64)
            .collect();
        let mut squared = inputs.clone();
        let sum = inflate(&mut squared, 2.0);
        assert_eq!(sum.to_bits(), squared.iter().sum::<f64>().to_bits());
        for (&v, &sq) in inputs.iter().zip(&squared) {
            assert_eq!(sq.to_bits(), v.powi(2).to_bits(), "{v}²");
            // an opaque exponent, or the compiler folds `powf(v, 2.0)` to `v * v`
            let libm = v.powf(std::hint::black_box(2.0));
            let ulps = sq.to_bits().abs_diff(libm.to_bits());
            assert!(ulps <= 1, "{v}² is {ulps} ulps from powf");
        }
        for inflation in [1.5, 3.0] {
            let mut powered = inputs.clone();
            inflate(&mut powered, inflation);
            for (&v, &pw) in inputs.iter().zip(&powered) {
                assert_eq!(pw.to_bits(), v.powf(inflation).to_bits(), "{v}^{inflation}");
            }
        }
    }

    #[test]
    fn fused_iterates_equal_the_expand_then_inflate_reference_bit_for_bit() {
        // the reference keeps the two passes apart: a plain session multiply
        // materialises M², then `inflate_prune_col` walks its columns
        let a = sbm(90, 3, 12.0, 0.3, false, 2);
        let bits = |m: &sa_sparse::Dcsc<f64>| {
            let vals: Vec<u64> = m.num().iter().map(|v| v.to_bits()).collect();
            (m.jc().to_vec(), m.cp().to_vec(), m.ir().to_vec(), vals)
        };
        // the multiply of the default exponent, and `powf` either side of it
        for inflation in [2.0, 1.5, 3.0] {
            let cfg = MclConfig {
                inflation,
                ..MclConfig::default()
            };
            let u = Universe::new(4);
            let got = u.run(|comm| {
                let fused = |max_iters: usize| {
                    let cfg = MclConfig { max_iters, ..cfg };
                    mcl_converge(
                        comm,
                        || distributed_seed(comm, &a),
                        &cfg,
                        &Plan1D::default(),
                        CacheConfig::unlimited(),
                        None,
                    )
                };
                let (_, iters, _) = fused(cfg.max_iters);
                let offsets = sa_dist::uniform_offsets(90, comm.size());
                let mut current = DistMat1D::from_global(comm, &expansion_seed(&a), &offsets);
                let mut session = SpgemmSession::create(
                    comm,
                    current.clone(),
                    Plan1D::default(),
                    CacheConfig::unlimited(),
                );
                let mut pruned = 0;
                for k in 1..=iters {
                    if k > 1 {
                        session.update_a(comm, current.clone());
                    }
                    let expanded = session.multiply(comm, &current).0.into_local_csc();
                    let mut colptr = vec![0usize];
                    let (mut rowidx, mut vals) = (Vec::new(), Vec::new());
                    for j in 0..expanded.ncols() {
                        let (rows, col_vals) = expanded.col(j);
                        inflate_prune_col(
                            rows,
                            &mut col_vals.to_vec(),
                            cfg.inflation,
                            cfg.prune_threshold,
                            &mut rowidx,
                            &mut vals,
                        );
                        colptr.push(rowidx.len());
                    }
                    let local = Csc::from_parts(90, expanded.ncols(), colptr, rowidx, vals);
                    pruned += expanded.nnz() - local.nnz();
                    current =
                        DistMat1D::from_local(90, 90, current.offsets().clone(), local.into());
                    let (got, ran, _) = fused(k);
                    assert_eq!(ran, k);
                    assert_eq!(
                        bits(got.local()),
                        bits(current.local()),
                        "inflation {inflation}: iterate {k} of {iters}"
                    );
                }
                (iters, pruned)
            });
            let (iters, pruned) = got[0];
            assert!(
                iters >= 4 && pruned > 0,
                "inflation {inflation}: {iters} rounds pruned {pruned}"
            );
        }
    }

    #[test]
    fn checkpointed_mcl_matches_plain_session_run() {
        let a = sbm(60, 3, 8.0, 0.4, false, 5);
        let store = sa_dist::MemStore::new();
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let (c1, i1, s1) = mcl_1d_session(
                comm,
                &a,
                &MclConfig::default(),
                &Plan1D::default(),
                CacheConfig::unlimited(),
            );
            let (c2, i2, s2) = mcl_1d_checkpointed(
                comm,
                &a,
                &MclConfig::default(),
                &Plan1D::default(),
                CacheConfig::unlimited(),
                &store,
                "mcl.test",
            );
            (c1, i1, s1, c2, i2, s2)
        });
        for (c1, i1, s1, c2, i2, s2) in got {
            assert_eq!(c1, c2, "checkpointing must not change the clustering");
            assert_eq!(i1, i2, "checkpointing must not change convergence");
            assert_eq!(s1, s2, "checkpointing must not change session traffic");
        }
        assert!(store.is_empty(), "completed runs remove their checkpoints");
    }

    #[test]
    fn session_mcl_matches_uncached_and_fetches_only_deltas() {
        // 4 ranks over 3 planted blocks: the slice boundaries cut across
        // clusters, so remote column needs persist into MCL's freezing
        // phase (3 ranks would align with the blocks and the converged
        // matrix's block-diagonal locality would leave nothing to cache)
        let a = sbm(90, 3, 12.0, 0.3, false, 2);
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let (c1, i1, cached) = mcl_1d_session(
                comm,
                &a,
                &MclConfig::default(),
                &Plan1D::default(),
                CacheConfig::unlimited(),
            );
            let (c2, i2, uncached) = mcl_1d_session(
                comm,
                &a,
                &MclConfig::default(),
                &Plan1D::default(),
                CacheConfig::disabled(),
            );
            (c1, i1, cached, c2, i2, uncached)
        });
        for (c1, i1, cached, c2, i2, uncached) in &got {
            assert_eq!(c1, c2, "cache must not change the clustering");
            assert_eq!(i1, i2, "cache must not change convergence");
            assert!(
                cached.fresh_bytes <= uncached.fresh_bytes,
                "caching can only reduce traffic"
            );
        }
        // MCL freezes as it converges, so some columns must have been
        // served from cache by the later iterations
        let hits: u64 = got.iter().map(|(_, _, c, ..)| c.cache_hit_bytes).sum();
        assert!(hits > 0, "converging MCL must produce cache hits");
        let fresh_cached: u64 = got.iter().map(|(_, _, c, ..)| c.fresh_bytes).sum();
        let fresh_uncached: u64 = got.iter().map(|(.., u)| u.fresh_bytes).sum();
        assert!(
            fresh_cached < fresh_uncached,
            "delta fetching must beat refetching ({fresh_cached} vs {fresh_uncached})"
        );
    }

    /// What the cache is worth in MCL: frozen columns are tiny and many,
    /// so it saves gets, not bytes. On this operand (`Block(256)`, P = 4,
    /// 18 iterations) the cached run issues 1 562 gets against 2 328 with
    /// the cache off, and fetches 3 292 692 bytes against 3 297 300.
    #[test]
    fn cached_mcl_issues_a_quarter_fewer_gets_than_uncached() {
        let a = sbm(400, 8, 14.0, 1.5, true, 1);
        let cfg = MclConfig {
            max_iters: 40,
            ..MclConfig::default()
        };
        let plan = Plan1D {
            fetch_mode: FetchMode::Block(256),
            ..Plan1D::default()
        };
        let got = Universe::new(4).run(|comm| {
            let run = |cache| mcl_1d_session(comm, &a, &cfg, &plan, cache);
            (run(CacheConfig::unlimited()), run(CacheConfig::disabled()))
        });
        for ((c1, i1, _), (c2, i2, _)) in &got {
            assert_eq!(c1, c2, "cache must not change the clustering");
            assert_eq!(i1, i2, "cache must not change convergence");
        }
        let cached: u64 = got.iter().map(|((_, _, c), _)| c.rdma_msgs).sum();
        let uncached: u64 = got.iter().map(|(_, (_, _, u))| u.rdma_msgs).sum();
        assert!(
            4 * cached <= 3 * uncached,
            "the cache must save a quarter of the gets ({cached} vs {uncached})"
        );
    }
}
