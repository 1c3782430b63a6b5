//! Batched approximate betweenness centrality (Brandes) — §II-C3, §IV-C.
//!
//! For a batch of `b` source vertices, the **forward search** is a
//! multi-source BFS whose frontier carries shortest-path counts σ; each
//! level is one distributed SpGEMM followed by masking out already-visited
//! vertices. The **backward sweep** runs Brandes' dependency accumulation
//! level-by-level, again one SpGEMM per level. The paper benchmarks exactly
//! these two phases per loop iteration (Figs. 13, 14).
//!
//! All engines run one level loop; an engine is only its two multiplies.
//!
//! **Operand orientation matters for the 1D engine.** Algorithm 1 keeps
//! `B` and `C` stationary and fetches only `A`; if the n×n adjacency were
//! the fetched operand, every rank would pull nearly all of it at every
//! mid-BFS level. The 1D engine therefore stores the frontier *transposed*
//! (`b × n`, row `j` = source `j`) and computes `Next = F̃·Adj` — the small
//! frontier is the fetched `A`, the adjacency is the stationary `B`, and
//! the output lands in the frontier's own 1D column layout with zero
//! output communication. The 2D/3D baselines keep CombBLAS' column-frontier
//! formulation (`Aᵀ·F` with `F` being `n × b`), which is what the paper
//! compares against; both orientations produce identical scores.

use sa_dist::mat3d::{DistMat3D, LayerSplit, Owned3DBlock};
use sa_dist::{
    load_agreed, save_wire, spgemm_split_3d, spgemm_summa_2d, try_spgemm_1d, uniform_offsets,
    CacheConfig, CheckpointStore, DistMat1D, DistMat2D, Plan1D, SessionSnapshot, SessionStats,
    SpgemmSession,
};
use sa_mpisim::{Comm, Grid2D, Grid3D};
use sa_sparse::{Coo, Csc, Dcsc, SpgemmWorkspace, Vidx};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Per-iteration SpGEMM times of the two phases (the Fig. 13/14 series).
#[derive(Clone, Debug, Default)]
pub struct BcTimes {
    pub forward_s: Vec<f64>,
    pub backward_s: Vec<f64>,
}

/// Result of one BC batch on this rank.
#[derive(Clone, Debug)]
pub struct BcOutcome {
    /// Accumulated dependency scores (length n, identical on all ranks).
    pub scores: Vec<f64>,
    pub times: BcTimes,
    /// BFS levels explored.
    pub levels: usize,
    /// Peak local bytes across iterations (the Fig. 14 2D-OOM metric), by
    /// one rule in every engine: the multiply's working set + the level
    /// stack (σ) + the visited bitmap + the δ blocks held at that level
    /// (0.071 / 0.100 / 0.107 MB for 1D / 2D / 3D at Fig. 14's tiny scale).
    pub peak_local_bytes: u64,
    /// Bytes this rank injected into the network over the whole batch
    /// (point-to-point sends + RDMA gets), excluding the one-time operand
    /// distribution.
    pub comm_bytes: u64,
    /// Messages this rank injected over the whole batch (same scope as
    /// [`BcOutcome::comm_bytes`]); with `comm_bytes` this feeds the α–β
    /// network model for the Fig. 13/14 comparisons.
    pub comm_msgs: u64,
}

sa_mpisim::wire_struct!(BcTimes {
    forward_s,
    backward_s
});

sa_mpisim::wire_struct!(BcOutcome {
    scores,
    times,
    levels,
    peak_local_bytes,
    comm_bytes,
    comm_msgs
});

/// Choose `batch` distinct sources deterministically.
pub fn pick_sources(n: usize, batch: usize, seed: u64) -> Vec<Vidx> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ids: Vec<Vidx> = (0..n as Vidx).collect();
    ids.shuffle(&mut rng);
    ids.truncate(batch.min(n));
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------
// the Brandes loop shared by all engines
// ---------------------------------------------------------------------

/// Where this rank's frontier block sits: which axis indexes vertices (rows
/// in the column frontier, columns in the transposed one) and the block's
/// global vertex and batch-slot ranges.
#[derive(Clone)]
struct Layout {
    vertex_rows: bool,
    vertices: Range<usize>,
    batch: Range<usize>,
}

impl Layout {
    /// `(vertex, slot)` as the block's `(row, col)`.
    fn orient<T>(&self, vertex: T, slot: T) -> (T, T) {
        if self.vertex_rows {
            (vertex, slot)
        } else {
            (slot, vertex)
        }
    }

    /// The level-0 fringe: σ = 1 at `(sources[j], j)` where the block holds it.
    fn sources(&self, sources: &[Vidx]) -> Csc<f64> {
        let (nr, nc) = self.orient(self.vertices.len(), self.batch.len());
        let mut coo = Coo::new(nr, nc);
        for j in self.batch.clone() {
            let s = sources[j] as usize;
            if self.vertices.contains(&s) {
                let (r, c) = self.orient(s - self.vertices.start, j - self.batch.start);
                coo.push(r as Vidx, c as Vidx, 1.0);
            }
        }
        coo.to_csc_with(|x, _| x)
    }

    /// Per-vertex sums of blocks with disjoint patterns added into a global
    /// score vector in the order one merged block would give: column by
    /// column, each by ascending row. Only in the transposed layout does
    /// that order need a sort: a column there is one vertex, whose entries
    /// (one per slot) come from several levels.
    fn add_vertex_sums(&self, blocks: &[Dcsc<f64>], scores: &mut [f64]) {
        let mut col: Vec<(Vidx, f64)> = Vec::new();
        for j in 0..blocks.first().map_or(0, |b| b.ncols()) {
            col.clear();
            for (rows, xs) in blocks.iter().map(|b| b.col(j)) {
                col.extend(rows.iter().copied().zip(xs.iter().copied()));
            }
            if !self.vertex_rows {
                col.sort_unstable_by_key(|&(r, _)| r);
            }
            for &(r, x) in &col {
                scores[self.vertices.start + self.orient(r as usize, j).0] += x;
            }
        }
    }
}

/// `offsets[i]..offsets[i + 1]`.
fn span(offsets: &[usize], i: usize) -> Range<usize> {
    offsets[i]..offsets[i + 1]
}

/// A BC engine's two multiplies. Both return the product in the frontier's
/// own layout plus the bytes of the multiply's working set on this rank.
trait BrandesEngine<C: Comm> {
    /// The next frontier before masking: `Aᵀ·F` (or `F̃·A`).
    fn forward(&mut self, comm: &C, fringe: &Dcsc<f64>) -> (Csc<f64>, u64);
    /// The backward step: `A·W` (or `W̃·Aᵀ`).
    fn backward(&mut self, comm: &C, weights: Dcsc<f64>) -> (Csc<f64>, u64);
}

/// `next`'s entries at cells of the frontier block no level has reached,
/// now marked reached in `visited` (one bit per cell, column-major).
fn keep_new(next: &Csc<f64>, visited: &mut [u64]) -> Dcsc<f64> {
    let (mut jc, mut cp, mut ir, mut num) = (Vec::new(), vec![0], Vec::new(), Vec::new());
    for j in 0..next.ncols() {
        let (rows, xs) = next.col(j);
        for (&r, &x) in rows.iter().zip(xs) {
            let cell = j * next.nrows() + r as usize;
            let (word, bit) = (&mut visited[cell / 64], 1u64 << (cell % 64));
            if *word & bit == 0 {
                *word |= bit;
                ir.push(r);
                num.push(x);
            }
        }
        if ir.len() > cp[cp.len() - 1] {
            jc.push(j as Vidx);
            cp.push(ir.len());
        }
    }
    Dcsc::from_parts(next.nrows(), next.ncols(), jc, cp, ir, num)
}

/// One step of the backward sweep on a level whose values are σ (a vertex
/// gets its path count once, at the level that discovers it). Returns the
/// weights `w = (1 + δ) ⊘ σ` and the level with its values replaced by
/// δ = `t ⊙ σ`, 0 where `t` — the product of the level below, absent for
/// the deepest level — has no entry.
fn sweep_level(level: Dcsc<f64>, t: Option<&Csc<f64>>) -> (Dcsc<f64>, Dcsc<f64>) {
    let (nr, nc) = (level.nrows(), level.ncols());
    let (jc, cp, ir, mut vals) = level.into_parts();
    let mut w = Vec::with_capacity(vals.len());
    for (q, &j) in jc.iter().enumerate() {
        let (tr, tv) = t.map_or((&[][..], &[][..]), |t| t.col(j as usize));
        let mut p = 0;
        for k in cp[q]..cp[q + 1] {
            while p < tr.len() && tr[p] < ir[k] {
                p += 1;
            }
            let sigma = vals[k];
            let hit = tr.get(p) == Some(&ir[k]);
            let d = if hit { tv[p] * sigma } else { 0.0 };
            w.push((1.0 + d) / sigma);
            vals[k] = d;
        }
    }
    let weights = Dcsc::from_parts(nr, nc, jc.clone(), cp.clone(), ir.clone(), w);
    (weights, Dcsc::from_parts(nr, nc, jc, cp, ir, vals))
}

/// One BC batch over `n` vertices through `engine`'s multiplies: the
/// forward search, the backward sweep and the score sum. Collective.
fn brandes<C: Comm>(
    comm: &C,
    engine: &mut impl BrandesEngine<C>,
    layout: &Layout,
    n: usize,
    sources: &[Vidx],
) -> BcOutcome {
    let stats0 = comm.stats();
    let (nr, nc) = layout.orient(layout.vertices.len(), layout.batch.len());
    let mut visited = vec![0u64; (nr * nc).div_ceil(64)];
    // one frontier per level; the top is the fringe
    let mut stack = vec![keep_new(&layout.sources(sources), &mut visited)];
    // bytes of the level stack, bitmap and δ blocks this rank holds
    let mut held = stack[0].mem_bytes() + 8 * visited.len();
    let mut times = BcTimes::default();
    let mut peak = 0u64;

    // forward search
    loop {
        let t0 = Instant::now();
        let (next, ws) = engine.forward(comm, stack.last().expect("level 0"));
        times.forward_s.push(t0.elapsed().as_secs_f64());
        let fresh = keep_new(&next, &mut visited);
        peak = peak.max(ws + (held + fresh.mem_bytes()) as u64);
        if comm.allreduce(fresh.nnz() as u64, |x, y| x + y) == 0 {
            break;
        }
        held += fresh.mem_bytes();
        stack.push(fresh);
        assert!(stack.len() <= n, "BFS deeper than vertex count");
    }

    // backward sweep (levels L-1 .. 1; level-0 deltas belong to the
    // sources themselves and are excluded, as in Brandes); `deltas` holds
    // the δ blocks of levels L-2 .. 1. It ends once level 1's δ is written:
    // a product of level 1's weights would feed level 0 only, so levels
    // L-1 .. 2 multiply (`levels − 2` backward steps).
    let levels = stack.len();
    let (mut deltas, mut t) = (Vec::new(), None);
    while stack.len() > 1 {
        let level = stack.pop().expect("a level");
        held -= level.mem_bytes();
        let (w, delta) = sweep_level(level, t.as_ref());
        if t.is_some() {
            held += delta.mem_bytes();
            deltas.push(delta);
        }
        if stack.len() == 1 {
            break;
        }
        let t0 = Instant::now();
        let (product, ws) = engine.backward(comm, w);
        times.backward_s.push(t0.elapsed().as_secs_f64());
        peak = peak.max(ws + held as u64);
        t = Some(product);
    }

    let mut scores = vec![0.0f64; n];
    layout.add_vertex_sums(&deltas, &mut scores);
    let scores = comm.allreduce_vec(scores, |x, y| x + y);
    let spent = comm.stats() - stats0;
    BcOutcome {
        scores,
        times,
        levels,
        peak_local_bytes: peak,
        comm_bytes: spent.injected_bytes(),
        comm_msgs: spent.injected_msgs(),
    }
}

// ---------------------------------------------------------------------
// 1D engine (sparsity-aware Algorithm 1 per level)
// ---------------------------------------------------------------------

/// Run one BC batch with the sparsity-aware 1D SpGEMM. Collective.
///
/// The frontier is stored transposed (`b × n`) so that it is the *fetched*
/// operand of Algorithm 1 while the adjacency stays stationary: per level
/// the forward step is `Next = F̃·Adj` and the backward step is `T̃ = W̃·Adjᵀ`.
/// Both products leave their output in the frontier's own 1D column layout
/// (conformal with the adjacency's column split), so masking, σ updates and
/// dependency accumulation are all rank-local.
pub fn bc_batch_1d<C: Comm>(comm: &C, a: &Csc<f64>, sources: &[Vidx], plan: &Plan1D) -> BcOutcome {
    let offsets = uniform_offsets(a.nrows(), comm.size());
    bc_batch_1d_offsets(comm, a, sources, plan, &offsets)
}

/// [`bc_batch_1d`] with explicit 1D column offsets — pass the partitioner's
/// (uneven) slice boundaries so rank slices align with METIS parts instead
/// of cutting clusters at uniform boundaries.
pub fn bc_batch_1d_offsets<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    sources: &[Vidx],
    plan: &Plan1D,
    offsets: &[usize],
) -> BcOutcome {
    let a01 = a.map(|_| 1.0);
    let a01t = a01.transpose();
    // stationary operands: the adjacency (forward), then its transpose
    // (backward) unless it is the same matrix
    let mut adjs = vec![DistMat1D::from_global(comm, &a01, offsets)];
    if a01t != a01 {
        adjs.push(DistMat1D::from_global(comm, &a01t, offsets));
    }
    let layout = Layout {
        vertex_rows: false,
        vertices: span(offsets, comm.rank()),
        batch: 0..sources.len(),
    };
    // per-level multiplies skip the global-volume allreduces (metrics only)
    let plan = Plan1D {
        global_stats: false,
        ..*plan
    };
    // one arena for every per-level multiply of this batch: a BFS runs
    // 2·levels multiplies whose scratch is shape-compatible level to level
    let ws = SpgemmWorkspace::new();
    let mut engine = Transposed1D { adjs, plan, ws };
    brandes(comm, &mut engine, &layout, a.nrows(), sources)
}

/// The transposed-frontier engine: the `b × n` frontier is Algorithm 1's
/// fetched operand, the adjacency (forward) or its transpose (backward) the
/// stationary one.
struct Transposed1D {
    /// The adjacency, then its transpose unless it is the same matrix:
    /// forward multiplies by the first, backward by the last.
    adjs: Vec<DistMat1D>,
    plan: Plan1D,
    ws: SpgemmWorkspace<f64>,
}

impl Transposed1D {
    /// `F̃·M`; the working set is the fetched `Ã`.
    fn multiply<C: Comm>(&self, comm: &C, f: Dcsc<f64>, m: &DistMat1D) -> (Csc<f64>, u64) {
        let f = DistMat1D::from_local(f.nrows(), m.nrows(), m.offsets().clone(), f);
        let (out, rep) =
            try_spgemm_1d(comm, &f, m, &self.plan, &self.ws).unwrap_or_else(|e| panic!("{e}"));
        (out.into_local_csc(), rep.fetched_bytes)
    }
}

impl<C: Comm> BrandesEngine<C> for Transposed1D {
    fn forward(&mut self, comm: &C, fringe: &Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, fringe.clone(), &self.adjs[0])
    }
    fn backward(&mut self, comm: &C, weights: Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, weights, self.adjs.last().expect("an adjacency"))
    }
}

// ---------------------------------------------------------------------
// 1D session engine (persistent adjacency sessions + fetch cache)
// ---------------------------------------------------------------------

/// Cumulative session counters of [`bc_batches_1d_session`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BcSessionStats {
    /// The forward session's counters (`Next = Ãᵀ·F`; both sweeps' if `Ãᵀ = Ã`).
    pub forward: SessionStats,
    /// The backward session's counters (`T = Ã·W`; zero when `Ãᵀ = Ã`).
    pub backward: SessionStats,
}

impl BcSessionStats {
    /// Σ wire bytes over both sessions.
    pub fn fresh_bytes(&self) -> u64 {
        self.forward.fresh_bytes + self.backward.fresh_bytes
    }

    /// Σ needed bytes the caches served without traffic.
    pub fn cache_hit_bytes(&self) -> u64 {
        self.forward.cache_hit_bytes + self.backward.cache_hit_bytes
    }
}

sa_mpisim::wire_struct!(BcSessionStats { forward, backward });

/// Run several BC batches over *persistent* sparsity-aware 1D sessions.
/// Collective.
///
/// Where [`bc_batch_1d`] transposes the frontier so the tiny changing
/// operand is the fetched one, this engine keeps CombBLAS' column-frontier
/// formulation (`Next = Ãᵀ·F`, `T = Ã·W`) and pins the **adjacency** as the
/// fetched operand of [`SpgemmSession`]s (forward `Ãᵀ`, backward `Ã`; one
/// session serves both when `Ãᵀ = Ã`). Within one batch each BFS level
/// needs fresh columns (frontiers are disjoint), but across batches the
/// traversals revisit mostly the same graph — so from the second batch on,
/// the caches serve almost every needed column and the cumulative fetched
/// volume flattens (the `session_cache` bench plots exactly this curve).
/// An undersized [`CacheConfig`] degrades gracefully to per-level
/// refetching; [`CacheConfig::disabled`] is the uncached baseline the
/// acceptance test compares against.
///
/// Returns one [`BcOutcome`] per batch plus the cumulative session
/// counters *after each batch* (the last entry is the final total — its
/// increments are what the `session_cache` bench plots).
pub fn bc_batches_1d_session<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    batches: &[Vec<Vidx>],
    plan: &Plan1D,
    cache: CacheConfig,
) -> (Vec<BcOutcome>, Vec<BcSessionStats>) {
    bc_batches(comm, a, batches, plan, cache, None)
}

/// [`bc_batches_1d_session`] with per-batch checkpointing, for execution
/// under [`run_recoverable`](sa_mpisim::Universe::run_recoverable).
/// Collective.
///
/// Before each batch, every rank saves `(batches done, outcomes so far,
/// stats so far, session snapshots)` under `(rank, tag)` in `store`; on
/// entry the ranks agree ([`load_agreed`]) on the last batch boundary all
/// of them reached and resume there (the adjacency never changes, so
/// restored cache contents are trivially valid — a restarted process only
/// re-pays the window exposure). Batches are at-least-once: a
/// rank killed mid-batch re-runs that batch with the caches exactly as the
/// fault-free run had them at its start, so the re-run's scores *and*
/// per-batch traffic counters come out identical. Completed runs remove
/// their checkpoint.
pub fn bc_batches_1d_session_recoverable<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    batches: &[Vec<Vidx>],
    plan: &Plan1D,
    cache: CacheConfig,
    store: &dyn CheckpointStore,
    tag: &str,
) -> (Vec<BcOutcome>, Vec<BcSessionStats>) {
    bc_batches(comm, a, batches, plan, cache, Some((store, tag)))
}

/// The one session batch loop. Without a `checkpoint` nothing is loaded,
/// agreed on or saved.
fn bc_batches<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    batches: &[Vec<Vidx>],
    plan: &Plan1D,
    cache: CacheConfig,
    checkpoint: Option<(&dyn CheckpointStore, &str)>,
) -> (Vec<BcOutcome>, Vec<BcSessionStats>) {
    let me = comm.rank();
    type BcCkpt = (
        u64,
        Vec<BcOutcome>,
        Vec<BcSessionStats>,
        Vec<SessionSnapshot>,
    );
    let resume =
        checkpoint.and_then(|(store, tag)| load_agreed(comm, store, tag, |c: &BcCkpt| c.0));

    let n = a.nrows();
    let a01 = a.map(|_| 1.0);
    let a01t = a01.transpose();
    let plan = Plan1D {
        global_stats: false,
        ..*plan
    };
    let n_offsets = uniform_offsets(n, comm.size());
    let dist = |m: &Csc<f64>| DistMat1D::from_global(comm, m, &n_offsets);
    // forward `Ãᵀ`, then backward `Ã` unless it is the same matrix
    let mut sessions = vec![SpgemmSession::create(comm, dist(&a01t), plan, cache)];
    if a01t != a01 {
        sessions.push(SpgemmSession::create(comm, dist(&a01), plan, cache));
    }
    let (mut outcomes, mut snapshots) = match resume {
        Some((_, outcomes, snapshots, snaps)) => {
            assert_eq!(snaps.len(), sessions.len(), "one snapshot per session");
            for (session, snap) in sessions.iter_mut().zip(&snaps) {
                session.restore(snap);
            }
            (outcomes, snapshots)
        }
        None => (Vec::new(), Vec::new()),
    };
    for sources in batches.iter().skip(outcomes.len()) {
        if let Some((store, tag)) = checkpoint {
            let snaps: Vec<_> = sessions.iter().map(SpgemmSession::snapshot).collect();
            let ckpt = (
                outcomes.len() as u64,
                outcomes.clone(),
                snapshots.clone(),
                snaps,
            );
            save_wire(store, me, tag, &ckpt).expect("writable checkpoint store");
        }
        // frontier block: rows = vertices (global), columns = my batch slice
        let cols = Arc::new(uniform_offsets(sources.len(), comm.size()));
        let layout = Layout {
            vertex_rows: true,
            vertices: 0..n,
            batch: span(&cols, me),
        };
        let mut engine = Sessions {
            sessions: &mut sessions,
            cols,
        };
        outcomes.push(brandes(comm, &mut engine, &layout, n, sources));
        let mut stats = sessions.iter().map(|s| *s.stats());
        let forward = stats.next().expect("a session");
        let backward = stats.next().unwrap_or_default();
        snapshots.push(BcSessionStats { forward, backward });
    }
    if let Some((store, tag)) = checkpoint {
        store.remove(me, tag).expect("removable checkpoint");
    }
    (outcomes, snapshots)
}

/// One batch of the session engine: the column frontier of [`bc_batch_2d`]
/// on a 1D split of the batch dimension (`cols`), multiplied through the
/// persistent sessions (forward the first, backward the last).
struct Sessions<'s> {
    sessions: &'s mut [SpgemmSession],
    cols: Arc<Vec<usize>>,
}

impl Sessions<'_> {
    /// `local` times session `s`'s `Ã`; the working set is its fresh plus cached `Ã`.
    fn multiply<C: Comm>(&mut self, comm: &C, s: usize, local: Dcsc<f64>) -> (Csc<f64>, u64) {
        let b = *self.cols.last().expect("offsets");
        let f = DistMat1D::from_local(local.nrows(), b, self.cols.clone(), local);
        let (out, rep) = self.sessions[s].multiply(comm, &f);
        (out.into_local_csc(), rep.fresh_bytes + rep.cache_hit_bytes)
    }
}

impl<C: Comm> BrandesEngine<C> for Sessions<'_> {
    fn forward(&mut self, comm: &C, fringe: &Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, 0, fringe.clone())
    }
    fn backward(&mut self, comm: &C, weights: Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, self.sessions.len() - 1, weights)
    }
}

// ---------------------------------------------------------------------
// 2D engine (sparse SUMMA per level)
// ---------------------------------------------------------------------

/// Run one BC batch with 2D sparse SUMMA. Collective; `comm.size()` must be
/// a perfect square.
pub fn bc_batch_2d<C: Comm>(comm: &C, a: &Csc<f64>, sources: &[Vidx]) -> BcOutcome {
    let grid = Grid2D::square(comm);
    let a01 = a.map(|_| 1.0);
    let adj = DistMat2D::from_global(&grid, &a01);
    let adj_t = DistMat2D::from_global(&grid, &a01.transpose());
    // frontier blocks share A's row split; columns split b over q
    let cols = Arc::new(uniform_offsets(sources.len(), grid.pc));
    let layout = Layout {
        vertex_rows: true,
        vertices: span(adj.row_offsets(), grid.myrow),
        batch: span(&cols, grid.mycol),
    };
    // one arena for every per-level SUMMA of this batch (like the 1D
    // engine's), so the oblivious baseline is also alloc-noise-free
    let ws = SpgemmWorkspace::new();
    let mut engine = Summa2D {
        grid,
        adj,
        adj_t,
        cols,
        ws,
    };
    brandes(comm, &mut engine, &layout, a.nrows(), sources)
}

/// The 2D engine: `Aᵀ·F` forward and `A·W` backward, the frontier blocked
/// by `A`'s rows and `cols`.
struct Summa2D<C: Comm> {
    grid: Grid2D<C>,
    adj: DistMat2D,
    adj_t: DistMat2D,
    cols: Arc<Vec<usize>>,
    ws: SpgemmWorkspace<f64>,
}

impl<C: Comm> Summa2D<C> {
    /// `M·F`; the working set is the SUMMA's peak.
    fn multiply(&self, comm: &C, m: &DistMat2D, f: Csc<f64>) -> (Csc<f64>, u64) {
        let (rows, cols) = (self.adj.row_offsets().clone(), self.cols.clone());
        let f = DistMat2D::from_parts(m.ncols(), *cols.last().expect("offsets"), rows, cols, f);
        let (out, rep) = spgemm_summa_2d(comm, &self.grid, m, &f, &self.ws);
        (out.local().clone(), rep.peak_local_bytes)
    }
}

impl<C: Comm> BrandesEngine<C> for Summa2D<C> {
    fn forward(&mut self, comm: &C, fringe: &Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, &self.adj_t, fringe.to_csc())
    }
    fn backward(&mut self, comm: &C, weights: Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, &self.adj, weights.into_csc())
    }
}

// ---------------------------------------------------------------------
// 3D engine (split-3D per level, with fiber-layout restore)
// ---------------------------------------------------------------------

/// Run one BC batch with split-3D SpGEMM (`q² · layers` ranks). Each level
/// multiplies and then redistributes the output back to the row-split 3D
/// frontier layout (CombBLAS' 3D SpGEMM performs the same layout
/// conversions internally). Collective.
pub fn bc_batch_3d<C: Comm>(comm: &C, layers: usize, a: &Csc<f64>, sources: &[Vidx]) -> BcOutcome {
    let q = ((comm.size() / layers) as f64).sqrt().round() as usize;
    let grid = Grid3D::new(comm, q, layers);
    let a01 = a.map(|_| 1.0);
    let adj = DistMat3D::from_global_split_cols(&grid, &a01);
    let adj_t = DistMat3D::from_global_split_cols(&grid, &a01.transpose());
    // canonical frontier layout: rows layer-split, then 2D within layer
    let layer_offsets = Arc::new(uniform_offsets(a.nrows(), layers));
    let layer_rows: Vec<Arc<Vec<usize>>> = layer_offsets
        .windows(2)
        .map(|w| Arc::new(uniform_offsets(w[1] - w[0], q)))
        .collect();
    let cols = Arc::new(uniform_offsets(sources.len(), q));
    let within = span(&layer_rows[grid.mylayer], grid.myrow);
    let lo = layer_offsets[grid.mylayer];
    let layout = Layout {
        vertex_rows: true,
        vertices: lo + within.start..lo + within.end,
        batch: span(&cols, grid.mycol),
    };
    let mut engine = Split3D {
        grid,
        adj,
        adj_t,
        layer_offsets,
        layer_rows,
        cols,
        frontier: layout.clone(),
        ws: SpgemmWorkspace::new(),
    };
    brandes(comm, &mut engine, &layout, a.nrows(), sources)
}

/// The 3D engine: `Aᵀ·F` forward and `A·W` backward, each product
/// redistributed back into the `frontier` layout.
struct Split3D<C: Comm> {
    grid: Grid3D<C>,
    adj: DistMat3D,
    adj_t: DistMat3D,
    /// Rows of each layer.
    layer_offsets: Arc<Vec<usize>>,
    /// Per layer, its rows' split over the `q` grid rows (layer-local).
    layer_rows: Vec<Arc<Vec<usize>>>,
    cols: Arc<Vec<usize>>,
    frontier: Layout,
    ws: SpgemmWorkspace<f64>,
}

impl<C: Comm> Split3D<C> {
    /// `M·F`; the working set is the split-3D report's peak.
    fn multiply(&self, comm: &C, m: &DistMat3D, f: Csc<f64>) -> (Csc<f64>, u64) {
        let (l, b) = (self.grid.mylayer, *self.cols.last().expect("offsets"));
        let rows = self.layer_offsets[l + 1] - self.layer_offsets[l];
        let f = DistMat2D::from_parts(rows, b, self.layer_rows[l].clone(), self.cols.clone(), f);
        let offsets = self.layer_offsets.clone();
        let f = DistMat3D::from_local_parts(m.ncols(), b, LayerSplit::Rows, offsets, f);
        let (out, rep) = spgemm_split_3d(comm, &self.grid, m, &f, &self.ws);
        (self.restore(comm, &out), rep.peak_local_bytes)
    }

    /// World rank owning global `(r, c)` in the frontier layout.
    fn owner(&self, r: usize, c: usize) -> usize {
        let q = self.grid.q;
        let l = self.layer_offsets.partition_point(|&o| o <= r) - 1;
        let wr = self.layer_rows[l].partition_point(|&o| o <= r - self.layer_offsets[l]) - 1;
        let wc = self.cols.partition_point(|&o| o <= c) - 1;
        l * q * q + wr * q + wc
    }

    /// Redistribute a multiply output back into the frontier layout.
    fn restore(&self, comm: &C, out: &Owned3DBlock) -> Csc<f64> {
        let mut sends: Vec<Vec<(Vidx, Vidx, f64)>> = vec![Vec::new(); comm.size()];
        for (r, c, v) in out.local.iter() {
            let (gr, gc) = (out.row0 + r as usize, out.col0 + c as usize);
            sends[self.owner(gr, gc)].push((gr as Vidx, gc as Vidx, v));
        }
        let (r0, c0) = (self.frontier.vertices.start, self.frontier.batch.start);
        let mut coo = Coo::new(self.frontier.vertices.len(), self.frontier.batch.len());
        for part in comm.alltoallv(sends) {
            for (gr, gc, v) in part {
                coo.push(gr - r0 as Vidx, gc - c0 as Vidx, v);
            }
        }
        coo.to_csc_with(|x, y| x + y)
    }
}

impl<C: Comm> BrandesEngine<C> for Split3D<C> {
    fn forward(&mut self, comm: &C, fringe: &Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, &self.adj_t, fringe.to_csc())
    }
    fn backward(&mut self, comm: &C, weights: Dcsc<f64>) -> (Csc<f64>, u64) {
        self.multiply(comm, &self.adj, weights.into_csc())
    }
}

// ---------------------------------------------------------------------
// serial reference
// ---------------------------------------------------------------------

/// Textbook Brandes over the given sources (partial BC — exact when
/// `sources` is all vertices). Edge `u→v` iff `A[u][v] ≠ 0`.
pub fn bc_serial(a: &Csc<f64>, sources: &[Vidx]) -> Vec<f64> {
    let n = a.nrows();
    let out = a.transpose(); // out.col(u) = out-neighbors of u
    let mut scores = vec![0.0f64; n];
    for &s in sources {
        let mut dist = vec![i64::MAX; n];
        let mut sigma = vec![0.0f64; n];
        let mut order: Vec<u32> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let (nbrs, _) = out.col(v as usize);
            for &w in nbrs {
                let wu = w as usize;
                if dist[wu] == i64::MAX {
                    dist[wu] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
                if dist[wu] == dist[v as usize] + 1 {
                    sigma[wu] += sigma[v as usize];
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        for &w in order.iter().rev() {
            let (nbrs, _) = out.col(w as usize);
            for &v in nbrs {
                // w -> v edge; v on next level => w is predecessor of v
                if dist[v as usize] == dist[w as usize] + 1 {
                    delta[w as usize] +=
                        sigma[w as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                }
            }
            if w != s {
                scores[w as usize] += delta[w as usize];
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_mpisim::{Universe, Wire};
    use sa_sparse::gen::{banded, rmat, stencil2d_convection};
    use sa_sparse::semiring::PlusTimes;
    use sa_sparse::spgemm::spgemm;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn serial_brandes_path_graph() {
        // path 0-1-2-3 undirected: exact BC with all sources
        let mut coo = Coo::new(4, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        let a = coo.to_csc_with(|x, _| x);
        let scores = bc_serial(&a, &[0, 1, 2, 3]);
        // middle vertices lie on (0,2),(0,3),(1,3) paths: bc(1)=bc(2)=4
        // (each direction counted)
        assert!(close(&scores, &[0.0, 4.0, 4.0, 0.0]), "{scores:?}");
    }

    /// A serial column-frontier engine that reports `backward_ws` bytes of
    /// working set on its backward multiplies and none on its forward ones.
    struct Serial {
        a: Csc<f64>,
        at: Csc<f64>,
        backward_ws: u64,
    }

    impl<C: Comm> BrandesEngine<C> for Serial {
        fn forward(&mut self, _: &C, fringe: &Dcsc<f64>) -> (Csc<f64>, u64) {
            (spgemm::<PlusTimes<f64>, _, _>(&self.at, fringe), 0)
        }
        fn backward(&mut self, _: &C, weights: Dcsc<f64>) -> (Csc<f64>, u64) {
            let t = spgemm::<PlusTimes<f64>, _, _>(&self.a, &weights);
            (t, self.backward_ws)
        }
    }

    #[test]
    fn loop_counts_the_backward_working_set_in_the_peak() {
        let a = rmat(6, 6, (0.57, 0.19, 0.19, 0.05), 3).map(|_| 1.0);
        let sources = pick_sources(a.nrows(), 8, 4);
        let expect = bc_serial(&a, &sources);
        let run = |backward_ws| {
            let layout = Layout {
                vertex_rows: true,
                vertices: 0..a.nrows(),
                batch: 0..sources.len(),
            };
            Universe::new(1)
                .run(|comm| {
                    let (at, a) = (a.transpose(), a.clone());
                    let n = a.nrows();
                    let mut engine = Serial { a, at, backward_ws };
                    brandes(comm, &mut engine, &layout, n, &sources)
                })
                .remove(0)
        };
        let (plain, heavy) = (run(0), run(1 << 40));
        for o in [&plain, &heavy] {
            assert!(close(&o.scores, &expect), "stub engine BC mismatch");
            assert!(o.levels >= 3, "the backward sweep multiplies at least once");
            assert_eq!(o.times.backward_s.len(), o.levels - 2);
        }
        assert!(plain.peak_local_bytes < 1 << 40);
        assert!(
            heavy.peak_local_bytes >= 1 << 40,
            "a backward-only working set must reach the peak: {}",
            heavy.peak_local_bytes
        );
    }

    #[test]
    fn engine_1d_matches_serial() {
        let a = rmat(7, 6, (0.57, 0.19, 0.19, 0.05), 1);
        let sources = pick_sources(a.nrows(), 12, 2);
        let expect = bc_serial(&a, &sources);
        let u = Universe::new(4);
        let got = u.run(|comm| bc_batch_1d(comm, &a, &sources, &Plan1D::default()));
        for o in got {
            assert!(close(&o.scores, &expect), "1D BC mismatch");
            assert!(o.levels >= 2);
            assert_eq!(
                o.times.forward_s.len(),
                o.levels,
                "one fwd spgemm per level incl. the empty-detect one"
            );
        }
    }

    #[test]
    fn engine_2d_matches_serial() {
        let a = rmat(6, 6, (0.57, 0.19, 0.19, 0.05), 3);
        let sources = pick_sources(a.nrows(), 8, 4);
        let expect = bc_serial(&a, &sources);
        let u = Universe::new(4);
        let got = u.run(|comm| bc_batch_2d(comm, &a, &sources));
        for o in got {
            assert!(close(&o.scores, &expect), "2D BC mismatch");
        }
    }

    #[test]
    fn engine_3d_matches_serial() {
        let a = rmat(6, 5, (0.57, 0.19, 0.19, 0.05), 5);
        let sources = pick_sources(a.nrows(), 8, 6);
        let expect = bc_serial(&a, &sources);
        let u = Universe::new(8); // 2x2x2
        let got = u.run(|comm| bc_batch_3d(comm, 2, &a, &sources));
        for o in got {
            assert!(close(&o.scores, &expect), "3D BC mismatch");
        }
    }

    #[test]
    fn directed_graph_bc() {
        // directed cycle plus chord; compare engines against serial
        let a = stencil2d_convection(5, 5, 0.7); // asymmetric structure? values differ, structure symmetric
        let a = a.filter(|r, c, _| (r as i64 - c as i64).rem_euclid(3) != 1); // make structure asymmetric
        let sources = pick_sources(a.nrows(), 6, 7);
        let expect = bc_serial(&a, &sources);
        let u = Universe::new(4);
        let got = u.run(|comm| bc_batch_1d(comm, &a, &sources, &Plan1D::default()));
        assert!(close(&got[0].scores, &expect));
    }

    #[test]
    fn single_source_matches_brandes() {
        let a = rmat(5, 4, (0.57, 0.19, 0.19, 0.05), 8);
        let sources = vec![3];
        let expect = bc_serial(&a, &sources);
        let u = Universe::new(2);
        let got = u.run(|comm| bc_batch_1d(comm, &a, &sources, &Plan1D::default()));
        assert!(close(&got[0].scores, &expect));
    }

    #[test]
    fn bc_1d_comm_stays_small_on_banded_graph() {
        // The transposed-frontier orientation only moves frontier data, so
        // on a natural-ordered banded graph each SpGEMM level must inject
        // far fewer bytes than one copy of the adjacency — the
        // adjacency-fetching orientation would approach P·nnz(A)·12 B per
        // level. The band graph has diameter ≈ n/bw, so normalize by the
        // number of SpGEMM calls (one forward per level + one backward).
        let a = banded(512, 8, 1.0, true, 11);
        let sources = pick_sources(a.nrows(), 16, 3);
        let expect = bc_serial(&a, &sources);
        let u = Universe::new(4);
        let got = u.run(|comm| bc_batch_1d(comm, &a, &sources, &Plan1D::default()));
        assert!(close(&got[0].scores, &expect));
        let total: u64 = got.iter().map(|o| o.comm_bytes).sum();
        let spgemm_calls = 2 * got[0].levels as u64;
        let one_adjacency = a.nnz() as u64 * 12;
        assert!(
            total / spgemm_calls < one_adjacency / 10,
            "per-level 1D BC traffic {} B should be <10% of one copy of A ({} B)",
            total / spgemm_calls,
            one_adjacency
        );
    }

    #[test]
    fn empty_batch() {
        let a = rmat(5, 4, (0.57, 0.19, 0.19, 0.05), 9);
        let u = Universe::new(2);
        let got = u.run(|comm| bc_batch_1d(comm, &a, &[], &Plan1D::default()));
        assert!(got[0].scores.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn session_engine_matches_serial_per_batch() {
        let a = rmat(7, 6, (0.57, 0.19, 0.19, 0.05), 1);
        let batches: Vec<Vec<Vidx>> = (0..3).map(|s| pick_sources(a.nrows(), 10, s)).collect();
        let u = Universe::new(4);
        let got = u.run(|comm| {
            bc_batches_1d_session(
                comm,
                &a,
                &batches,
                &Plan1D::default(),
                CacheConfig::unlimited(),
            )
        });
        for (outcomes, snapshots) in got {
            assert_eq!(outcomes.len(), batches.len());
            assert_eq!(snapshots.len(), batches.len());
            for (o, sources) in outcomes.iter().zip(&batches) {
                let expect = bc_serial(&a, sources);
                assert!(close(&o.scores, &expect), "session BC batch mismatch");
            }
        }
    }

    /// Three session batches over `a` on four ranks: per rank, the
    /// outcomes, the final counters and the metered get bytes.
    fn session_run(
        a: &Csc<f64>,
        batches: &[Vec<Vidx>],
    ) -> Vec<(Vec<BcOutcome>, BcSessionStats, u64)> {
        Universe::new(4).run(|comm| {
            let before = comm.stats();
            let plan = Plan1D::default();
            let (outcomes, stats) =
                bc_batches_1d_session(comm, a, batches, &plan, CacheConfig::unlimited());
            let metered = (comm.stats() - before).rdma_get_bytes;
            (outcomes, *stats.last().expect("a batch"), metered)
        })
    }

    #[test]
    fn session_engine_keeps_two_sessions_on_a_directed_graph() {
        let a = stencil2d_convection(9, 9, 0.7)
            .filter(|r, c, _| (r as i64 - c as i64).rem_euclid(3) != 1);
        assert_ne!(a.pattern(), a.transpose().pattern(), "directed");
        let batches: Vec<Vec<Vidx>> = (0..3).map(|s| pick_sources(a.nrows(), 12, s)).collect();
        for (outcomes, stats, metered) in session_run(&a, &batches) {
            for (o, sources) in outcomes.iter().zip(&batches) {
                assert!(
                    close(&o.scores, &bc_serial(&a, sources)),
                    "directed session BC"
                );
            }
            let levels: u64 = outcomes.iter().map(|o| o.levels as u64).sum();
            assert_eq!(stats.forward.multiplies, levels, "forward: one per level");
            assert_eq!(
                stats.backward.multiplies,
                levels - 6,
                "backward: one per level but the top two"
            );
            assert!(stats.backward.fresh_bytes > 0);
            assert_eq!(stats.fresh_bytes(), metered);
        }
    }

    #[test]
    fn session_engine_serves_a_symmetric_graph_from_one_session() {
        let a = rmat(7, 6, (0.57, 0.19, 0.19, 0.05), 1);
        assert_eq!(a.pattern(), a.transpose().pattern(), "symmetric");
        let batches: Vec<Vec<Vidx>> = (0..3).map(|s| pick_sources(a.nrows(), 12, s)).collect();
        for (outcomes, stats, metered) in session_run(&a, &batches) {
            for (o, sources) in outcomes.iter().zip(&batches) {
                assert!(
                    close(&o.scores, &bc_serial(&a, sources)),
                    "symmetric session BC"
                );
            }
            let levels: u64 = outcomes.iter().map(|o| o.levels as u64).sum();
            assert_eq!(stats.forward.multiplies, 2 * levels - 6, "both sweeps");
            assert_eq!(stats.backward, SessionStats::default(), "no second session");
            // report == metered, to the byte, with every get in `forward`
            assert_eq!(stats.forward.fresh_bytes, metered);
            assert_eq!(stats.fresh_bytes(), metered);
            assert!(stats.cache_hit_bytes() > 0);
        }
    }

    #[test]
    fn recoverable_session_engine_matches_plain_and_round_trips_wire() {
        let a = rmat(7, 6, (0.57, 0.19, 0.19, 0.05), 1);
        let batches: Vec<Vec<Vidx>> = (0..3).map(|s| pick_sources(a.nrows(), 10, s)).collect();
        let store = sa_dist::MemStore::new();
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let plan = Plan1D::default();
            let (o1, s1) =
                bc_batches_1d_session(comm, &a, &batches, &plan, CacheConfig::unlimited());
            let (o2, s2) = bc_batches_1d_session_recoverable(
                comm,
                &a,
                &batches,
                &plan,
                CacheConfig::unlimited(),
                &store,
                "bc.test",
            );
            (o1, s1, o2, s2)
        });
        for (o1, s1, o2, s2) in got {
            assert_eq!(o1.len(), o2.len());
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.scores, y.scores, "checkpointing must not change scores");
                assert_eq!(x.levels, y.levels);
                assert_eq!(x.comm_bytes, y.comm_bytes, "identical per-batch traffic");
                // wire round-trip of the outcome is lossless (timings too)
                let back = BcOutcome::from_bytes(&y.to_bytes()).unwrap();
                assert_eq!(back.scores, y.scores);
                assert_eq!(back.times.forward_s, y.times.forward_s);
            }
            assert_eq!(
                s1.last().map(|s| (s.forward, s.backward)),
                s2.last().map(|s| (s.forward, s.backward)),
                "identical cumulative session counters"
            );
        }
        assert!(store.is_empty(), "completed runs remove their checkpoints");
    }

    #[test]
    fn cache_halves_cumulative_traffic_across_batches() {
        // ≥4 batches over the same graph: from the second batch on, the
        // persistent sessions serve the adjacency columns out of cache, so
        // cumulative fetched bytes must be ≤ 50% of the uncached engine's.
        let a = rmat(7, 8, (0.57, 0.19, 0.19, 0.05), 3);
        let batches: Vec<Vec<Vidx>> = (0..4)
            .map(|s| pick_sources(a.nrows(), 12, 10 + s))
            .collect();
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let plan = Plan1D::default();
            let (_, cached) =
                bc_batches_1d_session(comm, &a, &batches, &plan, CacheConfig::unlimited());
            let (_, uncached) =
                bc_batches_1d_session(comm, &a, &batches, &plan, CacheConfig::disabled());
            (cached, uncached)
        });
        let total = |s: &[BcSessionStats]| s.last().unwrap().fresh_bytes();
        let cached: u64 = got.iter().map(|(c, _)| total(c)).sum();
        let uncached: u64 = got.iter().map(|(_, u)| total(u)).sum();
        assert!(uncached > 0);
        assert!(
            cached * 2 <= uncached,
            "cached {cached} B should be ≤ 50% of uncached {uncached} B"
        );
        // the avoided traffic is accounted, not lost
        let hits: u64 = got
            .iter()
            .map(|(c, _)| c.last().unwrap().cache_hit_bytes())
            .sum();
        assert!(hits > 0);
    }
}
