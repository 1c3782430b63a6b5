//! Cross-iteration fetch caching for iterative SpGEMM workloads.
//!
//! The paper's headline applications (batched betweenness centrality §IV-C,
//! Markov clustering §II-C1, AMG Galerkin products §IV-B) all call
//! [`spgemm_1d`](crate::spgemm1d::spgemm_1d) in a loop against a stationary
//! (or slowly changing) fetched operand, yet each sessionless call re-runs
//! the symbolic pass, re-exposes the windows, and re-fetches every remote
//! `A` column from scratch. This module makes the needed-column set of
//! Algorithm 1 a *persistent* object:
//!
//! * [`FetchCache`] — a per-rank cache of remote `A` columns, keyed by
//!   `(owner rank, global column)`, stored as mergeable DCSC column
//!   segments. It keeps every column it fetches, or — under
//!   [`CacheConfig::disabled`] — none.
//! * [`SpgemmSession`] — pins the fetched operand: the metadata allgather
//!   and the [`PairedWindow`] exposure happen **once** at
//!   [`SpgemmSession::create`], and every [`SpgemmSession::multiply`] runs
//!   an *incremental* symbolic pass that diffs the current needed-column
//!   set against cache contents and issues coalesced gets only for the
//!   misses. [`SpgemmSession::update_a`] re-anchors the session on a
//!   changed operand, invalidating exactly the columns whose content
//!   changed — iterative solvers that converge (MCL) communicate only the
//!   per-iteration delta.
//!
//! Metering stays exact: a session multiply's
//! [`SpgemmReport::fresh_bytes`](crate::spgemm1d::SpgemmReport::fresh_bytes)
//! equals the metered window traffic to the byte (the integration tests
//! assert this across iterations, cached and uncached), while
//! [`SpgemmReport::cache_hit_bytes`](crate::spgemm1d::SpgemmReport::cache_hit_bytes)
//! accounts for the needed bytes the cache served instead of the wire.

use crate::dist1d::DistMat1D;
use crate::fetch::{exchange_meta, plan_fetch, FetchPlan, Interval, RankMeta, ENTRY_BYTES};
use crate::spgemm1d::{assert_conformal, cv_of, global_volume, FetchMode, Plan1D, SpgemmReport};
use sa_mpisim::{Comm, CommStats, PairedWindow, PhaseTimes, Wire, WireError};
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_with_epilogue, ChunkBuf, NoEpilogue, SpgemmWorkspace};
use sa_sparse::types::{vidx, Vidx};
use sa_sparse::Dcsc;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// Whether a session's [`FetchCache`] keeps the columns it fetches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    enabled: bool,
}

impl CacheConfig {
    /// Cache every fetched column, never evict.
    pub fn unlimited() -> CacheConfig {
        CacheConfig { enabled: true }
    }

    /// No caching: every multiply fetches its full needed set fresh. For
    /// the sparsity-aware modes this is byte-for-byte the traffic of
    /// repeated sessionless calls — the baseline the bench compares
    /// against. (Under [`FetchMode::FullMatrix`] a session still skips
    /// remote slices the multiply needs *nothing* from, where the
    /// sessionless baseline replicates them unconditionally — see
    /// [`SpgemmSession`]'s planner note.)
    pub fn disabled() -> CacheConfig {
        CacheConfig { enabled: false }
    }
}

impl Default for CacheConfig {
    /// Unlimited — callers opt *out* of caching, not into it.
    fn default() -> CacheConfig {
        CacheConfig::unlimited()
    }
}

/// One cached remote column: a DCSC segment (parallel row-id / value
/// arrays).
struct CachedCol {
    ir: Vec<Vidx>,
    num: Vec<f64>,
}

impl CachedCol {
    fn bytes(&self) -> u64 {
        self.ir.len() as u64 * ENTRY_BYTES
    }
}

/// Per-rank persistent cache of remote `A` columns (see the module docs).
/// An enabled cache keeps every column it is handed until
/// [`SpgemmSession::update_a`] invalidates it; a disabled one holds
/// nothing.
pub struct FetchCache {
    enabled: bool,
    cols: HashMap<(u32, Vidx), CachedCol>,
    resident_bytes: u64,
}

impl FetchCache {
    pub(crate) fn new(cfg: CacheConfig) -> FetchCache {
        FetchCache {
            enabled: cfg.enabled,
            cols: HashMap::new(),
            resident_bytes: 0,
        }
    }

    /// Bytes of column segments currently resident (index + value arrays,
    /// 12 B per stored entry — the same `u32` + `f64` wire cost the reports
    /// meter).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Columns currently resident.
    pub fn resident_cols(&self) -> usize {
        self.cols.len()
    }

    fn contains(&self, owner: usize, col: Vidx) -> bool {
        self.cols.contains_key(&(owner as u32, col))
    }

    /// Borrow a resident column's segment.
    fn peek(&self, owner: usize, col: Vidx) -> Option<(&[Vidx], &[f64])> {
        self.cols
            .get(&(owner as u32, col))
            .map(|c| (c.ir.as_slice(), c.num.as_slice()))
    }

    /// Keep a freshly fetched column. No-op when the cache is disabled or
    /// the column is already resident (block over-fetch can re-deliver
    /// cached columns).
    fn insert(&mut self, owner: usize, col: Vidx, rows: &[Vidx], vals: &[f64]) {
        if !self.enabled {
            return;
        }
        if let Entry::Vacant(slot) = self.cols.entry((owner as u32, col)) {
            self.resident_bytes += rows.len() as u64 * ENTRY_BYTES;
            slot.insert(CachedCol {
                ir: rows.to_vec(),
                num: vals.to_vec(),
            });
        }
    }

    /// Drop a column (its owner's content changed). Returns whether it was
    /// resident.
    fn invalidate(&mut self, owner: usize, col: Vidx) -> bool {
        match self.cols.remove(&(owner as u32, col)) {
            Some(c) => {
                self.resident_bytes -= c.bytes();
                true
            }
            None => false,
        }
    }
}

/// Cumulative counters of a session (sums over all its multiplies).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Multiplies executed through the session.
    pub multiplies: u64,
    /// Σ wire bytes ([`SpgemmReport::fresh_bytes`]).
    pub fresh_bytes: u64,
    /// Σ needed bytes served from cache
    /// ([`SpgemmReport::cache_hit_bytes`]).
    pub cache_hit_bytes: u64,
    /// Σ one-sided messages issued.
    pub rdma_msgs: u64,
    /// [`SpgemmSession::update_a`] calls.
    pub a_updates: u64,
    /// Cached columns invalidated by those updates.
    pub invalidated_cols: u64,
}

impl Wire for SessionStats {
    fn put(&self, out: &mut Vec<u8>) {
        self.multiplies.put(out);
        self.fresh_bytes.put(out);
        self.cache_hit_bytes.put(out);
        self.rdma_msgs.put(out);
        self.a_updates.put(out);
        self.invalidated_cols.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SessionStats {
            multiplies: Wire::get(buf)?,
            fresh_bytes: Wire::get(buf)?,
            cache_hit_bytes: Wire::get(buf)?,
            rdma_msgs: Wire::get(buf)?,
            a_updates: Wire::get(buf)?,
            invalidated_cols: Wire::get(buf)?,
        })
    }
}

/// Wire-encodable image of one rank's session state, for checkpointing
/// iterative jobs run under
/// [`run_recoverable`](sa_mpisim::Universe::run_recoverable): an operand
/// fingerprint, the cumulative [`SessionStats`], and the [`FetchCache`]
/// contents. Taken with [`SpgemmSession::snapshot`] and re-applied with
/// [`SpgemmSession::restore`] after a fresh collective
/// [`SpgemmSession::create`] on the same operand (a restarted process must
/// re-expose its windows — only the cache and counters carry over).
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// Pinned operand fingerprint: global shape + this rank's local nnz.
    nrows: u64,
    ncols: u64,
    local_nnz: u64,
    stats: SessionStats,
    /// Cached column segments, ascending by `(owner, global column)` so
    /// snapshot bytes are deterministic (the cache map itself iterates in
    /// arbitrary order).
    cols: Vec<(u32, Vidx, Vec<Vidx>, Vec<f64>)>,
}

impl SessionSnapshot {
    /// Cached columns captured in this snapshot.
    pub fn cached_cols(&self) -> usize {
        self.cols.len()
    }

    /// Cumulative session counters at snapshot time.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }
}

impl Wire for SessionSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        self.nrows.put(out);
        self.ncols.put(out);
        self.local_nnz.put(out);
        self.stats.put(out);
        self.cols.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SessionSnapshot {
            nrows: Wire::get(buf)?,
            ncols: Wire::get(buf)?,
            local_nnz: Wire::get(buf)?,
            stats: Wire::get(buf)?,
            cols: Wire::get(buf)?,
        })
    }
}

/// What the *next* [`SpgemmSession::multiply`] with this operand would do —
/// the incremental counterpart of [`analyze_1d`](crate::spgemm1d::analyze_1d).
///
/// Computed purely from replicated metadata and local cache state: unlike
/// `analyze_1d` this is **not** collective and moves no data at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionAnalysis {
    /// Bytes the multiply will fetch over the wire (the planned misses,
    /// including block over-fetch).
    pub planned_fresh_bytes: u64,
    /// Ranged fetches it will issue.
    pub planned_intervals: u64,
    /// Needed bytes the cache will serve without traffic.
    pub cache_hit_bytes: u64,
    /// Bytes the sparsity strictly requires (hits + needed part of the
    /// misses).
    pub needed_bytes: u64,
}

/// Outcome of the incremental symbolic pass: which needed columns the cache
/// already holds, and the mask of those that must travel. The default (no
/// hits) is the sessionless multiply's.
#[derive(Default)]
pub(crate) struct Survey {
    /// Global-column mask of needed-but-uncached columns.
    miss: Vec<bool>,
    /// Resident needed columns: (owner, global column, owner-storage
    /// position, entry bytes), ascending by (owner, position).
    hits: Vec<(usize, Vidx, usize, u64)>,
    /// Σ entry bytes of `hits`.
    hit_bytes: u64,
}

/// Σ bytes of surveyed hits that the miss plan does *not* re-deliver:
/// block/full-matrix over-fetch can pull a cached column back over the wire
/// anyway (the assembly then reads the fresh copy), and such columns must
/// not be reported as traffic the cache avoided. Both lists are ascending
/// by (owner, position), so one merge walk suffices.
fn served_hit_bytes(survey: &Survey, fplan: &FetchPlan) -> u64 {
    let mut iv_iter = fplan.intervals.iter().peekable();
    let mut served = 0u64;
    for &(owner, _g, q, bytes) in &survey.hits {
        // skip intervals entirely before position q (pos.end is exclusive:
        // an interval with pos.end == q + 1 still covers q)
        while iv_iter
            .peek()
            .is_some_and(|iv| (iv.owner, iv.pos.end) <= (owner, q))
        {
            iv_iter.next();
        }
        let covered = iv_iter
            .peek()
            .is_some_and(|iv| iv.owner == owner && iv.pos.contains(&q));
        if !covered {
            served += bytes;
        }
    }
    served
}

/// Expose a fetched operand: replicate its nonzero-column metadata and open
/// a paired window over its entry arrays. Collective.
pub(crate) fn expose<C: Comm>(
    comm: &C,
    local: &Dcsc<f64>,
) -> (Vec<RankMeta>, PairedWindow<Vidx, f64>) {
    let metas = exchange_meta(comm, local);
    let win = PairedWindow::create(comm, local.ir().to_vec(), local.num().to_vec());
    (metas, win)
}

/// What a caller's symbolic phase hands [`Pipeline1D::multiply`]. Planning
/// stays with the caller because it is where the two callers differ: the
/// sessionless multiply plans every needed column ([`plan_fetch`], an empty
/// survey), a session plans only what its cache misses.
pub(crate) struct Symbolic {
    pub survey: Survey,
    pub fplan: FetchPlan,
    /// Counters and clock read before the symbolic phase began, so the
    /// report covers the whole call.
    pub stats0: CommStats,
    pub t_call: Instant,
}

/// Algorithm 1 from the fetch on — assemble `Ã`, multiply, wrap, report —
/// over a borrowed exposed operand. [`spgemm_1d`](crate::spgemm1d::spgemm_1d)
/// runs it once against a disabled cache; [`SpgemmSession::multiply`]
/// runs it against the session's own; the sparsity-aware 2D SUMMA stops
/// after [`assemble`](Pipeline1D::assemble), its block row of `A` exposed
/// along the process row.
pub(crate) struct Pipeline1D<'a> {
    pub a: &'a DistMat1D,
    pub metas: &'a [RankMeta],
    pub win: &'a PairedWindow<Vidx, f64>,
    pub ws: &'a SpgemmWorkspace<f64>,
    pub cache: &'a mut FetchCache,
}

impl Pipeline1D<'_> {
    pub(crate) fn multiply<C, E>(
        mut self,
        comm: &C,
        b: &DistMat1D,
        plan: &Plan1D,
        sym: Symbolic,
        epilogue: Option<&E>,
    ) -> (DistMat1D, SpgemmReport)
    where
        C: Comm,
        E: Fn(&[Vidx], &mut [f64], &mut Vec<Vidx>, &mut Vec<f64>) + Sync,
    {
        let Symbolic {
            survey,
            fplan,
            stats0,
            t_call,
        } = sym;
        let symbolic_s = t_call.elapsed().as_secs_f64();

        // --- fetch the plan + merge with cache and local slice into Ã ---
        let t_asm = Instant::now();
        let (atilde, fetch_s) = self.assemble(comm, &survey, &fplan);
        let mut assemble_s = (t_asm.elapsed().as_secs_f64() - fetch_s).max(0.0);

        // --- local kernel ---
        let t0 = Instant::now();
        let (kernel, schedule, ws) = (plan.kernel, plan.schedule, self.ws);
        let c_local = comm.install(|| {
            spgemm_with_epilogue::<PlusTimes<f64>, _, _, _>(
                &atilde,
                b.local(),
                kernel,
                schedule,
                ws,
                epilogue,
            )
        });
        let compute_s = t0.elapsed().as_secs_f64();
        // hand Ã's buffers back for the next multiply's assembly
        let (jc, cp, ir, num) = atilde.into_parts();
        ws.put_chunk(ChunkBuf {
            lens: jc,
            rows: ir,
            vals: num,
        });
        ws.put_idx(cp);

        // --- wrap the output in B's layout ---
        let t_wrap = Instant::now();
        let c = DistMat1D::from_local(
            self.a.nrows(),
            b.ncols(),
            b.offsets().clone(),
            Dcsc::from(c_local),
        );
        assemble_s += t_wrap.elapsed().as_secs_f64();

        // --- exact accounting ---
        let comm_delta = comm.stats() - stats0;
        let fetched = fplan.fetch_bytes();
        debug_assert_eq!(comm_delta.rdma_get_bytes, fetched, "metered == planned");
        let (fetched_global, cv) = if plan.global_stats {
            let (total, max_fetched, mem_global) = global_volume(comm, fetched, self.a);
            (total, cv_of(max_fetched, mem_global))
        } else {
            // local-only variant of the criterion: this rank's volume over
            // its own slice footprint
            let mem_local = self.a.local().nnz() as u64 * ENTRY_BYTES;
            (fetched, cv_of(fetched, mem_local))
        };
        let report = SpgemmReport {
            fetched_bytes: fetched,
            fresh_bytes: fetched,
            cache_hit_bytes: served_hit_bytes(&survey, &fplan),
            needed_bytes: survey.hit_bytes + fplan.needed_bytes(),
            fetched_bytes_global: fetched_global,
            rdma_msgs: fplan.rdma_msgs(),
            cv_over_mem: cv,
            comm: comm_delta,
            phases: PhaseTimes {
                symbolic_s,
                fetch_s,
                compute_s,
                assemble_s,
            },
        };
        (c, report)
    }

    /// Assemble `Ã` in ascending global-column order — every planned
    /// interval (over-fetched columns included), the surveyed hits no
    /// interval re-delivers, and the local slice at its owner position —
    /// into buffers recycled through the workspace. One owner/position walk
    /// fills `jc`/`cp` from the replicated metadata and lists the gets,
    /// which move as one batch. With no hit to interleave, the batch (the
    /// local slice riding as a free own-rank get) lands straight in `Ã`'s
    /// `ir`/`num`; otherwise it lands in a staging chunk and is stitched
    /// around the cached columns and the local slice. An enabled cache
    /// then takes the fresh columns out of `Ã`. Returns `Ã` and the seconds
    /// spent inside the batched get.
    pub(crate) fn assemble<C: Comm>(
        &mut self,
        comm: &C,
        survey: &Survey,
        fplan: &FetchPlan,
    ) -> (Dcsc<f64>, f64) {
        let me = comm.rank();
        let (local, offsets) = (self.a.local(), self.a.offsets());
        let direct = survey.hits.is_empty();
        let ChunkBuf {
            lens: mut jc,
            rows: mut ir,
            vals: mut num,
        } = self.ws.take_chunk();
        let mut cp = self.ws.take_idx();
        let nzc_estimate = local.nzc()
            + survey.hits.len()
            + fplan.intervals.iter().map(|iv| iv.pos.len()).sum::<usize>();
        jc.reserve(nzc_estimate);
        cp.reserve(nzc_estimate + 1);
        cp.push(0);

        let mut gets = Vec::with_capacity(fplan.intervals.len() + 1);
        // Ã column at which each interval starts, for a cache that keeps them
        let caching = self.cache.enabled;
        let mut fresh_at = Vec::with_capacity(if caching { fplan.intervals.len() } else { 0 });
        // what the stitch splices between staged runs: (Ã column, owner of
        // a cached column | None for the local slice)
        let mut spliced: Vec<(usize, Option<usize>)> =
            Vec::with_capacity(if direct { 0 } else { survey.hits.len() + 1 });
        let mut ivs = fplan.intervals.iter().peekable();
        let mut hits = survey.hits.iter().peekable();
        for owner in 0..comm.size() {
            if owner == me {
                if direct {
                    gets.push((me, 0..local.nnz()));
                } else {
                    spliced.push((jc.len(), None));
                }
                let base = offsets[me];
                for q in 0..local.nzc() {
                    jc.push(vidx(base + local.jc()[q] as usize));
                    cp.push(cp.last().unwrap() + (local.cp()[q + 1] - local.cp()[q]));
                }
                continue;
            }
            let base = offsets[owner];
            let meta = &self.metas[owner];
            let push_col = |jc: &mut Vec<Vidx>, cp: &mut Vec<usize>, q: usize| {
                jc.push(vidx(base + meta.jc[q] as usize));
                cp.push(cp.last().unwrap() + meta.col_entries(q) as usize);
            };
            loop {
                let iv = ivs.next_if(|iv| iv.owner == owner);
                // the cached columns stored before this interval (after the
                // owner's last: all it has left); a hit stored inside an
                // interval arrives fresh with it
                let (start, end) =
                    iv.map_or((usize::MAX, usize::MAX), |iv| (iv.pos.start, iv.pos.end));
                while let Some(&(_, _, q, _)) = hits.next_if(|h| h.0 == owner && h.2 < end) {
                    if q < start {
                        spliced.push((jc.len(), Some(owner)));
                        push_col(&mut jc, &mut cp, q);
                    }
                }
                let Some(iv) = iv else { break };
                gets.push(iv.get());
                if caching {
                    fresh_at.push(jc.len());
                }
                for q in iv.pos.clone() {
                    push_col(&mut jc, &mut cp, q);
                }
            }
        }
        let nnz = *cp.last().unwrap();
        ir.reserve(nnz);
        num.reserve(nnz);

        let mut stage = (!direct).then(|| self.ws.take_chunk());
        let (land_ir, land_num) = match &mut stage {
            Some(stage) => (&mut stage.rows, &mut stage.vals),
            None => (&mut ir, &mut num),
        };
        let t0 = Instant::now();
        self.win
            .get_many_into(comm, &gets, land_ir, land_num)
            .expect("fetch interval within exposed window");
        let comm_s = t0.elapsed().as_secs_f64();

        if let Some(stage) = stage {
            // the staged entries are Ã's minus the spliced pieces, in order
            let mut staged = 0usize;
            let mut run = |upto: usize, ir: &mut Vec<Vidx>, num: &mut Vec<f64>| {
                let n = upto - ir.len();
                ir.extend_from_slice(&stage.rows[staged..staged + n]);
                num.extend_from_slice(&stage.vals[staged..staged + n]);
                staged += n;
            };
            for &(k, src) in &spliced {
                run(cp[k], &mut ir, &mut num);
                let (rows, vals) = match src {
                    None => (local.ir(), local.num()),
                    Some(owner) => self
                        .cache
                        .peek(owner, jc[k])
                        .expect("surveyed hit still resident"),
                };
                ir.extend_from_slice(rows);
                num.extend_from_slice(vals);
            }
            run(nnz, &mut ir, &mut num);
            self.ws.put_chunk(stage);
        }

        for (iv, &k0) in fplan.intervals.iter().zip(&fresh_at) {
            for k in k0..k0 + iv.pos.len() {
                let e = cp[k]..cp[k + 1];
                self.cache.insert(iv.owner, jc[k], &ir[e.clone()], &num[e]);
            }
        }
        let atilde = Dcsc::from_parts(self.a.nrows(), self.a.ncols(), jc, cp, ir, num);
        (atilde, comm_s)
    }
}

/// A pinned fetched operand for repeated [`spgemm_1d`]-style multiplies.
///
/// Created collectively once; afterwards each [`multiply`] fetches only the
/// columns the cache is missing. See the module docs for the design, and
/// [`spgemm_1d`] for the sessionless baseline semantics this preserves.
///
/// [`spgemm_1d`]: crate::spgemm1d::spgemm_1d
/// [`multiply`]: SpgemmSession::multiply
///
/// ```
/// use sa_dist::{uniform_offsets, CacheConfig, DistMat1D, Plan1D, SpgemmSession};
/// use sa_mpisim::{Comm, Universe};
/// use sa_sparse::gen::erdos_renyi;
///
/// let a = erdos_renyi(60, 60, 3.0, 7);
/// let reports = Universe::new(3).run(|comm| {
///     let offsets = uniform_offsets(60, comm.size());
///     let da = DistMat1D::from_global(comm, &a, &offsets);
///     let db = da.clone();
///     let mut session =
///         SpgemmSession::create(comm, da, Plan1D::default(), CacheConfig::unlimited());
///     let (_c1, first) = session.multiply(comm, &db);
///     let (_c2, second) = session.multiply(comm, &db);
///     (first, second)
/// });
/// for (first, second) in reports {
///     // iteration 2 reuses every column iteration 1 fetched
///     assert_eq!(second.fresh_bytes, 0);
///     assert_eq!(second.cache_hit_bytes, first.needed_bytes);
/// }
/// ```
pub struct SpgemmSession {
    a: DistMat1D,
    metas: Vec<RankMeta>,
    win: PairedWindow<Vidx, f64>,
    plan: Plan1D,
    cache: FetchCache,
    stats: SessionStats,
    /// Allocation arena shared by every multiply of this session: kernel
    /// scratch, fetch staging, and the `Ã` builder's buffers all live
    /// here, so steady-state iterations allocate nothing on the hot path
    /// beyond output growth.
    ws: SpgemmWorkspace<f64>,
}

impl SpgemmSession {
    /// Pin `a` as the session's fetched operand: replicate its nonzero-column
    /// metadata and expose its entry arrays through a paired window, both
    /// kept for the session's lifetime. Collective.
    pub fn create<C: Comm>(
        comm: &C,
        a: DistMat1D,
        plan: Plan1D,
        cache: CacheConfig,
    ) -> SpgemmSession {
        let (metas, win) = expose(comm, a.local());
        SpgemmSession {
            a,
            metas,
            win,
            plan,
            cache: FetchCache::new(cache),
            stats: SessionStats::default(),
            ws: SpgemmWorkspace::new(),
        }
    }

    /// The pinned operand.
    pub fn a(&self) -> &DistMat1D {
        &self.a
    }

    /// The session's execution plan.
    pub fn plan(&self) -> &Plan1D {
        &self.plan
    }

    /// Cumulative counters over the session's multiplies.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The cache (resident byte and column counters).
    pub fn cache(&self) -> &FetchCache {
        &self.cache
    }

    /// The session's allocation arena (pool hit/miss counters — the
    /// steady-state zero-allocation property is asserted through these).
    pub fn workspace(&self) -> &SpgemmWorkspace<f64> {
        &self.ws
    }

    /// Incremental symbolic pass: classify every needed remote column as a
    /// cache hit or a miss.
    fn survey(&self, me: usize, needed: &[bool]) -> Survey {
        let offsets = self.a.offsets();
        let mut miss = vec![false; self.a.ncols()];
        let mut hits = Vec::new();
        let mut hit_bytes = 0u64;
        for (owner, meta) in self.metas.iter().enumerate() {
            if owner == me {
                continue;
            }
            let base = offsets[owner];
            for q in 0..meta.nzc() {
                let g = base + meta.jc[q] as usize;
                if !needed[g] {
                    continue;
                }
                if self.cache.contains(owner, vidx(g)) {
                    let bytes = meta.col_entries(q) * ENTRY_BYTES;
                    hits.push((owner, vidx(g), q, bytes));
                    hit_bytes += bytes;
                } else {
                    miss[g] = true;
                }
            }
        }
        Survey {
            miss,
            hits,
            hit_bytes,
        }
    }

    /// Coalesce the missed columns into ranged fetches. All modes reuse the
    /// sessionless planner; [`FetchMode::FullMatrix`] keeps its
    /// all-or-nothing-per-owner semantics but skips owners whose slice the
    /// cache fully covers (otherwise a cache could never help it).
    fn plan_misses(&self, me: usize, miss: &[bool]) -> FetchPlan {
        let offsets = self.a.offsets();
        if self.plan.fetch_mode != FetchMode::FullMatrix {
            return plan_fetch(self.plan.fetch_mode, &self.metas, offsets, miss, me);
        }
        let mut intervals = Vec::new();
        let mut fetch_entries = 0u64;
        let mut needed_entries = 0u64;
        for (owner, meta) in self.metas.iter().enumerate() {
            if owner == me || meta.nzc() == 0 {
                continue;
            }
            let base = offsets[owner];
            let mut any = false;
            for q in 0..meta.nzc() {
                if miss[base + meta.jc[q] as usize] {
                    needed_entries += meta.col_entries(q);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            fetch_entries += meta.cp[meta.nzc()];
            intervals.push(Interval {
                owner,
                pos: 0..meta.nzc(),
                entries: 0..meta.cp[meta.nzc()],
            });
        }
        FetchPlan {
            intervals,
            fetch_entries,
            needed_entries,
        }
    }

    /// Price the next [`multiply`](SpgemmSession::multiply) with `b` without
    /// moving any data. Purely local (the metadata is replicated and the
    /// cache is per-rank): **not** collective, unlike
    /// [`analyze_1d`](crate::spgemm1d::analyze_1d).
    ///
    /// The prediction is exact: an immediately following `multiply` with the
    /// same `b` meters `planned_fresh_bytes` on the wire and serves
    /// `cache_hit_bytes` from cache, to the byte.
    pub fn analyze<C: Comm>(&self, comm: &C, b: &DistMat1D) -> SessionAnalysis {
        assert_conformal(&self.a, b);
        let needed = b.local().row_hit_vector();
        let survey = self.survey(comm.rank(), &needed);
        let fplan = self.plan_misses(comm.rank(), &survey.miss);
        SessionAnalysis {
            planned_fresh_bytes: fplan.fetch_bytes(),
            planned_intervals: fplan.intervals.len() as u64,
            cache_hit_bytes: served_hit_bytes(&survey, &fplan),
            needed_bytes: survey.hit_bytes + fplan.needed_bytes(),
        }
    }

    /// One session multiply: `C = Ã·B_loc` where `Ã` is assembled from the
    /// local slice, cache hits, and coalesced fetches of the misses (which
    /// are inserted into the cache for later iterations). Returns `C` in
    /// `B`'s column layout plus this rank's report. Collective only through
    /// the window fetches (plus two allreduces when
    /// [`Plan1D::global_stats`] is set).
    pub fn multiply<C: Comm>(&mut self, comm: &C, b: &DistMat1D) -> (DistMat1D, SpgemmReport) {
        self.multiply_with(comm, b, None::<&NoEpilogue<f64>>)
    }

    /// [`multiply`](SpgemmSession::multiply) with a per-column epilogue
    /// fused into the local kernel (see
    /// [`spgemm_with_epilogue`]): each rank gets the epilogue's image of its
    /// product slice without ever holding the slice itself — how MCL
    /// inflates and prunes `M²` as it is computed. Traffic, cache transcript
    /// and report are those of the plain multiply.
    pub fn multiply_with<C, E>(
        &mut self,
        comm: &C,
        b: &DistMat1D,
        epilogue: Option<&E>,
    ) -> (DistMat1D, SpgemmReport)
    where
        C: Comm,
        E: Fn(&[Vidx], &mut [f64], &mut Vec<Vidx>, &mut Vec<f64>) + Sync,
    {
        assert_conformal(&self.a, b);
        let stats0 = comm.stats();
        let t_call = Instant::now();
        let me = comm.rank();

        // --- incremental symbolic pass ---
        let survey = self.survey(me, &b.local().row_hit_vector());
        let fplan = self.plan_misses(me, &survey.miss);

        let sym = Symbolic {
            survey,
            fplan,
            stats0,
            t_call,
        };
        let (c, report) = Pipeline1D {
            a: &self.a,
            metas: &self.metas,
            win: &self.win,
            ws: &self.ws,
            cache: &mut self.cache,
        }
        .multiply(comm, b, &self.plan, sym, epilogue);
        self.stats.multiplies += 1;
        self.stats.fresh_bytes += report.fresh_bytes;
        self.stats.cache_hit_bytes += report.cache_hit_bytes;
        self.stats.rdma_msgs += report.rdma_msgs;
        (c, report)
    }

    /// Re-anchor the session on a changed operand without discarding the
    /// cache: each rank diffs its new slice against the old one column by
    /// column, the changed global-column lists are allgathered (metadata
    /// traffic, like the symbolic pass), and exactly those columns are
    /// invalidated everywhere. The metadata and window exposure are
    /// refreshed. Layout (dimensions and offsets) must be unchanged.
    /// Collective. Returns the number of globally changed columns.
    pub fn update_a<C: Comm>(&mut self, comm: &C, new_a: DistMat1D) -> u64 {
        assert_eq!(self.a.nrows(), new_a.nrows(), "update_a cannot resize");
        assert_eq!(self.a.ncols(), new_a.ncols(), "update_a cannot resize");
        assert_eq!(
            self.a.offsets(),
            new_a.offsets(),
            "update_a cannot relayout"
        );
        let me = comm.rank();
        let changed = changed_columns(self.a.local(), new_a.local());
        let all_changed = comm.allgatherv(changed);
        let mut total = 0u64;
        let mut invalidated = 0u64;
        for (owner, list) in all_changed.iter().enumerate() {
            total += list.len() as u64;
            if owner == me {
                continue;
            }
            let base = self.a.offsets()[owner];
            for &lc in list {
                if self.cache.invalidate(owner, vidx(base + lc as usize)) {
                    invalidated += 1;
                }
            }
        }
        (self.metas, self.win) = expose(comm, new_a.local());
        self.a = new_a;
        self.stats.a_updates += 1;
        self.stats.invalidated_cols += invalidated;
        total
    }

    /// Capture this rank's session state for a checkpoint: operand
    /// fingerprint, cumulative [`SessionStats`], and every cached column
    /// segment (in deterministic `(owner, column)` order). Purely local —
    /// no communication.
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut cols: Vec<(u32, Vidx, Vec<Vidx>, Vec<f64>)> = self
            .cache
            .cols
            .iter()
            .map(|(&(o, j), c)| (o, j, c.ir.clone(), c.num.clone()))
            .collect();
        cols.sort_unstable_by_key(|t| (t.0, t.1));
        SessionSnapshot {
            nrows: self.a.nrows() as u64,
            ncols: self.a.ncols() as u64,
            local_nnz: self.a.local().nnz() as u64,
            stats: self.stats,
            cols,
        }
    }

    /// Re-apply a snapshot to a freshly [`create`](SpgemmSession::create)d
    /// session on the *same* operand: restores the cumulative counters and
    /// re-seeds the cache with the snapshotted columns, so the first
    /// post-restart multiply fetches only what the checkpoint had not yet
    /// seen. Purely local.
    ///
    /// The snapshot's operand fingerprint must match the session's pinned
    /// operand (panics otherwise — restoring cached columns of a different
    /// `A` would silently corrupt results). A disabled cache stays empty.
    pub fn restore(&mut self, snap: &SessionSnapshot) {
        assert_eq!(snap.nrows, self.a.nrows() as u64, "restore: operand nrows");
        assert_eq!(snap.ncols, self.a.ncols() as u64, "restore: operand ncols");
        assert_eq!(
            snap.local_nnz,
            self.a.local().nnz() as u64,
            "restore: operand local nnz"
        );
        self.stats = snap.stats;
        for (owner, col, ir, num) in &snap.cols {
            self.cache.insert(*owner as usize, *col, ir, num);
        }
    }
}

/// Local column ids whose content differs between two slices of the same
/// width (rows or values; columns present in only one count as changed).
fn changed_columns(old: &Dcsc<f64>, new: &Dcsc<f64>) -> Vec<Vidx> {
    let mut changed = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.nzc() || j < new.nzc() {
        let oc = old.jc().get(i).copied();
        let nc = new.jc().get(j).copied();
        match (oc, nc) {
            (Some(a), Some(b)) if a == b => {
                if old.col_by_pos(i) != new.col_by_pos(j) {
                    changed.push(a);
                }
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                changed.push(a);
                i += 1;
            }
            (Some(_), Some(b)) => {
                changed.push(b);
                j += 1;
            }
            (Some(a), None) => {
                changed.push(a);
                i += 1;
            }
            (None, Some(b)) => {
                changed.push(b);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist1d::uniform_offsets;
    use crate::spgemm1d::spgemm_1d;
    use sa_sparse::gen::{banded, erdos_renyi};
    use sa_sparse::Csc;

    fn dist<C: Comm>(comm: &C, a: &Csc<f64>) -> DistMat1D {
        DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()))
    }

    #[test]
    fn session_matches_sessionless_across_modes_and_iterations() {
        let a = erdos_renyi(72, 72, 3.0, 21);
        // two narrow right operands whose needed sets overlap without either
        // containing the other
        let b_cold = erdos_renyi(72, 72, 0.3, 22);
        let b_warm = erdos_renyi(72, 72, 0.3, 23);
        for (mode, want_resident) in [
            (FetchMode::FullMatrix, 5016u64),
            (FetchMode::Block(4), 2136),
            (FetchMode::ContiguousRuns, 612),
            (FetchMode::ColumnExact, 612),
        ] {
            let u = sa_mpisim::Universe::new(3);
            let got = u.run(|comm| {
                let da = dist(comm, &a);
                let db = da.clone();
                let plan = Plan1D {
                    fetch_mode: mode,
                    ..Default::default()
                };
                let (c_ref, rep_ref) = spgemm_1d(comm, &da, &db, &plan);
                let mut s = SpgemmSession::create(comm, da.clone(), plan, CacheConfig::unlimited());
                let (c1, r1) = s.multiply(comm, &db);
                let (c2, r2) = s.multiply(comm, &db);
                // a partly warm cache: `b_cold` meets an empty one (no hit,
                // the batch lands in Ã directly), `b_warm` then finds cached
                // columns between the intervals it still has to fetch
                let (db_cold, db_warm) = (dist(comm, &b_cold), dist(comm, &b_warm));
                let mut t = SpgemmSession::create(comm, da.clone(), plan, CacheConfig::unlimited());
                t.multiply(comm, &db_cold);
                let resident = t.cache().resident_bytes();
                let pre = t.analyze(comm, &db_warm);
                let before = comm.stats();
                let (c3, r3) = t.multiply(comm, &db_warm);
                let metered = (comm.stats() - before).rdma_get_bytes;
                let (c3_ref, _) = spgemm_1d(comm, &da, &db_warm, &plan);
                (
                    c_ref.gather(comm),
                    c1.gather(comm),
                    c2.gather(comm),
                    rep_ref,
                    r1,
                    r2,
                    (c3.local() == c3_ref.local(), resident, pre, r3, metered),
                )
            });
            let (c_ref, c1, c2, rep_ref, r1, r2, _) = &got[0];
            assert_eq!(c1, c_ref, "{mode:?}: first session multiply");
            assert_eq!(c2, c_ref, "{mode:?}: repeated session multiply");
            assert_eq!(r1.fresh_bytes, rep_ref.fetched_bytes, "{mode:?}");
            assert_eq!(r1.cache_hit_bytes, 0, "{mode:?}: cold cache has no hits");
            assert_eq!(r2.fresh_bytes, 0, "{mode:?}: warm cache refetches nothing");
            assert_eq!(r2.rdma_msgs, 0, "{mode:?}");
            assert_eq!(
                r2.cache_hit_bytes, r2.needed_bytes,
                "{mode:?}: warm iteration fully served from cache"
            );
            let mut interleaved = false;
            for (rank, (.., (bit_equal, _, pre, r3, metered))) in got.iter().enumerate() {
                assert!(
                    bit_equal,
                    "{mode:?} rank {rank}: stitched Ã multiplies like spgemm_1d"
                );
                assert_eq!(r3.fresh_bytes, *metered, "{mode:?} rank {rank}");
                assert_eq!(
                    r3.cache_hit_bytes, pre.cache_hit_bytes,
                    "{mode:?} rank {rank}"
                );
                interleaved |= r3.fresh_bytes > 0 && r3.cache_hit_bytes > 0;
            }
            if matches!(mode, FetchMode::Block(4) | FetchMode::ContiguousRuns) {
                assert!(interleaved, "{mode:?}: hits and fresh intervals in one Ã");
            }
            // the literals are what the parent's stage-and-stitch assembly
            // left resident after the same no-hit multiply
            let resident: u64 = got.iter().map(|g| g.6 .1).sum();
            assert_eq!(
                resident, want_resident,
                "{mode:?}: cache after a direct landing"
            );
        }
    }

    #[test]
    fn analysis_predicts_each_iteration_exactly() {
        let a = banded(96, 6, 0.9, true, 3);
        let u = sa_mpisim::Universe::new(4);
        let ok = u.run(|comm| {
            let da = dist(comm, &a);
            let db = da.clone();
            let mut s = SpgemmSession::create(
                comm,
                da,
                Plan1D {
                    global_stats: false,
                    ..Default::default()
                },
                CacheConfig::unlimited(),
            );
            for _ in 0..3 {
                let pre = s.analyze(comm, &db);
                let before = comm.stats();
                let (_c, rep) = s.multiply(comm, &db);
                let metered = comm.stats() - before;
                assert_eq!(pre.planned_fresh_bytes, rep.fresh_bytes);
                assert_eq!(pre.planned_fresh_bytes, metered.rdma_get_bytes);
                assert_eq!(pre.planned_intervals * 2, rep.rdma_msgs);
                assert_eq!(pre.cache_hit_bytes, rep.cache_hit_bytes);
                assert_eq!(pre.needed_bytes, rep.needed_bytes);
            }
            true
        });
        assert!(ok.into_iter().all(|x| x));
    }

    #[test]
    fn disabled_cache_equals_sessionless_traffic_every_iteration() {
        let a = erdos_renyi(64, 64, 3.0, 9);
        let u = sa_mpisim::Universe::new(4);
        let got = u.run(|comm| {
            let da = dist(comm, &a);
            let db = da.clone();
            let plan = Plan1D::default();
            let (_c, rep_ref) = spgemm_1d(comm, &da, &db, &plan);
            let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::disabled());
            let reps: Vec<u64> = (0..3)
                .map(|_| s.multiply(comm, &db).1.fresh_bytes)
                .collect();
            (rep_ref.fetched_bytes, reps, s.cache().resident_cols())
        });
        for (reference, reps, resident) in got {
            assert!(reps.iter().all(|&f| f == reference), "{reps:?}");
            assert_eq!(resident, 0, "disabled cache stores nothing");
        }
    }

    #[test]
    fn update_a_invalidates_only_changed_columns() {
        let a = erdos_renyi(60, 60, 3.0, 13);
        // change a handful of columns' values
        let a2 = {
            let mut m = a.clone();
            let colptr = m.colptr().to_vec();
            let vals = m.vals_mut();
            for j in [3usize, 17, 40, 55] {
                for v in &mut vals[colptr[j]..colptr[j + 1]] {
                    *v *= 2.0;
                }
            }
            m
        };
        let b = erdos_renyi(60, 60, 2.0, 14);
        let u = sa_mpisim::Universe::new(3);
        let got = u.run(|comm| {
            let da = dist(comm, &a);
            let da2 = dist(comm, &a2);
            let db = dist(comm, &b);
            let plan = Plan1D {
                fetch_mode: FetchMode::ColumnExact,
                global_stats: false,
                ..Default::default()
            };
            let expect = spgemm_1d(comm, &da2, &db, &plan).0.gather(comm);
            let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
            let (_c, warm) = s.multiply(comm, &db);
            let changed = s.update_a(comm, da2);
            let (c, delta) = s.multiply(comm, &db);
            (expect, c.gather(comm), warm, delta, changed)
        });
        let touched = [3usize, 17, 40, 55]
            .iter()
            .filter(|&&j| a.col_nnz(j) > 0)
            .count() as u64;
        let (expect, c, warm, delta, changed) = &got[0];
        assert_eq!(c, expect, "post-update multiply uses the new operand");
        assert_eq!(*changed, touched, "exactly the touched columns are dirty");
        assert!(
            delta.fresh_bytes < warm.fresh_bytes,
            "delta fetch {} must be below the cold fetch {}",
            delta.fresh_bytes,
            warm.fresh_bytes
        );
        assert!(
            delta.fresh_bytes <= 4 * ENTRY_BYTES * 60,
            "delta fetch bounded by the changed columns"
        );
    }

    #[test]
    fn overfetched_cached_columns_are_not_double_counted() {
        // every column holds 2 entries (24 B); rank 1 owns cols 20..40
        let a = {
            let mut coo = sa_sparse::Coo::new(40, 40);
            for j in 0..40u32 {
                coo.push(j, j, 1.0);
                coo.push((j + 1) % 40, j, 0.5);
            }
            coo.to_csc_with(|x: f64, _| x)
        };
        // same structure, col 21's values changed (invalidates its cache entry)
        let a2 = {
            let mut m = a.clone();
            let colptr = m.colptr().to_vec();
            let vals = m.vals_mut();
            for v in &mut vals[colptr[21]..colptr[22]] {
                *v *= 2.0;
            }
            m
        };
        // rank 0's B slice needs A-cols {20, 21}; rank 1's needs nothing
        let b = {
            let mut coo = sa_sparse::Coo::new(40, 40);
            for j in 0..20u32 {
                coo.push(20 + (j % 2), j, 1.0);
            }
            coo.to_csc_with(|x: f64, _| x)
        };
        for (mode, want_fresh, want_hit) in [
            // Block(1): the miss on col 21 re-fetches the whole slice, so
            // the cached col 20 arrives fresh anyway — it must NOT also be
            // reported as a cache hit (the double-count regression)
            (FetchMode::Block(1), 20 * 2 * ENTRY_BYTES, 0),
            // ColumnExact: only col 21 travels; col 20 is truly served
            // from cache
            (FetchMode::ColumnExact, 2 * ENTRY_BYTES, 2 * ENTRY_BYTES),
        ] {
            let u = sa_mpisim::Universe::new(2);
            let got = u.run(|comm| {
                let da = dist(comm, &a);
                let da2 = dist(comm, &a2);
                let db = dist(comm, &b);
                let plan = Plan1D {
                    fetch_mode: mode,
                    global_stats: false,
                    ..Default::default()
                };
                let expect = spgemm_1d(comm, &da2, &db, &plan).0.gather(comm);
                let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
                let (_c, _warm) = s.multiply(comm, &db);
                let changed = s.update_a(comm, da2);
                let pre = s.analyze(comm, &db);
                let (c, rep) = s.multiply(comm, &db);
                (expect, c.gather(comm), changed, pre, rep)
            });
            let (expect, c, changed, pre, rep) = &got[0];
            assert_eq!(c, expect, "{mode:?}: correctness");
            assert_eq!(*changed, 1, "{mode:?}: only col 21 dirty");
            assert_eq!(rep.fresh_bytes, want_fresh, "{mode:?}");
            assert_eq!(rep.cache_hit_bytes, want_hit, "{mode:?}");
            // needed is hits + needed misses regardless of over-fetch
            assert_eq!(rep.needed_bytes, 2 * 2 * ENTRY_BYTES, "{mode:?}");
            assert_eq!(pre.planned_fresh_bytes, rep.fresh_bytes, "{mode:?}");
            assert_eq!(pre.cache_hit_bytes, rep.cache_hit_bytes, "{mode:?}");
            assert_eq!(pre.needed_bytes, rep.needed_bytes, "{mode:?}");
        }

        // a hit at the *last* storage position of a re-fetched interval
        // (col 39 = position 19 of the full-slice interval 0..20) must also
        // count as covered — the merge walk's boundary case
        let b_last = {
            let mut coo = sa_sparse::Coo::new(40, 40);
            for j in 0..20u32 {
                coo.push(21 + 18 * (j % 2), j, 1.0); // rows 21 and 39
            }
            coo.to_csc_with(|x: f64, _| x)
        };
        let u = sa_mpisim::Universe::new(2);
        let got = u.run(|comm| {
            let da = dist(comm, &a);
            let da2 = dist(comm, &a2);
            let db = dist(comm, &b_last);
            let plan = Plan1D {
                fetch_mode: FetchMode::FullMatrix,
                global_stats: false,
                ..Default::default()
            };
            let expect = spgemm_1d(comm, &da2, &db, &plan).0.gather(comm);
            let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
            let (_c, _warm) = s.multiply(comm, &db);
            s.update_a(comm, da2); // dirties col 21; col 39 stays cached
            let pre = s.analyze(comm, &db);
            let (c, rep) = s.multiply(comm, &db);
            (expect, c.gather(comm), pre, rep)
        });
        let (expect, c, pre, rep) = &got[0];
        assert_eq!(c, expect, "last-position: correctness");
        assert_eq!(rep.fresh_bytes, 20 * 2 * ENTRY_BYTES, "last-position");
        assert_eq!(
            rep.cache_hit_bytes, 0,
            "hit at interval end is re-delivered fresh, not cache-served"
        );
        assert_eq!(pre.cache_hit_bytes, rep.cache_hit_bytes);
    }

    #[test]
    fn snapshot_restore_round_trips_cache_and_stats() {
        let a = erdos_renyi(64, 64, 3.0, 17);
        let u = sa_mpisim::Universe::new(3);
        let got = u.run(|comm| {
            let da = dist(comm, &a);
            let db = da.clone();
            let plan = Plan1D {
                global_stats: false,
                ..Default::default()
            };
            let mut s = SpgemmSession::create(comm, da.clone(), plan, CacheConfig::unlimited());
            let (c1, r1) = s.multiply(comm, &db);
            let snap = s.snapshot();
            // wire round-trip is lossless
            let snap = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(snap, s.snapshot());
            // a fresh session (as after a process restart) + restore:
            // warm from the first multiply onward
            let mut s2 = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
            s2.restore(&snap);
            assert_eq!(s2.stats(), snap.stats());
            let (c2, r2) = s2.multiply(comm, &db);
            (
                c1.gather(comm),
                c2.gather(comm),
                r1.needed_bytes,
                r2.fresh_bytes,
                r2.cache_hit_bytes,
            )
        });
        for (c1, c2, needed, fresh, hit) in got {
            assert_eq!(c1, c2, "restored session multiplies identically");
            assert_eq!(fresh, 0, "restored cache refetches nothing");
            assert_eq!(hit, needed, "restored cache serves the full needed set");
        }
    }

    #[test]
    fn session_stats_accumulate() {
        let a = erdos_renyi(50, 50, 2.0, 31);
        let u = sa_mpisim::Universe::new(2);
        let got = u.run(|comm| {
            let da = dist(comm, &a);
            let db = da.clone();
            let mut s = SpgemmSession::create(
                comm,
                da,
                Plan1D {
                    global_stats: false,
                    ..Default::default()
                },
                CacheConfig::unlimited(),
            );
            let mut fresh = 0u64;
            let mut hits = 0u64;
            for _ in 0..3 {
                let (_c, rep) = s.multiply(comm, &db);
                fresh += rep.fresh_bytes;
                hits += rep.cache_hit_bytes;
            }
            let st = *s.stats();
            (st, fresh, hits)
        });
        for (st, fresh, hits) in got {
            assert_eq!(st.multiplies, 3);
            assert_eq!(st.fresh_bytes, fresh);
            assert_eq!(st.cache_hit_bytes, hits);
        }
    }
}
