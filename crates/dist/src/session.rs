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
//! * [`SpgemmSession`] — pins the fetched operand: the metadata allgather
//!   and the [`PairedWindow`] exposure happen **once** at
//!   [`SpgemmSession::create`], and every [`SpgemmSession::multiply`] runs
//!   an *incremental* symbolic pass that tests the current needed-column
//!   set against the resident columns and issues coalesced gets only for
//!   the misses. [`SpgemmSession::update_a`] re-anchors the session on a
//!   changed operand, invalidating exactly the columns whose content
//!   changed — iterative solvers that converge (MCL) communicate only the
//!   per-iteration delta.
//! * [`FetchCache`] — `Ã`'s one layout: a column-offset array over every
//!   global column id indexing one pair of entry arrays, and one resident
//!   bit per global column, filled by one walk over `(owner, position
//!   range)` lists. A session's resident copy lays out every stored column
//!   of every owner; a sessionless multiply's one-shot `Ã` only its local
//!   slice and planned intervals, in arrays borrowed from its workspace.
//!   The local slice is copied home, a planned get lands at the offset of
//!   its first column, and the kernel reads the arrays in place: a fetched
//!   byte moves once, and a resident one never again. Under
//!   [`CacheConfig::disabled`] (and in a one-shot `Ã`) no bit is ever set.
//!
//! Metering stays exact: a session multiply's
//! [`SpgemmReport::fresh_bytes`](crate::spgemm1d::SpgemmReport::fresh_bytes)
//! equals the metered window traffic to the byte (the integration tests
//! assert this across iterations, cached and uncached), while
//! [`SpgemmReport::cache_hit_bytes`](crate::spgemm1d::SpgemmReport::cache_hit_bytes)
//! accounts for the needed bytes the cache served instead of the wire.

use crate::dist1d::DistMat1D;
use crate::fetch::{
    exchange_update, plan_fetch, support_bit, FetchPlan, Interval, RankMeta, ENTRY_BYTES,
};
use crate::spgemm1d::{
    assert_conformal, expose, FetchMode, Fetched, Multiply1D, Plan1D, SpgemmReport,
};
use sa_mpisim::{Comm, PairedWindow, PhaseTimes};
use sa_sparse::spgemm::{ChunkBuf, ColSource, NoEpilogue, SpgemmWorkspace};
use sa_sparse::types::{vidx, Vidx};
use sa_sparse::Dcsc;
use std::mem::take;
use std::ops::Range;
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

/// `Ã` in its one layout: a session's resident copy of its fetched operand,
/// or a sessionless multiply's one-shot `Ã` (see the module docs). An
/// enabled cache keeps every remote column a get delivers until
/// [`SpgemmSession::update_a`] invalidates it; a disabled one keeps none.
pub struct FetchCache {
    enabled: bool,
    nrows: usize,
    /// Where each global column's entries start in `ir`/`num` (`ncols + 1`
    /// offsets); a column the layout left out is empty.
    ptr: Vec<usize>,
    ir: Vec<Vidx>,
    num: Vec<f64>,
    /// One bit per global column: set for a remote column whose entries
    /// are home.
    resident: Vec<u64>,
    resident_cols: usize,
    resident_bytes: u64,
}

impl FetchCache {
    /// `a` laid out with its local slice home and nothing remote resident.
    fn new(cfg: CacheConfig, a: &DistMat1D, metas: &[RankMeta], me: usize) -> FetchCache {
        let mut cache = FetchCache {
            enabled: cfg.enabled,
            nrows: a.nrows(),
            ptr: Vec::new(),
            ir: Vec::new(),
            num: Vec::new(),
            resident: vec![0; a.ncols().div_ceil(64)],
            resident_cols: 0,
            resident_bytes: 0,
        };
        cache.lay_out(a, metas, me);
        cache
    }

    /// Bytes of remote columns currently resident (index + value arrays,
    /// 12 B per stored entry — the same `u32` + `f64` wire cost the reports
    /// meter).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Remote columns currently resident.
    pub fn resident_cols(&self) -> usize {
        self.resident_cols
    }

    fn contains(&self, g: usize) -> bool {
        support_bit(&self.resident, g)
    }

    /// Mark column `g` resident (its entries are home).
    fn keep(&mut self, g: usize) {
        let bit = 1u64 << (g % 64);
        if self.resident[g / 64] & bit == 0 {
            self.resident[g / 64] |= bit;
            self.resident_cols += 1;
            self.resident_bytes += (self.ptr[g + 1] - self.ptr[g]) as u64 * ENTRY_BYTES;
        }
    }

    /// Drop column `g` (its owner's content changed). Returns whether it
    /// was resident.
    fn clear(&mut self, g: usize) -> bool {
        let bit = 1u64 << (g % 64);
        let was = self.resident[g / 64] & bit != 0;
        if was {
            self.resident[g / 64] &= !bit;
            self.resident_cols -= 1;
            self.resident_bytes -= (self.ptr[g + 1] - self.ptr[g]) as u64 * ENTRY_BYTES;
        }
        was
    }

    /// Lay the arrays out for `a` and its replicated metadata `metas`: the
    /// local slice copied home, every resident column moved to its new
    /// home (an unchanged column keeps its length), nothing else written.
    fn lay_out(&mut self, a: &DistMat1D, metas: &[RankMeta], me: usize) {
        let (ptr, ir, num) = (take(&mut self.ptr), take(&mut self.ir), take(&mut self.num));
        let every = metas.iter().enumerate().map(|(o, m)| (o, 0..m.nzc()));
        self.fill(a, metas, me, every);
        for g in set_bits(&self.resident) {
            let (old, new) = (ptr[g]..ptr[g + 1], self.ptr[g]..self.ptr[g + 1]);
            self.ir[new.clone()].copy_from_slice(&ir[old.clone()]);
            self.num[new].copy_from_slice(&num[old]);
        }
    }

    /// Lay out the stored columns `spans` lists (ascending; the local slice
    /// among them) over the arrays, reused where they fit, else fresh zeroed
    /// memory whose pages only a write touches; copy the local slice home.
    fn fill<S>(&mut self, a: &DistMat1D, metas: &[RankMeta], me: usize, spans: S)
    where
        S: IntoIterator<Item = (usize, Range<usize>)>,
    {
        let (ptr, mut end) = (&mut self.ptr, 0usize);
        ptr.clear();
        ptr.reserve(a.ncols() + 1);
        for (owner, pos) in spans {
            let (base, meta) = (a.offsets()[owner], &metas[owner]);
            for q in pos {
                // ids up to and including this column start where it does
                ptr.resize(base + meta.jc[q] as usize + 1, end);
                end += meta.col_entries(q) as usize;
            }
        }
        ptr.resize(a.ncols() + 1, end);
        zeros(&mut self.ir, end);
        zeros(&mut self.num, end);
        let (local, home) = (a.local(), self.ptr[a.offsets()[me]]);
        self.ir[home..home + local.nnz()].copy_from_slice(local.ir());
        self.num[home..home + local.nnz()].copy_from_slice(local.num());
    }

    /// A sessionless multiply's `Ã`: the local slice and `fplan`'s intervals
    /// (over-fetch included) laid out in arrays borrowed from `ws` until
    /// [`FetchCache::recycle`], then landed. Also returns the borrowed
    /// chunk's `lens`, which `Ã` does not use and `recycle` hands back with
    /// it, and the get's seconds.
    pub(crate) fn one_shot<C: Comm>(
        comm: &C,
        a: &DistMat1D,
        metas: &[RankMeta],
        win: &PairedWindow<Vidx, f64>,
        fplan: &FetchPlan,
        ws: &SpgemmWorkspace<f64>,
    ) -> (FetchCache, Vec<u32>, f64) {
        let (me, ivs) = (comm.rank(), &fplan.intervals);
        let split = ivs.partition_point(|iv| iv.owner < me);
        let span = |iv: &Interval| (iv.owner, iv.pos.clone());
        let spans = (ivs[..split].iter().map(span))
            .chain([(me, 0..metas[me].nzc())])
            .chain(ivs[split..].iter().map(span));
        let ChunkBuf { lens, rows, vals } = ws.take_chunk();
        let mut atilde = FetchCache {
            enabled: false,
            nrows: a.nrows(),
            ptr: ws.take_idx(),
            ir: rows,
            num: vals,
            resident: Vec::new(),
            resident_cols: 0,
            resident_bytes: 0,
        };
        atilde.fill(a, metas, me, spans);
        let fetch_s = atilde.land(comm, win, metas, a.offsets(), fplan);
        (atilde, lens, fetch_s)
    }

    /// Hand a [`FetchCache::one_shot`]'s arrays and `lens` back to `ws`.
    pub(crate) fn recycle(self, lens: Vec<u32>, ws: &SpgemmWorkspace<f64>) {
        let (rows, vals) = (self.ir, self.num);
        ws.put_chunk(ChunkBuf { lens, rows, vals });
        ws.put_idx(self.ptr);
    }

    /// Bytes of the pointer array and the laid-out entries.
    pub(crate) fn mem_bytes(&self) -> u64 {
        (self.ptr.len() * std::mem::size_of::<usize>()) as u64 + self.ir.len() as u64 * ENTRY_BYTES
    }

    /// Move `fplan` with one batched get, each interval landing at the
    /// `ptr` of its first column; an enabled cache keeps every column it
    /// delivered (over-fetch too). Returns the seconds inside the get.
    fn land<C: Comm>(
        &mut self,
        comm: &C,
        win: &PairedWindow<Vidx, f64>,
        metas: &[RankMeta],
        offsets: &[usize],
        fplan: &FetchPlan,
    ) -> f64 {
        let first = |iv: &Interval| offsets[iv.owner] + metas[iv.owner].jc[iv.pos.start] as usize;
        let gets: Vec<_> = (fplan.intervals.iter())
            .map(|iv| iv.get(self.ptr[first(iv)]))
            .collect();
        let t0 = Instant::now();
        win.get_many_at(comm, &gets, &mut self.ir, &mut self.num)
            .expect("fetch interval within exposed window");
        let fetch_s = t0.elapsed().as_secs_f64();
        if self.enabled {
            for iv in &fplan.intervals {
                let (base, meta) = (offsets[iv.owner], &metas[iv.owner]);
                for q in iv.pos.clone() {
                    self.keep(base + meta.jc[q] as usize);
                }
            }
        }
        fetch_s
    }
}

/// `v` as `len` zeros, in place when its capacity suffices.
fn zeros<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        *v = vec![T::default(); len];
    } else {
        v.clear();
        v.resize(len, T::default());
    }
}

/// Ids of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                64 * w + b
            })
        })
    })
}

/// The laid-out arrays as the kernel's `Ã`, column `j` at
/// `ptr[j]..ptr[j + 1]`. The kernel reads only the columns the multiply
/// needs, and every one of them is home: local, resident, or just landed.
impl ColSource<f64> for FetchCache {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ptr.len() - 1
    }
    #[inline]
    fn col(&self, j: usize) -> (&[Vidx], &[f64]) {
        let e = self.ptr[j]..self.ptr[j + 1];
        (&self.ir[e.clone()], &self.num[e])
    }
    #[inline]
    fn col_nnz(&self, j: usize) -> usize {
        self.ptr[j + 1] - self.ptr[j]
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

sa_mpisim::wire_struct!(SessionStats {
    multiplies,
    fresh_bytes,
    cache_hit_bytes,
    rdma_msgs,
    a_updates,
    invalidated_cols
});

/// Wire-encodable image of one rank's session state, for checkpointing
/// iterative jobs run under
/// [`run_recoverable`](sa_mpisim::Universe::run_recoverable): an operand
/// fingerprint, the cumulative [`SessionStats`], and the [`FetchCache`]'s
/// resident columns. Taken with [`SpgemmSession::snapshot`] and re-applied with
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
    /// Resident column segments, ascending by `(owner, global column)`.
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

sa_mpisim::wire_struct!(SessionSnapshot {
    nrows,
    ncols,
    local_nnz,
    stats,
    cols
});

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

sa_mpisim::wire_struct!(SessionAnalysis {
    planned_fresh_bytes,
    planned_intervals,
    cache_hit_bytes,
    needed_bytes
});

/// Outcome of the incremental symbolic pass: which needed columns are
/// resident, and the mask of those that must travel.
struct Survey {
    /// Global-column mask of needed-but-absent columns.
    miss: Vec<bool>,
    /// Resident needed columns: (owner, owner-storage position, entry
    /// bytes), ascending.
    hits: Vec<(usize, usize, u64)>,
    /// Σ entry bytes of `hits`.
    hit_bytes: u64,
}

/// Σ bytes of surveyed hits that the miss plan does *not* re-deliver:
/// block/full-matrix over-fetch can pull a resident column back over the
/// wire anyway, and such columns must not be reported as traffic the cache
/// avoided. Both lists are ascending by (owner, position), so one merge
/// walk suffices.
fn served_hit_bytes(survey: &Survey, fplan: &FetchPlan) -> u64 {
    let mut iv_iter = fplan.intervals.iter().peekable();
    let mut served = 0u64;
    for &(owner, q, bytes) in &survey.hits {
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
    /// scratch and output buffers live here, so steady-state iterations
    /// allocate nothing on the hot path beyond output growth.
    ws: SpgemmWorkspace<f64>,
}

impl SpgemmSession {
    /// Pin `a` as the session's fetched operand: replicate its nonzero-column
    /// metadata and expose its entry arrays through a paired window, both
    /// kept for the session's lifetime, and lay out the resident copy with
    /// the local slice home. Collective.
    pub fn create<C: Comm>(
        comm: &C,
        a: DistMat1D,
        plan: Plan1D,
        cache: CacheConfig,
    ) -> SpgemmSession {
        let (metas, win) = expose(comm, a.local());
        let cache = FetchCache::new(cache, &a, &metas, comm.rank());
        SpgemmSession {
            a,
            metas,
            win,
            plan,
            cache,
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

    /// Incremental symbolic pass: classify every needed remote column as
    /// resident (a hit) or a miss.
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
                if self.cache.contains(g) {
                    let bytes = meta.col_entries(q) * ENTRY_BYTES;
                    hits.push((owner, q, bytes));
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

    /// One session multiply: `C = Ã·B_loc` where `Ã` is the resident copy,
    /// its misses fetched home first (and kept for later iterations).
    /// Returns `C` in `B`'s column layout plus this rank's report.
    /// Collective only through the window fetches (plus two allreduces when
    /// [`Plan1D::global_stats`] is set).
    pub fn multiply<C: Comm>(&mut self, comm: &C, b: &DistMat1D) -> (DistMat1D, SpgemmReport) {
        self.multiply_with(comm, b, None::<&NoEpilogue<f64>>)
    }

    /// [`multiply`](SpgemmSession::multiply) with a per-column epilogue
    /// fused into the local kernel (see
    /// [`spgemm_with_epilogue`](sa_sparse::spgemm::spgemm_with_epilogue)):
    /// each rank gets the epilogue's image of its product slice without
    /// ever holding the slice itself — how MCL inflates and prunes `M²` as
    /// it is computed. Traffic, cache transcript and report are those of
    /// the plain multiply.
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
        let symbolic_s = t_call.elapsed().as_secs_f64();

        // --- the misses home; Ã is then the resident copy itself ---
        let t_land = Instant::now();
        let fetch_s = self
            .cache
            .land(comm, &self.win, &self.metas, self.a.offsets(), &fplan);
        let assemble_s = (t_land.elapsed().as_secs_f64() - fetch_s).max(0.0);
        let fetched = Fetched {
            fplan: &fplan,
            hit_bytes: survey.hit_bytes,
            served_hit_bytes: served_hit_bytes(&survey, &fplan),
            stats0,
            phases: PhaseTimes {
                symbolic_s,
                fetch_s,
                compute_s: 0.0,
                assemble_s,
            },
        };
        let (c, report) = Multiply1D {
            a: &self.a,
            b,
            plan: &self.plan,
            ws: &self.ws,
        }
        .finish(comm, &self.cache, fetched, epilogue);
        self.stats.multiplies += 1;
        self.stats.fresh_bytes += report.fresh_bytes;
        self.stats.cache_hit_bytes += report.cache_hit_bytes;
        self.stats.rdma_msgs += report.rdma_msgs;
        (c, report)
    }

    /// Re-anchor the session on a changed operand without discarding the
    /// cache: each rank diffs its new slice against the old one column by
    /// column, the changed-column lists are allgathered as runs of
    /// consecutive ids (encoded like the symbolic pass's `⃗D`) in the same
    /// one metadata round as the new operand's record, and exactly those
    /// columns are invalidated everywhere. The window exposure is
    /// refreshed, and the resident copy is laid out anew: the new local
    /// slice and the surviving resident columns, moved to their new
    /// offsets. Layout (dimensions and offsets) must be unchanged.
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
        let offsets = self.a.offsets();
        let mut total = 0u64;
        let mut invalidated = 0u64;
        let mut metas = Vec::with_capacity(comm.size());
        let update = exchange_update(comm, &changed, new_a.local(), offsets);
        for (owner, (list, meta)) in update.into_iter().enumerate() {
            metas.push(meta);
            total += list.len() as u64;
            if owner == me {
                continue;
            }
            for lc in list {
                if self.cache.clear(offsets[owner] + lc as usize) {
                    invalidated += 1;
                }
            }
        }
        let local = new_a.local();
        self.win = PairedWindow::create(comm, local.ir().to_vec(), local.num().to_vec());
        self.metas = metas;
        self.cache.lay_out(&new_a, &self.metas, me);
        self.a = new_a;
        self.stats.a_updates += 1;
        self.stats.invalidated_cols += invalidated;
        total
    }

    /// Capture this rank's session state for a checkpoint: operand
    /// fingerprint, cumulative [`SessionStats`], and every resident column
    /// segment, in `(owner, column)` order. Purely local — no
    /// communication.
    pub fn snapshot(&self) -> SessionSnapshot {
        let (offsets, cache) = (self.a.offsets(), &self.cache);
        let mut owner = 0;
        let cols = set_bits(&cache.resident)
            .map(|g| {
                while offsets[owner + 1] <= g {
                    owner += 1;
                }
                let e = cache.ptr[g]..cache.ptr[g + 1];
                let (ir, num) = (cache.ir[e.clone()].to_vec(), cache.num[e].to_vec());
                (owner as u32, vidx(g), ir, num)
            })
            .collect();
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
    /// copies the snapshotted columns home, so the first post-restart
    /// multiply fetches only what the checkpoint had not yet seen. Purely
    /// local.
    ///
    /// The snapshot's operand fingerprint, and the length of every column
    /// it holds, must match the session's pinned operand (panics otherwise
    /// — restoring cached columns of a different `A` would silently corrupt
    /// results). A disabled cache stays empty.
    pub fn restore(&mut self, snap: &SessionSnapshot) {
        assert_eq!(snap.nrows, self.a.nrows() as u64, "restore: operand nrows");
        assert_eq!(snap.ncols, self.a.ncols() as u64, "restore: operand ncols");
        assert_eq!(
            snap.local_nnz,
            self.a.local().nnz() as u64,
            "restore: operand local nnz"
        );
        self.stats = snap.stats;
        if !self.cache.enabled {
            return;
        }
        let cache = &mut self.cache;
        for (_, col, ir, num) in &snap.cols {
            let g = *col as usize;
            if cache.contains(g) {
                continue;
            }
            let e = cache.ptr[g]..cache.ptr[g + 1];
            assert_eq!(e.len(), ir.len(), "restore: length of column {g}");
            cache.ir[e.clone()].copy_from_slice(ir);
            cache.num[e].copy_from_slice(num);
            cache.keep(g);
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
    use crate::Wired;
    use sa_mpisim::Wire;
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
                // a partly warm cache: `b_cold` meets an empty one (every
                // needed column lands home), `b_warm` then finds resident
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
                    c_ref.gather(comm).map(Wired),
                    c1.gather(comm).map(Wired),
                    c2.gather(comm).map(Wired),
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
                    "{mode:?} rank {rank}: resident Ã multiplies like spgemm_1d"
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
            // the literals are what the hash-map cache the resident copy
            // replaced held after the same no-hit multiply
            let resident: u64 = got.iter().map(|g| g.6 .1).sum();
            assert_eq!(
                resident, want_resident,
                "{mode:?}: cache after a cold multiply"
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
            let expect = spgemm_1d(comm, &da2, &db, &plan).0.gather(comm).map(Wired);
            let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
            let (_c, warm) = s.multiply(comm, &db);
            let changed = s.update_a(comm, da2);
            let (c, delta) = s.multiply(comm, &db);
            (expect, c.gather(comm).map(Wired), warm, delta, changed)
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
    fn update_a_sends_one_metadata_allgather() {
        // the changed-column runs ride in the new operand's record: one
        // allgatherv (each record to rank 0, then its length table and the
        // records from rank 0 to the other P − 1), 3·(P − 1) messages
        let a = erdos_renyi(60, 60, 3.0, 13);
        let a2 = a.map(|v| 2.0 * v);
        let got = sa_mpisim::Universe::new(4).run(|comm| {
            let mut s = SpgemmSession::create(
                comm,
                dist(comm, &a),
                Plan1D::default(),
                CacheConfig::unlimited(),
            );
            let before = comm.stats();
            let changed = s.update_a(comm, dist(comm, &a2));
            ((comm.stats() - before).sent_msgs, changed)
        });
        let sent: Vec<u64> = got.iter().map(|g| g.0).collect();
        assert_eq!(sent, [6, 1, 1, 1]);
        let nonempty = (0..60).filter(|&j| a.col_nnz(j) > 0).count() as u64;
        assert!(got.iter().all(|g| g.1 == nonempty), "every column changed");
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
                let expect = spgemm_1d(comm, &da2, &db, &plan).0.gather(comm).map(Wired);
                let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
                let (_c, _warm) = s.multiply(comm, &db);
                let changed = s.update_a(comm, da2);
                let pre = s.analyze(comm, &db);
                let (c, rep) = s.multiply(comm, &db);
                (expect, c.gather(comm).map(Wired), changed, pre, rep)
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
            let expect = spgemm_1d(comm, &da2, &db, &plan).0.gather(comm).map(Wired);
            let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
            let (_c, _warm) = s.multiply(comm, &db);
            s.update_a(comm, da2); // dirties col 21; col 39 stays cached
            let pre = s.analyze(comm, &db);
            let (c, rep) = s.multiply(comm, &db);
            (expect, c.gather(comm).map(Wired), pre, rep)
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
                c1.gather(comm).map(Wired),
                c2.gather(comm).map(Wired),
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
