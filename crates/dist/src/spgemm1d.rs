//! Algorithm 1 — the sparsity-aware 1D SpGEMM.
//!
//! `C = A·B` with `A`, `B`, `C` all 1D column-distributed. `B` and `C`
//! never move. Each rank:
//!
//! 1. replicates every rank's nonzero-column metadata (one allgather —
//!    Algorithm 1's `⃗D` and prefix-sum arrays),
//! 2. computes from its local `B` slice's row support exactly which remote
//!    `A` columns the multiply touches,
//! 3. coalesces them into ranged one-sided fetches per [`FetchMode`]
//!    (§III-A block fetching), pulling row ids and values through a single
//!    [`PairedWindow`] — two RDMA messages per interval, appended straight
//!    into the compacted `Ã` arrays with no per-column allocation,
//! 4. multiplies `Ã · B_loc` with the local hybrid kernel on the rank's
//!    compute pool.
//!
//! [`analyze_1d`] runs steps 1–2 (plus the pricing of step 3) without
//! moving numeric data — the §V `CV/memA` criterion is available *before*
//! committing to a layout. [`spgemm_1d_overlap`] additionally overlaps the
//! local partial product with the remote fetches (§III-A notes the paper's
//! implementation leaves this on the table).

use crate::dist1d::DistMat1D;
use crate::fetch::{exchange_meta, plan_fetch, FetchPlan, RankMeta, ENTRY_BYTES};
use crate::shape::ShapeError;
use sa_mpisim::{
    Breakdown, Comm, CommStats, PairedGet, PairedWindow, PhaseTimes, PrefetchConfig, Prefetcher,
    Wire, WireError,
};
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_with, Kernel, Schedule, SpgemmWorkspace};
use sa_sparse::types::{vidx, Vidx};
use sa_sparse::Dcsc;
use std::time::Instant;

/// How needed remote columns are coalesced into window fetches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchMode {
    /// Sparsity-oblivious baseline: fetch every remote rank's whole slice.
    FullMatrix,
    /// §III-A block fetching: each remote slice's nonzero-column list is
    /// cut into `K` blocks, fetched whole when any of their columns is
    /// needed. Bounded messages, bounded over-fetch.
    Block(usize),
    /// Merge needed columns that are adjacent in the owner's storage:
    /// byte-minimal like [`FetchMode::ColumnExact`], fewer messages.
    ContiguousRuns,
    /// One fetch pair per needed column — byte-minimal, message-maximal.
    ColumnExact,
}

impl Default for FetchMode {
    /// The benches' default granularity (the paper's K = 2048 scaled to
    /// these dataset sizes; see `sa_bench::plan`).
    fn default() -> FetchMode {
        FetchMode::Block(256)
    }
}

/// Execution plan for one 1D multiply.
///
/// ```
/// use sa_dist::{FetchMode, Plan1D};
/// use sa_sparse::spgemm::Kernel;
///
/// // defaults: block fetching, hybrid kernel, global volume metrics on
/// let plan = Plan1D::default();
/// assert_eq!(plan.fetch_mode, FetchMode::Block(256));
///
/// // a per-level inner-loop plan: byte-minimal fetches, local stats only
/// let inner = Plan1D {
///     fetch_mode: FetchMode::ColumnExact,
///     kernel: Kernel::Heap,
///     global_stats: false,
///     ..Default::default()
/// };
/// assert!(!inner.global_stats);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Plan1D {
    pub fetch_mode: FetchMode,
    /// Local kernel for `Ã · B_loc`.
    pub kernel: Kernel,
    /// How the local kernel's column loop is split into parallel work
    /// items (flop-balanced by default; `Schedule::Fixed(256)` is the
    /// pre-scheduling behaviour, kept for A/B comparison).
    pub schedule: Schedule,
    /// Compute the global-volume fields of [`SpgemmReport`] (two extra
    /// allreduces). Disable in per-level inner loops (BC) where only local
    /// counters matter.
    pub global_stats: bool,
}

impl Default for Plan1D {
    /// Block fetching at the benches' granularity, hybrid kernel,
    /// flop-balanced scheduling, global volume metrics on (written out
    /// because `bool::default()` would silently turn them off).
    fn default() -> Plan1D {
        Plan1D {
            fetch_mode: FetchMode::default(),
            kernel: Kernel::Hybrid,
            schedule: Schedule::default(),
            global_stats: true,
        }
    }
}

/// What one rank observed during [`spgemm_1d`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpgemmReport {
    /// Bytes this rank pulled through the windows (index + value arrays).
    pub fetched_bytes: u64,
    /// Bytes that actually crossed the wire in this call — always equal to
    /// `fetched_bytes`; named for symmetry with
    /// [`Self::cache_hit_bytes`] so session callers can split a multiply's
    /// column demand into fresh traffic vs cache reuse.
    pub fresh_bytes: u64,
    /// Bytes of needed columns served out of a
    /// [`SpgemmSession`](crate::session::SpgemmSession) fetch cache instead
    /// of the wire. Always 0 for sessionless calls.
    pub cache_hit_bytes: u64,
    /// Bytes the sparsity strictly required (`fetched_bytes` minus block
    /// over-fetch; in session multiplies this includes bytes served from
    /// cache).
    pub needed_bytes: u64,
    /// Σ `fetched_bytes` over all ranks (0 unless `global_stats`).
    pub fetched_bytes_global: u64,
    /// One-sided messages this rank issued (2 per fetch interval).
    pub rdma_msgs: u64,
    /// The §V criterion: max per-rank fetch volume over the global memory
    /// footprint of `A`'s entries. ≈ `(P-1)/P` when every rank fetches
    /// everything; ~0 when slices are self-contained.
    pub cv_over_mem: f64,
    /// Exact communication-counter delta of this call on this rank.
    pub comm: CommStats,
    /// Wall-clock split into the paper's comm/comp/other categories.
    pub breakdown: Breakdown,
    /// Finer split of the same call: symbolic / fetch / compute /
    /// assemble seconds (see [`PhaseTimes`] for the stage definitions).
    pub phases: PhaseTimes,
}

/// Wire encoding so per-rank reports can cross a process boundary — the
/// `procs` backend returns each rank's result over a socket. Field order is
/// declaration order; floats travel bit-exact (`f64::to_bits`), so an
/// encoded report round-trips to an `==`-identical struct.
impl Wire for SpgemmReport {
    fn put(&self, out: &mut Vec<u8>) {
        for v in [
            self.fetched_bytes,
            self.fresh_bytes,
            self.cache_hit_bytes,
            self.needed_bytes,
            self.fetched_bytes_global,
            self.rdma_msgs,
        ] {
            v.put(out);
        }
        self.cv_over_mem.put(out);
        self.comm.put(out);
        self.breakdown.put(out);
        self.phases.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SpgemmReport {
            fetched_bytes: u64::get(buf)?,
            fresh_bytes: u64::get(buf)?,
            cache_hit_bytes: u64::get(buf)?,
            needed_bytes: u64::get(buf)?,
            fetched_bytes_global: u64::get(buf)?,
            rdma_msgs: u64::get(buf)?,
            cv_over_mem: f64::get(buf)?,
            comm: CommStats::get(buf)?,
            // `<_ as Wire>` sidesteps Breakdown's inherent `get(&self, Phase)`
            breakdown: <Breakdown as Wire>::get(buf)?,
            phases: PhaseTimes::get(buf)?,
        })
    }
}

/// Pre-communication analysis of a 1D multiply (Algorithm 1 lines 1–6
/// without any window traffic).
#[derive(Clone, Copy, Debug)]
pub struct Analysis1D {
    /// Bytes the plan will fetch on this rank.
    pub planned_fetch_bytes: u64,
    /// Ranged fetches the plan will issue on this rank.
    pub planned_intervals: u64,
    /// Bytes the sparsity strictly requires on this rank.
    pub needed_bytes: u64,
    /// Σ planned fetch bytes over all ranks.
    pub planned_fetch_bytes_global: u64,
    /// The §V `CV/memA` criterion (identical to the value the execution
    /// reports).
    pub cv_over_mem: f64,
}

/// Typed conformality check shared by the `try_*` entry points.
pub(crate) fn check_conformal(a: &DistMat1D, b: &DistMat1D) -> Result<(), ShapeError> {
    crate::shape::conformal((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))
}

pub(crate) fn assert_conformal(a: &DistMat1D, b: &DistMat1D) {
    if let Err(e) = check_conformal(a, b) {
        panic!("{e}");
    }
}

/// Global columns of `A` the local multiply touches: the row support of
/// the local `B` slice (Algorithm 1's `⃗H` vector).
fn needed_columns(b: &DistMat1D) -> Vec<bool> {
    b.local().row_hit_vector()
}

/// Global-volume reduction shared by execution and analysis: total volume,
/// per-rank max volume, and the global byte footprint of `A`'s entries.
pub(crate) fn global_volume<C: Comm>(
    comm: &C,
    local_fetch_bytes: u64,
    a: &DistMat1D,
) -> (u64, u64, u64) {
    let mem_local = a.local().nnz() as u64 * ENTRY_BYTES;
    comm.allreduce((local_fetch_bytes, local_fetch_bytes, mem_local), |x, y| {
        (x.0 + y.0, x.1.max(y.1), x.2 + y.2)
    })
}

pub(crate) fn cv_of(max_fetched: u64, mem_global: u64) -> f64 {
    if mem_global == 0 {
        0.0
    } else {
        max_fetched as f64 / mem_global as f64
    }
}

/// Price a 1D multiply before communicating: exactly the fetch schedule
/// [`spgemm_1d`] would execute, as byte/message counts. Collective (one
/// metadata allgather + one allreduce).
///
/// ```
/// use sa_dist::{analyze_1d, spgemm_1d, uniform_offsets, DistMat1D, FetchMode, Plan1D};
/// use sa_mpisim::Universe;
/// use sa_sparse::gen::banded;
///
/// let a = banded(120, 4, 0.9, true, 1);
/// let pairs = Universe::new(4).run(|comm| {
///     let da = DistMat1D::from_global(comm, &a, &uniform_offsets(120, 4));
///     let db = da.clone();
///     let pre = analyze_1d(comm, &da, &db, FetchMode::ColumnExact);
///     let plan = Plan1D { fetch_mode: FetchMode::ColumnExact, ..Default::default() };
///     let (_c, rep) = spgemm_1d(comm, &da, &db, &plan);
///     (pre, rep)
/// });
/// for (pre, rep) in pairs {
///     // the analysis is exact: what it prices is what execution meters
///     assert_eq!(pre.planned_fetch_bytes, rep.fetched_bytes);
///     assert_eq!(pre.planned_intervals * 2, rep.rdma_msgs);
/// }
/// ```
pub fn analyze_1d<C: Comm>(comm: &C, a: &DistMat1D, b: &DistMat1D, mode: FetchMode) -> Analysis1D {
    assert_conformal(a, b);
    let metas = exchange_meta(comm, a.local());
    let needed = needed_columns(b);
    let plan = plan_fetch(mode, &metas, a.offsets(), &needed, comm.rank());
    let (total, max_fetched, mem_global) = global_volume(comm, plan.fetch_bytes(), a);
    Analysis1D {
        planned_fetch_bytes: plan.fetch_bytes(),
        planned_intervals: plan.intervals.len() as u64,
        needed_bytes: plan.needed_bytes(),
        planned_fetch_bytes_global: total,
        cv_over_mem: cv_of(max_fetched, mem_global),
    }
}

/// [`analyze_1d`] for several fetch modes at once: the metadata exchange
/// and the needed-column scan are mode-independent and run once, each
/// candidate is then priced locally, and one pair of combined reductions
/// fills the global fields — a mode sweep costs one collective round
/// instead of one per mode. Collective.
pub fn analyze_1d_modes<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    modes: &[FetchMode],
) -> Vec<Analysis1D> {
    assert_conformal(a, b);
    let metas = exchange_meta(comm, a.local());
    let needed = needed_columns(b);
    let plans: Vec<FetchPlan> = modes
        .iter()
        .map(|&m| plan_fetch(m, &metas, a.offsets(), &needed, comm.rank()))
        .collect();
    let mem_local = a.local().nnz() as u64 * ENTRY_BYTES;
    let mut sums: Vec<u64> = vec![mem_local];
    sums.extend(plans.iter().map(|p| p.fetch_bytes()));
    let sums = comm.allreduce_vec(sums, |x, y| x + y);
    let maxes = comm.allreduce_vec(plans.iter().map(|p| p.fetch_bytes()).collect(), |x, y| {
        (*x).max(*y)
    });
    plans
        .iter()
        .enumerate()
        .map(|(i, plan)| Analysis1D {
            planned_fetch_bytes: plan.fetch_bytes(),
            planned_intervals: plan.intervals.len() as u64,
            needed_bytes: plan.needed_bytes(),
            planned_fetch_bytes_global: sums[i + 1],
            cv_over_mem: cv_of(maxes[i], sums[0]),
        })
        .collect()
}

/// Fetch every planned interval through `win` as one batch, appending into
/// `ir`/`num` with the local slice spliced in at its owner position, so the
/// buffers come out in ascending global column order. `jc`/`cp` are filled
/// alongside (cleared first — pass recycled buffers to keep their
/// capacity). Returns the seconds spent inside the batched window get
/// (which includes copying the local slice).
///
/// `offsets[r]` is the global base column of rank `r`'s slice and `local`
/// this rank's slice, the same arrays `win` exposes for this rank.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_atilde<C: Comm>(
    comm: &C,
    win: &PairedWindow<Vidx, f64>,
    plan: &FetchPlan,
    metas: &[RankMeta],
    offsets: &[usize],
    local: &Dcsc<f64>,
    include_local: bool,
    jc: &mut Vec<Vidx>,
    cp: &mut Vec<usize>,
    ir: &mut Vec<Vidx>,
    num: &mut Vec<f64>,
) -> f64 {
    let me = comm.rank();
    let nzc_estimate = plan.intervals.iter().map(|iv| iv.pos.len()).sum::<usize>()
        + if include_local { local.nzc() } else { 0 };
    jc.clear();
    jc.reserve(nzc_estimate);
    cp.clear();
    cp.reserve(nzc_estimate + 1);
    cp.push(0);
    ir.reserve(plan.fetch_entries as usize + if include_local { local.nnz() } else { 0 });
    num.reserve(plan.fetch_entries as usize + if include_local { local.nnz() } else { 0 });

    // jc/cp need only the replicated metadata; the same walk lists the
    // gets, the local slice as an own-rank (free) one at its owner position
    let mut gets = Vec::with_capacity(plan.intervals.len() + 1);
    let mut iv_iter = plan.intervals.iter().peekable();
    for owner in 0..comm.size() {
        if owner == me {
            if include_local {
                gets.push((me, 0..local.nnz()));
                let base = offsets[me];
                for q in 0..local.nzc() {
                    jc.push(vidx(base + local.jc()[q] as usize));
                    cp.push(cp.last().unwrap() + (local.cp()[q + 1] - local.cp()[q]));
                }
            }
            continue;
        }
        let base = offsets[owner];
        let meta = &metas[owner];
        while let Some(iv) = iv_iter.next_if(|iv| iv.owner == owner) {
            gets.push(iv.get());
            for q in iv.pos.clone() {
                jc.push(vidx(base + meta.jc[q] as usize));
                cp.push(cp.last().unwrap() + meta.col_entries(q) as usize);
            }
        }
    }
    let t0 = Instant::now();
    win.get_many_into(comm, &gets, ir, num)
        .expect("fetch interval within exposed window");
    t0.elapsed().as_secs_f64()
}

/// The sparsity-aware 1D SpGEMM (Algorithm 1). Returns `C` in `B`'s column
/// layout plus this rank's [`SpgemmReport`]. Collective.
///
/// ```
/// use sa_dist::{spgemm_1d, uniform_offsets, DistMat1D, Plan1D};
/// use sa_dist::reference::serial_spgemm;
/// use sa_mpisim::Universe;
/// use sa_sparse::gen::erdos_renyi;
///
/// let a = erdos_renyi(64, 64, 3.0, 5);
/// let expect = serial_spgemm(&a, &a);
/// let got = Universe::new(4).run(|comm| {
///     let da = DistMat1D::from_global(comm, &a, &uniform_offsets(64, comm.size()));
///     let db = da.clone();
///     let (c, report) = spgemm_1d(comm, &da, &db, &Plan1D::default());
///     assert!(report.fetched_bytes >= report.needed_bytes);
///     c.gather(comm) // Some(..) on rank 0 only
/// });
/// assert_eq!(got[0].as_ref().unwrap(), &expect);
/// ```
pub fn spgemm_1d<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
) -> (DistMat1D, SpgemmReport) {
    run_1d(comm, a, b, plan, None, &SpgemmWorkspace::new())
}

/// [`spgemm_1d`] with typed shape validation: non-conformal operands come
/// back as `Err(`[`ShapeError`]`)` on every rank (the check runs before any
/// communication, on globally-replicated dimensions, so ranks always
/// agree) instead of an index panic deep in a kernel.
pub fn try_spgemm_1d<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
) -> Result<(DistMat1D, SpgemmReport), ShapeError> {
    check_conformal(a, b)?;
    Ok(run_1d(comm, a, b, plan, None, &SpgemmWorkspace::new()))
}

/// [`spgemm_1d`] with a caller-held [`SpgemmWorkspace`]: per-thread kernel
/// scratch, the `Ã` assembly buffers, and the symbolic arrays are borrowed
/// from (and returned to) `ws`, so a loop of multiplies reuses the
/// compute-side allocations. The per-call metadata exchange and window
/// exposure (which copies the local `A` arrays) still happen every call —
/// they depend on the fetched operand, which changes between calls for
/// the drivers this entry point serves (per-batch BC frontiers, the
/// Galerkin `Rᵀ·(AR)` step). When the fetched operand is stationary, use
/// a [`SpgemmSession`] instead: it pins those too, and its owned
/// workspace gets steady-state iterations to zero hot-path allocations.
///
/// [`SpgemmSession`]: crate::session::SpgemmSession
pub fn spgemm_1d_ws<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
    ws: &SpgemmWorkspace<f64>,
) -> (DistMat1D, SpgemmReport) {
    run_1d(comm, a, b, plan, None, ws)
}

/// [`spgemm_1d`] with communication/computation overlap: every planned get
/// is issued (and metered) up front, then a [`Prefetcher`] streams the
/// fetches behind the local partial product `Ã_loc·B`; the remote partial
/// product is merged in at the rendezvous. Identical traffic to
/// [`spgemm_1d`]; the win is bounded by min(comm, local comp). Honors
/// `SA_PREFETCH_BYTES` as the per-stage in-flight budget; on backends
/// without asynchronous gets the prefetcher degrades to in-order inline
/// issue (same bytes, same order).
pub fn spgemm_1d_overlap<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
) -> (DistMat1D, SpgemmReport) {
    let cfg = PrefetchConfig {
        enabled: true,
        ..PrefetchConfig::from_env()
    };
    run_1d(comm, a, b, plan, Some(cfg), &SpgemmWorkspace::new())
}

/// [`spgemm_1d_overlap`] with an explicit [`PrefetchConfig`] and a
/// caller-held workspace: the staging buffers the fetched `Ã` lands in are
/// borrowed from (and returned to) `ws`, so looped overlap multiplies
/// allocate nothing on the fetch path once warm.
pub fn spgemm_1d_overlap_ws<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
    cfg: PrefetchConfig,
    ws: &SpgemmWorkspace<f64>,
) -> (DistMat1D, SpgemmReport) {
    run_1d(comm, a, b, plan, Some(cfg), ws)
}

fn run_1d<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
    overlap: Option<PrefetchConfig>,
    ws: &SpgemmWorkspace<f64>,
) -> (DistMat1D, SpgemmReport) {
    assert_conformal(a, b);
    let stats0 = comm.stats();
    let t_call = Instant::now();

    // --- symbolic phase: metadata replication, needed-column scan, fetch
    // planning, window exposure ---
    let t_sym = Instant::now();
    let metas = exchange_meta(comm, a.local());
    let needed = needed_columns(b);
    let fplan = plan_fetch(plan.fetch_mode, &metas, a.offsets(), &needed, comm.rank());
    let win = PairedWindow::create(comm, a.local().ir().to_vec(), a.local().num().to_vec());
    let symbolic_s = t_sym.elapsed().as_secs_f64();

    let k = a.ncols();
    let nrows = a.nrows();
    let (c_local, comm_s, comp_s, assemble_s) = if let Some(cfg) = overlap {
        // Overlap path: every planned get is issued — validated and
        // metered — up front on this thread, so the traffic counters
        // cannot differ from the staged path below. The prefetcher then
        // streams the transport half into arena staging buffers behind
        // the local partial product `Ã_loc·B`; backends without
        // asynchronous gets degrade to the same fetches, in the same
        // plan order, inline after the local product.
        let t_asm = Instant::now();
        let local_only = {
            let mut buf = ws.take_chunk();
            let mut cp = ws.take_idx();
            let empty = FetchPlan {
                intervals: Vec::new(),
                fetch_entries: 0,
                needed_entries: 0,
            };
            assemble_atilde(
                comm,
                &win,
                &empty,
                &metas,
                a.offsets(),
                a.local(),
                true,
                &mut buf.lens,
                &mut cp,
                &mut buf.rows,
                &mut buf.vals,
            );
            Dcsc::from_parts(nrows, k, buf.lens, cp, buf.rows, buf.vals)
        };
        let mut assemble = t_asm.elapsed().as_secs_f64();

        let gets: Vec<_> = fplan
            .intervals
            .iter()
            .map(|iv| {
                let (owner, range) = iv.get();
                win.start_get_both(comm, owner, range)
                    .expect("fetch interval within exposed window")
            })
            .collect();
        let sizes: Vec<u64> = gets.iter().map(|g| g.bytes()).collect();

        // the chunk's rows/vals become the prefetch staging; its lens and
        // an index buffer hold the remote jc/cp, built in the foreground
        // (the metadata walk needs no fetched bytes)
        let remote_buf = ws.take_chunk();
        let mut remote_jc = remote_buf.lens;
        let mut remote_cp = ws.take_idx();
        remote_cp.push(0);
        let mut staging = (remote_buf.rows, remote_buf.vals, 0.0f64);

        let kernel = plan.kernel;
        let schedule = plan.schedule;
        let mut pf = Prefetcher::new(comm, cfg);
        let (c_loc, t_loc, meta_s) = pf.stage(
            &sizes,
            &mut staging,
            |range, st: &mut (Vec<Vidx>, Vec<f64>, f64)| {
                let t0 = Instant::now();
                PairedGet::fetch_many_into(&gets[range], &mut st.0, &mut st.1);
                st.2 += t0.elapsed().as_secs_f64();
            },
            || {
                let t0 = Instant::now();
                for iv in &fplan.intervals {
                    let base = a.offsets()[iv.owner];
                    let meta = &metas[iv.owner];
                    for q in iv.pos.clone() {
                        remote_jc.push(vidx(base + meta.jc[q] as usize));
                        remote_cp.push(remote_cp.last().unwrap() + meta.col_entries(q) as usize);
                    }
                }
                let meta_s = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let c = comm.install(|| {
                    spgemm_with::<PlusTimes<f64>, _, _>(
                        &local_only,
                        b.local(),
                        kernel,
                        schedule,
                        ws,
                    )
                });
                (c, t0.elapsed().as_secs_f64(), meta_s)
            },
        );
        let (remote_ir, remote_num, fetch_s) = staging;
        assemble += meta_s;
        let remote = Dcsc::from_parts(nrows, k, remote_jc, remote_cp, remote_ir, remote_num);
        let t0 = Instant::now();
        let c_rem = comm.install(|| {
            spgemm_with::<PlusTimes<f64>, _, _>(&remote, b.local(), kernel, schedule, ws)
        });
        let merged = sa_sparse::ewise::ewise_add::<PlusTimes<f64>>(&c_loc, &c_rem);
        let comp = t_loc + t0.elapsed().as_secs_f64();
        // hand both Ã halves' buffers back to the arena
        for half in [remote, local_only] {
            let (jc, cp, ir, num) = half.into_parts();
            ws.put_chunk(sa_sparse::spgemm::ChunkBuf {
                lens: jc,
                rows: ir,
                vals: num,
            });
            ws.put_idx(cp);
        }
        (merged, fetch_s, comp, assemble)
    } else {
        // Ã assembly into workspace buffers (a ChunkBuf supplies the
        // jc/ir/num triple — jc and the chunk `lens` share the u32 layout —
        // and an index buffer supplies cp).
        let t_asm = Instant::now();
        let mut buf = ws.take_chunk();
        let mut cp = ws.take_idx();
        let comm_s = assemble_atilde(
            comm,
            &win,
            &fplan,
            &metas,
            a.offsets(),
            a.local(),
            true,
            &mut buf.lens,
            &mut cp,
            &mut buf.rows,
            &mut buf.vals,
        );
        let atilde = Dcsc::from_parts(nrows, k, buf.lens, cp, buf.rows, buf.vals);
        let assemble = (t_asm.elapsed().as_secs_f64() - comm_s).max(0.0);
        let t0 = Instant::now();
        let c = comm.install(|| {
            spgemm_with::<PlusTimes<f64>, _, _>(&atilde, b.local(), plan.kernel, plan.schedule, ws)
        });
        let comp_s = t0.elapsed().as_secs_f64();
        // hand Ã's buffers back for the next multiply
        let (jc, cp, ir, num) = atilde.into_parts();
        ws.put_chunk(sa_sparse::spgemm::ChunkBuf {
            lens: jc,
            rows: ir,
            vals: num,
        });
        ws.put_idx(cp);
        (c, comm_s, comp_s, assemble)
    };

    // --- wrap the output in B's layout ---
    let t_wrap = Instant::now();
    let c = DistMat1D::from_local(nrows, b.ncols(), b.offsets().clone(), Dcsc::from(c_local));
    let assemble_s = assemble_s + t_wrap.elapsed().as_secs_f64();

    let comm_delta = comm.stats() - stats0;
    let fetched = fplan.fetch_bytes();
    debug_assert_eq!(comm_delta.rdma_get_bytes, fetched, "metered == planned");
    let (fetched_global, cv) = if plan.global_stats {
        let (total, max_fetched, mem_global) = global_volume(comm, fetched, a);
        (total, cv_of(max_fetched, mem_global))
    } else {
        // local-only variant of the criterion: this rank's volume over its
        // own slice footprint
        let mem_local = a.local().nnz() as u64 * ENTRY_BYTES;
        (fetched, cv_of(fetched, mem_local))
    };
    let total_s = t_call.elapsed().as_secs_f64();
    let report = SpgemmReport {
        fetched_bytes: fetched,
        fresh_bytes: fetched,
        cache_hit_bytes: 0,
        needed_bytes: fplan.needed_bytes(),
        fetched_bytes_global: fetched_global,
        rdma_msgs: fplan.rdma_msgs(),
        cv_over_mem: cv,
        comm: comm_delta,
        breakdown: Breakdown {
            comm_s,
            comp_s,
            other_s: (total_s - comm_s - comp_s).max(0.0),
        },
        phases: PhaseTimes {
            symbolic_s,
            fetch_s: comm_s,
            compute_s: comp_s,
            assemble_s,
        },
    };
    (c, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist1d::uniform_offsets;
    use crate::reference::serial_spgemm;
    use sa_mpisim::Universe;
    use sa_sparse::gen::{banded, erdos_renyi};
    use sa_sparse::Csc;

    fn square_both_ways(a: &Csc<f64>, p: usize, mode: FetchMode) {
        let expect = serial_spgemm(a, a);
        let u = Universe::new(p);
        let got = u.run(|comm| {
            let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), p));
            let plan = Plan1D {
                fetch_mode: mode,
                ..Default::default()
            };
            let (c1, r1) = spgemm_1d(comm, &da, &da.clone(), &plan);
            let (c2, r2) = spgemm_1d_overlap(comm, &da, &da.clone(), &plan);
            (
                c1.gather(comm),
                c2.gather(comm),
                r1.fetched_bytes,
                r2.fetched_bytes,
                r1.rdma_msgs,
                r2.rdma_msgs,
            )
        });
        let (c1, c2, f1, f2, m1, m2) = &got[0];
        assert_eq!(c1.as_ref().unwrap(), &expect, "{mode:?}: serial equality");
        assert!(
            c2.as_ref().unwrap().max_abs_diff(&expect) < 1e-12,
            "{mode:?}: overlap"
        );
        // overlap must not change the traffic
        assert_eq!(f1, f2, "{mode:?}");
        assert_eq!(m1, m2, "{mode:?}");
    }

    #[test]
    fn all_fetch_modes_match_serial_and_overlap_preserves_traffic() {
        let a = erdos_renyi(48, 48, 3.0, 11);
        for mode in [
            FetchMode::FullMatrix,
            FetchMode::Block(3),
            FetchMode::ContiguousRuns,
            FetchMode::ColumnExact,
        ] {
            square_both_ways(&a, 3, mode);
        }
    }

    #[test]
    fn default_plan_has_global_stats() {
        let plan = Plan1D::default();
        assert!(plan.global_stats);
        assert_eq!(plan.fetch_mode, FetchMode::Block(256));
        assert_eq!(plan.kernel, Kernel::Hybrid);
    }

    #[test]
    fn banded_natural_order_fetches_little() {
        let a = banded(240, 5, 0.8, true, 3);
        let u = Universe::new(4);
        let reps = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &a, &uniform_offsets(240, 4));
            let (_c, rep) = spgemm_1d(comm, &da, &da.clone(), &Plan1D::default());
            rep
        });
        // each rank needs only the band-overlap columns of its neighbours
        assert!(reps[0].cv_over_mem < 0.25, "cv = {}", reps[0].cv_over_mem);
        let full = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &a, &uniform_offsets(240, 4));
            let plan = Plan1D {
                fetch_mode: FetchMode::FullMatrix,
                ..Default::default()
            };
            let (_c, rep) = spgemm_1d(comm, &da, &da.clone(), &plan);
            rep.fetched_bytes_global
        });
        assert!(
            reps[0].fetched_bytes_global * 4 < full[0],
            "sparsity-aware {} vs oblivious {}",
            reps[0].fetched_bytes_global,
            full[0]
        );
    }

    #[test]
    fn analysis_matches_execution_across_modes() {
        let a = erdos_renyi(120, 120, 4.0, 5);
        for mode in [
            FetchMode::FullMatrix,
            FetchMode::Block(8),
            FetchMode::ContiguousRuns,
            FetchMode::ColumnExact,
        ] {
            let u = Universe::new(4);
            let pairs = u.run(|comm| {
                let da = DistMat1D::from_global(comm, &a, &uniform_offsets(120, 4));
                let pre = analyze_1d(comm, &da, &da.clone(), mode);
                let plan = Plan1D {
                    fetch_mode: mode,
                    ..Default::default()
                };
                let (_c, rep) = spgemm_1d(comm, &da, &da.clone(), &plan);
                (pre, rep)
            });
            for (pre, rep) in pairs {
                assert_eq!(pre.planned_fetch_bytes, rep.fetched_bytes, "{mode:?}");
                assert_eq!(pre.planned_intervals * 2, rep.rdma_msgs, "{mode:?}");
                assert_eq!(pre.needed_bytes, rep.needed_bytes, "{mode:?}");
                assert_eq!(pre.planned_fetch_bytes_global, rep.fetched_bytes_global);
            }
        }
    }

    #[test]
    fn rectangular_from_local_operand() {
        // A built via from_local (the BC frontier path): 4x30 times 30x30
        let f = erdos_renyi(4, 30, 2.0, 9);
        let g = erdos_renyi(30, 30, 3.0, 10);
        let expect = serial_spgemm(&f, &g);
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let offsets = std::sync::Arc::new(uniform_offsets(30, 3));
            let dg = DistMat1D::from_global(comm, &g, &offsets[..]);
            let (c0, c1) = (offsets[comm.rank()], offsets[comm.rank() + 1]);
            let df = DistMat1D::from_local(
                4,
                30,
                offsets.clone(),
                Dcsc::from_csc(&f.extract_cols(c0, c1)),
            );
            let (c, _) = spgemm_1d(comm, &df, &dg, &Plan1D::default());
            c.gather(comm)
        });
        assert_eq!(got[0].as_ref().unwrap(), &expect);
    }
}
