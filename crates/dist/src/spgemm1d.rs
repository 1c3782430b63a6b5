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
//!    [`PairedWindow`] — two RDMA messages per interval, each landing in
//!    place in `Ã`'s column-pointer layout with no per-column allocation,
//! 4. multiplies `Ã · B_loc` with the local hybrid kernel on the rank's
//!    compute pool.
//!
//! [`analyze_1d`] runs steps 1–2 (plus the pricing of step 3) without
//! moving numeric data — the §V `CV/memA` criterion is available *before*
//! committing to a layout. Step 4 is shared with
//! [`SpgemmSession::multiply`](crate::session::SpgemmSession::multiply),
//! whose fetches land in its resident copy of `A`, the same layout with
//! every column of `A` laid out; like the paper's implementation (§III-A)
//! neither overlaps the fetch with the multiply.

use crate::dist1d::DistMat1D;
use crate::fetch::{exchange_meta, plan_fetch, FetchPlan, RankMeta, ENTRY_BYTES};
use crate::session::FetchCache;
use crate::shape::ShapeError;
use sa_mpisim::{Comm, CommStats, CostModel, PairedWindow, PhaseTimes, Wire, WireError};
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_with_epilogue, Kernel, NoEpilogue, Schedule, SpgemmWorkspace};
use sa_sparse::types::Vidx;
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

/// A fetch mode crosses as its kind byte, then `K` for [`FetchMode::Block`].
impl Wire for FetchMode {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            FetchMode::FullMatrix => out.push(0),
            FetchMode::Block(k) => (1u8, k).put(out),
            FetchMode::ContiguousRuns => out.push(2),
            FetchMode::ColumnExact => out.push(3),
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::get(buf)? {
            0 => FetchMode::FullMatrix,
            1 => FetchMode::Block(usize::get(buf)?),
            2 => FetchMode::ContiguousRuns,
            3 => FetchMode::ColumnExact,
            t => {
                return Err(WireError::BadTag {
                    what: "FetchMode",
                    tag: t as u64,
                })
            }
        })
    }
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
///
/// // defaults: block fetching, hybrid kernel, global volume metrics on
/// let plan = Plan1D::default();
/// assert_eq!(plan.fetch_mode, FetchMode::Block(256));
///
/// // a per-level inner-loop plan: byte-minimal fetches, local stats only
/// let inner = Plan1D {
///     fetch_mode: FetchMode::ColumnExact,
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
    /// Wall-clock split of the call: symbolic / fetch / compute / assemble
    /// seconds (see [`PhaseTimes`] for the stage definitions).
    pub phases: PhaseTimes,
}

// Per-rank reports and analyses cross a process boundary: the `procs`
// backend returns each rank's result over a socket.
sa_mpisim::wire_struct!(SpgemmReport {
    fetched_bytes,
    fresh_bytes,
    cache_hit_bytes,
    needed_bytes,
    fetched_bytes_global,
    rdma_msgs,
    cv_over_mem,
    comm,
    phases
});

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

sa_mpisim::wire_struct!(Analysis1D {
    planned_fetch_bytes,
    planned_intervals,
    needed_bytes,
    planned_fetch_bytes_global,
    cv_over_mem
});

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

/// The cheapest of `modes` for multiplying `a · b`, the same on every
/// rank: one metadata exchange, then every mode's fetch schedule planned
/// and priced per rank under the α–β `model` (two messages per interval),
/// the prices max-reduced into per-mode critical paths in one
/// `allreduce_vec`, and the first mode with the least one wins. Moves no
/// numeric data. Collective; panics if `modes` is empty.
pub fn pick_fetch_mode<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    modes: &[FetchMode],
    model: &CostModel,
) -> FetchMode {
    assert_conformal(a, b);
    let metas = exchange_meta(comm, a.local());
    let needed = needed_columns(b);
    let local_times: Vec<f64> = modes
        .iter()
        .map(|&m| {
            let plan = plan_fetch(m, &metas, a.offsets(), &needed, comm.rank());
            model.time_s(plan.rdma_msgs(), plan.fetch_bytes())
        })
        .collect();
    let critical = comm.allreduce_vec(local_times, |x, y| x.max(*y));
    let best = critical
        .iter()
        .enumerate()
        .min_by(|x, y| x.1.total_cmp(y.1))
        .expect("at least one fetch mode to pick from")
        .0;
    modes[best]
}

/// The sparsity-aware 1D SpGEMM (Algorithm 1). Returns `C` in `B`'s column
/// layout plus this rank's [`SpgemmReport`]. Collective. [`try_spgemm_1d`]
/// on a fresh workspace, panicking with its [`ShapeError`].
///
/// ```
/// use sa_dist::{spgemm_1d, uniform_offsets, DistMat1D, Plan1D, Wired};
/// use sa_dist::reference::serial_spgemm;
/// use sa_mpisim::{Comm, Universe};
/// use sa_sparse::gen::erdos_renyi;
///
/// let a = erdos_renyi(64, 64, 3.0, 5);
/// let expect = serial_spgemm(&a, &a);
/// let got = Universe::new(4).run(|comm| {
///     let da = DistMat1D::from_global(comm, &a, &uniform_offsets(64, comm.size()));
///     let db = da.clone();
///     let (c, report) = spgemm_1d(comm, &da, &db, &Plan1D::default());
///     assert!(report.fetched_bytes >= report.needed_bytes);
///     c.gather(comm).map(Wired) // Some(..) on rank 0 only
/// });
/// assert_eq!(got[0].as_ref().unwrap(), &expect);
/// ```
pub fn spgemm_1d<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
) -> (DistMat1D, SpgemmReport) {
    try_spgemm_1d(comm, a, b, plan, &SpgemmWorkspace::new()).unwrap_or_else(|e| panic!("{e}"))
}

/// Algorithm 1 on an operand exposed for this one call: shapes checked
/// once, then metadata replication, window exposure, needed-column scan and
/// fetch planning, a one-shot `Ã` of the local slice and the fetched
/// columns, and the kernel–wrap–report tail a session multiply runs too.
///
/// Non-conformal operands come back as `Err(`[`ShapeError`]`)` on every
/// rank: the check runs before any communication, on globally-replicated
/// dimensions, so ranks always agree. Per-thread kernel scratch, `Ã`'s
/// arrays and the symbolic arrays are borrowed from (and returned
/// to) `ws`, so a loop of multiplies whose fetched operand changes between
/// calls (per-batch BC frontiers, the Galerkin `Rᵀ·(AR)` step) reuses the
/// compute-side allocations; a [`SpgemmSession`] runs the same multiply on
/// an operand it exposes once and keeps what it fetched.
///
/// [`SpgemmSession`]: crate::session::SpgemmSession
pub fn try_spgemm_1d<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
    plan: &Plan1D,
    ws: &SpgemmWorkspace<f64>,
) -> Result<(DistMat1D, SpgemmReport), ShapeError> {
    check_conformal(a, b)?;
    let stats0 = comm.stats();
    let t_call = Instant::now();
    let (metas, win) = expose(comm, a.local());
    let needed = needed_columns(b);
    let fplan = plan_fetch(plan.fetch_mode, &metas, a.offsets(), &needed, comm.rank());
    let symbolic_s = t_call.elapsed().as_secs_f64();
    let t_asm = Instant::now();
    let (atilde, lens, fetch_s) = FetchCache::one_shot(comm, a, &metas, &win, &fplan, ws);
    let assemble_s = (t_asm.elapsed().as_secs_f64() - fetch_s).max(0.0);
    let fetched = Fetched {
        fplan: &fplan,
        hit_bytes: 0,
        served_hit_bytes: 0,
        stats0,
        phases: PhaseTimes {
            symbolic_s,
            fetch_s,
            compute_s: 0.0,
            assemble_s,
        },
    };
    let out =
        Multiply1D { a, b, plan, ws }.finish(comm, &atilde, fetched, None::<&NoEpilogue<f64>>);
    atilde.recycle(lens, ws);
    Ok(out)
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

/// What the front half of a 1D multiply — symbolic pass, fetch, `Ã` —
/// hands [`Multiply1D::finish`].
pub(crate) struct Fetched<'p> {
    pub fplan: &'p FetchPlan,
    /// Needed bytes a session already held (0 sessionless).
    pub hit_bytes: u64,
    /// The part of `hit_bytes` no planned get re-delivered.
    pub served_hit_bytes: u64,
    /// Counters read before the call began, so the report covers it whole.
    pub stats0: CommStats,
    /// The phases so far; `finish` adds the kernel and the wrap.
    pub phases: PhaseTimes,
}

/// One 1D multiply's operands, plan and arena.
pub(crate) struct Multiply1D<'a> {
    pub a: &'a DistMat1D,
    pub b: &'a DistMat1D,
    pub plan: &'a Plan1D,
    pub ws: &'a SpgemmWorkspace<f64>,
}

impl Multiply1D<'_> {
    /// The back half of Algorithm 1, shared by [`try_spgemm_1d`] and a
    /// session multiply: `Ã·B_loc` on the rank's compute pool (through
    /// `epilogue`, if any), the product wrapped in `B`'s layout, and the
    /// exact report.
    pub(crate) fn finish<C, E>(
        self,
        comm: &C,
        atilde: &FetchCache,
        fetched: Fetched<'_>,
        epilogue: Option<&E>,
    ) -> (DistMat1D, SpgemmReport)
    where
        C: Comm,
        E: Fn(&[Vidx], &mut [f64], &mut Vec<Vidx>, &mut Vec<f64>) + Sync,
    {
        let Multiply1D { a, b, plan, ws } = self;
        let Fetched {
            fplan,
            hit_bytes,
            served_hit_bytes,
            stats0,
            mut phases,
        } = fetched;
        let t0 = Instant::now();
        let (kernel, schedule) = (plan.kernel, plan.schedule);
        let c_local = comm.install(|| {
            spgemm_with_epilogue::<PlusTimes<f64>, _, _, _>(
                atilde,
                b.local(),
                kernel,
                schedule,
                ws,
                epilogue,
            )
        });
        phases.compute_s = t0.elapsed().as_secs_f64();

        let t_wrap = Instant::now();
        let c = DistMat1D::from_local(
            a.nrows(),
            b.ncols(),
            b.offsets().clone(),
            Dcsc::from(c_local),
        );
        phases.assemble_s += t_wrap.elapsed().as_secs_f64();

        // --- exact accounting ---
        let comm_delta = comm.stats() - stats0;
        let fetched = fplan.fetch_bytes();
        debug_assert_eq!(comm_delta.rdma_get_bytes, fetched, "metered == planned");
        let (fetched_global, cv) = if plan.global_stats {
            let (total, max_fetched, mem_global) = global_volume(comm, fetched, a);
            (total, cv_of(max_fetched, mem_global))
        } else {
            // local-only variant of the criterion: this rank's volume over
            // its own slice footprint
            let mem_local = a.local().nnz() as u64 * ENTRY_BYTES;
            (fetched, cv_of(fetched, mem_local))
        };
        let report = SpgemmReport {
            fetched_bytes: fetched,
            fresh_bytes: fetched,
            cache_hit_bytes: served_hit_bytes,
            needed_bytes: hit_bytes + fplan.needed_bytes(),
            fetched_bytes_global: fetched_global,
            rdma_msgs: fplan.rdma_msgs(),
            cv_over_mem: cv,
            comm: comm_delta,
            phases,
        };
        (c, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist1d::uniform_offsets;
    use crate::reference::serial_spgemm;
    use crate::Wired;
    use sa_mpisim::Universe;
    use sa_sparse::gen::{banded, erdos_renyi};
    use sa_sparse::Dcsc;

    #[test]
    fn all_fetch_modes_match_serial() {
        let a = erdos_renyi(48, 48, 3.0, 11);
        let expect = serial_spgemm(&a, &a);
        for mode in [
            FetchMode::FullMatrix,
            FetchMode::Block(3),
            FetchMode::ContiguousRuns,
            FetchMode::ColumnExact,
        ] {
            let got = Universe::new(3).run(|comm| {
                let da = DistMat1D::from_global(comm, &a, &uniform_offsets(a.ncols(), 3));
                let plan = Plan1D {
                    fetch_mode: mode,
                    ..Default::default()
                };
                spgemm_1d(comm, &da, &da.clone(), &plan)
                    .0
                    .gather(comm)
                    .map(Wired)
            });
            assert_eq!(
                got[0].as_ref().unwrap(),
                &expect,
                "{mode:?}: serial equality"
            );
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
    fn pick_fetch_mode_is_the_collective_argmin() {
        use crate::prepare::{prepare, Strategy};
        let modes = [
            FetchMode::default(),
            FetchMode::ContiguousRuns,
            FetchMode::ColumnExact,
            FetchMode::FullMatrix,
        ];
        let model = CostModel::default();
        let scrambled = prepare(
            &erdos_renyi(160, 160, 4.0, 21),
            4,
            Strategy::RandomPerm { seed: 3 },
        )
        .a;
        for a in [banded(160, 5, 0.8, true, 7), scrambled] {
            let got = Universe::new(4).run(|comm| {
                let da = DistMat1D::from_global(comm, &a, &uniform_offsets(160, 4));
                let stats0 = comm.stats();
                let pick = pick_fetch_mode(comm, &da, &da, &modes, &model);
                let sent = (comm.stats() - stats0).sent_msgs;
                let apart: Vec<Analysis1D> = modes
                    .iter()
                    .map(|&m| analyze_1d(comm, &da, &da, m))
                    .collect();
                // a duplicated entry is the same price twice: the pick stands
                let dup = [modes[3], pick, pick];
                (
                    pick,
                    apart,
                    pick_fetch_mode(comm, &da, &da, &dup, &model),
                    sent,
                )
            });
            // one metadata allgatherv (a send to rank 0, then two
            // broadcasts from it) and one max-allreduce (a send to rank 0,
            // one broadcast): 5·(P − 1) messages, 3·(P − 1) of them rank 0's
            let sent: Vec<u64> = got.iter().map(|g| g.3).collect();
            assert_eq!(sent, [9, 2, 2, 2]);
            let pick = got[0].0;
            assert!(got.iter().all(|g| g.0 == pick), "every rank picks {pick:?}");
            assert!(
                got.iter().all(|g| g.2 == pick),
                "duplicate entries keep the pick"
            );
            // the argmin over modes of the slowest rank's price, each mode
            // analysed on its own
            let critical = |i: usize| {
                got.iter()
                    .map(|(_, apart, ..)| {
                        model.time_s(apart[i].planned_intervals * 2, apart[i].planned_fetch_bytes)
                    })
                    .fold(0.0, f64::max)
            };
            let best =
                (1..modes.len()).fold(0, |b, i| if critical(i) < critical(b) { i } else { b });
            assert_eq!(pick, modes[best]);
        }
        // a diagonal operand needs no remote column: every needed-set mode
        // prices zero, and the first one listed wins the tie
        let mut coo = sa_sparse::Coo::new(40, 40);
        for i in 0..40 {
            coo.push(i, i, 1.0);
        }
        let diag = coo.to_csc_with(|x, _| x);
        let picks = Universe::new(4).run(|comm| {
            let da = DistMat1D::from_global(comm, &diag, &uniform_offsets(40, 4));
            let (x, y) = (FetchMode::ColumnExact, FetchMode::Block(4));
            (
                pick_fetch_mode(comm, &da, &da, &[x, y], &model),
                pick_fetch_mode(comm, &da, &da, &[y, x], &model),
            )
        });
        for p in picks {
            assert_eq!(p, (FetchMode::ColumnExact, FetchMode::Block(4)));
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
            c.gather(comm).map(Wired)
        });
        assert_eq!(got[0].as_ref().unwrap(), &expect);
    }
}
