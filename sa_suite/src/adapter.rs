//! Every call into the program under test.
//!
//! The rest of the suite sees only the types defined here. The module binds
//! to the stable top-level names of the five crates (listed in README.md,
//! "Adapter surface") and to nothing beneath them, so a refactor that keeps
//! those names keeps the benchmark compiling and measuring the same thing.

use crate::checksum;
use crate::trace::{Recorder, Span, SpanTuple};
use sa_apps::bc::{bc_batches_1d_session, bc_serial, pick_sources};
use sa_apps::galerkin::GalerkinSession;
use sa_apps::mcl::{mcl_1d_checkpointed, mcl_1d_session, MclConfig};
use sa_apps::restriction::restriction_operator;
use sa_dist::reference::{serial_galerkin, serial_spgemm};
use sa_dist::{
    analyze_1d, load_wire, prepare, save_wire, spgemm_1d, spgemm_summa_2d_sa, CacheConfig,
    DistMat1D, DistMat2D, FetchMode, FileStore, MatSnapshot, Plan1D, SpgemmReport, SpgemmSession,
    Strategy,
};
use sa_mpisim::{
    crc32, Comm, CommStats, Frame, Grid2D, PairedWindow, PhaseTimes, RankJob, Universe, Wire,
    WireError,
};
use sa_sparse::ewise::ewise_add;
use sa_sparse::gen::{banded, kkt_arrow, sbm, stencil3d, Dataset, Scale};
use sa_sparse::spgemm::{spgemm_kernel, upper_bound_flops, upper_bound_flops_per_col, Kernel};
use sa_sparse::{Csc, Dcsc, PlusTimes, Vidx};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use sa_mpisim::Backend;

/// A global sparse matrix, as the generators produce it.
pub type Matrix = Csc<f64>;

/// The suite's pinned 1D plan: block fetching at K = 256, hybrid kernel,
/// global volume statistics on. Workloads override the fetch mode only.
fn plan(fetch: Fetch) -> Plan1D {
    Plan1D {
        fetch_mode: fetch.mode(),
        kernel: Kernel::Hybrid,
        global_stats: true,
        ..Plan1D::default()
    }
}

/// How needed remote columns are coalesced into gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fetch {
    /// `FetchMode::Block(256)` — few large gets (bytes-bound).
    Block256,
    /// `FetchMode::ColumnExact` — one round trip per needed column
    /// (message-bound).
    ColumnExact,
}

impl Fetch {
    fn mode(self) -> FetchMode {
        match self {
            Fetch::Block256 => FetchMode::Block(256),
            Fetch::ColumnExact => FetchMode::ColumnExact,
        }
    }
}

// ---------------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------------

/// The operand generators the workloads draw from. `lin` is the edge of a
/// cube (queen-like), the others take row counts.
pub fn queen_like(lin: usize) -> Matrix {
    stencil3d(lin, lin, lin, true)
}

pub fn stokes_like(tiny: bool) -> Matrix {
    Dataset::StokesLike.build(if tiny { Scale::Tiny } else { Scale::Small })
}

pub fn hv15r_like(n: usize, band: usize, seed: u64) -> Matrix {
    banded(n, band, 0.35, false, seed)
}

pub fn nlpkkt_like(n1: usize, n2: usize, band: usize, seed: u64) -> Matrix {
    kkt_arrow(n1, n2, band, 8, seed)
}

/// Relabelled stochastic block model (eukarya-like: clusters hidden from
/// the natural order).
pub fn sbm_graph(n: usize, k: usize, deg_in: f64, deg_out: f64, seed: u64) -> Matrix {
    sbm(n, k, deg_in, deg_out, true, seed)
}

/// `count` aggregation restriction operators of `fine`, one per seed.
pub fn restrictions(fine: &Matrix, count: usize, seed: u64) -> Vec<Matrix> {
    (0..count as u64)
        .map(|i| restriction_operator(fine, seed.wrapping_mul(1_000).wrapping_add(i)))
        .collect()
}

/// `count` batches of `batch` distinct BC sources each.
pub fn bc_batches(n: usize, count: usize, batch: usize, seed: u64) -> Vec<Vec<Vidx>> {
    (0..count as u64)
        .map(|i| pick_sources(n, batch, seed.wrapping_mul(1_000).wrapping_add(i)))
        .collect()
}

/// Exact flop count (multiply-adds) of `a · a`.
pub fn squaring_flops(a: &Matrix) -> u64 {
    upper_bound_flops::<f64, _, _>(a, a)
}

/// A matrix laid out for `p` ranks: permuted (or not) and cut into the 1D
/// column layout.
#[derive(Clone)]
pub struct Prepared {
    pub a: Matrix,
    pub offsets: Vec<usize>,
}

/// `sa_dist::prepare` under the natural order or a seeded random symmetric
/// permutation.
pub fn prepare_1d(a: &Matrix, p: usize, scramble: Option<u64>) -> Prepared {
    let strategy = match scramble {
        None => Strategy::Original,
        Some(seed) => Strategy::RandomPerm { seed },
    };
    let prep = prepare(a, p, strategy);
    Prepared {
        a: prep.a,
        offsets: prep.offsets,
    }
}

// ---------------------------------------------------------------------------
// Rank jobs
// ---------------------------------------------------------------------------

/// What the ranks of one launch execute.
pub enum Body {
    /// `multiplies` sessionless `spgemm_1d` squarings of every operand.
    Square1d {
        mats: Vec<Prepared>,
        fetch: Fetch,
        multiplies: usize,
    },
    /// `multiplies` `spgemm_summa_2d_sa` squarings on a `pr × pc` grid.
    Summa2d {
        mat: Matrix,
        pr: usize,
        pc: usize,
        multiplies: usize,
    },
    /// MCL to convergence + batched BC on `graph`, and one Galerkin session
    /// over `restrictions` on `fine`, all through unlimited fetch caches.
    Apps {
        graph: Matrix,
        batches: Vec<Vec<Vidx>>,
        fine: Matrix,
        restrictions: Vec<Matrix>,
    },
    /// Layer probe on one 1D operand: `from_global`, `analyze_1d`, window
    /// exposure, one multiply, and a session's miss and hit multiplies.
    Probe1d { mat: Prepared, fetch: Fetch },
    /// `mcl_1d_checkpointed` through a `FileStore` under `dir`.
    MclCheckpointed { graph: Matrix, dir: String },
    /// Nothing: the launch and join cost alone.
    Empty,
}

impl Body {
    /// Every operand the body multiplies, as global matrices.
    pub fn operands(&self) -> Vec<&Matrix> {
        match self {
            Body::Square1d { mats, .. } => mats.iter().map(|m| &m.a).collect(),
            Body::Summa2d { mat, .. } => vec![mat],
            Body::Apps { graph, fine, .. } => vec![graph, fine],
            Body::Probe1d { mat, .. } => vec![&mat.a],
            Body::MclCheckpointed { graph, .. } => vec![graph],
            Body::Empty => Vec::new(),
        }
    }

    /// The 1D layer probe of this body's first operand on `p` ranks, under
    /// the body's own fetch mode (a scrambled operand stays scrambled).
    pub fn probe_1d(&self, p: usize) -> Option<Body> {
        let (mat, fetch) = match self {
            Body::Square1d { mats, fetch, .. } => (mats.first()?.clone(), *fetch),
            other => (
                prepare_1d(other.operands().first()?, p, None),
                Fetch::Block256,
            ),
        };
        Some(Body::Probe1d { mat, fetch })
    }
}

/// One launch: a body, plus whether to record spans and whether to hand the
/// products back for verification.
pub struct Job {
    pub body: Body,
    /// `Some(epoch)` records spans as nanoseconds since `epoch`.
    pub trace: Option<Instant>,
    /// Return every output in full (slow; verification launches only).
    pub keep_outputs: bool,
}

/// A block of a distributed product, in the owner's local CSC, with the
/// global coordinates of its corner.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// Which output of the body this block belongs to.
    pub output: u64,
    pub row_base: u64,
    /// One past the last global row this block may hold.
    pub row_end: u64,
    pub col_base: u64,
    pub colptr: Vec<u64>,
    pub rows: Vec<Vidx>,
    pub vals: Vec<f64>,
}

type BlockTuple = (u64, (u64, u64, u64), Vec<u64>, Vec<Vidx>, Vec<f64>);

impl Job {
    /// An untraced launch of `body` that keeps no outputs.
    pub fn new(body: Body) -> Job {
        Job {
            body,
            trace: None,
            keep_outputs: false,
        }
    }
}

/// What one rank returns from a [`Job`].
#[derive(Clone, Debug, Default)]
pub struct RankOut {
    /// Entries in this rank's share of the outputs.
    pub nnz: u64,
    /// Order-independent checksum over this rank's share of the outputs.
    pub checksum: u64,
    /// Exact `CommStats` delta over the whole body: sent msgs / bytes,
    /// received msgs / bytes, one-sided gets / bytes.
    pub counters: [u64; 6],
    /// `CommStats::injected_bytes()` of that delta.
    pub net_bytes: u64,
    /// `CommStats::injected_msgs()` of that delta.
    pub net_msgs: u64,
    /// Named numbers the body observed (program-reported phase seconds,
    /// byte counts, hit counters, iteration counts).
    pub vals: Vec<(String, f64)>,
    pub spans: Vec<Span>,
    pub blocks: Vec<Block>,
    /// Dense outputs (cluster labels, BC scores), when kept.
    pub vectors: Vec<(String, Vec<f64>)>,
}

impl RankOut {
    pub fn val(&self, name: &str) -> f64 {
        self.vals
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn add(&mut self, name: &str, x: f64) {
        match self.vals.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += x,
            None => self.vals.push((name.to_string(), x)),
        }
    }

    fn max(&mut self, name: &str, x: f64) {
        match self.vals.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = v.max(x),
            None => self.vals.push((name.to_string(), x)),
        }
    }
}

impl Wire for RankOut {
    fn put(&self, out: &mut Vec<u8>) {
        self.nnz.put(out);
        self.checksum.put(out);
        for c in self
            .counters
            .into_iter()
            .chain([self.net_bytes, self.net_msgs])
        {
            c.put(out);
        }
        self.vals.put(out);
        let spans: Vec<SpanTuple> = self.spans.iter().map(Span::to_tuple).collect();
        spans.put(out);
        let blocks: Vec<BlockTuple> = self
            .blocks
            .iter()
            .map(|b| {
                (
                    b.output,
                    (b.row_base, b.row_end, b.col_base),
                    b.colptr.clone(),
                    b.rows.clone(),
                    b.vals.clone(),
                )
            })
            .collect();
        blocks.put(out);
        self.vectors.put(out);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(RankOut {
            nnz: Wire::get(buf)?,
            checksum: Wire::get(buf)?,
            counters: {
                let mut c = [0u64; 6];
                for slot in &mut c {
                    *slot = Wire::get(buf)?;
                }
                c
            },
            net_bytes: Wire::get(buf)?,
            net_msgs: Wire::get(buf)?,
            vals: Wire::get(buf)?,
            spans: Vec::<SpanTuple>::get(buf)?
                .into_iter()
                .map(Span::from_tuple)
                .collect(),
            blocks: Vec::<BlockTuple>::get(buf)?
                .into_iter()
                .map(
                    |(output, (row_base, row_end, col_base), colptr, rows, vals)| Block {
                        output,
                        row_base,
                        row_end,
                        col_base,
                        colptr,
                        rows,
                        vals,
                    },
                )
                .collect(),
            vectors: Wire::get(buf)?,
        })
    }
}

/// Fold one block of output `output` into a rank's result: count it, add
/// its entries to the checksum (keyed by global coordinates and the output
/// index), and keep it when asked.
fn absorb_block(
    out: &mut RankOut,
    keep: bool,
    output: u64,
    local: &Matrix,
    row_base: usize,
    row_end: usize,
    col_base: usize,
) {
    out.nnz += local.nnz() as u64;
    let sum = checksum::of_entries(local.iter().map(|(r, c, v)| {
        (
            row_base as u64 + r as u64,
            (output << 40) | (col_base as u64 + c as u64),
            v,
        )
    }));
    out.checksum = out.checksum.wrapping_add(sum);
    if keep {
        out.blocks.push(Block {
            output,
            row_base: row_base as u64,
            row_end: row_end as u64,
            col_base: col_base as u64,
            colptr: local.colptr().iter().map(|&p| p as u64).collect(),
            rows: local.rowidx().to_vec(),
            vals: local.vals().to_vec(),
        });
    }
}

/// Fold this rank's slice of a 1D-distributed output.
fn absorb_1d<C: Comm>(comm: &C, out: &mut RankOut, keep: bool, output: u64, c: DistMat1D) {
    let col_base = c.offsets()[comm.rank()];
    let nrows = c.nrows();
    absorb_block(out, keep, output, &c.into_local_csc(), 0, nrows, col_base);
}

/// Fold a dense vector every rank holds identically (rank 0 speaks for all).
fn absorb_vector<C: Comm>(comm: &C, out: &mut RankOut, keep: bool, name: &str, v: Vec<f64>) {
    if comm.rank() != 0 {
        return;
    }
    let tag = checksum::of_entries(
        name.bytes()
            .enumerate()
            .map(|(i, b)| (i as u64, b as u64, 0.0)),
    );
    let sum = checksum::of_entries(v.iter().enumerate().map(|(i, &x)| (i as u64, tag, x)));
    out.nnz += v.len() as u64;
    out.checksum = out.checksum.wrapping_add(sum);
    if keep {
        out.vectors.push((name.to_string(), v));
    }
}

/// Add one multiply's program-reported phase seconds to a rank's result.
fn absorb_phases(out: &mut RankOut, phases: &PhaseTimes) {
    out.add("phase_symbolic_s", phases.symbolic_s);
    out.add("phase_fetch_s", phases.fetch_s);
    out.add("phase_compute_s", phases.compute_s);
    out.add("phase_assemble_s", phases.assemble_s);
}

/// Add one 1D multiply's program-reported numbers to a rank's result.
fn absorb_report(out: &mut RankOut, rep: &SpgemmReport) {
    absorb_phases(out, &rep.phases);
    out.add("fetched_bytes", rep.fetched_bytes as f64);
    out.add("needed_bytes", rep.needed_bytes as f64);
    out.add("rdma_msgs", rep.rdma_msgs as f64);
    out.max("cv_over_mem", rep.cv_over_mem);
}

fn hit_counters(out: &mut RankOut, prefix: &str, hit: u64, fresh: u64) {
    out.add(&format!("{prefix}_hit_bytes"), hit as f64);
    out.add(&format!("{prefix}_fresh_bytes"), fresh as f64);
}

/// MCL parameters: the library defaults, with room to converge.
fn mcl_config() -> MclConfig {
    MclConfig {
        max_iters: 40,
        ..MclConfig::default()
    }
}

impl RankJob for Job {
    type Out = RankOut;

    fn run<C: Comm>(&self, comm: &C) -> RankOut {
        let mut rec = Recorder::new(self.trace);
        let mut out = RankOut::default();
        let keep = self.keep_outputs;
        let stats0 = comm.stats();
        rec.span("rank.body", |rec| match &self.body {
            Body::Square1d {
                mats,
                fetch,
                multiplies,
            } => {
                let plan = plan(*fetch);
                for (i, m) in mats.iter().enumerate() {
                    let da = rec.span("dist.from_global", |_| {
                        DistMat1D::from_global(comm, &m.a, &m.offsets)
                    });
                    let db = da.clone();
                    let mut last = None;
                    for _ in 0..*multiplies {
                        let (c, rep) =
                            rec.span("dist.spgemm_1d", |_| spgemm_1d(comm, &da, &db, &plan));
                        absorb_report(&mut out, &rep);
                        last = Some(c);
                    }
                    let c = last.expect("at least one multiply");
                    rec.span("suite.checksum", |_| {
                        absorb_1d(comm, &mut out, keep, i as u64, c)
                    });
                }
            }
            Body::Summa2d {
                mat,
                pr,
                pc,
                multiplies,
            } => {
                let grid = rec.span("mpisim.grid", |_| Grid2D::new(comm, *pr, *pc));
                let da = rec.span("dist.from_global", |_| DistMat2D::from_global(&grid, mat));
                let db = da.clone();
                let mut last = None;
                for _ in 0..*multiplies {
                    let (c, rep) = rec.span("dist.summa2d", |_| {
                        spgemm_summa_2d_sa(comm, &grid, &da, &db, Fetch::Block256.mode())
                    });
                    absorb_phases(&mut out, &rep.phases);
                    out.add("fetched_bytes", rep.a_fetched_bytes as f64);
                    out.add("needed_bytes", rep.a_needed_bytes as f64);
                    out.add("rdma_msgs", rep.a_rdma_msgs as f64);
                    out.add("summa2d_b_shipped_bytes", rep.b_shipped_bytes as f64);
                    out.add("summa2d_meta_bytes", rep.meta_bytes as f64);
                    last = Some(c);
                }
                let c = last.expect("at least one multiply");
                rec.span("suite.checksum", |_| {
                    let (r0, r1) = (c.row_offsets()[grid.myrow], c.row_offsets()[grid.myrow + 1]);
                    let c0 = c.col_offsets()[grid.mycol];
                    absorb_block(&mut out, keep, 0, c.local(), r0, r1, c0);
                });
            }
            Body::Apps {
                graph,
                batches,
                fine,
                restrictions,
            } => {
                let plan = plan(Fetch::Block256);
                let cache = CacheConfig::unlimited();
                let (clusters, iters, st) = rec.span("apps.mcl", |_| {
                    mcl_1d_session(comm, graph, &mcl_config(), &plan, cache)
                });
                out.add("mcl_iters", iters as f64);
                hit_counters(&mut out, "mcl", st.cache_hit_bytes, st.fresh_bytes);
                let (outcomes, st) = rec.span("apps.bc", |_| {
                    bc_batches_1d_session(comm, graph, batches, &plan, cache)
                });
                let st = st.last().expect("at least one BC batch");
                hit_counters(&mut out, "bc", st.cache_hit_bytes(), st.fresh_bytes());
                let coarse = rec.span("apps.galerkin", |rec| {
                    let offsets = sa_dist::uniform_offsets(fine.ncols(), comm.size());
                    let da = rec.span("dist.from_global", |_| {
                        DistMat1D::from_global(comm, fine, &offsets)
                    });
                    let mut session = rec.span("dist.session_create", |_| {
                        GalerkinSession::create(comm, da, plan, cache)
                    });
                    let coarse: Vec<DistMat1D> = restrictions
                        .iter()
                        .map(|r| session.product(comm, r).0)
                        .collect();
                    let st = session.stats();
                    hit_counters(&mut out, "galerkin", st.cache_hit_bytes, st.fresh_bytes);
                    coarse
                });
                rec.span("suite.checksum", |_| {
                    let labels = clusters.iter().map(|&c| c as f64).collect();
                    absorb_vector(comm, &mut out, keep, "mcl.clusters", labels);
                    for (i, o) in outcomes.into_iter().enumerate() {
                        absorb_vector(comm, &mut out, keep, &format!("bc.scores.{i}"), o.scores);
                    }
                    for (i, c) in coarse.into_iter().enumerate() {
                        absorb_1d(comm, &mut out, keep, i as u64, c);
                    }
                });
            }
            Body::Probe1d { mat, fetch } => probe_1d(comm, &mut out, mat, *fetch),
            Body::MclCheckpointed { graph, dir } => {
                let store = FileStore::new(dir.as_str()).expect("checkpoint directory");
                let ((clusters, iters, _), s) = time(|| {
                    mcl_1d_checkpointed(
                        comm,
                        graph,
                        &mcl_config(),
                        &plan(Fetch::Block256),
                        CacheConfig::unlimited(),
                        &store,
                        "mcl.state",
                    )
                });
                out.add("mcl_checkpointed_s", s);
                out.add("mcl_iters", iters as f64);
                let labels = clusters.iter().map(|&c| c as f64).collect();
                absorb_vector(comm, &mut out, keep, "mcl.clusters", labels);
            }
            Body::Empty => {}
        });
        let d: CommStats = comm.stats() - stats0;
        out.counters = [
            d.sent_msgs,
            d.sent_bytes,
            d.recv_msgs,
            d.recv_bytes,
            d.rdma_gets,
            d.rdma_get_bytes,
        ];
        out.net_bytes = d.injected_bytes();
        out.net_msgs = d.injected_msgs();
        out.spans = rec.finish();
        out
    }
}

/// Seconds one call of `f` takes.
fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The 1D layer probe: each call into `sa_dist` / `sa_mpisim` timed on its
/// own, with barriers between so one rank's lateness is not billed to the
/// next call.
fn probe_1d<C: Comm>(comm: &C, out: &mut RankOut, mat: &Prepared, f: Fetch) {
    let plan = plan(f);
    let (da, s) = time(|| DistMat1D::from_global(comm, &mat.a, &mat.offsets));
    out.add("from_global_s", s);
    let db = da.clone();
    comm.barrier();
    let (_, s) = time(|| analyze_1d(comm, &da, &db, f.mode()));
    out.add("analyze_s", s);
    // the exposure the sessionless path pays on every call: both entry
    // arrays copied, then exposed collectively
    comm.barrier();
    let (win, s) =
        time(|| PairedWindow::create(comm, da.local().ir().to_vec(), da.local().num().to_vec()));
    out.add("window_create_s", s);
    comm.barrier();
    drop(win);
    let ((_, rep), s) = time(|| spgemm_1d(comm, &da, &db, &plan));
    out.add("multiply_s", s);
    absorb_report(out, &rep);
    comm.barrier();
    let (mut session, s) =
        time(|| SpgemmSession::create(comm, da.clone(), plan, CacheConfig::unlimited()));
    out.add("session_create_s", s);
    comm.barrier();
    let (_, s) = time(|| session.multiply(comm, &db));
    out.add("session_miss_multiply_s", s);
    comm.barrier();
    let (_, s) = time(|| session.multiply(comm, &db));
    out.add("session_hit_multiply_s", s);
}

fn universe(p: usize) -> Universe {
    Universe::new(p).with_watchdog(Some(Duration::from_secs(120)))
}

/// Launch `job` on `p` ranks of `backend` and join every rank. Returns the
/// seconds from call to all outcomes joined, and each rank's output or the
/// text of its typed failure. A two-minute stall watchdog turns a wedged
/// launch into typed failures well inside the benchmark's time limit.
pub fn launch(backend: Backend, p: usize, job: &Job) -> (f64, Vec<Result<RankOut, String>>) {
    let u = universe(p);
    let (outcomes, wall) = time(|| u.try_run_backend(backend, job));
    let outs = outcomes
        .into_iter()
        .map(|o| o.map_err(|e| e.to_string()))
        .collect();
    (wall, outs)
}

// ---------------------------------------------------------------------------
// Serial references (verification)
// ---------------------------------------------------------------------------

pub fn reference_square(a: &Matrix) -> Matrix {
    serial_spgemm(a, a)
}

pub fn reference_galerkin(r: &Matrix, a: &Matrix) -> Matrix {
    serial_galerkin(r, a)
}

pub fn reference_bc(graph: &Matrix, sources: &[Vidx]) -> Vec<f64> {
    bc_serial(graph, sources)
}

/// Column `j` of `m` restricted to rows `[r0, r1)` (rows ascend in a CSC).
pub fn column_rows(m: &Matrix, j: usize, r0: usize, r1: usize) -> (&[Vidx], &[f64]) {
    let (rows, vals) = m.col(j);
    let lo = rows.partition_point(|&r| (r as usize) < r0);
    let hi = rows.partition_point(|&r| (r as usize) < r1);
    (&rows[lo..hi], &vals[lo..hi])
}

// ---------------------------------------------------------------------------
// Layer micro-benchmarks
// ---------------------------------------------------------------------------

/// `sa_sparse` on a workload's operands, single-threaded: the local kernels
/// over the `p` column slices a `p`-rank run multiplies, the symbolic pass,
/// the plain serial product and the output conversion, summed over the
/// operands; the three fixed accumulators and the overlap path's merge on
/// the first operand alone. Runs as a one-rank job so the kernels see a
/// one-thread pool.
pub struct SparseProbe<'a> {
    pub operands: Vec<&'a Matrix>,
    pub p: usize,
    /// Also time the three fixed accumulators (skipped in `--check`).
    pub accumulators: bool,
}

fn column_slices(a: &Matrix, p: usize) -> Vec<Matrix> {
    let n = a.ncols();
    (0..p)
        .map(|r| a.extract_cols(r * n / p, (r + 1) * n / p))
        .collect()
}

fn kernel_s(a: &Matrix, slices: &[Matrix], k: Kernel) -> f64 {
    time(|| {
        for b in slices {
            black_box(spgemm_kernel::<PlusTimes<f64>, _, _>(a, b, k));
        }
    })
    .1
}

impl RankJob for SparseProbe<'_> {
    type Out = Vec<(String, f64)>;

    fn run<C: Comm>(&self, comm: &C) -> Vec<(String, f64)> {
        comm.install(|| {
            let (mut flops, mut hybrid_s, mut symbolic_s, mut serial_s) = (0u64, 0.0, 0.0, 0.0);
            let (mut convert_s, mut convert_bytes) = (0.0, 0usize);
            for &a in &self.operands {
                let slices = column_slices(a, self.p);
                flops += slices
                    .iter()
                    .map(|b| upper_bound_flops::<f64, _, _>(a, b))
                    .sum::<u64>();
                hybrid_s += kernel_s(a, &slices, Kernel::Hybrid);
                symbolic_s += time(|| {
                    for b in &slices {
                        black_box(upper_bound_flops_per_col::<f64, _, _>(a, b));
                    }
                })
                .1;
                let (c, s) = time(|| serial_spgemm(a, a));
                serial_s += s;
                let (d, s) = time(|| Dcsc::from_csc(&c));
                convert_s += s;
                convert_bytes += d.mem_bytes();
            }
            let mut v = vec![
                ("kernel_flops".to_string(), flops as f64),
                ("kernel_s".into(), hybrid_s),
                ("kernel_mflops".into(), flops as f64 / hybrid_s / 1e6),
                ("symbolic_s".into(), symbolic_s),
                ("serial_spgemm_s".into(), serial_s),
                ("dcsc_from_csc_s".into(), convert_s),
                (
                    "dcsc_from_csc_mb_per_s".into(),
                    convert_bytes as f64 / convert_s / 1e6,
                ),
            ];
            let a = self.operands[0];
            if self.accumulators {
                let slices = column_slices(a, self.p);
                let flops: u64 = slices
                    .iter()
                    .map(|b| upper_bound_flops::<f64, _, _>(a, b))
                    .sum();
                for (name, k) in [
                    ("kernel_heap_mflops", Kernel::Heap),
                    ("kernel_hash_mflops", Kernel::Hash),
                    ("kernel_spa_mflops", Kernel::Spa),
                ] {
                    v.push((name.into(), flops as f64 / kernel_s(a, &slices, k) / 1e6));
                }
            }
            // two half-products, as the overlap path merges them
            let (n, half) = (a.ncols(), a.ncols() / 2);
            let lo = spgemm_kernel::<PlusTimes<f64>, _, _>(
                &a.extract_cols(0, half),
                &a.extract_rows(0, half),
                Kernel::Hybrid,
            );
            let hi = spgemm_kernel::<PlusTimes<f64>, _, _>(
                &a.extract_cols(half, n),
                &a.extract_rows(half, a.nrows()),
                Kernel::Hybrid,
            );
            let (_, s) = time(|| black_box(ewise_add::<PlusTimes<f64>>(&lo, &hi)));
            v.push(("ewise_add_s".into(), s));
            v
        })
    }
}

/// Run a one-rank probe on the serial simulator.
pub fn run_sparse_probe(probe: &SparseProbe<'_>) -> Result<Vec<(String, f64)>, String> {
    Universe::new(1)
        .try_run_backend(Backend::Sim, probe)
        .remove(0)
        .map_err(|e| e.to_string())
}

/// `sa_mpisim::wire` in the calling process: encode/decode of large
/// vectors, the frame checksum, and a frame round trip, in ns per byte.
pub fn wire_probe(mb: usize) -> Vec<(String, f64)> {
    let bytes = mb << 20;
    let f: Vec<f64> = (0..bytes / 8).map(|i| i as f64 * 0.5).collect();
    let x: Vec<Vidx> = (0..bytes / 4).map(|i| i as Vidx).collect();
    let mut out = Vec::new();
    let per_byte = |s: f64, n: usize| s * 1e9 / n as f64;

    let (fb, s1) = time(|| f.to_bytes());
    let (xb, s2) = time(|| x.to_bytes());
    out.push((
        "wire_put_ns_per_byte".to_string(),
        per_byte(s1 + s2, fb.len() + xb.len()),
    ));
    let (f2, s1) = time(|| Vec::<f64>::from_bytes(&fb));
    let (x2, s2) = time(|| Vec::<Vidx>::from_bytes(&xb));
    assert!(f2.is_ok_and(|v| v == f) && x2.is_ok_and(|v| v == x));
    out.push((
        "wire_get_ns_per_byte".to_string(),
        per_byte(s1 + s2, fb.len() + xb.len()),
    ));
    let (sum, s) = time(|| crc32(&fb));
    black_box(sum);
    out.push(("crc32_ns_per_byte".to_string(), per_byte(s, fb.len())));
    let payload = fb[..fb.len() / 2].to_vec();
    let n = payload.len();
    let frame = Frame::GetResp { req_id: 7, payload };
    let (back, s) = time(|| Frame::from_bytes(&frame.to_bytes()));
    assert!(matches!(back, Ok(Frame::GetResp { req_id: 7, .. })));
    out.push(("frame_rt_ns_per_byte".to_string(), per_byte(s, n)));
    out
}

/// `sa_mpisim` window / two-sided / collective micro-benchmarks, one launch.
pub struct CommProbe {
    /// Blocking 16-element gets from the peer (rank 0 of 2).
    pub small_gets: usize,
    /// Ranged gets of `big_elems` elements each.
    pub big_gets: usize,
    pub big_elems: usize,
    /// Ping-pong round trips of `big_elems` `f64`s.
    pub pingpongs: usize,
    /// Allreduces, then barriers.
    pub collectives: usize,
}

impl RankJob for CommProbe {
    type Out = Vec<(String, f64)>;

    fn run<C: Comm>(&self, comm: &C) -> Vec<(String, f64)> {
        let mut v = Vec::new();
        let me = comm.rank();
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            let threads = status
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|t| t.trim().parse::<f64>().ok());
            v.push(("threads_per_proc".to_string(), threads.unwrap_or(0.0)));
        }
        if self.small_gets + self.big_gets > 0 && comm.size() >= 2 {
            let n = self.big_elems.max(16 * self.small_gets);
            let idx: Vec<Vidx> = (0..n).map(|i| i as Vidx).collect();
            let num: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let win = PairedWindow::create(comm, idx, num);
            let peer = 1 - me.min(1);
            if me == 0 {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let (_, s) = time(|| {
                    for i in 0..self.small_gets {
                        a.clear();
                        b.clear();
                        win.get_both_into(comm, peer, 16 * i..16 * i + 16, &mut a, &mut b)
                            .expect("in-range get");
                    }
                });
                v.push(("get_rtt_us".to_string(), s * 1e6 / self.small_gets as f64));
                assert_eq!(b.last().copied(), Some((16 * self.small_gets - 1) as f64));
                let (_, s) = time(|| {
                    for _ in 0..self.big_gets {
                        a.clear();
                        b.clear();
                        win.get_both_into(comm, peer, 0..self.big_elems, &mut a, &mut b)
                            .expect("in-range get");
                    }
                });
                let bytes = self.big_gets * self.big_elems * 12;
                v.push(("get_mb_per_s".to_string(), bytes as f64 / s / 1e6));
            }
            comm.barrier();
        }
        if self.pingpongs > 0 && comm.size() >= 2 && me < 2 {
            let data: Vec<f64> = (0..self.big_elems).map(|i| i as f64).collect();
            let peer = 1 - me;
            let (_, s) = time(|| {
                let mut data = data;
                for _ in 0..self.pingpongs {
                    if me == 0 {
                        comm.send_vec(peer, 0x5a17, std::mem::take(&mut data));
                        data = comm.recv_vec(peer, 0x5a17);
                    } else {
                        let echo: Vec<f64> = comm.recv_vec(peer, 0x5a17);
                        comm.send_vec(peer, 0x5a17, echo);
                    }
                }
                black_box(data.len())
            });
            let bytes = 2 * self.pingpongs * self.big_elems * 8;
            v.push(("sendrecv_mb_per_s".to_string(), bytes as f64 / s / 1e6));
        }
        if self.collectives > 0 {
            comm.barrier();
            let (_, s) = time(|| {
                for i in 0..self.collectives {
                    black_box(comm.allreduce(i as u64 + me as u64, |a, b| a.max(b)));
                }
            });
            v.push((
                "allreduce_us".to_string(),
                s * 1e6 / self.collectives as f64,
            ));
            let (_, s) = time(|| {
                for _ in 0..self.collectives {
                    comm.barrier();
                }
            });
            v.push(("barrier_us".to_string(), s * 1e6 / self.collectives as f64));
        }
        v
    }
}

/// Run a [`CommProbe`]; returns rank 0's numbers.
pub fn run_comm_probe(
    backend: Backend,
    p: usize,
    probe: &CommProbe,
) -> Result<Vec<(String, f64)>, String> {
    let mut outs = universe(p).try_run_backend(backend, probe);
    for o in &outs {
        if let Err(e) = o {
            return Err(e.to_string());
        }
    }
    outs.remove(0).map_err(|e| e.to_string())
}

/// `sa_dist::checkpoint`: save and load one rank-sized `MatSnapshot` of `a`
/// through a `FileStore` under `dir`, in MB/s of encoded snapshot.
pub fn checkpoint_probe(a: &Matrix, dir: &Path) -> Result<Vec<(String, f64)>, String> {
    let store = FileStore::new(dir).map_err(|e| e.to_string())?;
    let m = DistMat1D::from_local(
        a.nrows(),
        a.ncols(),
        Arc::new(vec![0, a.ncols()]),
        Dcsc::from_csc(a),
    );
    let snap = MatSnapshot::of(&m);
    let mb = snap.to_bytes().len() as f64 / 1e6;
    let (r, save_s) = time(|| save_wire(&store, 0, "probe", &snap));
    r.map_err(|e| e.to_string())?;
    let (back, load_s) = time(|| load_wire::<_, MatSnapshot>(&store, 0, "probe"));
    let back = back.map_err(|e| e.to_string())?;
    if back.as_ref() != Some(&snap) {
        return Err("checkpoint did not read back identical".into());
    }
    Ok(vec![
        ("ckpt_save_mb_per_s".to_string(), mb / save_s),
        ("ckpt_load_mb_per_s".to_string(), mb / load_s),
    ])
}
