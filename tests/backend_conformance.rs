//! Backend conformance suite (PR 7): every [`Comm`] backend must be
//! *indistinguishable* from the serial simulator in everything but
//! wall-clock. The suite is backend-parametric — each cell is a
//! [`RankJob`] run twice, once on the pinned `sim` baseline and once
//! on the backend `SA_BACKEND` selects — so the same binary proves:
//!
//! * `SA_BACKEND` unset / `sim`: the simulator is deterministic (two
//!   independent runs agree bit-for-bit);
//! * `SA_BACKEND=threads`: the truly-parallel in-process backend conforms;
//! * `SA_BACKEND=procs`: the process-per-rank socket backend conforms —
//!   every result below crosses a real OS-process boundary and comes back
//!   bit-identical, and the metered [`CommStats`] (sends, receives, RDMA
//!   gets — messages *and* bytes, per rank) match the simulator exactly
//!   even though the bytes now travel through TCP frames.
//!
//! Coverage: the 1D sparsity-aware multiply under all four fetch modes
//! (plus its pre-communication analysis, and its collective rounds pinned
//! on all three backends at once), 2D SUMMA across grid shapes and
//! semirings, the 3D split algorithm across layer counts, the stateful
//! `SpgemmSession` fresh-vs-cache split with delta invalidation, the
//! collective `pick_fetch_mode` and the multiply it picks for, MCL's three
//! drivers, and a pure-runtime cell that exercises every collective,
//! point-to-point patterns, windows, and splits directly.
//!
//! Outputs are fingerprinted with `f64::to_bits` (integer-valued operands
//! make the sums exact), so equality is exact equality, not tolerance.

use saspgemm::dist::{
    analyze_1d, pick_fetch_mode, prepare, spgemm_1d, spgemm_split_3d_sa, spgemm_summa_2d_sa,
    uniform_offsets, CacheConfig, DistMat1D, DistMat2D, DistMat3D, FetchMode, Plan1D,
    SpgemmSession, Strategy, Wired,
};
use saspgemm::mpisim::{
    Backend, Comm, CommError, CommStats, CostModel, Grid2D, Grid3D, PairedWindow, RankError,
    RankJob, Universe, WindowError,
};
use saspgemm::sparse::gen::{banded, erdos_renyi};
use saspgemm::sparse::semiring::{MinPlus, PlusTimes};
use saspgemm::sparse::{Csc, SpgemmWorkspace};
use std::fmt::Write as _;
use std::time::Duration;

/// ER matrix with small-integer values: f64 sums over products of these
/// are exact, so scheduling cannot perturb results.
fn int_er(nrows: usize, ncols: usize, deg: f64, seed: u64) -> Csc<f64> {
    erdos_renyi(nrows, ncols, deg, seed).map(|v| (v * 7.0).round() + 1.0)
}

/// Bit-exact fingerprint of a sparse matrix: dims + every (row, col,
/// value-bits) triple in storage order.
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

/// The backend under test: whatever `SA_BACKEND` names (the simulator when
/// unset). CI runs this suite once per backend value.
fn backend_under_test() -> Backend {
    Backend::from_env()
}

/// One conformance cell's verdict: a bit-exact output fingerprint plus the
/// rank's full NIC counter delta for the cell.
type Verdict = (String, CommStats);

/// The driver: run `job` on the pinned serial simulator, then on the
/// backend under test, and require per-rank identical fingerprints and
/// byte-identical traffic. Returns the verdicts for extra assertions.
fn run_conformance<J: RankJob<Out = Verdict>>(nranks: usize, job: &J, what: &str) -> Vec<Verdict> {
    // Watchdog on: a conformance bug on a remote backend must fail typed,
    // not hang the suite.
    let u = Universe::new(nranks).with_watchdog(Some(Duration::from_secs(120)));
    let baseline = u.launch(Backend::Sim, |c| job.run(c));
    let be = backend_under_test();
    let got = u.launch(be, |c| job.run(c));
    assert_eq!(baseline.len(), got.len(), "{what}: rank count");
    for (rank, (base, g)) in baseline.iter().zip(&got).enumerate() {
        assert_eq!(
            base.0,
            g.0,
            "{what}: rank {rank} output diverged on backend '{}'",
            be.name()
        );
        assert_eq!(
            base.1,
            g.1,
            "{what}: rank {rank} metered traffic diverged on backend '{}'",
            be.name()
        );
    }
    got
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// Pure-runtime cell: every provided collective, p2p rings, a paired
/// window's ranged gets, and a split sub-communicator — no algorithm on top,
/// so a conformance failure here localizes to the runtime itself.
struct RuntimeChurn;

impl RankJob for RuntimeChurn {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let me = comm.rank();
        let n = comm.size();
        let before = comm.stats();
        let mut s = String::new();

        // p2p ring with payload types of several widths
        comm.send_vec((me + 1) % n, 7, vec![me as u64, 100 + me as u64]);
        let from_left: Vec<u64> = comm.recv_vec((me + n - 1) % n, 7);
        write!(s, "ring:{from_left:?};").unwrap();
        comm.send_vec(
            (me + 1) % n,
            8,
            vec![(me as u32, me as u32, me as f64 + 0.5)],
        );
        let tup: Vec<(u32, u32, f64)> = comm.recv_vec((me + n - 1) % n, 8);
        write!(s, "tup:{}:{};", tup[0].0, tup[0].2.to_bits()).unwrap();

        // every provided collective
        let b = comm.bcast_vec(0, (me == 0).then(|| vec![3u64, 1, 4, 1, 5]));
        let g = comm.gatherv(0, vec![me as u64; me + 1]);
        let sc = comm.scatterv(
            0,
            (me == 0).then(|| (0..n).map(|r| vec![r as u64 * 10]).collect()),
        );
        let ag = comm.allgatherv(vec![me as u64 * 2]);
        let a2a = comm.alltoallv((0..n).map(|d| vec![(me * 100 + d) as u64]).collect());
        let red = comm.reduce(0, me as u64 + 1, |x, y| x + y);
        let ar = comm.allreduce(me as u64 + 1, |x, y| x + y);
        let arv = comm.allreduce_vec(vec![me as f64, 1.0], |x, y| x + y);
        let ex = comm.exscan_sum(me as u64 + 1);
        write!(
            s,
            "coll:{b:?}|{g:?}|{sc:?}|{ag:?}|{a2a:?}|{red:?}|{ar}|{:?}|{ex:?};",
            arv.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        )
        .unwrap();
        comm.barrier();

        // windows: ranged one-sided gets of both arrays
        let win = PairedWindow::create(comm, vec![me as u64; 6], vec![me as f64 + 0.5; 6]);
        let peer = (me + n / 2) % n;
        let (mut ids, mut vals) = (Vec::new(), Vec::new());
        win.get_both_into(comm, peer, 1..4, &mut ids, &mut vals)
            .unwrap();
        write!(s, "win:{ids:?}:{vals:?};").unwrap();
        comm.barrier();

        // split into even/odd and reduce within
        let sub = comm.split(me % 2, me);
        let sub_sum = sub.allreduce(me as u64, |x, y| x + y);
        write!(s, "split:{}/{}:{sub_sum};", sub.rank(), sub.size()).unwrap();
        comm.barrier();

        (s, comm.stats() - before)
    }
}

#[test]
fn runtime_churn_conforms() {
    for n in [2, 4, 5] {
        run_conformance(n, &RuntimeChurn, &format!("runtime churn p={n}"));
    }
}

/// `PairedWindow::get_many_into` against the same gets issued one by one:
/// same data, same per-rank `CommStats`, on every backend. The plan covers
/// what a copy loop over shared or mapped windows could get wrong — empty
/// ranges, own-rank entries between remote ones, several owners in one
/// call, hundreds of requests, one request of more than 4 MiB, windows of
/// uneven length — and a batch with one bad request must fail as a whole:
/// nothing metered, outputs untouched.
struct BatchedGets;

impl RankJob for BatchedGets {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let me = comm.rank();
        let n = comm.size();
        let before = comm.stats();
        // uneven exposures, each f64 array above 4 MiB
        let len_of = |r: usize| 600_000 + 1_000 * r;
        let win = PairedWindow::create(
            comm,
            (0..len_of(me))
                .map(|i| (me * 7_000_003 + i) as u32)
                .collect(),
            (0..len_of(me)).map(|i| (i * 3 + me) as f64).collect(),
        );
        let other = |k: usize| (me + 1 + k % (n - 1)) % n;
        let mut plan = vec![(other(0), 5..5)];
        for owner in 0..n {
            plan.push((owner, 10 * owner..10 * owner + 17));
        }
        plan.push((me, 0..100));
        for k in 0..300 {
            plan.push((other(k), 3 * k..3 * k + 2));
        }
        plan.push((other(1), 0..len_of(other(1))));
        plan.push((other(0), 40..44));
        plan.push((me, 7..7));

        let (mut a, mut b) = (vec![u32::MAX], vec![-1.0f64]);
        let t0 = comm.stats();
        win.get_many_into(comm, &plan, &mut a, &mut b).unwrap();
        let batched = comm.stats() - t0;
        let (mut a1, mut b1) = (vec![u32::MAX], vec![-1.0f64]);
        let t0 = comm.stats();
        for (rank, range) in &plan {
            win.get_both_into(comm, *rank, range.clone(), &mut a1, &mut b1)
                .unwrap();
        }
        let one_by_one = comm.stats() - t0;
        assert!(a == a1 && b == b1, "rank {me}: batched data diverged");
        assert_eq!(batched, one_by_one, "rank {me}: batched metering diverged");

        // a bad request anywhere fails the whole batch before it meters or
        // moves anything
        let t0 = comm.stats();
        let mut bad = plan.clone();
        bad.insert(200, (other(0), 0..len_of(other(0)) + 1));
        let oob = win.get_many_into(comm, &bad, &mut a1, &mut b1).unwrap_err();
        bad[200] = (n, 0..1);
        let bad_rank = win.get_many_into(comm, &bad, &mut a1, &mut b1).unwrap_err();
        assert!(matches!(oob, WindowError::OutOfRange { .. }), "{oob:?}");
        assert!(
            matches!(bad_rank, WindowError::BadRank { .. }),
            "{bad_rank:?}"
        );
        assert_eq!(
            comm.stats() - t0,
            CommStats::default(),
            "failed batch metered"
        );
        assert!(a == a1 && b == b1, "failed batch touched the outputs");
        comm.barrier();

        let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        let h = a
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &x| mix(h, x as u64));
        let h = b.iter().fold(h, |h, x| mix(h, x.to_bits()));
        (format!("{}:{h:x}", a.len()), comm.stats() - before)
    }
}

#[test]
fn batched_gets_conform_to_one_by_one() {
    for n in [2, 3] {
        run_conformance(n, &BatchedGets, &format!("batched gets p={n}"));
    }
}

/// The 1D sparsity-aware multiply under one fetch mode, plus its
/// pre-communication analysis — the analysis must price exactly what the
/// execution meters, on every backend.
struct Spgemm1D<'a> {
    a: &'a Csc<f64>,
    mode: FetchMode,
}

impl RankJob for Spgemm1D<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let offsets = uniform_offsets(self.a.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, self.a, &offsets);
        let db = da.clone();
        let an = analyze_1d(comm, &da, &db, self.mode);
        let plan = Plan1D {
            fetch_mode: self.mode,
            ..Default::default()
        };
        let before = comm.stats();
        let (c, rep) = spgemm_1d(comm, &da, &db, &plan);
        let traffic = comm.stats() - before;
        assert_eq!(
            rep.fetched_bytes, an.planned_fetch_bytes,
            "plan == metering"
        );
        let s = format!(
            "{}|fetched={} msgs={} needed={} global={} cv={:x}|planned={}/{}",
            fp_csc(&c.into_local_csc()),
            rep.fetched_bytes,
            rep.rdma_msgs,
            rep.needed_bytes,
            rep.fetched_bytes_global,
            rep.cv_over_mem.to_bits(),
            an.planned_fetch_bytes,
            an.planned_intervals,
        );
        (s, traffic)
    }
}

#[test]
fn spgemm_1d_conforms_across_fetch_modes() {
    let a = int_er(48, 48, 4.0, 11);
    for mode in [
        FetchMode::FullMatrix,
        FetchMode::Block(4),
        FetchMode::ContiguousRuns,
        FetchMode::ColumnExact,
    ] {
        run_conformance(4, &Spgemm1D { a: &a, mode }, &format!("1D {mode:?}"));
    }
}

/// One default `spgemm_1d`: the traffic it meters, per rank.
struct OneMultiply<'a>(&'a Csc<f64>);

impl RankJob for OneMultiply<'_> {
    type Out = CommStats;
    fn run<C: Comm>(&self, comm: &C) -> CommStats {
        let offsets = uniform_offsets(self.0.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, self.0, &offsets);
        let before = comm.stats();
        spgemm_1d(comm, &da, &da, &Plan1D::default());
        comm.stats() - before
    }
}

#[test]
fn spgemm_1d_sends_one_metadata_allgather_on_every_backend() {
    // one allgatherv of metadata records (each record to rank 0, then its
    // length table and the records from rank 0 to the other P − 1) and the
    // global-stats allreduce (a send to rank 0, one broadcast back):
    // 3·(P − 1) sends from rank 0, two from every other rank
    let a = int_er(48, 48, 4.0, 11);
    let u = Universe::new(4).with_watchdog(Some(Duration::from_secs(120)));
    let sim = u.launch(Backend::Sim, |c| OneMultiply(&a).run(c));
    for be in [Backend::Sim, Backend::Threads, Backend::Procs] {
        let got = u.launch(be, |c| OneMultiply(&a).run(c));
        let sent: Vec<u64> = got.iter().map(|t| t.sent_msgs).collect();
        assert_eq!(sent, [9, 2, 2, 2], "sends per rank on '{}'", be.name());
        assert_eq!(got, sim, "per-rank traffic on '{}'", be.name());
    }
}

/// 2D SUMMA on one grid shape, arithmetic or tropical semiring.
struct Summa2D<'a> {
    a: &'a Csc<f64>,
    b: &'a Csc<f64>,
    pr: usize,
    pc: usize,
    mode: FetchMode,
    tropical: bool,
}

impl RankJob for Summa2D<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let grid = Grid2D::new(comm, self.pr, self.pc);
        let da = DistMat2D::from_global(&grid, self.a);
        let db = DistMat2D::from_global(&grid, self.b);
        let before = comm.stats();
        let s = if self.tropical {
            let ws = SpgemmWorkspace::new();
            let (c, _rep) = saspgemm::dist::try_spgemm_summa_2d_sa::<_, MinPlus>(
                comm, &grid, &da, &db, self.mode, &ws,
            )
            .unwrap();
            fp_opt(&c.gather(comm, &grid))
        } else {
            let (c, rep) = spgemm_summa_2d_sa(comm, &grid, &da, &db, self.mode);
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
fn summa_2d_conforms_across_grids_and_semirings() {
    let a = int_er(40, 40, 3.5, 21);
    let b = int_er(40, 40, 2.5, 22);
    for (pr, pc) in [(2, 2), (1, 4), (4, 1)] {
        for mode in [FetchMode::Block(4), FetchMode::ColumnExact] {
            for tropical in [false, true] {
                let job = Summa2D {
                    a: &a,
                    b: &b,
                    pr,
                    pc,
                    mode,
                    tropical,
                };
                let what = format!("2D {pr}x{pc} {mode:?} tropical={tropical}");
                run_conformance(pr * pc, &job, &what);
            }
        }
    }
}

/// A `1 × P` grid against Algorithm 1 itself: with one process row `B`
/// never moves and the 2D multiply's `Ã` is the 1D multiply's, so the two
/// must agree on the product and on every A-side counter.
struct OneByP<'a> {
    a: &'a Csc<f64>,
    mode: FetchMode,
}

impl RankJob for OneByP<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let before = comm.stats();
        let offsets = uniform_offsets(self.a.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, self.a, &offsets);
        let plan = Plan1D {
            fetch_mode: self.mode,
            ..Default::default()
        };
        let (c1, r1) = spgemm_1d(comm, &da, &da.clone(), &plan);
        let grid = Grid2D::new(comm, 1, comm.size());
        let d2 = DistMat2D::from_global(&grid, self.a);
        let (c2, r2) = spgemm_summa_2d_sa(comm, &grid, &d2, &d2.clone(), self.mode);
        let (c1, c2) = (fp_opt(&c1.gather(comm)), fp_opt(&c2.gather(comm, &grid)));
        assert_eq!(c2, c1, "product");
        assert_eq!(
            (r2.a_fetched_bytes, r2.a_needed_bytes, r2.a_rdma_msgs),
            (r1.fetched_bytes, r1.needed_bytes, r1.rdma_msgs),
            "fetched / needed / msgs"
        );
        assert_eq!(r2.comm.rdma_get_bytes, r1.comm.rdma_get_bytes, "metered");
        assert_eq!(r2.b_shipped_bytes, 0, "B stays put");
        let s = format!("{c2}|af={} am={}", r2.a_fetched_bytes, r2.a_rdma_msgs);
        (s, comm.stats() - before)
    }
}

#[test]
fn one_by_p_summa_2d_is_spgemm_1d() {
    let natural = banded(60, 5, 0.8, true, 23).map(|v| (v * 7.0).round() + 1.0);
    let scrambled = prepare(&natural, 4, Strategy::RandomPerm { seed: 24 }).a;
    for (order, a) in [("natural", &natural), ("scrambled", &scrambled)] {
        for mode in [
            FetchMode::FullMatrix,
            FetchMode::Block(3),
            FetchMode::ContiguousRuns,
            FetchMode::ColumnExact,
        ] {
            run_conformance(4, &OneByP { a, mode }, &format!("1xP {order} {mode:?}"));
        }
    }
}

/// The 3D split algorithm on one layer configuration.
struct Split3D<'a> {
    a: &'a Csc<f64>,
    b: &'a Csc<f64>,
    q: usize,
    layers: usize,
}

impl RankJob for Split3D<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let grid = Grid3D::new(comm, self.q, self.layers);
        let da = DistMat3D::from_global_split_cols(&grid, self.a);
        let db = DistMat3D::from_global_split_rows(&grid, self.b);
        let before = comm.stats();
        let (c, rep) = spgemm_split_3d_sa::<_, PlusTimes<f64>>(
            comm,
            &grid,
            &da,
            &db,
            FetchMode::Block(4),
            &SpgemmWorkspace::new(),
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
fn split_3d_conforms_across_layer_counts() {
    let a = int_er(36, 36, 3.0, 31);
    let b = int_er(36, 36, 3.0, 32);
    for (q, layers) in [(2, 1), (2, 2), (1, 4)] {
        let job = Split3D {
            a: &a,
            b: &b,
            q,
            layers,
        };
        run_conformance(q * q * layers, &job, &format!("3D q={q} l={layers}"));
    }
}

/// The stateful session path: fresh vs cache-hit byte split across
/// repeated multiplies and an `update_a` delta invalidation.
struct SessionCell<'a> {
    a: &'a Csc<f64>,
}

impl RankJob for SessionCell<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let before = comm.stats();
        let offsets = uniform_offsets(self.a.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, self.a, &offsets);
        let db = da.clone();
        let mut session = SpgemmSession::create(
            comm,
            da.clone(),
            Plan1D::default(),
            CacheConfig::unlimited(),
        );
        let (c1, r1) = session.multiply(comm, &db);
        let (c2, r2) = session.multiply(comm, &db);
        let a2 = self.a.map(|v| v + 1.0);
        let da2 = DistMat1D::from_global(comm, &a2, &offsets);
        let invalidated = session.update_a(comm, da2);
        let (c3, r3) = session.multiply(comm, &db);
        let s = format!(
            "{}|{}|{}|r1={}/{}/{} r2={}/{} r3={}/{} inv={invalidated}",
            fp_csc(&c1.into_local_csc()),
            fp_csc(&c2.into_local_csc()),
            fp_csc(&c3.into_local_csc()),
            r1.fresh_bytes,
            r1.cache_hit_bytes,
            r1.needed_bytes,
            r2.fresh_bytes,
            r2.cache_hit_bytes,
            r3.fresh_bytes,
            r3.cache_hit_bytes,
        );
        (s, comm.stats() - before)
    }
}

#[test]
fn session_cache_conforms() {
    let a = int_er(60, 60, 3.0, 41);
    run_conformance(4, &SessionCell { a: &a }, "session fresh-vs-cache");
}

/// The fetch-mode pick, then the 1D multiply under the picked mode: same
/// mode, same traffic, same product on every backend.
struct PickCell<'a> {
    a: &'a Csc<f64>,
    b: &'a Csc<f64>,
}

impl RankJob for PickCell<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        let before = comm.stats();
        let offsets = uniform_offsets(self.a.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, self.a, &offsets);
        let db = DistMat1D::from_global(comm, self.b, &offsets);
        let modes = [
            FetchMode::default(),
            FetchMode::ContiguousRuns,
            FetchMode::ColumnExact,
        ];
        let mode = pick_fetch_mode(comm, &da, &db, &modes, &CostModel::slingshot());
        let plan = Plan1D {
            fetch_mode: mode,
            ..Default::default()
        };
        let (c, _) = spgemm_1d(comm, &da, &db, &plan);
        let s = format!("{}|mode={mode:?}", fp_opt(&c.gather(comm)));
        (s, comm.stats() - before)
    }
}

#[test]
fn fetch_mode_pick_conforms() {
    let a = int_er(48, 48, 3.0, 51);
    let b = int_er(48, 48, 3.0, 52);
    let got = run_conformance(4, &PickCell { a: &a, b: &b }, "pick_fetch_mode");
    assert!(got[0].0.starts_with("48x48"), "rank 0 gathers the product");
}

/// MCL through its three drivers: real-valued iterates (inflation squares by
/// multiplying, prunes and renormalizes), so clusters and iteration counts
/// agree only if every expansion is bit-identical on the backend.
struct MclCell<'a> {
    graph: &'a Csc<f64>,
}

impl RankJob for MclCell<'_> {
    type Out = Verdict;
    fn run<C: Comm>(&self, comm: &C) -> Verdict {
        use saspgemm::apps::mcl::{mcl_1d_auto, mcl_1d_checkpointed, mcl_1d_session, MclConfig};
        let before = comm.stats();
        let (cfg, plan) = (MclConfig::default(), Plan1D::default());
        let cache = CacheConfig::unlimited;
        let (clusters, iters, stats) = mcl_1d_session(comm, self.graph, &cfg, &plan, cache());
        let (auto_clusters, auto_iters, _, mode) =
            mcl_1d_auto(comm, self.graph, &cfg, cache(), &CostModel::default());
        // a rank only ever loads what it saved: one store per rank will do
        let store = saspgemm::dist::MemStore::new();
        let (ckpt_clusters, ckpt_iters, ckpt_stats) =
            mcl_1d_checkpointed(comm, self.graph, &cfg, &plan, cache(), &store, "conf.mcl");
        assert_eq!((&auto_clusters, auto_iters), (&clusters, iters), "auto");
        assert_eq!(
            (&ckpt_clusters, ckpt_iters),
            (&clusters, iters),
            "checkpointed"
        );
        assert_eq!(ckpt_stats, stats, "checkpointed traffic");
        let s = format!("{clusters:?} iters={iters} mode={mode:?} {stats:?}");
        (s, comm.stats() - before)
    }
}

#[test]
fn mcl_drivers_conform() {
    let graph = saspgemm::sparse::gen::sbm(90, 3, 12.0, 0.3, false, 2);
    let got = run_conformance(4, &MclCell { graph: &graph }, "mcl drivers");
    assert!(got[0].0.contains("iters="), "{}", got[0].0);
}

// ---------------------------------------------------------------------------
// Backend-specific regression nets (pinned backends — these intentionally
// do NOT follow SA_BACKEND; they guard properties of one backend each).
// ---------------------------------------------------------------------------

#[test]
fn threads_backend_concurrency_smoke() {
    // Repeated runs of barrier/window/split/collective churn on the
    // parallel in-process backend: must terminate every time with correct
    // results. This is the deadlock/lost-wakeup regression net for the
    // lightweight barrier and the scheduler-aware mailbox waits.
    let u = Universe::new(8);
    for round in 0..20u64 {
        let got = u.launch(Backend::Threads, |comm| {
            let me = comm.rank() as u64;
            for _ in 0..2 {
                let win = PairedWindow::create(comm, vec![me + round; 8], vec![me as u32; 8]);
                let peer = (comm.rank() + 3) % comm.size();
                let (mut v, mut w) = (Vec::new(), Vec::new());
                win.get_both_into(comm, peer, 2..6, &mut v, &mut w).unwrap();
                assert_eq!(v, vec![peer as u64 + round; 4]);
                assert_eq!(w, vec![peer as u32; 4]);
                comm.barrier();
            }
            let sub = comm.split(comm.rank() % 2, comm.rank());
            let sub_sum = sub.allreduce(me, |x, y| x + y);
            let sends: Vec<Vec<u64>> = (0..comm.size())
                .map(|d| vec![me * 100 + d as u64])
                .collect();
            let recvd = comm.alltoallv(sends);
            comm.barrier();
            (sub_sum, recvd.len())
        });
        for (r, (sub_sum, n)) in got.iter().enumerate() {
            let expect: u64 = if r % 2 == 0 { 2 + 4 + 6 } else { 1 + 3 + 5 + 7 };
            assert_eq!(*sub_sum, expect, "round {round} rank {r}");
            assert_eq!(*n, 8);
        }
    }
}

/// Rank 0 receives from a rank the communicator does not have.
struct BadSource;

impl RankJob for BadSource {
    type Out = ();
    fn run<C: Comm>(&self, comm: &C) {
        if comm.rank() == 0 {
            comm.recv_vec::<u64>(5, 1);
        }
    }
}

#[test]
fn recv_from_a_bad_source_fails_at_once_on_every_backend() {
    // On every backend the bad source is a panic naming it, and the other
    // ranks fail naming the caller; under the watchdog a backend that
    // parked on a mailbox no rank can send to would end in `Timeout`.
    let u = Universe::new(3).with_watchdog(Some(Duration::from_secs(10)));
    for backend in [Backend::Sim, Backend::Threads, Backend::Procs] {
        let got = u.try_run_backend(backend, &BadSource);
        match &got[0] {
            Err(RankError::Panic { summary }) => assert!(
                summary.contains("recv_vec from rank 5, communicator has 3"),
                "{backend:?}: {summary}"
            ),
            other => panic!("{backend:?}: rank 0 must panic naming the source, got {other:?}"),
        }
        for (rank, outcome) in got.iter().enumerate().skip(1) {
            assert!(
                matches!(
                    outcome,
                    Err(RankError::Comm(CommError::PeerFailed { rank: 0, .. }))
                ),
                "{backend:?}: rank {rank} must fail naming rank 0, got {outcome:?}"
            );
        }
    }
}

#[test]
fn serial_backend_is_deterministic_across_runs() {
    // Two identical pinned-sim runs must produce identical traffic
    // *and* identical per-rank results — the property that makes the
    // simulator the byte-exact baseline every conformance cell diffs
    // against.
    let a = int_er(44, 44, 3.0, 61);
    let job = |u: &Universe| {
        u.launch(Backend::Sim, |comm| {
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let db = da.clone();
            let (c, rep) = spgemm_1d(comm, &da, &db, &Plan1D::default());
            (
                Wired(c.into_local_csc()),
                rep.fetched_bytes,
                rep.rdma_msgs,
                comm.stats(),
            )
        })
    };
    let u = Universe::new(5);
    assert_eq!(job(&u), job(&u));
}
