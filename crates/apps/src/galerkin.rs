//! Distributed Galerkin product `RᵀAR` (§III-C, §IV-B).
//!
//! The left multiplication `RᵀA` runs the sparsity-aware 1D algorithm
//! (Algorithm 1): `A` is stationary, `Rᵀ`'s columns are fetched on demand —
//! and since `R` has one nonzero per row, `Rᵀ`'s columns are single-entry,
//! making the sparsity-aware fetch especially profitable. The right
//! multiplication `(RᵀA)·R` uses either Algorithm 1 again or the
//! outer-product Algorithm 3, which Ballard et al. showed (and Fig. 12
//! confirms) is the better 1D algorithm for that shape.

use sa_dist::outer1d::{spgemm_outer_1d, OuterReport};
use sa_dist::spgemm1d::{
    pick_fetch_mode, spgemm_1d, try_spgemm_1d, FetchMode, Plan1D, SpgemmReport,
};
use sa_dist::{
    load_agreed, save_wire, uniform_offsets, CacheConfig, CheckpointStore, DistMat1D, MatSnapshot,
    SessionSnapshot, SessionStats, SpgemmSession,
};
use sa_mpisim::{Comm, CostModel};
use sa_sparse::{Csc, SpgemmWorkspace};

/// Algorithm choice for the right multiplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RightAlgo {
    /// Sparsity-aware 1D (Algorithm 1).
    OneD,
    /// Outer-product 1D (Algorithm 3) — the paper's recommendation.
    Outer,
}

/// Reports from the two multiplications.
#[derive(Clone, Copy, Debug)]
pub struct GalerkinReport {
    /// `RᵀA` (always Algorithm 1).
    pub left: SpgemmReport,
    /// `(RᵀA)R` when run with Algorithm 1.
    pub right_1d: Option<SpgemmReport>,
    /// `(RᵀA)R` when run with Algorithm 3.
    pub right_outer: Option<OuterReport>,
}

/// Compute the distributed Galerkin product.
///
/// `a` is the fine operator, 1D-distributed; `r_global` is the restriction
/// operator, conceptually replicated (it is tall-skinny and tiny next to
/// `A`; CombBLAS also keeps it fully mapped). Returns the coarse operator
/// (`n_agg × n_agg`, 1D-distributed) and the reports. Collective.
pub fn galerkin_product<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    r_global: &Csc<f64>,
    right: RightAlgo,
    plan: &Plan1D,
) -> (DistMat1D, GalerkinReport) {
    // Rᵀ distributed with A's column offsets (so the k spaces align).
    let rt = r_global.transpose();
    let rt_dist = DistMat1D::from_global(comm, &rt, a.offsets());
    galerkin_product_with(comm, a, &rt_dist, r_global, right, plan)
}

/// [`galerkin_product`] with a pre-distributed `Rᵀ` (`rt_dist` must be
/// `r_global.transpose()` under `a`'s column offsets) — lets callers that
/// already built the distribution, like [`galerkin_auto`]'s mode pricing,
/// skip a second transpose + scatter.
fn galerkin_product_with<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    rt_dist: &DistMat1D,
    r_global: &Csc<f64>,
    right: RightAlgo,
    plan: &Plan1D,
) -> (DistMat1D, GalerkinReport) {
    assert_eq!(
        a.nrows(),
        r_global.nrows(),
        "R's fine dimension must match A"
    );
    let n_agg = r_global.ncols();
    // left: RᵀA — fetches Rᵀ columns, B = A stationary.
    let (rta, left_rep) = spgemm_1d(comm, rt_dist, a, plan);
    // right: (RᵀA)·R — R distributed over the coarse dimension.
    let r_offsets = uniform_offsets(n_agg, comm.size());
    let r_dist = DistMat1D::from_global(comm, r_global, &r_offsets);
    match right {
        RightAlgo::OneD => {
            let (coarse, rep) = spgemm_1d(comm, &rta, &r_dist, plan);
            (
                coarse,
                GalerkinReport {
                    left: left_rep,
                    right_1d: Some(rep),
                    right_outer: None,
                },
            )
        }
        RightAlgo::Outer => {
            let (coarse, rep) = spgemm_outer_1d(comm, &rta, &r_dist);
            (
                coarse,
                GalerkinReport {
                    left: left_rep,
                    right_1d: None,
                    right_outer: Some(rep),
                },
            )
        }
    }
}

/// [`galerkin_product`] with the left multiplication's fetch coalescing
/// picked by [`pick_fetch_mode`] (one metadata exchange, no numeric
/// traffic) between the default block size and contiguous runs — with the
/// outer-product right algorithm the paper recommends (Fig. 12). Exact
/// columns are no candidate: contiguous runs move the same bytes in no more
/// gets, so they could never win.
/// Returns the coarse operator, the reports, and the mode picked.
/// Collective.
pub fn galerkin_auto<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    r_global: &Csc<f64>,
    model: &CostModel,
) -> (DistMat1D, GalerkinReport, FetchMode) {
    let rt = r_global.transpose();
    let rt_dist = DistMat1D::from_global(comm, &rt, a.offsets());
    let modes = [FetchMode::default(), FetchMode::ContiguousRuns];
    let best = pick_fetch_mode(comm, &rt_dist, a, &modes, model);
    let plan = Plan1D {
        fetch_mode: best,
        ..Default::default()
    };
    let (coarse, report) =
        galerkin_product_with(comm, a, &rt_dist, r_global, RightAlgo::Outer, &plan);
    (coarse, report, best)
}

/// Reports of one [`GalerkinSession::product`]: the cached right
/// multiplication and the sessionless left one.
#[derive(Clone, Copy, Debug)]
pub struct GalerkinSessionReport {
    /// `A·R` through the session (fresh vs cache-hit split is meaningful).
    pub ar: SpgemmReport,
    /// `Rᵀ·(AR)` (Algorithm 1; `Rᵀ`'s single-entry columns make this fetch
    /// tiny, as in [`galerkin_product`]'s left multiplication).
    pub rap: SpgemmReport,
}

/// Repeated Galerkin products against a stationary fine operator.
///
/// Adaptive AMG setups recompute `RᵀAR` with an updated `R` every cycle
/// while `A` stays fixed. [`galerkin_product`] associates left-first
/// (`(RᵀA)·R`), which makes the *changing* `Rᵀ` the fetched operand — cheap
/// once, but nothing carries over between cycles. This session associates
/// **right-first** (`Rᵀ·(A·R)`) so the stationary `A` is the fetched
/// operand of a persistent [`SpgemmSession`]: the first product pays the
/// full fetch, later products hit the cache for every `A` column any
/// earlier `R` already touched, and the cumulative volume flattens (the
/// `session_cache` bench plots the curve). Both associations produce the
/// same coarse operator up to floating-point rounding.
pub struct GalerkinSession {
    session: SpgemmSession,
    /// Arena for the sessionless `Rᵀ·(AR)` multiplies: `Rᵀ` changes every
    /// resetup so it cannot ride the fetch cache, but its kernel scratch
    /// and `Ã` assembly buffers carry over cycle to cycle.
    rap_ws: SpgemmWorkspace<f64>,
}

impl GalerkinSession {
    /// Pin the fine operator. Collective.
    pub fn create<C: Comm>(
        comm: &C,
        a: DistMat1D,
        plan: Plan1D,
        cache: CacheConfig,
    ) -> GalerkinSession {
        GalerkinSession {
            session: SpgemmSession::create(comm, a, plan, cache),
            rap_ws: SpgemmWorkspace::new(),
        }
    }

    /// The pinned fine operator.
    pub fn a(&self) -> &DistMat1D {
        self.session.a()
    }

    /// Cumulative counters of the cached `A·R` multiplies.
    pub fn stats(&self) -> &SessionStats {
        self.session.stats()
    }

    /// One coarse operator: `Rᵀ·(A·R)` with the `A·R` half served by the
    /// session cache. Collective.
    pub fn product<C: Comm>(
        &mut self,
        comm: &C,
        r_global: &Csc<f64>,
    ) -> (DistMat1D, GalerkinSessionReport) {
        assert_eq!(
            self.session.a().nrows(),
            r_global.nrows(),
            "R's fine dimension must match A"
        );
        let n_agg = r_global.ncols();
        let r_offsets = uniform_offsets(n_agg, comm.size());
        let r_dist = DistMat1D::from_global(comm, r_global, &r_offsets);
        let (ar, ar_rep) = self.session.multiply(comm, &r_dist);
        let rt = r_global.transpose();
        let rt_dist = DistMat1D::from_global(comm, &rt, self.session.a().offsets());
        let plan = *self.session.plan();
        let (coarse, rap_rep) = try_spgemm_1d(comm, &rt_dist, &ar, &plan, &self.rap_ws)
            .unwrap_or_else(|e| panic!("{e}"));
        (
            coarse,
            GalerkinSessionReport {
                ar: ar_rep,
                rap: rap_rep,
            },
        )
    }

    /// Capture the pinned-`A` session's state (cache + counters) for a
    /// checkpoint. Purely local — see [`SpgemmSession::snapshot`].
    pub fn snapshot(&self) -> SessionSnapshot {
        self.session.snapshot()
    }

    /// Re-apply a snapshot to a freshly created session on the same fine
    /// operator — see [`SpgemmSession::restore`]. `A` never changes within
    /// a Galerkin session, so restored cache contents are always valid.
    pub fn restore(&mut self, snap: &SessionSnapshot) {
        self.session.restore(snap)
    }
}

/// An adaptive-AMG-style resetup loop — one [`GalerkinSession::product`]
/// per restriction operator in `rs` — with per-product checkpointing, for
/// execution under [`run_recoverable`](sa_mpisim::Universe::run_recoverable).
/// Returns the coarse operators (1D-distributed, in `rs` order) and the
/// session counters. Collective.
///
/// Before each product, every rank saves `(products done, coarse slices so
/// far, session snapshot)` under `(rank, tag)` in `store`; on entry the
/// ranks agree ([`load_agreed`]) on the last boundary all of them reached
/// and resume there. Products are at-least-once: a rank killed mid-product
/// re-runs it against a cache identical to the fault-free run's at that
/// boundary, so the recovered coarse operators are bit-identical. Completed
/// runs remove their checkpoint.
pub fn galerkin_products_recoverable<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    rs: &[Csc<f64>],
    plan: &Plan1D,
    cache: CacheConfig,
    store: &dyn CheckpointStore,
    tag: &str,
) -> (Vec<DistMat1D>, SessionStats) {
    let me = comm.rank();
    let resume = load_agreed(
        comm,
        store,
        tag,
        |c: &(u64, Vec<MatSnapshot>, SessionSnapshot)| c.0,
    );

    let offsets = uniform_offsets(a.ncols(), comm.size());
    let da = DistMat1D::from_global(comm, a, &offsets);
    let mut gs = GalerkinSession::create(comm, da, *plan, cache);
    let (mut coarse_snaps, start) = match resume {
        Some((k, snaps, session_snap)) => {
            gs.restore(&session_snap);
            (snaps, k as usize)
        }
        None => (Vec::new(), 0),
    };
    for r in rs.iter().skip(start) {
        save_wire(
            store,
            me,
            tag,
            &(
                coarse_snaps.len() as u64,
                coarse_snaps.clone(),
                gs.snapshot(),
            ),
        )
        .expect("writable checkpoint store");
        let (coarse, _rep) = gs.product(comm, r);
        coarse_snaps.push(MatSnapshot::of(&coarse));
    }
    store.remove(me, tag).expect("removable checkpoint");
    let stats = *gs.stats();
    (
        coarse_snaps.iter().map(MatSnapshot::restore).collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restriction::restriction_operator;
    use sa_dist::reference::serial_galerkin;
    use sa_mpisim::Universe;
    use sa_sparse::gen::{erdos_renyi_square, stencil3d};

    fn check(a: &Csc<f64>, p: usize, right: RightAlgo) {
        let r = restriction_operator(a, 42);
        let expect = serial_galerkin(&r, a);
        let u = Universe::new(p);
        let got = u.run(|comm| {
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, a, &offsets);
            let (coarse, _) = galerkin_product(comm, &da, &r, right, &Plan1D::default());
            coarse.gather(comm)
        });
        let coarse = got[0].as_ref().unwrap();
        assert!(
            coarse.max_abs_diff(&expect) < 1e-9,
            "P={p} {right:?}: diff {}",
            coarse.max_abs_diff(&expect)
        );
    }

    #[test]
    fn matches_serial_triple_product_1d_right() {
        let a = stencil3d(5, 5, 4, true);
        check(&a, 4, RightAlgo::OneD);
    }

    #[test]
    fn matches_serial_triple_product_outer_right() {
        let a = stencil3d(5, 5, 4, true);
        check(&a, 4, RightAlgo::Outer);
        check(&a, 3, RightAlgo::Outer);
    }

    #[test]
    fn auto_mode_pick_preserves_the_product() {
        let a = stencil3d(5, 5, 4, true);
        let r = restriction_operator(&a, 42);
        let expect = serial_galerkin(&r, &a);
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let (coarse, _, mode) = galerkin_auto(comm, &da, &r, &CostModel::default());
            (coarse.gather(comm), mode)
        });
        let (coarse, mode0) = &got[0];
        assert!(coarse.as_ref().unwrap().max_abs_diff(&expect) < 1e-9);
        for (_, mode) in &got {
            assert_eq!(mode, mode0, "all ranks agree on the fetch mode");
        }
    }

    #[test]
    fn random_graph_galerkin() {
        let a = erdos_renyi_square(120, 5.0, 7);
        check(&a, 4, RightAlgo::Outer);
    }

    #[test]
    fn coarse_operator_is_much_smaller() {
        let a = stencil3d(6, 6, 6, true);
        let r = restriction_operator(&a, 1);
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &a, &uniform_offsets(a.ncols(), 4));
            let (coarse, rep) =
                galerkin_product(comm, &da, &r, RightAlgo::Outer, &Plan1D::default());
            (coarse.ncols(), coarse.global_nnz(comm), rep)
        });
        let (nc, nnz, _) = got[0];
        assert!(nc < a.ncols() / 8);
        assert!(nnz > 0);
        assert!((nnz as usize) < a.nnz());
    }

    #[test]
    fn session_products_match_serial_and_flatten_traffic() {
        // an adaptive-AMG-style resetup loop: 4 restriction operators over
        // the same fine matrix
        let a = stencil3d(6, 6, 4, true);
        let rs: Vec<Csc<f64>> = (0..4).map(|s| restriction_operator(&a, s)).collect();
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let plan = Plan1D::default();
            let mut cached =
                GalerkinSession::create(comm, da.clone(), plan, CacheConfig::unlimited());
            let mut uncached = GalerkinSession::create(comm, da, plan, CacheConfig::disabled());
            let mut coarse = Vec::new();
            for r in &rs {
                coarse.push(cached.product(comm, r).0.gather(comm));
                let _ = uncached.product(comm, r);
            }
            // one more product with an already-seen R: fully cache-served
            let (_c, rep) = cached.product(comm, &rs[0]);
            (coarse, *cached.stats(), *uncached.stats(), rep)
        });
        for (i, r) in rs.iter().enumerate() {
            let expect = serial_galerkin(r, &a);
            let coarse = got[0].0[i].as_ref().unwrap();
            assert!(
                coarse.max_abs_diff(&expect) < 1e-9,
                "resetup {i}: diff {}",
                coarse.max_abs_diff(&expect)
            );
        }
        let cached_fresh: u64 = got.iter().map(|(_, c, _, _)| c.fresh_bytes).sum();
        let uncached_fresh: u64 = got.iter().map(|(_, _, u, _)| u.fresh_bytes).sum();
        // 5 cached products vs 4 uncached ones, still far less traffic
        assert!(
            cached_fresh < uncached_fresh,
            "session must flatten cumulative volume ({cached_fresh} vs {uncached_fresh})"
        );
        for (_, _, _, rep) in &got {
            assert_eq!(rep.ar.fresh_bytes, 0, "repeated R is fully cache-served");
        }
    }

    #[test]
    fn recoverable_products_match_plain_session_loop() {
        let a = stencil3d(6, 6, 4, true);
        let rs: Vec<Csc<f64>> = (0..3).map(|s| restriction_operator(&a, s)).collect();
        let store = sa_dist::MemStore::new();
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let offsets = uniform_offsets(a.ncols(), comm.size());
            let da = DistMat1D::from_global(comm, &a, &offsets);
            let plan = Plan1D::default();
            let mut plain = GalerkinSession::create(comm, da, plan, CacheConfig::unlimited());
            let expect: Vec<_> = rs
                .iter()
                .map(|r| plain.product(comm, r).0.gather(comm))
                .collect();
            let (coarse, stats) = galerkin_products_recoverable(
                comm,
                &a,
                &rs,
                &plan,
                CacheConfig::unlimited(),
                &store,
                "rap.test",
            );
            let got: Vec<_> = coarse.iter().map(|c| c.gather(comm)).collect();
            (expect, got, *plain.stats(), stats)
        });
        for (expect, got, plain_stats, stats) in got {
            assert_eq!(expect, got, "checkpointing must not change the products");
            assert_eq!(plain_stats, stats, "identical session traffic");
        }
        assert!(store.is_empty(), "completed runs remove their checkpoints");
    }

    #[test]
    fn left_multiplication_fetch_is_cheap_for_one_nnz_rows() {
        // Rᵀ columns are single-entry: the sparsity-aware fetch volume for
        // RᵀA is bounded by nnz(R) = n, far below full replication.
        let a = stencil3d(6, 6, 4, true);
        let r = restriction_operator(&a, 2);
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &a, &uniform_offsets(a.ncols(), 4));
            let (_, rep) = galerkin_product(comm, &da, &r, RightAlgo::Outer, &Plan1D::default());
            rep.left
        });
        for rep in got {
            assert!(
                rep.needed_bytes <= (r.nnz() as u64) * 12,
                "needed {} bytes",
                rep.needed_bytes
            );
        }
    }
}
