//! Integration tests of the session/fetch-cache subsystem's accounting
//! contract: metered window traffic equals the *planned misses* to the
//! byte, across iterations, cached and uncached, and the batched-BC
//! workload.

use saspgemm::apps::bc::{bc_batches_1d_session, bc_serial, pick_sources};
use saspgemm::dist::{
    spgemm_1d, uniform_offsets, CacheConfig, DistMat1D, FetchMode, Plan1D, SpgemmSession,
};
use saspgemm::mpisim::{Comm, Universe};
use saspgemm::sparse::gen::{erdos_renyi, rmat};
use saspgemm::sparse::{Coo, Csc, Vidx};

fn dist<C: Comm>(comm: &C, a: &Csc<f64>) -> DistMat1D {
    DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()))
}

/// Metered bytes == planned misses, every iteration, for every fetch mode —
/// the cache must never desynchronize the analysis from the execution.
#[test]
fn metered_equals_planned_misses_across_iterations() {
    let a = erdos_renyi(120, 120, 4.0, 2);
    let b1 = erdos_renyi(120, 120, 3.0, 3);
    let b2 = erdos_renyi(120, 120, 3.0, 4);
    for mode in [
        FetchMode::FullMatrix,
        FetchMode::Block(8),
        FetchMode::ContiguousRuns,
        FetchMode::ColumnExact,
    ] {
        let u = Universe::new(4);
        let ok = u.run(|comm| {
            let da = dist(comm, &a);
            let (db1, db2) = (dist(comm, &b1), dist(comm, &b2));
            let plan = Plan1D {
                fetch_mode: mode,
                global_stats: false,
                ..Default::default()
            };
            let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
            let mut planned_total = 0u64;
            let before_all = comm.stats();
            for b in [&db1, &db2, &db1, &db2] {
                let pre = s.analyze(comm, b);
                let before = comm.stats();
                let (_c, rep) = s.multiply(comm, b);
                let metered = comm.stats() - before;
                assert_eq!(
                    metered.rdma_get_bytes, pre.planned_fresh_bytes,
                    "{mode:?}: window traffic must equal the planned misses"
                );
                assert_eq!(metered.rdma_get_bytes, rep.fresh_bytes, "{mode:?}");
                assert_eq!(metered.rdma_gets, rep.rdma_msgs, "{mode:?}");
                assert_eq!(rep.comm.rdma_get_bytes, rep.fresh_bytes, "{mode:?}");
                assert_eq!(pre.cache_hit_bytes, rep.cache_hit_bytes, "{mode:?}");
                planned_total += pre.planned_fresh_bytes;
            }
            let all = comm.stats() - before_all;
            assert_eq!(all.rdma_get_bytes, planned_total, "{mode:?}: totals");
            assert_eq!(s.stats().fresh_bytes, planned_total, "{mode:?}");
            true
        });
        assert!(ok.into_iter().all(|x| x));
    }
}

/// A disabled cache keeps nothing: every multiply refetches its whole
/// needed set, planned and metered exactly like a cold miss, and restoring
/// a snapshot of a warm session does not seed it.
#[test]
fn disabled_cache_refetches_every_multiply_as_planned() {
    // alternating working sets with supports interleaved across ranks
    let a = erdos_renyi(96, 96, 4.0, 7);
    let half = |parity: u32| {
        let mut coo = Coo::new(96, 96);
        for j in 0..96u32 {
            coo.push(2 * (j % 48) + parity, j, 1.0);
        }
        coo.to_csc_with(|x: f64, _| x)
    };
    let (b_even, b_odd) = (half(0), half(1));
    let u = Universe::new(3);
    let got = u.run(|comm| {
        let da = dist(comm, &a);
        let (db_even, db_odd) = (dist(comm, &b_even), dist(comm, &b_odd));
        let plan = Plan1D {
            fetch_mode: FetchMode::ColumnExact,
            global_stats: false,
            ..Default::default()
        };
        let (warm_cols, snap) = {
            let mut warm = SpgemmSession::create(comm, da.clone(), plan, CacheConfig::unlimited());
            warm.multiply(comm, &db_even);
            (warm.cache().resident_cols(), warm.snapshot())
        };
        let mut s = SpgemmSession::create(comm, da, plan, CacheConfig::disabled());
        s.restore(&snap);
        assert_eq!(
            s.cache().resident_cols(),
            0,
            "restore seeds no disabled cache"
        );
        let mut fetched = Vec::new();
        for b in [&db_even, &db_odd, &db_even, &db_odd, &db_even] {
            let pre = s.analyze(comm, b);
            let before = comm.stats();
            let (_c, rep) = s.multiply(comm, b);
            let metered = comm.stats() - before;
            assert_eq!(metered.rdma_get_bytes, pre.planned_fresh_bytes);
            assert_eq!(rep.fresh_bytes, pre.planned_fresh_bytes);
            assert_eq!(rep.fresh_bytes, rep.needed_bytes, "the whole needed set");
            assert_eq!(rep.cache_hit_bytes, 0);
            assert_eq!(s.cache().resident_cols(), 0);
            fetched.push(rep.fresh_bytes);
        }
        (warm_cols, fetched)
    });
    // some rank had columns to restore and a nonempty remote working set
    assert!(got.iter().any(|(warm_cols, _)| *warm_cols > 0));
    for (_, fetched) in got {
        // a returning operand costs what it cost the first time
        assert_eq!(fetched[0], fetched[2]);
        assert_eq!(fetched[0], fetched[4]);
        assert_eq!(fetched[1], fetched[3]);
    }
}

/// The ISSUE acceptance criterion: on the batched BC workload (tiny scale,
/// ≥ 4 iterations) the cache cuts cumulative fetched bytes to ≤ 50% of the
/// uncached run, with the session report totals exactly matching the
/// metered window traffic.
#[test]
fn bc_batched_cache_halves_cumulative_fetch_volume() {
    let a = rmat(8, 8, (0.57, 0.19, 0.19, 0.05), 42);
    let batches: Vec<Vec<Vidx>> = (0..4).map(|s| pick_sources(a.nrows(), 16, s)).collect();
    let u = Universe::new(4);
    let got = u.run(|comm| {
        let plan = Plan1D::default();
        let before = comm.stats();
        let (outcomes, cached) =
            bc_batches_1d_session(comm, &a, &batches, &plan, CacheConfig::unlimited());
        let metered_cached = comm.stats() - before;
        let before = comm.stats();
        let (_, uncached) =
            bc_batches_1d_session(comm, &a, &batches, &plan, CacheConfig::disabled());
        let metered_uncached = comm.stats() - before;
        // report totals == metered one-sided traffic, to the byte
        let c = cached.last().unwrap();
        let un = uncached.last().unwrap();
        assert_eq!(c.fresh_bytes(), metered_cached.rdma_get_bytes);
        assert_eq!(un.fresh_bytes(), metered_uncached.rdma_get_bytes);
        (outcomes, *c, *un)
    });
    // correctness rides along: every batch matches serial Brandes
    for (outcomes, _, _) in &got {
        for (o, sources) in outcomes.iter().zip(&batches) {
            let expect = bc_serial(&a, sources);
            assert!(
                o.scores
                    .iter()
                    .zip(&expect)
                    .all(|(x, y)| (x - y).abs() < 1e-9),
                "session BC scores must match serial"
            );
        }
    }
    let cached: u64 = got.iter().map(|(_, c, _)| c.fresh_bytes()).sum();
    let uncached: u64 = got.iter().map(|(_, _, u)| u.fresh_bytes()).sum();
    assert!(uncached > 0);
    assert!(
        cached * 2 <= uncached,
        "cached {cached} B must be ≤ 50% of uncached {uncached} B over ≥4 batches"
    );
}

/// Session multiplies return the same product as the sessionless engine,
/// warm or cold, and a sessionless call is byte-identical to a
/// disabled-cache session multiply.
#[test]
fn session_results_and_baseline_traffic_match_sessionless() {
    let a = erdos_renyi(90, 90, 3.5, 11);
    let b = erdos_renyi(90, 90, 2.5, 12);
    let u = Universe::new(3);
    let got = u.run(|comm| {
        let da = dist(comm, &a);
        let db = dist(comm, &b);
        let plan = Plan1D::default();
        let (c_ref, rep_ref) = spgemm_1d(comm, &da, &db, &plan);
        let mut off = SpgemmSession::create(comm, da.clone(), plan, CacheConfig::disabled());
        let mut on = SpgemmSession::create(comm, da, plan, CacheConfig::unlimited());
        let (c_off, rep_off) = off.multiply(comm, &db);
        let (_w, _) = on.multiply(comm, &db);
        let (c_on, rep_on) = on.multiply(comm, &db);
        (
            c_ref.gather(comm),
            c_off.gather(comm),
            c_on.gather(comm),
            rep_ref,
            rep_off,
            rep_on,
        )
    });
    let (c_ref, c_off, c_on, rep_ref, rep_off, rep_on) = &got[0];
    assert_eq!(c_off, c_ref, "disabled-cache session == sessionless result");
    assert_eq!(c_on, c_ref, "warm session == sessionless result");
    assert_eq!(rep_off.fresh_bytes, rep_ref.fetched_bytes);
    assert_eq!(rep_off.rdma_msgs, rep_ref.rdma_msgs);
    assert_eq!(rep_on.fresh_bytes, 0, "warm multiply is traffic-free");
}
