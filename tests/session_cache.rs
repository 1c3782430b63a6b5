//! Integration tests of the session/fetch-cache subsystem's accounting
//! contract: metered window traffic equals the *planned misses* to the
//! byte, across iterations, cached and uncached, and the batched-BC
//! workload.

use saspgemm::apps::bc::{
    bc_batches_1d_session, bc_batches_1d_session_recoverable, bc_serial, pick_sources, BcOutcome,
    BcSessionStats,
};
use saspgemm::apps::mcl::{mcl_1d_checkpointed, MclConfig};
use saspgemm::dist::{
    spgemm_1d, uniform_offsets, CacheConfig, CheckpointStore, CkptError, DistMat1D, FetchMode,
    MatSnapshot, Plan1D, SessionSnapshot, SpgemmSession, Wired,
};
use saspgemm::mpisim::{crc32, Comm, Universe, Wire};
use saspgemm::sparse::gen::{erdos_renyi, rmat, sbm};
use saspgemm::sparse::{Coo, Csc, Vidx};
use std::sync::Mutex;

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
            c_ref.gather(comm).map(Wired),
            c_off.gather(comm).map(Wired),
            c_on.gather(comm).map(Wired),
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

/// `a` with some columns' values changed, some shortened, some lengthened,
/// some emptied (on odd `k`) and the rest unchanged — which columns fall
/// where rotates with `k`. The last third of the columns never changes.
fn evolve(a: &Csc<f64>, k: usize) -> Csc<f64> {
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for j in 0..a.ncols() {
        let (rows, vals) = a.col(j);
        let col = j as Vidx;
        let class = if 3 * j < 2 * a.ncols() {
            (j + k) % 6
        } else {
            5
        };
        match class {
            0 => rows
                .iter()
                .zip(vals)
                .for_each(|(&r, &v)| coo.push(r, col, 2.0 * v)),
            1 => rows
                .iter()
                .zip(vals)
                .step_by(2)
                .for_each(|(&r, &v)| coo.push(r, col, v)),
            2 if k % 2 == 1 => {}
            3 => {
                rows.iter()
                    .zip(vals)
                    .for_each(|(&r, &v)| coo.push(r, col, v));
                coo.push(((7 * j + k) % a.nrows()) as Vidx, col, 0.25);
            }
            _ => rows
                .iter()
                .zip(vals)
                .for_each(|(&r, &v)| coo.push(r, col, v)),
        }
    }
    coo.to_csc_with(|x: f64, _| x)
}

/// A session re-anchored on a changing operand multiplies exactly like a
/// fresh session on that operand seeded with the same cached columns: after
/// every `update_a` (unchanged, re-valued, shorter, longer and emptied
/// columns), the products, per-rank traffic, report byte fields, session
/// counters and the next snapshot agree, and the product is the
/// sessionless one. `FullMatrix` re-fetches a whole slice for one miss, so
/// resident columns arrive again over the wire.
#[test]
fn update_a_relayout_multiplies_like_a_fresh_session() {
    let a0 = erdos_renyi(150, 150, 5.0, 41);
    let bs = [
        erdos_renyi(150, 150, 2.0, 42),
        erdos_renyi(150, 150, 2.0, 43),
    ];
    let mut ops = vec![a0];
    for k in 1..6 {
        ops.push(evolve(&ops[k - 1], k));
    }
    for mode in [FetchMode::Block(256), FetchMode::FullMatrix] {
        let plan = Plan1D {
            fetch_mode: mode,
            ..Default::default()
        };
        let got = Universe::new(3).run(|comm| {
            let dbs = [dist(comm, &bs[0]), dist(comm, &bs[1])];
            let mut warm =
                SpgemmSession::create(comm, dist(comm, &ops[0]), plan, CacheConfig::unlimited());
            let mut interleaved = false;
            for (k, op) in ops.iter().enumerate() {
                let da = dist(comm, op);
                if k > 0 {
                    warm.update_a(comm, da.clone());
                }
                let mut fresh =
                    SpgemmSession::create(comm, da.clone(), plan, CacheConfig::unlimited());
                fresh.restore(&warm.snapshot());
                let db = &dbs[k % 2];
                let before = comm.stats();
                let (c_warm, r_warm) = warm.multiply(comm, db);
                let t_warm = comm.stats() - before;
                let before = comm.stats();
                let (c_fresh, r_fresh) = fresh.multiply(comm, db);
                let t_fresh = comm.stats() - before;
                let (c_ref, _) = spgemm_1d(comm, &da, db, &plan);
                assert_eq!(c_warm.local(), c_ref.local(), "{mode:?} k={k}: product");
                assert_eq!(c_fresh.local(), c_ref.local(), "{mode:?} k={k}: product");
                assert_eq!(t_warm, t_fresh, "{mode:?} k={k}: traffic");
                assert_eq!(r_warm.comm, r_fresh.comm, "{mode:?} k={k}");
                let bytes = |r: &saspgemm::dist::SpgemmReport| {
                    (
                        r.fetched_bytes,
                        r.fresh_bytes,
                        r.cache_hit_bytes,
                        r.needed_bytes,
                        r.fetched_bytes_global,
                        r.rdma_msgs,
                    )
                };
                assert_eq!(bytes(&r_warm), bytes(&r_fresh), "{mode:?} k={k}: report");
                assert_eq!(warm.stats(), fresh.stats(), "{mode:?} k={k}: stats");
                assert_eq!(warm.snapshot(), fresh.snapshot(), "{mode:?} k={k}: cache");
                interleaved |= r_warm.fresh_bytes > 0 && r_warm.cache_hit_bytes > 0;
            }
            (interleaved, warm.stats().invalidated_cols)
        });
        assert!(
            got.iter().any(|g| g.0),
            "{mode:?}: some multiply mixes hits and gets"
        );
        assert!(
            got.iter().all(|g| g.1 > 0),
            "{mode:?}: every rank lost columns to update_a"
        );
    }
}

/// A checkpoint store that keeps every blob saved, in order, and never
/// loads one back (so a driver always starts fresh).
#[derive(Default)]
struct Recording(Mutex<Vec<(usize, Vec<u8>)>>);

impl CheckpointStore for Recording {
    fn save(&self, rank: usize, _key: &str, bytes: Vec<u8>) -> Result<(), CkptError> {
        self.0.lock().unwrap().push((rank, bytes));
        Ok(())
    }
    fn load(&self, _rank: usize, _key: &str) -> Result<Option<Vec<u8>>, CkptError> {
        Ok(None)
    }
    fn remove(&self, _rank: usize, _key: &str) -> Result<(), CkptError> {
        Ok(())
    }
}

impl Recording {
    /// The blobs `rank` saved, in order. A rank returns them from its own
    /// copy of the store, so they reach the launcher from a forked process
    /// too.
    fn saved(&self, rank: usize) -> Vec<Vec<u8>> {
        let saves = self.0.lock().unwrap();
        saves
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, blob)| blob.clone())
            .collect()
    }
}

/// Per rank, the CRC-32 of its saved snapshots' wire bytes back to back,
/// and the last snapshot `pick` found.
fn digest(
    saved: &[Vec<Vec<u8>>],
    pick: impl Fn(&[u8]) -> Vec<SessionSnapshot>,
) -> Vec<(u32, SessionSnapshot)> {
    saved
        .iter()
        .map(|blobs| {
            let mut bytes = Vec::new();
            let mut last = None;
            for blob in blobs {
                for snap in pick(blob) {
                    bytes.extend(snap.to_bytes());
                    last = Some(snap);
                }
            }
            (crc32(&bytes), last.expect("a saved snapshot"))
        })
        .collect()
}

/// The checkpoint format is pinned: an MCL run (re-anchored every
/// iteration, so part of its cache is invalidated each time) and a batched
/// BC run save session snapshots whose wire bytes hash to recorded values.
#[test]
fn session_snapshot_bytes_are_pinned() {
    let mcl_store = Recording::default();
    let a = sbm(400, 8, 14.0, 1.5, true, 1);
    let cfg = MclConfig {
        max_iters: 40,
        ..MclConfig::default()
    };
    let plan = Plan1D {
        fetch_mode: FetchMode::Block(256),
        ..Plan1D::default()
    };
    let saved = Universe::new(4).run(|comm| {
        mcl_1d_checkpointed(
            comm,
            &a,
            &cfg,
            &plan,
            CacheConfig::unlimited(),
            &mcl_store,
            "mcl",
        );
        mcl_store.saved(comm.rank())
    });
    let mcl = digest(&saved, |blob| {
        let (_, _, snap) = <(u64, MatSnapshot, SessionSnapshot)>::from_bytes(blob).unwrap();
        vec![snap]
    });

    let bc_store = Recording::default();
    let g = rmat(8, 8, (0.57, 0.19, 0.19, 0.05), 42);
    let batches: Vec<Vec<Vidx>> = (0..5).map(|s| pick_sources(g.nrows(), 16, s)).collect();
    let saved = Universe::new(4).run(|comm| {
        bc_batches_1d_session_recoverable(
            comm,
            &g,
            &batches,
            &Plan1D::default(),
            CacheConfig::unlimited(),
            &bc_store,
            "bc",
        );
        bc_store.saved(comm.rank())
    });
    // the graph is symmetric: one session serves both sweeps
    type BcCkpt = (
        u64,
        Vec<BcOutcome>,
        Vec<BcSessionStats>,
        Vec<SessionSnapshot>,
    );
    let bc = digest(&saved, |blob| {
        let (_, _, _, snaps) = BcCkpt::from_bytes(blob).unwrap();
        assert_eq!(snaps.len(), 1, "one snapshot per session");
        snaps
    });

    for (rank, (_, last)) in mcl.iter().enumerate() {
        let st = last.stats();
        assert!(st.a_updates >= 3, "rank {rank}: {st:?}");
        assert!(
            st.invalidated_cols > 0 && last.cached_cols() > 0,
            "rank {rank}: {st:?}"
        );
    }
    // recorded at the hash-map cache this resident copy replaced
    let crcs = |d: &[(u32, SessionSnapshot)]| d.iter().map(|x| x.0).collect::<Vec<_>>();
    assert_eq!(
        crcs(&mcl),
        [0x560c3ded, 0xf6ba7f08, 0xf6e2f546, 0x78f66c85],
        "MCL snapshot bytes"
    );
    assert_eq!(
        crcs(&bc),
        [0xdcc193d5, 0xd312dbca, 0x76166af3, 0x28db5018],
        "BC snapshot bytes"
    );
}
