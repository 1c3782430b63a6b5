//! The same fetch-mode pick and 1D multiply on all three communicator
//! backends, with
//! matching reports: `Backend::Sim` (serial rank-loop simulator, the
//! default) vs `Backend::Threads` (threads as ranks, truly parallel) —
//! both on one in-process `RankComm` — vs `Backend::Procs` (`ProcComm`, one
//! OS process per rank over Unix socket pairs).
//!
//! Run with: `cargo run --release --example backends`
//!
//! The point being demonstrated (docs/BACKENDS.md): backends may differ
//! only in wall-clock. The picked fetch mode, the product, and every metered
//! byte and message are identical — the collectives are provided `Comm`
//! trait methods over the same metered transport, so byte-identity holds
//! by construction, and this example asserts it per rank — even when
//! every byte really crosses a process boundary.

use saspgemm::prelude::*;

/// One rank's share of the job, written once against the `Comm` trait so
/// the identical code runs on either backend.
fn rank_job<C: Comm>(
    comm: &C,
    a: &sa_sparse::Csc<f64>,
) -> (Option<sa_sparse::Csc<f64>>, String, u64, u64) {
    let before = comm.stats();
    let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()));
    let modes = [FetchMode::default(), FetchMode::ContiguousRuns];
    let mode = pick_fetch_mode(comm, &da, &da, &modes, &CostModel::slingshot());
    let plan = Plan1D {
        fetch_mode: mode,
        ..Default::default()
    };
    let (c, _) = spgemm_1d(comm, &da, &da, &plan);
    let c = c.gather(comm);
    let delta = comm.stats() - before;
    (
        c,
        format!("{mode:?}"),
        delta.injected_bytes(),
        delta.injected_msgs(),
    )
}

/// Bit-exact fingerprint of the gathered product, compact enough to send
/// back from a forked rank process.
fn fp(c: &Option<sa_sparse::Csc<f64>>) -> String {
    match c {
        Some(c) => {
            let mut sum = 0u64;
            for (r, col, v) in c.iter() {
                sum = sum
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(v.to_bits() ^ ((r as u64) << 32) ^ col as u64);
            }
            format!("{}x{} nnz={} h={sum:x}", c.nrows(), c.ncols(), c.nnz())
        }
        None => "-".into(),
    }
}

fn main() {
    // A structured operand so the pick has a real decision to make.
    let a = sa_sparse::gen::stencil3d(10, 10, 10, true);
    let p = 4;
    let universe = Universe::new(p);

    println!("== pick_fetch_mode + spgemm_1d on {p} ranks, all three backends ==");

    let t0 = std::time::Instant::now();
    let sim = universe.launch(Backend::Sim, |comm| rank_job(comm, &a));
    let wall_sim = t0.elapsed();

    let t0 = std::time::Instant::now();
    let thr = universe.launch(Backend::Threads, |comm| rank_job(comm, &a));
    let wall_thr = t0.elapsed();

    // The procs leg returns over a socket, so the product travels as a
    // bit-exact fingerprint instead of the matrix itself.
    let t0 = std::time::Instant::now();
    let procs = universe.run_procs(|comm| {
        let (c, pick, bytes, msgs) = rank_job(comm, &a);
        (fp(&c), pick, bytes, msgs)
    });
    let wall_procs = t0.elapsed();

    // Identical pick, identical product, identical traffic — per rank.
    for (r, (s, t)) in sim.iter().zip(&thr).enumerate() {
        assert_eq!(s.1, t.1, "rank {r}: fetch-mode pick diverged");
        assert_eq!(s.2, t.2, "rank {r}: injected bytes diverged");
        assert_eq!(s.3, t.3, "rank {r}: injected messages diverged");
        assert_eq!(s.0, t.0, "rank {r}: product diverged");
    }
    for (r, (s, q)) in sim.iter().zip(&procs).enumerate() {
        assert_eq!(q.1, s.1, "rank {r}: procs fetch-mode pick diverged");
        assert_eq!(q.2, s.2, "rank {r}: procs injected bytes diverged");
        assert_eq!(q.3, s.3, "rank {r}: procs injected messages diverged");
        assert_eq!(q.0, fp(&s.0), "rank {r}: procs product diverged");
    }
    assert!(sim[0].0.is_some(), "rank 0 gathered C");

    println!("fetch-mode pick      : {}", sim[0].1);
    println!(
        "product nnz (rank 0) : {}",
        sim[0].0.as_ref().unwrap().nnz()
    );
    for (r, (_, _, bytes, msgs)) in sim.iter().enumerate() {
        println!("rank {r} injected      : {bytes} B in {msgs} msgs  (identical on every backend)");
    }
    println!(
        "wall: sim {:.1} ms (sum of rank work)  vs  threads {:.1} ms (concurrent)  vs  procs {:.1} ms (fork + socket mesh + multiply)",
        wall_sim.as_secs_f64() * 1e3,
        wall_thr.as_secs_f64() * 1e3,
        wall_procs.as_secs_f64() * 1e3
    );
    println!("reports matched per rank on every metered counter, on all three backends.");
}
