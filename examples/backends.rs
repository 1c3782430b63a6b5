//! The same fetch-mode pick and 1D multiply on all three communicator
//! backends, with matching reports: `Backend::Sim` (serial rank-loop
//! simulator, the default) vs `Backend::Threads` (threads as ranks, truly
//! parallel) vs `Backend::Procs` (one OS process per rank over Unix socket
//! pairs). Every rank holds the same `RankComm`; one launch call serves
//! all three.
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

/// One rank's share of the job. Its result crosses a process boundary
/// under `procs`, so the gathered product travels as `Wired`.
fn rank_job(comm: &RankComm, a: &Csc<f64>) -> (Option<Wired<Csc<f64>>>, String, u64, u64) {
    let before = comm.stats();
    let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()));
    let modes = [FetchMode::default(), FetchMode::ContiguousRuns];
    let mode = pick_fetch_mode(comm, &da, &da, &modes, &CostModel::slingshot());
    let plan = Plan1D {
        fetch_mode: mode,
        ..Default::default()
    };
    let (c, _) = spgemm_1d(comm, &da, &da, &plan);
    let c = c.gather(comm).map(Wired);
    let delta = comm.stats() - before;
    (
        c,
        format!("{mode:?}"),
        delta.injected_bytes(),
        delta.injected_msgs(),
    )
}

fn main() {
    // A structured operand so the pick has a real decision to make.
    let a = sa_sparse::gen::stencil3d(10, 10, 10, true);
    let p = 4;
    let universe = Universe::new(p);

    println!("== pick_fetch_mode + spgemm_1d on {p} ranks, all three backends ==");

    let mut walls = Vec::new();
    let mut runs = Vec::new();
    for backend in [Backend::Sim, Backend::Threads, Backend::Procs] {
        let t0 = std::time::Instant::now();
        runs.push(universe.launch(backend, |comm| rank_job(comm, &a)));
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Identical pick, identical product, identical traffic — per rank.
    let sim = &runs[0];
    for (backend, got) in ["threads", "procs"].iter().zip(&runs[1..]) {
        for (r, (s, t)) in sim.iter().zip(got).enumerate() {
            assert_eq!(s.1, t.1, "rank {r}: {backend} fetch-mode pick diverged");
            assert_eq!(s.2, t.2, "rank {r}: {backend} injected bytes diverged");
            assert_eq!(s.3, t.3, "rank {r}: {backend} injected messages diverged");
            assert_eq!(s.0, t.0, "rank {r}: {backend} product diverged");
        }
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
        walls[0], walls[1], walls[2]
    );
    println!("reports matched per rank on every metered counter, on all three backends.");
}
