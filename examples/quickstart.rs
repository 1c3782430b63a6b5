//! Quickstart: the paper's Figure 1 worked example, then a real squaring.
//!
//! Run with: `cargo run --release --example quickstart`

use saspgemm::prelude::*;
use saspgemm::sparse::gen;

fn main() {
    // ------------------------------------------------------------------
    // Part 1 — the Figure 1 example: an 8×8 matrix on 2 ranks, each
    // owning an 8×4 column slice, with 2 fetch blocks per remote rank.
    // ------------------------------------------------------------------
    println!("== Figure 1 walkthrough: 8x8, P=2, block fetch ==");
    let mut coo = Coo::new(8, 8);
    // a small banded-ish pattern so rank 0 needs only part of rank 1's data
    for (r, c) in [
        (0usize, 0usize),
        (2, 0),
        (3, 1),
        (5, 2),
        (0, 3),
        (2, 3),
        (5, 4), // owned by rank 1 (cols 4..8)
        (1, 5),
        (6, 6),
        (3, 7),
    ] {
        coo.push(r as u32, c as u32, 1.0);
    }
    let a = coo.to_csc_with(|x, _| x);

    let universe = Universe::new(2);
    let outputs = universe.run(|comm| {
        let offsets = uniform_offsets(8, 2);
        let da = DistMat1D::from_global(comm, &a, &offsets);
        let db = da.clone();
        // K = 2 blocks per remote rank, exactly as in the figure
        let plan = Plan1D {
            fetch_mode: sa_dist::FetchMode::Block(2),
            ..Default::default()
        };
        let (c, report) = spgemm_1d(comm, &da, &db, &plan);
        (
            comm.rank(),
            report.rdma_msgs,
            report.fetched_bytes,
            report.needed_bytes,
            c.gather(comm).map(Wired),
        )
    });
    for (rank, msgs, fetched, needed, _) in &outputs {
        println!(
            "rank {rank}: {msgs} RDMA messages, fetched {fetched} B (needed {needed} B — block granularity over-fetches, as in the paper's example)"
        );
    }
    let c = outputs[0].4.as_ref().unwrap();
    println!(
        "C = A*A has {} nonzeros (verified against serial: {})",
        c.nnz(),
        {
            let serial = sa_dist::reference::serial_spgemm(&a, &a);
            if serial.max_abs_diff(c) < 1e-12 {
                "match"
            } else {
                "MISMATCH"
            }
        }
    );

    // ------------------------------------------------------------------
    // Part 2 — squaring a structured matrix on 8 ranks with a report.
    // ------------------------------------------------------------------
    println!("\n== Squaring a 3D-stencil matrix (queen-like) on 8 ranks ==");
    let big = gen::stencil3d(20, 20, 20, true);
    println!("A: {}x{}, {} nnz", big.nrows(), big.ncols(), big.nnz());
    let universe = Universe::new(8);
    let reports = universe.run(|comm| {
        let offsets = uniform_offsets(big.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, &big, &offsets);
        let db = da.clone();
        let (c, report) = spgemm_1d(comm, &da, &db, &Plan1D::default());
        (c.local_nnz(), report)
    });
    let total_c_nnz: usize = reports.iter().map(|(n, _)| n).sum();
    let r0 = &reports[0].1;
    println!("C = A^2: {total_c_nnz} nnz across ranks");
    println!(
        "CV/memA = {:.3}  (<0.30 per the paper's §V criterion: no partitioning needed)",
        r0.cv_over_mem
    );
    for (rank, (_, rep)) in reports.iter().enumerate() {
        let p = rep.phases;
        println!(
            "rank {rank}: comm {:.2} ms | comp {:.2} ms | other {:.2} ms | fetched {:.1} KB in {} RDMA msgs",
            p.fetch_s * 1e3,
            p.compute_s * 1e3,
            (p.symbolic_s + p.assemble_s) * 1e3,
            rep.fetched_bytes as f64 / 1e3,
            rep.rdma_msgs
        );
    }
}
