//! Diagnostic: per-level breakdown of the 1D BC forward search.
//! Not part of the documented example set — used to attribute time between
//! RDMA, local SpGEMM and metadata phases when tuning the BC engine.

use saspgemm::dist::{prepare, spgemm_1d, uniform_offsets, DistMat1D, Plan1D, Strategy};
use saspgemm::mpisim::{Comm, Universe};
use saspgemm::sparse::ewise::mask_complement;
use saspgemm::sparse::gen::{Dataset, Scale};
use saspgemm::sparse::semiring::PlusTimes;
use saspgemm::sparse::{Coo, Dcsc, Vidx};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let p = 16;
    let a = Dataset::EukaryaLike.build(Scale::Small);
    println!("eukarya_like: n={} nnz={}", a.nrows(), a.nnz());
    let prep = prepare(
        &a,
        p,
        Strategy::Partition {
            seed: 1,
            epsilon: 0.05,
        },
    );
    let a = prep.a;
    let batch = (a.nrows() / 625).max(16);
    let sources: Vec<Vidx> = saspgemm::apps::bc::pick_sources(a.nrows(), batch, 7);

    let u = Universe::new(p);
    let reports = u.run(move |comm| {
        let n = a.nrows();
        let b = sources.len();
        let a01 = a.map(|_| 1.0);
        let n_offsets_v = uniform_offsets(n, comm.size());
        let da = DistMat1D::from_global(comm, &a01, &n_offsets_v);
        let n_offsets = da.offsets().clone();
        let (c0, c1) = (n_offsets[comm.rank()], n_offsets[comm.rank() + 1]);
        let mut fringe = {
            let mut coo = Coo::new(b, c1 - c0);
            for (j, &s) in sources.iter().enumerate() {
                let su = s as usize;
                if su >= c0 && su < c1 {
                    coo.push(j as Vidx, (su - c0) as Vidx, 1.0);
                }
            }
            coo.to_csc_with(|x, _| x)
        };
        let mut visited = fringe.clone();
        let mut out = Vec::new();
        let plan = Plan1D::default();
        loop {
            let t0 = Instant::now();
            let f_dist =
                DistMat1D::from_local(b, n, Arc::clone(&n_offsets), Dcsc::from_csc(&fringe));
            let (next, rep) = spgemm_1d(comm, &f_dist, &da, &plan);
            let spgemm_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let masked = mask_complement(&next.into_local_csc(), &visited);
            let mask_s = t1.elapsed().as_secs_f64();
            let live = comm.allreduce(masked.nnz() as u64, |x, y| x + y);
            out.push((
                comm.rank(),
                fringe.nnz(),
                spgemm_s,
                mask_s,
                rep.phases,
                rep.fetched_bytes,
                rep.rdma_msgs,
            ));
            if live == 0 {
                break;
            }
            visited = saspgemm::sparse::ewise::ewise_add::<PlusTimes<f64>>(
                &visited,
                &masked.map(|_| 1.0),
            );
            fringe = masked;
        }
        out
    });
    // print every rank at every level
    let levels = reports[0].len();
    for l in 0..levels {
        println!("== level {l}");
        for r in reports.iter().map(|r| &r[l]) {
            println!(
                "  rank {:2}: fringe_nnz={:6} spgemm={:7.1}ms mask={:5.1}ms comm={:7.1}ms comp={:7.1}ms other={:5.1}ms fetched={:.2}MB msgs={}",
                r.0,
                r.1,
                r.2 * 1e3,
                r.3 * 1e3,
                r.4.fetch_s * 1e3,
                r.4.compute_s * 1e3,
                (r.4.symbolic_s + r.4.assemble_s) * 1e3,
                r.5 as f64 / 1e6,
                r.6
            );
        }
    }
}
