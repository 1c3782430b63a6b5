//! Algorithm 3 — the outer-product 1D baseline (expand–multiply–reduce).
//!
//! `C = Σ_k A(:,k) ⊗ B(k,:)`: rank `r` owns `A`'s column slice (the same
//! layout Algorithm 1 uses) and needs the matching *row* slice of `B`, so
//! the expand step redistributes `B` from its column layout to a conformal
//! row layout with one all-to-all. Each rank then forms its full-size
//! partial product locally and the reduce step scatters partial columns to
//! their owners under `B`'s column layout, where they are summed. Ballard
//! et al. (and Fig. 12) show this beats Algorithm 1 for the Galerkin right
//! multiplication, where `B = R` is tall-skinny.

use crate::dist1d::DistMat1D;
use sa_mpisim::{Comm, CommStats, PhaseTimes};
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_kernel, Kernel};
use sa_sparse::types::{vidx, Vidx};
use sa_sparse::{Coo, Csc, Dcsc};
use std::time::Instant;

/// What one rank observed during [`spgemm_outer_1d`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OuterReport {
    /// Bytes this rank sent redistributing `B` to the row layout.
    pub expand_bytes: u64,
    /// Bytes this rank sent scattering partial-product columns.
    pub reduce_bytes: u64,
    /// Exact communication-counter delta of this call on this rank.
    pub comm: CommStats,
    /// Wall-clock split: expand and reduce are `fetch_s`, the local outer
    /// product `compute_s`, the rest `assemble_s` (no symbolic stage).
    pub phases: PhaseTimes,
}

/// Outer-product 1D SpGEMM. Returns `C` in `B`'s column layout plus this
/// rank's [`OuterReport`]. Collective.
pub fn spgemm_outer_1d<C: Comm>(
    comm: &C,
    a: &DistMat1D,
    b: &DistMat1D,
) -> (DistMat1D, OuterReport) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols(),
    );
    let stats0 = comm.stats();
    let t_call = Instant::now();
    let p = comm.size();
    let me = comm.rank();
    let ao = a.offsets();
    let bo = b.offsets();
    let (k0, k1) = (ao[me], ao[me + 1]);

    // --- expand: B's local columns, cut by row into A's k-layout ---
    let t0 = Instant::now();
    let my_col0 = bo[me];
    let mut sends: Vec<Vec<(Vidx, Vidx, f64)>> = vec![Vec::new(); p];
    for (jl, rows, vals) in b.local().iter_cols() {
        let gj = vidx(my_col0 + jl as usize);
        for (&r, &v) in rows.iter().zip(vals) {
            // owner of k-row r under A's offsets
            let t = ao.partition_point(|&o| o <= r as usize) - 1;
            sends[t].push((r, gj, v));
        }
    }
    let recvd = comm.alltoallv(sends);
    let mut coo = Coo::new(k1 - k0, b.ncols());
    for part in recvd {
        for (r, c, v) in part {
            coo.push(r - vidx(k0), c, v);
        }
    }
    let b_rows: Csc<f64> = coo.to_csc_with(|x, _| x);
    let stats_expand = comm.stats() - stats0;
    let expand_s = t0.elapsed().as_secs_f64();

    // --- multiply: full-width partial product from the local slices ---
    let t0 = Instant::now();
    let partial =
        comm.install(|| spgemm_kernel::<PlusTimes<f64>, _, _>(a.local(), &b_rows, Kernel::Hybrid));
    let compute_s = t0.elapsed().as_secs_f64();

    // --- reduce: scatter partial columns to their owners and sum ---
    let t0 = Instant::now();
    let mut sends: Vec<Vec<(Vidx, Vidx, f64)>> = vec![Vec::new(); p];
    for t in 0..p {
        let (c0, c1) = (bo[t], bo[t + 1]);
        for j in c0..c1 {
            let (rows, vals) = partial.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                sends[t].push((r, vidx(j - c0), v));
            }
        }
    }
    let recvd = comm.alltoallv(sends);
    let my_width = bo[me + 1] - bo[me];
    let mut coo = Coo::new(a.nrows(), my_width);
    for part in recvd {
        for (r, c, v) in part {
            coo.push(r, c, v);
        }
    }
    let c_local = coo.to_csc_with(|x, y| x + y);
    let stats_all = comm.stats() - stats0;
    let reduce_s = t0.elapsed().as_secs_f64();

    let c = DistMat1D::from_local(a.nrows(), b.ncols(), bo.clone(), Dcsc::from(c_local));
    let total_s = t_call.elapsed().as_secs_f64();
    let fetch_s = expand_s + reduce_s;
    let report = OuterReport {
        expand_bytes: stats_expand.sent_bytes,
        reduce_bytes: stats_all.sent_bytes - stats_expand.sent_bytes,
        comm: stats_all,
        phases: PhaseTimes {
            fetch_s,
            compute_s,
            assemble_s: (total_s - fetch_s - compute_s).max(0.0),
            ..PhaseTimes::default()
        },
    };
    (c, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist1d::uniform_offsets;
    use crate::reference::serial_spgemm;
    use sa_mpisim::Universe;
    use sa_sparse::gen::{erdos_renyi, stencil3d};

    fn check(a: &Csc<f64>, b: &Csc<f64>, p: usize) {
        let expect = serial_spgemm(a, b);
        let u = Universe::new(p);
        let got = u.run(|comm| {
            let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), p));
            let db = DistMat1D::from_global(comm, b, &uniform_offsets(b.ncols(), p));
            let (c, _rep) = spgemm_outer_1d(comm, &da, &db);
            c.gather(comm)
        });
        let got = got[0].as_ref().unwrap();
        assert!(
            got.max_abs_diff(&expect) < 1e-10,
            "P={p}: diff {}",
            got.max_abs_diff(&expect)
        );
    }

    #[test]
    fn squares_match_serial() {
        let a = erdos_renyi(60, 60, 4.0, 1);
        for p in [1, 2, 5] {
            check(&a, &a, p);
        }
    }

    #[test]
    fn rectangular_chain_matches_serial() {
        let a = erdos_renyi(40, 28, 3.0, 2);
        let b = erdos_renyi(28, 50, 3.0, 3);
        check(&a, &b, 4);
    }

    #[test]
    fn structured_input() {
        let a = stencil3d(4, 4, 4, true);
        check(&a, &a, 4);
    }

    #[test]
    fn report_meters_both_phases() {
        let a = erdos_renyi(100, 100, 5.0, 4);
        let u = Universe::new(4);
        let reps = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &a, &uniform_offsets(100, 4));
            let (_c, rep) = spgemm_outer_1d(comm, &da, &da.clone());
            rep
        });
        for rep in &reps {
            assert_eq!(rep.comm.rdma_gets, 0, "outer product is all two-sided");
            assert_eq!(rep.expand_bytes + rep.reduce_bytes, rep.comm.sent_bytes);
        }
        assert!(reps.iter().any(|r| r.expand_bytes > 0));
    }
}
