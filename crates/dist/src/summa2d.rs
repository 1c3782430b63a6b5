//! 2D sparse SUMMA — the sparsity-oblivious CombBLAS baseline (§II-B1).
//!
//! Operands live on a `pr × pc` grid in block form. Stage `s` broadcasts
//! `A`'s column-block `s` along each process row and `B`'s row-block `s`
//! along each process column, and every rank accumulates
//! `C_ij ⊕= A_is · B_sj`. Communication is oblivious to sparsity: every
//! block travels whether or not the receiving rank's multiply touches it —
//! exactly what Figs. 4/5 compare Algorithm 1 against.

use sa_mpisim::{Comm, CommStats, Grid2D, PhaseTimes};
use sa_sparse::ewise::ewise_add;
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_with, Kernel, Schedule, SpgemmWorkspace};
use sa_sparse::types::{vidx, Vidx};
use sa_sparse::{Coo, Csc};
use std::sync::Arc;
use std::time::Instant;

/// A 2D block-distributed sparse matrix (one rank's block).
#[derive(Clone)]
pub struct DistMat2D {
    nrows: usize,
    ncols: usize,
    row_offsets: Arc<Vec<usize>>,
    col_offsets: Arc<Vec<usize>>,
    /// My `(myrow, mycol)` block, local indices.
    local: Csc<f64>,
}

impl DistMat2D {
    /// Distribute `a` over `grid` with uniform block boundaries.
    pub fn from_global<C: Comm>(grid: &Grid2D<C>, a: &Csc<f64>) -> DistMat2D {
        let (row_offsets, col_offsets, local) =
            crate::dist1d::uniform_block_dist(a, grid.pr, grid.pc, grid.myrow, grid.mycol);
        DistMat2D {
            nrows: a.nrows(),
            ncols: a.ncols(),
            row_offsets,
            col_offsets,
            local,
        }
    }

    /// Wrap an already-local block under explicit offsets (`local` must be
    /// this rank's block).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_offsets: Arc<Vec<usize>>,
        col_offsets: Arc<Vec<usize>>,
        local: Csc<f64>,
    ) -> DistMat2D {
        DistMat2D {
            nrows,
            ncols,
            row_offsets,
            col_offsets,
            local,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn row_offsets(&self) -> &Arc<Vec<usize>> {
        &self.row_offsets
    }

    pub fn col_offsets(&self) -> &Arc<Vec<usize>> {
        &self.col_offsets
    }

    /// This rank's block.
    pub fn local(&self) -> &Csc<f64> {
        &self.local
    }

    /// Reassemble the global matrix at world rank 0. Collective.
    pub fn gather<C: Comm>(&self, comm: &C, grid: &Grid2D<C>) -> Option<Csc<f64>> {
        let r0 = self.row_offsets[grid.myrow];
        let c0 = self.col_offsets[grid.mycol];
        let triples: Vec<(Vidx, Vidx, f64)> = self
            .local
            .iter()
            .map(|(r, c, v)| (vidx(r0 + r as usize), vidx(c0 + c as usize), v))
            .collect();
        let parts = comm.gatherv(0, triples)?;
        let mut coo = Coo::new(self.nrows, self.ncols);
        for part in parts {
            for (r, c, v) in part {
                coo.push(r, c, v);
            }
        }
        Some(coo.to_csc_with(|x, _| x))
    }
}

/// What one rank observed during [`spgemm_summa_2d`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SummaReport {
    /// Largest simultaneous footprint of (received A block, received B
    /// block, accumulated C) across stages — the Fig. 14 OOM metric.
    pub peak_local_bytes: u64,
    /// Bytes this rank sent broadcasting its blocks.
    pub bcast_bytes: u64,
    /// Exact communication-counter delta of this call on this rank.
    pub comm: CommStats,
    /// Wall-clock split: the stage broadcasts are `fetch_s`, the stage
    /// multiplies and sums `compute_s`, the rest `assemble_s` (no symbolic).
    pub phases: PhaseTimes,
}

sa_mpisim::wire_struct!(SummaReport {
    peak_local_bytes,
    bcast_bytes,
    comm,
    phases
});

/// Broadcast a CSC block from `root` (sub-communicator rank) to the whole
/// sub-communicator.
fn bcast_block<C: Comm>(comm: &C, root: usize, mine: Option<&Csc<f64>>) -> Csc<f64> {
    let dims = comm.bcast_vec(root, mine.map(|m| vec![m.nrows() as u64, m.ncols() as u64]));
    let colptr = comm.bcast_vec(
        root,
        mine.map(|m| m.colptr().iter().map(|&x| x as u64).collect::<Vec<u64>>()),
    );
    let rowidx = comm.bcast_vec(root, mine.map(|m| m.rowidx().to_vec()));
    let vals = comm.bcast_vec(root, mine.map(|m| m.vals().to_vec()));
    Csc::from_parts(
        dims[0] as usize,
        dims[1] as usize,
        colptr.into_iter().map(|x| x as usize).collect(),
        rowidx,
        vals,
    )
}

/// 2D sparse SUMMA `C = A·B`. `A`'s column blocking must equal `B`'s row
/// blocking (square grids with uniform offsets satisfy this). Returns `C`
/// blocked by (`A` rows, `B` cols) plus this rank's report. Collective
/// over `comm` (which must be the communicator `grid` was built from).
///
/// Every stage multiply borrows its kernel scratch and output buffers from
/// `ws` under flop-balanced scheduling, so an iterative driver (one SUMMA
/// per BFS level, per MCL iteration, …) allocates nothing on the compute
/// path once the pools are warm — the same steady state the sparsity-aware
/// variants reach, keeping the oblivious baseline's timings free of alloc
/// noise. A one-off call passes `&SpgemmWorkspace::new()`.
pub fn spgemm_summa_2d<C: Comm>(
    comm: &C,
    grid: &Grid2D<C>,
    a: &DistMat2D,
    b: &DistMat2D,
    ws: &SpgemmWorkspace<f64>,
) -> (DistMat2D, SummaReport) {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols,
    );
    assert_eq!(
        a.col_offsets[..],
        b.row_offsets[..],
        "A column blocks and B row blocks must align for SUMMA stages"
    );
    let stats0 = comm.stats();
    let t_call = Instant::now();
    let my_rows = a.row_offsets[grid.myrow + 1] - a.row_offsets[grid.myrow];
    let my_cols = b.col_offsets[grid.mycol + 1] - b.col_offsets[grid.mycol];
    let mut acc: Csc<f64> = Csc::zeros(my_rows, my_cols);
    let mut fetch_s = 0.0f64;
    let mut compute_s = 0.0f64;
    let mut peak = 0u64;
    let stages = a.col_offsets.len() - 1;
    for s in 0..stages {
        let t0 = Instant::now();
        // A_is travels along my process row (row_comm ranks keyed by mycol)
        let a_blk = bcast_block(&grid.row_comm, s, (grid.mycol == s).then_some(&a.local));
        // B_sj travels along my process column (col_comm keyed by myrow)
        let b_blk = bcast_block(&grid.col_comm, s, (grid.myrow == s).then_some(&b.local));
        fetch_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let partial = comm.install(|| {
            spgemm_with::<PlusTimes<f64>, _, _>(
                &a_blk,
                &b_blk,
                Kernel::Hybrid,
                Schedule::FlopBalanced,
                ws,
            )
        });
        acc = ewise_add::<PlusTimes<f64>>(&acc, &partial);
        compute_s += t0.elapsed().as_secs_f64();
        peak = peak.max((a_blk.mem_bytes() + b_blk.mem_bytes() + acc.mem_bytes()) as u64);
    }
    let comm_delta = comm.stats() - stats0;
    let total_s = t_call.elapsed().as_secs_f64();
    let c = DistMat2D {
        nrows: a.nrows,
        ncols: b.ncols,
        row_offsets: a.row_offsets.clone(),
        col_offsets: b.col_offsets.clone(),
        local: acc,
    };
    let report = SummaReport {
        peak_local_bytes: peak,
        bcast_bytes: comm_delta.sent_bytes,
        comm: comm_delta,
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
    use crate::reference::serial_spgemm;
    use crate::Wired;
    use sa_mpisim::Universe;
    use sa_sparse::gen::{erdos_renyi, stencil3d};

    fn check(a: &Csc<f64>, b: &Csc<f64>, p: usize) {
        let expect = serial_spgemm(a, b);
        let u = Universe::new(p);
        let got = u.run(|comm| {
            let grid = Grid2D::square(comm);
            let da = DistMat2D::from_global(&grid, a);
            let db = DistMat2D::from_global(&grid, b);
            let (c, _rep) = spgemm_summa_2d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
            c.gather(comm, &grid).map(Wired)
        });
        let got = got[0].as_ref().unwrap();
        assert!(
            got.max_abs_diff(&expect) < 1e-10,
            "P={p}: diff {}",
            got.max_abs_diff(&expect)
        );
    }

    #[test]
    fn matches_serial_on_grids() {
        let a = erdos_renyi(50, 50, 4.0, 1);
        check(&a, &a, 1);
        check(&a, &a, 4);
        check(&a, &a, 9);
    }

    #[test]
    fn rectangular_operands() {
        let a = erdos_renyi(45, 30, 3.0, 2);
        let b = erdos_renyi(30, 61, 3.0, 3);
        check(&a, &b, 4);
    }

    #[test]
    fn structured_operand_and_peak_metric() {
        let a = stencil3d(4, 4, 3, true);
        let u = Universe::new(4);
        let reps = u.run(|comm| {
            let grid = Grid2D::square(comm);
            let da = DistMat2D::from_global(&grid, &a);
            let db = da.clone();
            let (_c, rep) = spgemm_summa_2d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
            rep
        });
        for rep in &reps {
            assert!(rep.peak_local_bytes > 0);
            assert_eq!(rep.comm.rdma_gets, 0, "SUMMA uses no one-sided traffic");
        }
        check(&a, &a, 4);
    }
}
