//! The 3D split algorithm (§II-B2) — the memory-hungry baseline.
//!
//! `P = q² · c` ranks form `c` layers of `q × q` grids. `A` is split by
//! *columns* across layers and `B` by *rows*, so layer `l` owns the `k`
//! slice `layer_offsets[l]..layer_offsets[l+1]` of the inner dimension and
//! can form its full partial product `C_l = A(:,k_l) · B(k_l,:)`
//! independently with a per-layer SUMMA. A fiber reduce-scatter then sums
//! the `c` partials and leaves every rank owning a disjoint block of `C`.

use crate::spgemm1d::FetchMode;
use crate::summa2d::{spgemm_summa_2d, DistMat2D, SummaReport};
use crate::summa2d_sa::{try_spgemm_summa_2d_sa, SaSummaReport};
use sa_mpisim::{Comm, CommStats, Grid3D, PhaseTimes};
use sa_sparse::semiring::{PlusTimes, Semiring};
use sa_sparse::spgemm::SpgemmWorkspace;
use sa_sparse::types::{vidx, Vidx};
use sa_sparse::{Coo, Csc};
use std::sync::Arc;
use std::time::Instant;

/// Which dimension the layer split cuts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerSplit {
    /// Rows split across layers (the `B` operand).
    Rows,
    /// Columns split across layers (the `A` operand).
    Cols,
}

/// A 3D-distributed sparse matrix: a layer split of one dimension, then a
/// 2D block distribution of the layer slice.
#[derive(Clone)]
pub struct DistMat3D {
    nrows: usize,
    ncols: usize,
    split: LayerSplit,
    layer_offsets: Arc<Vec<usize>>,
    within: DistMat2D,
}

impl DistMat3D {
    /// Split one dimension of `m` across layers (`Cols` for the `A`
    /// operand, `Rows` for `B`), then 2D-distribute the slice on this
    /// rank's layer grid — the single cut-then-distribute path behind both
    /// public constructors.
    pub fn from_global_split<C: Comm>(
        grid: &Grid3D<C>,
        m: &Csc<f64>,
        split: LayerSplit,
    ) -> DistMat3D {
        let dim = match split {
            LayerSplit::Cols => m.ncols(),
            LayerSplit::Rows => m.nrows(),
        };
        let layer_offsets = Arc::new(crate::uniform_offsets(dim, grid.layers));
        let (lo, hi) = (layer_offsets[grid.mylayer], layer_offsets[grid.mylayer + 1]);
        let slice = match split {
            LayerSplit::Cols => m.extract_cols(lo, hi),
            LayerSplit::Rows => m.extract_rows(lo, hi),
        };
        DistMat3D {
            nrows: m.nrows(),
            ncols: m.ncols(),
            split,
            layer_offsets,
            within: DistMat2D::from_global(&grid.layer_grid, &slice),
        }
    }

    /// Split `a`'s columns across layers, then 2D-distribute the slice on
    /// this rank's layer grid.
    pub fn from_global_split_cols<C: Comm>(grid: &Grid3D<C>, a: &Csc<f64>) -> DistMat3D {
        DistMat3D::from_global_split(grid, a, LayerSplit::Cols)
    }

    /// Split `b`'s rows across layers, then 2D-distribute the slice.
    pub fn from_global_split_rows<C: Comm>(grid: &Grid3D<C>, b: &Csc<f64>) -> DistMat3D {
        DistMat3D::from_global_split(grid, b, LayerSplit::Rows)
    }

    /// Wrap an already-distributed layer slice (`within` must be this
    /// rank's 2D view of its layer's slice).
    pub fn from_local_parts(
        nrows: usize,
        ncols: usize,
        split: LayerSplit,
        layer_offsets: Arc<Vec<usize>>,
        within: DistMat2D,
    ) -> DistMat3D {
        DistMat3D {
            nrows,
            ncols,
            split,
            layer_offsets,
            within,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn split(&self) -> LayerSplit {
        self.split
    }

    pub fn layer_offsets(&self) -> &Arc<Vec<usize>> {
        &self.layer_offsets
    }

    pub fn within(&self) -> &DistMat2D {
        &self.within
    }
}

/// One rank's disjoint block of the 3D product.
#[derive(Clone, Debug)]
pub struct Owned3DBlock {
    /// Global shape of `C`.
    pub nrows: usize,
    pub ncols: usize,
    /// Global position of `local`'s (0, 0).
    pub row0: usize,
    pub col0: usize,
    pub local: Csc<f64>,
}

impl Owned3DBlock {
    /// Reassemble the global product at world rank 0. Collective.
    pub fn gather<C: Comm>(&self, comm: &C) -> Option<Csc<f64>> {
        let triples: Vec<(Vidx, Vidx, f64)> = self
            .local
            .iter()
            .map(|(r, c, v)| {
                (
                    vidx(self.row0 + r as usize),
                    vidx(self.col0 + c as usize),
                    v,
                )
            })
            .collect();
        let parts = comm.gatherv(0, triples)?;
        let mut coo = Coo::new(self.nrows, self.ncols);
        for part in parts {
            for (r, c, v) in part {
                coo.push(r, c, v);
            }
        }
        Some(coo.to_csc_with(|x, y| x + y))
    }
}

/// What one rank observed during [`spgemm_split_3d`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Split3DReport {
    /// Per-layer SUMMA peak plus this rank's full partial block — the
    /// replication cost that makes 3D memory-hungry (Fig. 14).
    pub peak_local_bytes: u64,
    /// The per-layer SUMMA's own report.
    pub summa: SummaReport,
    /// Exact communication-counter delta of this call on this rank.
    pub comm: CommStats,
    /// Wall-clock split: the layer SUMMA's, with the fiber reduce-scatter
    /// added to `fetch_s` and the rest of the call in `assemble_s`.
    pub phases: PhaseTimes,
}

sa_mpisim::wire_struct!(Split3DReport {
    peak_local_bytes,
    summa,
    comm,
    phases
});

fn assert_conformal_3d(a: &DistMat3D, b: &DistMat3D) {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols,
    );
    assert_eq!(a.split, LayerSplit::Cols, "A must be column-split");
    assert_eq!(b.split, LayerSplit::Rows, "B must be row-split");
    assert_eq!(
        a.layer_offsets[..],
        b.layer_offsets[..],
        "layer splits of the inner dimension must align"
    );
}

/// Fiber reduce-scatter of the per-layer partial product: the partial
/// block's rows are split among the `c` layers, combined across the fiber
/// with the semiring's `⊕`. Returns this rank's owned `C` block (global
/// position included) and the seconds spent — the step shared by the
/// oblivious and sparsity-aware 3D paths.
fn fiber_reduce_scatter<C: Comm, S: Semiring<T = f64>>(
    grid: &Grid3D<C>,
    nrows: usize,
    ncols: usize,
    partial: &DistMat2D,
) -> (Owned3DBlock, f64) {
    let t0 = Instant::now();
    let row0 = partial.row_offsets()[grid.myrow];
    let col0 = partial.col_offsets()[grid.mycol];
    let block_h = partial.row_offsets()[grid.myrow + 1] - row0;
    let sub = crate::uniform_offsets(block_h, grid.layers);
    let mut sends: Vec<Vec<(Vidx, Vidx, f64)>> = vec![Vec::new(); grid.layers];
    for (r, c, v) in partial.local().iter() {
        let l = sub.partition_point(|&o| o <= r as usize) - 1;
        sends[l].push((r - vidx(sub[l]), c, v));
    }
    let recvd = grid.fiber_comm.alltoallv(sends);
    let my_h = sub[grid.mylayer + 1] - sub[grid.mylayer];
    let my_w = partial.col_offsets()[grid.mycol + 1] - col0;
    let mut coo = Coo::new(my_h, my_w);
    for part in recvd {
        for (r, c, v) in part {
            coo.push(r, c, v);
        }
    }
    let local = coo.to_csc_with(S::add);
    let block = Owned3DBlock {
        nrows,
        ncols,
        row0: row0 + sub[grid.mylayer],
        col0,
        local,
    };
    (block, t0.elapsed().as_secs_f64())
}

/// 3D split SpGEMM `C = A·B` with `A` column-split and `B` row-split
/// across layers. Collective over `comm` (the communicator `grid` was
/// built from). `ws` is threaded through the per-layer SUMMA's stage
/// multiplies, so iterative drivers keep the oblivious baseline's compute
/// path allocation-free too.
pub fn spgemm_split_3d<C: Comm>(
    comm: &C,
    grid: &Grid3D<C>,
    a: &DistMat3D,
    b: &DistMat3D,
    ws: &SpgemmWorkspace<f64>,
) -> (Owned3DBlock, Split3DReport) {
    assert_conformal_3d(a, b);
    let stats0 = comm.stats();
    let t_call = Instant::now();

    // --- per-layer partial product (independent SUMMAs) ---
    let (partial, summa_rep) =
        spgemm_summa_2d(&grid.layer_comm, &grid.layer_grid, &a.within, &b.within, ws);
    let peak = summa_rep.peak_local_bytes + partial.local().mem_bytes() as u64;

    // --- fiber reduce-scatter: block rows split among the c layers ---
    let (block, reduce_s) =
        fiber_reduce_scatter::<_, PlusTimes<f64>>(grid, a.nrows, b.ncols, &partial);

    let comm_delta = comm.stats() - stats0;
    let total_s = t_call.elapsed().as_secs_f64();
    let fetch_s = summa_rep.phases.fetch_s + reduce_s;
    let compute_s = summa_rep.phases.compute_s;
    let report = Split3DReport {
        peak_local_bytes: peak,
        summa: summa_rep,
        comm: comm_delta,
        phases: PhaseTimes {
            fetch_s,
            compute_s,
            assemble_s: (total_s - fetch_s - compute_s).max(0.0),
            ..PhaseTimes::default()
        },
    };
    (block, report)
}

/// What one rank observed during [`spgemm_split_3d_sa`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SaSplit3DReport {
    /// The per-layer sparsity-aware SUMMA's own report.
    pub summa: SaSummaReport,
    /// Bytes this rank sent in the fiber reduce-scatter.
    pub reduce_bytes: u64,
    /// Per-layer peak plus this rank's full partial block.
    pub peak_local_bytes: u64,
    /// Exact communication-counter delta of this call on this rank.
    pub comm: CommStats,
    /// Wall-clock split: the layer SUMMA's, with the fiber reduce-scatter
    /// added to `fetch_s` and the rest of the call in `assemble_s`.
    pub phases: PhaseTimes,
}

sa_mpisim::wire_struct!(SaSplit3DReport {
    summa,
    reduce_bytes,
    peak_local_bytes,
    comm,
    phases
});

/// Sparsity-aware 3D split SpGEMM: each layer runs the needed-set 2D
/// SUMMA ([`spgemm_summa_2d_sa`](crate::summa2d_sa::spgemm_summa_2d_sa))
/// on its slice, then the partials are summed with the same fiber
/// reduce-scatter the oblivious path uses, both over the semiring `S`.
/// Collective. The caller-held `ws` gives zero steady-state allocations on
/// the compute and assembly paths.
pub fn spgemm_split_3d_sa<C: Comm, S: Semiring<T = f64>>(
    comm: &C,
    grid: &Grid3D<C>,
    a: &DistMat3D,
    b: &DistMat3D,
    mode: FetchMode,
    ws: &SpgemmWorkspace<f64>,
) -> (Owned3DBlock, SaSplit3DReport) {
    assert_conformal_3d(a, b);
    let stats0 = comm.stats();
    let t_call = Instant::now();

    let (partial, summa_rep) = try_spgemm_summa_2d_sa::<_, S>(
        &grid.layer_comm,
        &grid.layer_grid,
        &a.within,
        &b.within,
        mode,
        ws,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let peak = summa_rep.peak_local_bytes + partial.local().mem_bytes() as u64;

    let reduce0 = comm.stats();
    let (block, reduce_s) = fiber_reduce_scatter::<_, S>(grid, a.nrows, b.ncols, &partial);
    let reduce_bytes = (comm.stats() - reduce0).sent_bytes;

    let comm_delta = comm.stats() - stats0;
    let total_s = t_call.elapsed().as_secs_f64();
    let summa = summa_rep.phases;
    let fetch_s = summa.fetch_s + reduce_s;
    let report = SaSplit3DReport {
        summa: summa_rep,
        reduce_bytes,
        peak_local_bytes: peak,
        comm: comm_delta,
        phases: PhaseTimes {
            fetch_s,
            assemble_s: (total_s - summa.symbolic_s - fetch_s - summa.compute_s).max(0.0),
            ..summa
        },
    };
    (block, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::serial_spgemm;
    use crate::Wired;
    use sa_mpisim::Universe;
    use sa_sparse::gen::{erdos_renyi, stencil3d};

    fn check(a: &Csc<f64>, b: &Csc<f64>, q: usize, layers: usize) {
        let expect = serial_spgemm(a, b);
        let u = Universe::new(q * q * layers);
        let got = u.run(|comm| {
            let grid = Grid3D::new(comm, q, layers);
            let da = DistMat3D::from_global_split_cols(&grid, a);
            let db = DistMat3D::from_global_split_rows(&grid, b);
            let (c, _rep) = spgemm_split_3d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
            c.gather(comm).map(Wired)
        });
        let got = got[0].as_ref().unwrap();
        assert!(
            got.max_abs_diff(&expect) < 1e-10,
            "{q}x{q}x{layers}: diff {}",
            got.max_abs_diff(&expect)
        );
    }

    #[test]
    fn matches_serial_across_geometries() {
        let a = erdos_renyi(48, 48, 4.0, 1);
        check(&a, &a, 1, 1);
        check(&a, &a, 2, 1);
        check(&a, &a, 2, 2);
        check(&a, &a, 1, 4);
    }

    #[test]
    fn rectangular_operands() {
        let a = erdos_renyi(40, 26, 3.0, 2);
        let b = erdos_renyi(26, 44, 3.0, 3);
        check(&a, &b, 2, 2);
    }

    #[test]
    fn owned_blocks_are_disjoint_and_cover() {
        let a = stencil3d(4, 4, 3, true);
        let u = Universe::new(8);
        let blocks = u.run(|comm| {
            let grid = Grid3D::new(comm, 2, 2);
            let da = DistMat3D::from_global_split_cols(&grid, &a);
            let db = DistMat3D::from_global_split_rows(&grid, &a);
            let (c, rep) = spgemm_split_3d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
            assert!(rep.peak_local_bytes > 0);
            (c.row0, c.col0, c.local.nrows(), c.local.ncols())
        });
        // every (row, col) of C belongs to exactly one block
        let n = a.nrows();
        let mut owners = vec![0u32; n * n];
        for &(r0, c0, h, w) in &blocks {
            for r in r0..r0 + h {
                for c in c0..c0 + w {
                    owners[r * n + c] += 1;
                }
            }
        }
        assert!(owners.iter().all(|&x| x == 1), "blocks must tile C exactly");
    }
}
