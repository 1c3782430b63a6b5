//! Exact traffic predictors for the 2D and 3D multiplies.
//!
//! Collective-free analyses replay each algorithm's symbolic machinery on
//! the (replicated) global operands —
//!
//! * [`analyze_2d`] replays the sparsity-aware SUMMA's A-window plans and
//!   B request/ship filtering per grid rank, alongside the oblivious
//!   broadcast volume; on a `1 × P` grid that is Algorithm 1's per-rank
//!   `plan_fetch` schedule exactly (the serial counterpart of the
//!   collective [`analyze_1d`](crate::spgemm1d::analyze_1d)),
//! * [`analyze_3d`] recurses per layer and prices the fiber
//!   reduce-scatter from the per-layer partial products —
//!
//! and produce [`Prediction`]s whose bytes/messages equal what the
//! distributed execution meters, byte for byte (asserted in
//! `tests/sparsity_aware_2d3d.rs`; the `summa2d_volume` bench reads its
//! meta / A / B split from them). Nothing here picks an algorithm: a fetch
//! mode is picked collectively by
//! [`pick_fetch_mode`](crate::spgemm1d::pick_fetch_mode).

use crate::dist1d::uniform_offsets;
use crate::fetch::{plan_fetch, RankMeta};
use crate::spgemm1d::FetchMode;
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::spgemm;
use sa_sparse::types::Vidx;
use sa_sparse::Csc;

/// Bytes + messages of one communication phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    pub bytes: u64,
    pub msgs: u64,
}

impl std::ops::Add for PhaseCost {
    type Output = PhaseCost;
    fn add(self, o: PhaseCost) -> PhaseCost {
        PhaseCost {
            bytes: self.bytes + o.bytes,
            msgs: self.msgs + o.msgs,
        }
    }
}

impl std::ops::AddAssign for PhaseCost {
    fn add_assign(&mut self, o: PhaseCost) {
        *self = *self + o;
    }
}

/// Predicted traffic of one multiply on one input, summed over ranks.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    /// Symbolic-exchange traffic (metadata records, support bitmaps).
    pub meta: PhaseCost,
    /// Numeric data movement (window fetches, B request/ship legs,
    /// broadcasts, reduce-scatter triples).
    pub data: PhaseCost,
}

/// Sum per-rank phase costs into a [`Prediction`].
fn combine(rank_meta: &[PhaseCost], rank_data: &[PhaseCost]) -> Prediction {
    let sum = |costs: &[PhaseCost]| costs.iter().fold(PhaseCost::default(), |x, &y| x + y);
    Prediction {
        meta: sum(rank_meta),
        data: sum(rank_data),
    }
}

/// Block index of `x` under monotone `offsets`.
fn block_of(offsets: &[usize], x: usize) -> usize {
    offsets.partition_point(|&o| o <= x) - 1
}

/// Per-rank injected traffic of one `allgatherv` round, replaying the
/// linear collectives exactly: every non-root sends its vector to rank 0,
/// then rank 0 broadcasts the length table (`p` × 8 B) and the flattened
/// data to the other `p − 1` ranks.
fn allgatherv_injected(lens: &[usize], elem: usize) -> Vec<PhaseCost> {
    let p = lens.len();
    let mut out = vec![PhaseCost::default(); p];
    if p <= 1 {
        return out;
    }
    let total: usize = lens.iter().sum();
    for (r, &l) in lens.iter().enumerate().skip(1) {
        out[r] = PhaseCost {
            bytes: (l * elem) as u64,
            msgs: 1,
        };
    }
    out[0].bytes += ((p - 1) * (p * 8 + total * elem)) as u64;
    out[0].msgs += 2 * (p - 1) as u64;
    out
}

/// One grid rank's predicted sparsity-aware 2D traffic, field-for-field
/// comparable with [`SaSummaReport`](crate::summa2d_sa::SaSummaReport).
#[derive(Clone, Copy, Debug, Default)]
pub struct RankCost2D {
    pub a_fetch_bytes: u64,
    pub a_rdma_msgs: u64,
    pub b_request_bytes: u64,
    pub b_served_bytes: u64,
    pub b_shipped_bytes: u64,
    pub meta_bytes: u64,
    pub meta_msgs: u64,
}

/// Collective-free analysis of one 2D multiply on a uniform `pr × pc`
/// layout of the global operands.
#[derive(Clone, Debug)]
pub struct Analysis2D {
    /// The sparsity-aware variant — data phase exact against
    /// [`spgemm_summa_2d_sa`](crate::spgemm_summa_2d_sa).
    pub aware: Prediction,
    /// The oblivious broadcast variant (requires the stage alignment
    /// `A` col blocks == `B` row blocks; `None` otherwise) — exact against
    /// [`spgemm_summa_2d`](crate::spgemm_summa_2d).
    pub oblivious: Option<Prediction>,
    /// Per-grid-rank aware costs, row-major (`rank = i·pc + j`).
    pub per_rank: Vec<RankCost2D>,
    /// Per-grid-rank aware data-phase cost (A fetch + B request/ship legs,
    /// message counts included) — exactly what [`Analysis2D::aware`]
    /// combines, exposed so the 3D analysis splices it instead of
    /// re-deriving the wire format.
    pub per_rank_data: Vec<PhaseCost>,
    /// Per-grid-rank oblivious broadcast volume (roots only), when defined.
    pub per_rank_oblivious: Option<Vec<PhaseCost>>,
}

/// Predict a sparsity-aware (and, when stages align, oblivious) 2D SUMMA
/// of the global operands on a `pr × pc` grid, without spawning ranks.
pub fn analyze_2d(a: &Csc<f64>, b: &Csc<f64>, pr: usize, pc: usize, mode: FetchMode) -> Analysis2D {
    assert_eq!(a.ncols(), b.nrows(), "A and B must be conformal");
    let p = pr * pc;
    let a_rows = uniform_offsets(a.nrows(), pr);
    let a_cols = uniform_offsets(a.ncols(), pc);
    let b_rows = uniform_offsets(b.nrows(), pr);
    let b_cols = uniform_offsets(b.ncols(), pc);

    // nnz of A's block row i per global column — the one pass that feeds
    // block metadata and A-side supports; on a 1 × P grid the block row is
    // A, whose own column counts serve
    let cnt: Vec<Vec<u32>> = if pr == 1 {
        Vec::new()
    } else {
        let mut cnt = vec![vec![0u32; a.ncols()]; pr];
        for (r, c, _v) in a.iter() {
            cnt[block_of(&a_rows, r as usize)][c as usize] += 1;
        }
        cnt
    };
    let nnz = |i: usize, k: usize| {
        if pr == 1 {
            a.col_nnz(k) as u64
        } else {
            cnt[i][k] as u64
        }
    };
    // per-block nonzero-column metadata of A, exactly as each rank exposes
    let a_metas: Vec<Vec<RankMeta>> = (0..pr)
        .map(|i| {
            (0..pc)
                .map(|s| {
                    let mut jc = Vec::new();
                    let mut cp = vec![0u64];
                    for k in a_cols[s]..a_cols[s + 1] {
                        let n = nnz(i, k);
                        if n > 0 {
                            jc.push((k - a_cols[s]) as Vidx);
                            cp.push(cp.last().unwrap() + n);
                        }
                    }
                    RankMeta { jc, cp }
                })
                .collect()
        })
        .collect();

    // symbolic exchange: one allgather of metadata records along each
    // process row, fixed-size support bitmaps down each process column
    let mut rank_meta = vec![PhaseCost::default(); p];
    for (i, metas_i) in a_metas.iter().enumerate() {
        let rec_lens: Vec<usize> = metas_i.iter().map(|m| m.record().len()).collect();
        for (s, c) in allgatherv_injected(&rec_lens, 1).into_iter().enumerate() {
            rank_meta[i * pc + s] += c;
        }
    }
    let words_of = |height: usize| height.div_ceil(64);
    for j in 0..pc {
        let sup_lens: Vec<usize> = (0..pr)
            .map(|t| words_of(b_rows[t + 1] - b_rows[t]))
            .collect();
        let sup_cost = allgatherv_injected(&sup_lens, 8);
        for (t, c) in sup_cost.into_iter().enumerate() {
            rank_meta[t * pc + j] += c;
        }
    }

    // per-rank aware data phase, one block column j of B at a time: its
    // row support (Algorithm 1's H, in one reused mask) and the B-side
    // filtering sizes ship[t][i] = (columns, entries) of block (t, j) that
    // survive requester row i's A support — entry-level, like the owner's
    // row filter
    let mut per_rank = vec![RankCost2D::default(); p];
    let mut rank_data = vec![PhaseCost::default(); p];
    let mut b_nnz = vec![vec![0u64; pc]; pr];
    let mut needed = vec![false; b.nrows()];
    let mut ship = vec![vec![(0u64, 0u64); pr]; pr];
    for j in 0..pc {
        needed.fill(false);
        ship.iter_mut().for_each(|s| s.fill((0, 0)));
        for c in b_cols[j]..b_cols[j + 1] {
            // the column's rows, block (t, j) by block
            let (mut rows, _) = b.col(c);
            while let Some(&first) = rows.first() {
                let t = block_of(&b_rows, first as usize);
                let end = rows.partition_point(|&r| (r as usize) < b_rows[t + 1]);
                let (blk, rest) = rows.split_at(end);
                rows = rest;
                b_nnz[t][j] += blk.len() as u64;
                for &k in blk {
                    needed[k as usize] = true;
                }
                for (i, (cols, ents)) in ship[t].iter_mut().enumerate() {
                    if i == t {
                        continue;
                    }
                    let kept = blk.iter().filter(|&&k| nnz(i, k as usize) > 0).count() as u64;
                    if kept > 0 {
                        *cols += 1;
                        *ents += kept;
                    }
                }
            }
        }
        for i in 0..pr {
            let rank = i * pc + j;
            let rc = &mut per_rank[rank];
            // A side: ranged window fetches of the needed columns
            let plan = plan_fetch(mode, &a_metas[i], &a_cols, &needed, j);
            rc.a_fetch_bytes = plan.fetch_bytes();
            rc.a_rdma_msgs = plan.rdma_msgs();
            // B side: support requests out, filtered sub-blocks in/out
            let mut data = PhaseCost {
                bytes: rc.a_fetch_bytes,
                msgs: rc.a_rdma_msgs,
            };
            for t in 0..pr {
                if t == i {
                    continue;
                }
                let req_bytes = words_of(b_rows[t + 1] - b_rows[t]) as u64 * 8;
                rc.b_request_bytes += req_bytes;
                data.bytes += req_bytes;
                data.msgs += 1;
                let (cols_in, ents_in) = ship[t][i];
                rc.b_shipped_bytes += cols_in * 8 + ents_in * 12;
                let (cols_out, ents_out) = ship[i][t];
                rc.b_served_bytes += cols_out * 8 + ents_out * 12;
                data.bytes += cols_out * 8 + ents_out * 12;
                data.msgs += 3;
            }
            rc.meta_bytes = rank_meta[rank].bytes;
            rc.meta_msgs = rank_meta[rank].msgs;
            rank_data[rank] = data;
        }
    }
    let aware = combine(&rank_meta, &rank_data);

    // oblivious broadcasts, when the stage blockings align
    let per_rank_oblivious = (a_cols == b_rows).then(|| {
        let mut obl_data = vec![PhaseCost::default(); p];
        for (i, b_nnz_i) in b_nnz.iter().enumerate() {
            for j in 0..pc {
                let rank = i * pc + j;
                // as the A-block root of stage s == j, along my process row
                if pc > 1 {
                    let w = a_cols[j + 1] - a_cols[j];
                    let n: u64 = (a_cols[j]..a_cols[j + 1]).map(|k| nnz(i, k)).sum();
                    obl_data[rank].bytes += (pc as u64 - 1) * (16 + (w as u64 + 1) * 8 + n * 12);
                    obl_data[rank].msgs += (pc as u64 - 1) * 4;
                }
                // as the B-block root of stage s == i, down my process column
                if pr > 1 {
                    let w = b_cols[j + 1] - b_cols[j];
                    let n = b_nnz_i[j];
                    obl_data[rank].bytes += (pr as u64 - 1) * (16 + (w as u64 + 1) * 8 + n * 12);
                    obl_data[rank].msgs += (pr as u64 - 1) * 4;
                }
            }
        }
        obl_data
    });
    let oblivious = per_rank_oblivious
        .as_ref()
        .map(|obl_data| combine(&[], obl_data));

    Analysis2D {
        aware,
        oblivious,
        per_rank,
        per_rank_data: rank_data,
        per_rank_oblivious,
    }
}

/// Collective-free analysis of one 3D split multiply (`layers` layers of
/// `q × q` grids) of the global operands.
#[derive(Clone, Debug)]
pub struct Analysis3D {
    /// Per-layer SA SUMMA + fiber reduce-scatter.
    pub aware: Prediction,
    /// Per-layer oblivious SUMMA + the same reduce-scatter.
    pub oblivious: Option<Prediction>,
    /// Per-world-rank fiber reduce-scatter cost.
    pub per_rank_reduce: Vec<PhaseCost>,
}

/// Per-world-rank fiber reduce-scatter cost of the 3D split, priced from
/// the serial per-layer partial products.
fn fiber_reduce_costs(a: &Csc<f64>, b: &Csc<f64>, q: usize, layers: usize) -> Vec<PhaseCost> {
    let p = q * q * layers;
    let layer_off = uniform_offsets(a.ncols(), layers);
    let triple_bytes = std::mem::size_of::<(Vidx, Vidx, f64)>() as u64; // 16
    let mut per_rank_reduce = vec![PhaseCost::default(); p];
    let c_rows = uniform_offsets(a.nrows(), q);
    let c_cols = uniform_offsets(b.ncols(), q);
    // fiber sub-split of each block row, precomputed once (not per entry)
    let subs: Vec<Vec<usize>> = (0..q)
        .map(|i| uniform_offsets(c_rows[i + 1] - c_rows[i], layers))
        .collect();
    for l in 0..layers {
        let a_l = a.extract_cols(layer_off[l], layer_off[l + 1]);
        let b_l = b.extract_rows(layer_off[l], layer_off[l + 1]);
        // the layer's partial C: block (i, j)'s rows are re-split among
        // layers; everything outside the own sub-range travels as triples
        let c_l = spgemm::<PlusTimes<f64>, _, _>(&a_l, &b_l);
        for (r, c, _v) in c_l.iter() {
            let i = block_of(&c_rows, r as usize);
            let j = block_of(&c_cols, c as usize);
            let dest = block_of(&subs[i], r as usize - c_rows[i]);
            if dest != l {
                per_rank_reduce[l * q * q + i * q + j].bytes += triple_bytes;
            }
        }
    }
    // alltoallv sends to every other layer, empty or not
    if layers > 1 {
        for rc in per_rank_reduce.iter_mut() {
            rc.msgs += layers as u64 - 1;
        }
    }
    per_rank_reduce
}

/// Predict the 3D split algorithm: `A` column-split and `B` row-split
/// across `layers`, a 2D multiply per layer, partials reduce-scattered
/// along the fiber as `(row, col, value)` triples.
pub fn analyze_3d(
    a: &Csc<f64>,
    b: &Csc<f64>,
    q: usize,
    layers: usize,
    mode: FetchMode,
) -> Analysis3D {
    assert_eq!(a.ncols(), b.nrows(), "A and B must be conformal");
    let p = q * q * layers;
    let per_rank_reduce = fiber_reduce_costs(a, b, q, layers);
    let layer_off = uniform_offsets(a.ncols(), layers);
    let mut rank_meta = vec![PhaseCost::default(); p];
    let mut rank_data_aware = per_rank_reduce.clone();
    let mut rank_data_obl = Some(per_rank_reduce.clone());
    for l in 0..layers {
        let (lo, hi) = (layer_off[l], layer_off[l + 1]);
        let a_l = a.extract_cols(lo, hi);
        let b_l = b.extract_rows(lo, hi);
        let a2 = analyze_2d(&a_l, &b_l, q, q, mode);
        // splice the layer's 2D costs into the world-rank arrays
        let world = l * q * q..(l + 1) * q * q;
        for (wr, rc) in world.clone().zip(&a2.per_rank) {
            rank_meta[wr] = PhaseCost {
                bytes: rc.meta_bytes,
                msgs: rc.meta_msgs,
            };
        }
        for (d, c) in rank_data_aware[world.clone()]
            .iter_mut()
            .zip(&a2.per_rank_data)
        {
            *d += *c;
        }
        rank_data_obl = match (rank_data_obl, &a2.per_rank_oblivious) {
            (Some(mut obl), Some(layer)) => {
                for (d, c) in obl[world].iter_mut().zip(layer) {
                    *d += *c;
                }
                Some(obl)
            }
            _ => None,
        };
    }
    Analysis3D {
        aware: combine(&rank_meta, &rank_data_aware),
        oblivious: rank_data_obl.map(|obl| combine(&[], &obl)),
        per_rank_reduce,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist1d::DistMat1D;
    use sa_mpisim::Universe;
    use sa_sparse::gen::erdos_renyi;

    #[test]
    fn offline_1d_matches_collective_analysis() {
        let a = erdos_renyi(90, 90, 4.0, 2);
        for mode in [
            FetchMode::FullMatrix,
            FetchMode::Block(8),
            FetchMode::ContiguousRuns,
            FetchMode::ColumnExact,
        ] {
            // the 1 × P grid is Algorithm 1's layout
            let offline = analyze_2d(&a, &a, 1, 3, mode).aware;
            let u = Universe::new(3);
            let collective = u.run(|comm| {
                let da = DistMat1D::from_global(comm, &a, &uniform_offsets(90, 3));
                crate::spgemm1d::analyze_1d(comm, &da, &da.clone(), mode)
            });
            let total: u64 = collective.iter().map(|x| x.planned_fetch_bytes).sum();
            let msgs: u64 = collective.iter().map(|x| x.planned_intervals * 2).sum();
            assert_eq!(offline.data.bytes, total, "{mode:?}");
            assert_eq!(offline.data.msgs, msgs, "{mode:?}");
        }
    }
}
