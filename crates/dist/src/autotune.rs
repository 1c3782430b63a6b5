//! Cost-model-driven algorithm selection — the §V "which algorithm when"
//! question answered before any rank is spawned.
//!
//! The paper's criterion (`CV/memA`, Fig. 15) decides between the
//! sparsity-aware 1D algorithm and the 2D/3D baselines from communication
//! volume alone. This module generalizes that into an [`AutoTuner`]:
//! collective-free analyses replay each algorithm's exact symbolic
//! machinery on the (replicated) global operands —
//!
//! * [`analyze_2d`] replays the sparsity-aware SUMMA's A-window plans and
//!   B request/ship filtering per grid rank, alongside the oblivious
//!   broadcast volume; on a `1 × P` grid that is Algorithm 1's per-rank
//!   `plan_fetch` schedule exactly (the serial counterpart of the
//!   collective [`analyze_1d`](crate::spgemm1d::analyze_1d)),
//! * [`analyze_3d`] recurses per layer and prices the fiber
//!   reduce-scatter from the per-layer partial products —
//!
//! and produce [`Prediction`]s whose data-phase bytes/messages equal what
//! the distributed execution meters, byte for byte (asserted in
//! `tests/sparsity_aware_2d3d.rs`). [`AutoTuner::pick`] then applies the
//! Hockney α–β [`CostModel`] plus a flop-rate term to the per-rank maxima
//! and returns the cheapest `(algorithm, fetch mode, grid shape)`;
//! [`spgemm_auto`] runs the winner.

use crate::dist1d::{uniform_offsets, DistMat1D};
use crate::fetch::{plan_fetch, RankMeta};
use crate::mat3d::{spgemm_split_3d, spgemm_split_3d_sa, DistMat3D};
use crate::shape::ShapeError;
use crate::spgemm1d::{spgemm_1d, FetchMode, Plan1D};
use crate::summa2d::{spgemm_summa_2d, DistMat2D};
use crate::summa2d_sa::spgemm_summa_2d_sa;
use sa_mpisim::{Comm, CommStats, CostModel, Grid2D, Grid3D};
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm, SpgemmWorkspace};
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

/// One algorithm configuration the tuner can run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlgoChoice {
    /// Sparsity-aware 1D (Algorithm 1) under the given fetch coalescing.
    OneD { mode: FetchMode },
    /// Sparsity-aware 2D SUMMA on a `pr × pc` grid.
    TwoDSa {
        pr: usize,
        pc: usize,
        mode: FetchMode,
    },
    /// Sparsity-oblivious 2D SUMMA on a square `s × s` grid.
    TwoDOblivious { s: usize },
    /// Sparsity-aware 3D split: `layers` layers of `q × q` grids.
    ThreeDSa {
        q: usize,
        layers: usize,
        mode: FetchMode,
    },
    /// Sparsity-oblivious 3D split.
    ThreeDOblivious { q: usize, layers: usize },
}

fn encode_mode(m: FetchMode) -> (u64, u64) {
    match m {
        FetchMode::FullMatrix => (0, 0),
        FetchMode::Block(k) => (1, k as u64),
        FetchMode::ContiguousRuns => (2, 0),
        FetchMode::ColumnExact => (3, 0),
    }
}

fn decode_mode(tag: u64, k: u64) -> FetchMode {
    match tag {
        0 => FetchMode::FullMatrix,
        1 => FetchMode::Block(k as usize),
        2 => FetchMode::ContiguousRuns,
        3 => FetchMode::ColumnExact,
        _ => unreachable!("unknown fetch-mode tag {tag}"),
    }
}

impl AlgoChoice {
    /// Short stable label for bench tables.
    pub fn name(&self) -> String {
        match self {
            AlgoChoice::OneD { mode } => format!("1d/{mode:?}"),
            AlgoChoice::TwoDSa { pr, pc, mode } => format!("2d-sa/{pr}x{pc}/{mode:?}"),
            AlgoChoice::TwoDOblivious { s } => format!("2d-obl/{s}x{s}"),
            AlgoChoice::ThreeDSa { q, layers, mode } => format!("3d-sa/{q}x{q}x{layers}/{mode:?}"),
            AlgoChoice::ThreeDOblivious { q, layers } => format!("3d-obl/{q}x{q}x{layers}"),
        }
    }

    /// Fixed-width wire encoding, so one rank can run the (deterministic
    /// but expensive) analysis and broadcast its pick instead of every
    /// rank replicating it — see [`spgemm_auto`].
    pub fn encode(&self) -> [u64; 5] {
        match *self {
            AlgoChoice::OneD { mode } => {
                let (t, k) = encode_mode(mode);
                [0, 0, 0, t, k]
            }
            AlgoChoice::TwoDSa { pr, pc, mode } => {
                let (t, k) = encode_mode(mode);
                [1, pr as u64, pc as u64, t, k]
            }
            AlgoChoice::TwoDOblivious { s } => [2, s as u64, s as u64, 0, 0],
            AlgoChoice::ThreeDSa { q, layers, mode } => {
                let (t, k) = encode_mode(mode);
                [3, q as u64, layers as u64, t, k]
            }
            AlgoChoice::ThreeDOblivious { q, layers } => [4, q as u64, layers as u64, 0, 0],
        }
    }

    /// Inverse of [`AlgoChoice::encode`].
    pub fn decode(w: &[u64; 5]) -> AlgoChoice {
        match w[0] {
            0 => AlgoChoice::OneD {
                mode: decode_mode(w[3], w[4]),
            },
            1 => AlgoChoice::TwoDSa {
                pr: w[1] as usize,
                pc: w[2] as usize,
                mode: decode_mode(w[3], w[4]),
            },
            2 => AlgoChoice::TwoDOblivious { s: w[1] as usize },
            3 => AlgoChoice::ThreeDSa {
                q: w[1] as usize,
                layers: w[2] as usize,
                mode: decode_mode(w[3], w[4]),
            },
            4 => AlgoChoice::ThreeDOblivious {
                q: w[1] as usize,
                layers: w[2] as usize,
            },
            t => unreachable!("unknown algo tag {t}"),
        }
    }
}

/// Predicted cost of one [`AlgoChoice`] on one input.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    pub algo: AlgoChoice,
    /// Symbolic-exchange traffic summed over ranks (metadata allgathers,
    /// support lists).
    pub meta: PhaseCost,
    /// Numeric data movement summed over ranks (window fetches, B
    /// request/ship legs, broadcasts, reduce-scatter triples).
    pub data: PhaseCost,
    /// Largest per-rank injected volume (meta + data) — the critical-path
    /// input of the α–β model.
    pub max_rank_bytes: u64,
    pub max_rank_msgs: u64,
    /// Largest per-rank upper-bound flop count of the local multiplies.
    pub max_rank_flops: u64,
    pub total_flops: u64,
}

impl Prediction {
    /// Hockney α–β network time on the per-rank maxima plus a flop term —
    /// the quantity [`AutoTuner::pick`] minimizes.
    pub fn modeled_time_s(&self, model: &CostModel, flops_per_s: f64) -> f64 {
        model.time_s(self.max_rank_msgs, self.max_rank_bytes)
            + self.max_rank_flops as f64 / flops_per_s
    }
}

/// Combine per-rank phase costs into a [`Prediction`].
fn combine(
    algo: AlgoChoice,
    rank_meta: &[PhaseCost],
    rank_data: &[PhaseCost],
    rank_flops: &[u64],
) -> Prediction {
    let mut meta = PhaseCost::default();
    let mut data = PhaseCost::default();
    let (mut max_b, mut max_m, mut max_f) = (0u64, 0u64, 0u64);
    for r in 0..rank_meta.len() {
        meta += rank_meta[r];
        data += rank_data[r];
        max_b = max_b.max(rank_meta[r].bytes + rank_data[r].bytes);
        max_m = max_m.max(rank_meta[r].msgs + rank_data[r].msgs);
        max_f = max_f.max(rank_flops[r]);
    }
    Prediction {
        algo,
        meta,
        data,
        max_rank_bytes: max_b,
        max_rank_msgs: max_m,
        max_rank_flops: max_f,
        total_flops: rank_flops.iter().sum(),
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
    pub flops: u64,
}

/// Collective-free analysis of one 2D multiply on a uniform `pr × pc`
/// layout of the global operands.
#[derive(Clone, Debug)]
pub struct Analysis2D {
    /// The sparsity-aware variant — data phase exact against
    /// [`spgemm_summa_2d_sa`].
    pub aware: Prediction,
    /// The oblivious broadcast variant (requires the stage alignment
    /// `A` col blocks == `B` row blocks; `None` otherwise) — exact against
    /// [`spgemm_summa_2d`].
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
    // block metadata, A-side supports, and the flop model; on a 1 × P grid
    // the block row is A, whose own column counts serve
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

    // symbolic exchange: jc + u32-lens allgathers along each process row,
    // fixed-size support bitmaps down each process column
    let mut rank_meta = vec![PhaseCost::default(); p];
    for (i, metas_i) in a_metas.iter().enumerate() {
        let jc_lens: Vec<usize> = metas_i.iter().map(|m| m.jc.len()).collect();
        let jc_cost = allgatherv_injected(&jc_lens, 4);
        let len_cost = allgatherv_injected(&jc_lens, 4);
        for s in 0..pc {
            rank_meta[i * pc + s] += jc_cost[s] + len_cost[s];
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
    // row support (Algorithm 1's H, in one reused mask), the flops it costs
    // each block row (one B entry (k, c) costs nnz(A block-row i, col k)),
    // and the B-side filtering sizes ship[t][i] = (columns, entries) of
    // block (t, j) that survive requester row i's A support — entry-level,
    // like the owner's row filter
    let mut per_rank = vec![RankCost2D::default(); p];
    let mut rank_data = vec![PhaseCost::default(); p];
    let mut rank_flops = vec![0u64; p];
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
                for i in 0..pr {
                    let mut kept = 0u64;
                    for &k in blk {
                        let n = nnz(i, k as usize);
                        rank_flops[i * pc + j] += n;
                        kept += (n > 0) as u64;
                    }
                    if i != t && kept > 0 {
                        ship[t][i].0 += 1;
                        ship[t][i].1 += kept;
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
                data.msgs += 4;
            }
            rc.meta_bytes = rank_meta[rank].bytes;
            rc.meta_msgs = rank_meta[rank].msgs;
            rc.flops = rank_flops[rank];
            rank_data[rank] = data;
        }
    }
    let aware = combine(
        AlgoChoice::TwoDSa { pr, pc, mode },
        &rank_meta,
        &rank_data,
        &rank_flops,
    );

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
    let oblivious = per_rank_oblivious.as_ref().map(|obl_data| {
        combine(
            AlgoChoice::TwoDOblivious { s: pr },
            &vec![PhaseCost::default(); p],
            obl_data,
            &rank_flops,
        )
    });

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
    /// The per-layer 2D analyses (layer-major; world rank `l·q² + i·q + j`).
    pub per_layer: Vec<Analysis2D>,
    /// Per-world-rank fiber reduce-scatter cost.
    pub per_rank_reduce: Vec<PhaseCost>,
}

/// Per-world-rank fiber reduce-scatter cost of the 3D split, priced from
/// the serial per-layer partial products. This is the expensive half of
/// the 3D analysis and is independent of the fetch mode, so the tuner
/// computes it once per `(q, layers)` shape and reuses it across modes.
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
    analyze_3d_with_reduce(a, b, q, layers, mode, fiber_reduce_costs(a, b, q, layers))
}

/// [`analyze_3d`] with a pre-computed [`fiber_reduce_costs`] vector, so a
/// mode sweep prices the serial per-layer products once.
fn analyze_3d_with_reduce(
    a: &Csc<f64>,
    b: &Csc<f64>,
    q: usize,
    layers: usize,
    mode: FetchMode,
    per_rank_reduce: Vec<PhaseCost>,
) -> Analysis3D {
    assert_eq!(a.ncols(), b.nrows(), "A and B must be conformal");
    let p = q * q * layers;
    assert_eq!(per_rank_reduce.len(), p, "reduce costs vs grid shape");
    let layer_off = uniform_offsets(a.ncols(), layers);
    let mut per_layer = Vec::with_capacity(layers);
    let mut rank_meta = vec![PhaseCost::default(); p];
    let mut rank_data_aware = vec![PhaseCost::default(); p];
    let mut rank_data_obl = vec![PhaseCost::default(); p];
    let mut rank_flops = vec![0u64; p];
    let mut oblivious_ok = true;
    for l in 0..layers {
        let (lo, hi) = (layer_off[l], layer_off[l + 1]);
        let a_l = a.extract_cols(lo, hi);
        let b_l = b.extract_rows(lo, hi);
        let a2 = analyze_2d(&a_l, &b_l, q, q, mode);
        // splice the layer's 2D costs into the world-rank arrays
        for i in 0..q {
            for j in 0..q {
                let lr = i * q + j;
                let wr = l * q * q + lr;
                let rc = &a2.per_rank[lr];
                rank_meta[wr] = PhaseCost {
                    bytes: rc.meta_bytes,
                    msgs: rc.meta_msgs,
                };
                rank_data_aware[wr] = a2.per_rank_data[lr];
                rank_flops[wr] = rc.flops;
            }
        }
        match &a2.per_rank_oblivious {
            Some(obl) => {
                for (lr, cost) in obl.iter().enumerate() {
                    rank_data_obl[l * q * q + lr] = *cost;
                }
            }
            None => oblivious_ok = false,
        }
        per_layer.push(a2);
    }
    let mut aware_data = rank_data_aware.clone();
    for (d, r) in aware_data.iter_mut().zip(&per_rank_reduce) {
        *d += *r;
    }
    let aware = combine(
        AlgoChoice::ThreeDSa { q, layers, mode },
        &rank_meta,
        &aware_data,
        &rank_flops,
    );
    let oblivious = oblivious_ok.then(|| {
        let zero_meta = vec![PhaseCost::default(); p];
        let mut obl_data = rank_data_obl;
        for (d, r) in obl_data.iter_mut().zip(&per_rank_reduce) {
            *d += *r;
        }
        combine(
            AlgoChoice::ThreeDOblivious { q, layers },
            &zero_meta,
            &obl_data,
            &rank_flops,
        )
    });
    Analysis3D {
        aware,
        oblivious,
        per_layer,
        per_rank_reduce,
    }
}

/// The tuner: every runnable `(algorithm, fetch mode, grid shape)` for a
/// rank count, priced by the collective-free analyses.
pub struct AutoTuner {
    pub p: usize,
    /// Local compute rate for the flop term of the modeled time.
    pub flops_per_s: f64,
    pub candidates: Vec<Prediction>,
}

impl AutoTuner {
    /// Default flop rate: a conservative per-core SpGEMM throughput.
    pub const DEFAULT_FLOPS_PER_S: f64 = 2e9;

    /// Analyze every candidate configuration of a `p`-rank multiply of the
    /// global operands: 1D per fetch mode, every other 2D
    /// [`grid_shape`](crate::summa2d_sa::grid_shapes) (aware per mode, the
    /// oblivious broadcast variant where stages align), and every valid 3D
    /// layer count. Serial and collective-free — callable before any rank
    /// exists. The 1D candidates come first, so they win ties.
    pub fn analyze(a: &Csc<f64>, b: &Csc<f64>, p: usize, modes: &[FetchMode]) -> AutoTuner {
        assert!(!modes.is_empty(), "at least one fetch mode to consider");
        let mut candidates = Vec::new();
        let mut two_d = Vec::new();
        for (pr, pc) in crate::summa2d_sa::grid_shapes(p) {
            for (mi, &mode) in modes.iter().enumerate() {
                let a2 = analyze_2d(a, b, pr, pc, mode);
                if pr == 1 {
                    // the 1 × P grid is Algorithm 1 exactly: price it once
                    candidates.push(Prediction {
                        algo: AlgoChoice::OneD { mode },
                        ..a2.aware
                    });
                } else {
                    two_d.push(a2.aware);
                }
                if mi == 0 && pr == pc {
                    two_d.extend(a2.oblivious);
                }
            }
        }
        candidates.append(&mut two_d);
        for layers in sa_mpisim::valid_layer_counts(p) {
            if layers == 1 {
                continue; // covered by the 2D candidates
            }
            let q = ((p / layers) as f64).sqrt().round() as usize;
            // the reduce-scatter pricing runs full serial per-layer
            // products — mode-independent, so computed once per shape
            let reduce = fiber_reduce_costs(a, b, q, layers);
            for (mi, &mode) in modes.iter().enumerate() {
                let a3 = analyze_3d_with_reduce(a, b, q, layers, mode, reduce.clone());
                candidates.push(a3.aware);
                if mi == 0 {
                    candidates.extend(a3.oblivious);
                }
            }
        }
        AutoTuner {
            p,
            flops_per_s: AutoTuner::DEFAULT_FLOPS_PER_S,
            candidates,
        }
    }

    /// The cheapest candidate under the α–β model — the paper's §V
    /// selection criterion generalized to the full algorithm family.
    pub fn pick(&self, model: &CostModel) -> &Prediction {
        self.candidates
            .iter()
            .min_by(|x, y| {
                x.modeled_time_s(model, self.flops_per_s)
                    .total_cmp(&y.modeled_time_s(model, self.flops_per_s))
            })
            .expect("at least one candidate")
    }
}

/// What [`spgemm_auto`] decided and observed.
#[derive(Clone, Copy, Debug)]
pub struct AutoReport {
    /// The tuner's pick.
    pub choice: AlgoChoice,
    /// Its predicted modeled time.
    pub modeled_s: f64,
    /// This rank's exact communication delta of the executed multiply.
    pub comm: CommStats,
}

/// Autotuned distributed SpGEMM: analyze the global operands, pick the
/// cheapest algorithm under `model`, distribute accordingly, run it, and
/// gather `C` at world rank 0 (`None` elsewhere). Collective. The
/// analysis is deterministic but not free (the 3D pricing multiplies the
/// per-layer slices serially), so rank 0 runs it once and broadcasts the
/// 48-byte pick instead of every rank replicating the work.
pub fn spgemm_auto<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    b: &Csc<f64>,
    model: &CostModel,
) -> (Option<Csc<f64>>, AutoReport) {
    try_spgemm_auto(comm, a, b, model).unwrap_or_else(|e| panic!("{e}"))
}

/// [`spgemm_auto`] with typed shape validation: non-conformal operands
/// come back as `Err(`[`ShapeError`]`)` on every rank — the operands are
/// globally replicated, so the check runs before the analysis broadcast
/// and every rank agrees without communicating.
pub fn try_spgemm_auto<C: Comm>(
    comm: &C,
    a: &Csc<f64>,
    b: &Csc<f64>,
    model: &CostModel,
) -> Result<(Option<Csc<f64>>, AutoReport), ShapeError> {
    crate::shape::conformal((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    let payload = (comm.rank() == 0).then(|| {
        let tuner = AutoTuner::analyze(
            a,
            b,
            comm.size(),
            &[FetchMode::default(), FetchMode::ContiguousRuns],
        );
        let pick = tuner.pick(model);
        let mut wire = pick.algo.encode().to_vec();
        wire.push(pick.modeled_time_s(model, tuner.flops_per_s).to_bits());
        wire
    });
    let wire = comm.bcast_vec(0, payload);
    let words: [u64; 5] = wire[..5].try_into().expect("5-word choice");
    let algo = AlgoChoice::decode(&words);
    let modeled_s = f64::from_bits(wire[5]);
    let stats0 = comm.stats();
    let c = match algo {
        AlgoChoice::OneD { mode } => {
            let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()));
            let db = DistMat1D::from_global(comm, b, &uniform_offsets(b.ncols(), comm.size()));
            let plan = Plan1D {
                fetch_mode: mode,
                global_stats: false,
                ..Default::default()
            };
            let (c, _) = spgemm_1d(comm, &da, &db, &plan);
            c.gather(comm)
        }
        AlgoChoice::TwoDSa { pr, pc, mode } => {
            let grid = Grid2D::new(comm, pr, pc);
            let da = DistMat2D::from_global(&grid, a);
            let db = DistMat2D::from_global(&grid, b);
            let (c, _) = spgemm_summa_2d_sa(comm, &grid, &da, &db, mode);
            c.gather(comm, &grid)
        }
        AlgoChoice::TwoDOblivious { s } => {
            let grid = Grid2D::new(comm, s, s);
            let da = DistMat2D::from_global(&grid, a);
            let db = DistMat2D::from_global(&grid, b);
            let (c, _) = spgemm_summa_2d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
            c.gather(comm, &grid)
        }
        AlgoChoice::ThreeDSa { q, layers, mode } => {
            let grid = Grid3D::new(comm, q, layers);
            let da = DistMat3D::from_global_split_cols(&grid, a);
            let db = DistMat3D::from_global_split_rows(&grid, b);
            let ws = &SpgemmWorkspace::new();
            let (c, _) = spgemm_split_3d_sa::<_, PlusTimes<f64>>(comm, &grid, &da, &db, mode, ws);
            c.gather(comm)
        }
        AlgoChoice::ThreeDOblivious { q, layers } => {
            let grid = Grid3D::new(comm, q, layers);
            let da = DistMat3D::from_global_split_cols(&grid, a);
            let db = DistMat3D::from_global_split_rows(&grid, b);
            let (c, _) = spgemm_split_3d(comm, &grid, &da, &db, &SpgemmWorkspace::new());
            c.gather(comm)
        }
    };
    let report = AutoReport {
        choice: algo,
        modeled_s,
        comm: comm.stats() - stats0,
    };
    Ok((c, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::serial_spgemm;
    use sa_mpisim::Universe;
    use sa_sparse::gen::{banded, erdos_renyi};

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

    #[test]
    fn tuner_enumerates_and_picks_minimum() {
        let a = banded(128, 6, 0.9, true, 3);
        let tuner = AutoTuner::analyze(&a, &a, 4, &[FetchMode::Block(64)]);
        // 1D, 2D-SA, 2D-obl, 3D(c=4)-SA, 3D(c=4)-obl at least
        assert!(tuner.candidates.len() >= 5, "{}", tuner.candidates.len());
        let model = CostModel::default();
        let best = tuner.pick(&model);
        for c in &tuner.candidates {
            assert!(
                best.modeled_time_s(&model, tuner.flops_per_s)
                    <= c.modeled_time_s(&model, tuner.flops_per_s) + 1e-15
            );
        }
    }

    #[test]
    fn auto_runs_the_pick_and_matches_serial() {
        let a = erdos_renyi(64, 64, 3.0, 7);
        let expect = serial_spgemm(&a, &a);
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let (c, rep) = spgemm_auto(comm, &a, &a, &CostModel::default());
            (c, rep.choice)
        });
        let (c0, choice0) = &got[0];
        assert!(
            c0.as_ref().unwrap().max_abs_diff(&expect) < 1e-10,
            "{choice0:?}"
        );
        for (_, choice) in &got {
            assert_eq!(choice, choice0, "all ranks agree on the pick");
        }
    }
}
