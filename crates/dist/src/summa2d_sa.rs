//! Sparsity-aware 2D SUMMA — Algorithm 1's needed-set communication on the
//! process-grid layout the paper's Figs. 4/5 baselines use.
//!
//! Where [`spgemm_summa_2d`](crate::summa2d::spgemm_summa_2d) broadcasts
//! every `A_is`/`B_sj` block whole, this variant moves only the sub-blocks
//! the receiving rank's multiply touches:
//!
//! * **A side (one-sided, windowed) — the 1D core.** Along its process
//!   *row* a rank's block row of `A` is a 1D column-distributed matrix, so
//!   it is exposed, planned and laid out by the functions
//!   [`spgemm_1d`](crate::spgemm1d::spgemm_1d) runs: the `⃗D`/prefix
//!   metadata allgather and the
//!   [`PairedWindow`](sa_mpisim::PairedWindow) exposure over the row, the
//!   1D planner coalescing the needed columns per [`FetchMode`], one
//!   batched get landing straight in the one-shot `Ã`'s column-pointer
//!   layout. Only the needed set differs:
//!   the global inner indices the rank's block *column* of `B` touches,
//!   learnt from a compact nonzero-row exchange down its process column.
//! * **B side (request/ship).** A column of `B_sj` contributes to
//!   `C_ij` only if it intersects the column support of the receiver's
//!   block row of `A`. That test needs the owner's row ids, so the receiver
//!   sends its support as a compact id run-list up the process column and
//!   the owner ships back exactly the intersecting columns.
//!
//! Stages are fused: the fetched `Ã` (my block row of `A`, needed columns
//! only) multiplies the assembled `B̃` (my block column of `B`, filtered
//! rows) in a single flop-balanced kernel call, which moves byte-for-byte
//! the same data as a stage-by-stage schedule while letting one
//! [`SpgemmWorkspace`] serve the whole multiply. Because the stage cut no
//! longer has to align `A`'s column blocks with `B`'s row blocks, any
//! `pr × pc` grid is valid: on `1 × P` grids `B` never moves and the
//! algorithm degenerates to exactly Algorithm 1; on `P × 1` grids `A`
//! stays put and only filtered `B` columns travel.
//!
//! Every byte is metered: [`SaSummaReport`] splits the traffic into the
//! symbolic exchange, the A-window fetch, and the B request/ship legs, and
//! [`analyze_2d`](crate::analyze::analyze_2d) predicts each leg exactly
//! before any rank is spawned.

use crate::dist1d::DistMat1D;
use crate::fetch::{pack_support, plan_fetch, support_bit};
use crate::session::FetchCache;
use crate::shape::ShapeError;
use crate::spgemm1d::{expose, FetchMode};
use crate::summa2d::DistMat2D;
use sa_mpisim::{Comm, CommStats, Grid2D, PhaseTimes};
use sa_sparse::semiring::{PlusTimes, Semiring};
use sa_sparse::spgemm::{spgemm_with, ChunkBuf, Kernel, Schedule, SpgemmWorkspace};
use sa_sparse::types::{vidx, Vidx};
use sa_sparse::Dcsc;
use std::time::Instant;

/// One owner's filtered B sub-block as it crosses the wire:
/// `(jc ++ per-column lengths, rows, values)` — `jc` and the lengths have
/// one entry per shipped column, so the receiver splits the first vector
/// at its midpoint.
type BPart = (Vec<u32>, Vec<Vidx>, Vec<f64>);

/// Borrowed view of one B̃ merge source: `(jc, lens, rows, values)` plus
/// the owner's global row base.
type BSrc<'a> = (&'a [Vidx], &'a [u32], &'a [Vidx], &'a [f64], usize);

/// Tag of the B-side support request (receiver → owner, up the process
/// column). User tags must stay below 2^48.
const TAG_B_REQ: u64 = 0x2d5a01;
/// Tag of the B-side filtered sub-block shipment (owner → receiver); three
/// FIFO sends per pair (jc ++ lens, rows, vals).
const TAG_B_SHIP: u64 = 0x2d5a02;

/// What one rank observed during [`spgemm_summa_2d_sa`] — the oblivious
/// [`SummaReport`](crate::summa2d::SummaReport)'s sparsity-aware
/// counterpart, with the traffic split by leg so oblivious-vs-aware
/// comparisons (Figs. 4/5 style) fall out of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaSummaReport {
    /// Bytes this rank pulled through the A window (needed columns of its
    /// block row, plus any [`FetchMode`] over-fetch).
    pub a_fetched_bytes: u64,
    /// Bytes the sparsity strictly required on the A side.
    pub a_needed_bytes: u64,
    /// One-sided messages this rank issued (2 per fetch interval).
    pub a_rdma_msgs: u64,
    /// Bytes of support run-lists this rank sent requesting B columns.
    pub b_request_bytes: u64,
    /// Bytes of filtered B sub-blocks this rank received.
    pub b_shipped_bytes: u64,
    /// Bytes of filtered B sub-blocks this rank served to its peers.
    pub b_served_bytes: u64,
    /// Bytes this rank injected during the symbolic exchange (nonzero-column
    /// metadata along the row, nonzero-row lists down the column).
    pub meta_bytes: u64,
    /// Largest simultaneous footprint of (`Ã`, `B̃`, `C` block) — the
    /// aware working set comparable with the oblivious peak. `Ã` counts as
    /// laid out: its column-pointer array over every inner index plus its
    /// entries.
    pub peak_local_bytes: u64,
    /// Exact communication-counter delta of this call on this rank.
    pub comm: CommStats,
    /// Symbolic / fetch / compute / assemble wall-clock split; `fetch_s`
    /// covers both the A window gets and the B request/ship exchange.
    pub phases: PhaseTimes,
}

sa_mpisim::wire_struct!(SaSummaReport {
    a_fetched_bytes,
    a_needed_bytes,
    a_rdma_msgs,
    b_request_bytes,
    b_shipped_bytes,
    b_served_bytes,
    meta_bytes,
    peak_local_bytes,
    comm,
    phases
});

/// Sparsity-aware 2D SUMMA `C = A·B` over the arithmetic semiring.
/// Returns `C` blocked by (`A` rows, `B` cols) plus this rank's report.
/// Collective over `comm` (the communicator `grid` was built from).
/// [`try_spgemm_summa_2d_sa`] on a fresh workspace, panicking with its
/// [`ShapeError`].
pub fn spgemm_summa_2d_sa<C: Comm>(
    comm: &C,
    grid: &Grid2D<C>,
    a: &DistMat2D,
    b: &DistMat2D,
    mode: FetchMode,
) -> (DistMat2D, SaSummaReport) {
    try_spgemm_summa_2d_sa::<_, PlusTimes<f64>>(comm, grid, a, b, mode, &SpgemmWorkspace::new())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Typed validation of the 2D entry-point preconditions.
fn check_shapes<C: Comm>(grid: &Grid2D<C>, a: &DistMat2D, b: &DistMat2D) -> Result<(), ShapeError> {
    crate::shape::conformal((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    crate::shape::blocking("A", "row", a.row_offsets().len() - 1, grid.pr)?;
    crate::shape::blocking("A", "col", a.col_offsets().len() - 1, grid.pc)?;
    crate::shape::blocking("B", "row", b.row_offsets().len() - 1, grid.pr)?;
    crate::shape::blocking("B", "col", b.col_offsets().len() - 1, grid.pc)
}

/// Sparsity-aware 2D SUMMA over the semiring `S`: shapes checked once,
/// then symbolic, `Ã` through the 1D core, the B request/ship exchange,
/// `B̃`, one fused kernel call.
///
/// Non-conformal operands, or operand blocking that disagrees with the
/// grid, come back as `Err(`[`ShapeError`]`)` on every rank (the check runs
/// before any communication, on globally-replicated dimensions, so ranks
/// always agree). `Ã`'s arrays, the `B̃` assembly buffers and all kernel
/// scratch are borrowed from `ws`, so iterative drivers reach a
/// zero-allocation steady state on the compute path.
pub fn try_spgemm_summa_2d_sa<C: Comm, S: Semiring<T = f64>>(
    comm: &C,
    grid: &Grid2D<C>,
    a: &DistMat2D,
    b: &DistMat2D,
    mode: FetchMode,
    ws: &SpgemmWorkspace<f64>,
) -> Result<(DistMat2D, SaSummaReport), ShapeError> {
    check_shapes(grid, a, b)?;
    let stats0 = comm.stats();
    let t_call = Instant::now();

    // --- symbolic: metadata exchange, needed-set scan, fetch planning ---
    // my block row of A, seen along my process row, is a 1D
    // column-distributed matrix — Algorithm 1's fetched operand
    let row = &grid.row_comm;
    let block_h = a.row_offsets()[grid.myrow + 1] - a.row_offsets()[grid.myrow];
    let a_row = DistMat1D::from_local(
        block_h,
        a.ncols(),
        a.col_offsets().clone(),
        Dcsc::from_csc(a.local()),
    );
    let b_loc = Dcsc::from_csc(b.local());
    let (metas, win) = expose(row, a_row.local());
    // my B block's row support as a fixed-size bitmap, replicated down my
    // process column (⌈height/64⌉ words however dense the block is)
    let my_rows = pack_support(b_loc.row_hit_vector().into_iter(), b_loc.nrows());
    let supports = grid.col_comm.allgatherv(my_rows);
    // Algorithm 1's H vector on the grid: global inner indices my block
    // column of B touches, assembled from the per-owner supports
    let mut needed = vec![false; a.ncols()];
    for (t, sup) in supports.iter().enumerate() {
        let base = b.row_offsets()[t];
        let height = b.row_offsets()[t + 1] - base;
        for r in 0..height {
            if support_bit(sup, r) {
                needed[base + r] = true;
            }
        }
    }
    let fplan = plan_fetch(mode, &metas, a_row.offsets(), &needed, grid.mycol);
    let meta_delta = comm.stats() - stats0;
    let symbolic_s = t_call.elapsed().as_secs_f64();

    // --- Ã: my block row of A, needed columns only — fetched and laid
    // out exactly as a sessionless 1D multiply does it ---
    let t_asm = Instant::now();
    let (atilde, lens, fetch_s) = FetchCache::one_shot(row, &a_row, &metas, &win, &fplan, ws);
    let mut assemble_s = (t_asm.elapsed().as_secs_f64() - fetch_s).max(0.0);

    // --- B exchange: request exactly the columns that intersect my A
    // support; owners ship the filtered sub-blocks ---
    let t_b = Instant::now();
    // column support of my whole block row of A, as a global inner bitmap
    let mut a_support = vec![false; a.ncols()];
    for (s, meta) in metas.iter().enumerate() {
        let base = a.col_offsets()[s];
        for &k in &meta.jc {
            a_support[base + k as usize] = true;
        }
    }
    let col = &grid.col_comm; // my rank within it is `grid.myrow`
    let me_r = grid.myrow;
    let pr = grid.pr;
    let mut b_request_bytes = 0u64;
    for t in 0..pr {
        if t == me_r {
            continue;
        }
        let (lo, hi) = (b.row_offsets()[t], b.row_offsets()[t + 1]);
        let req = pack_support((lo..hi).map(|r| a_support[r]), hi - lo);
        b_request_bytes += req.len() as u64 * 8;
        col.send_vec(t, TAG_B_REQ, req);
    }
    // serve: ship only the entries whose row is in the requester's support
    // (the owner-side half of the symbolic test — receivers only know my
    // column ids, not my row ids); a column drops out entirely when none of
    // its rows survive
    let mut b_served_bytes = 0u64;
    for i in 0..pr {
        if i == me_r {
            continue;
        }
        let req = col.recv_vec::<u64>(i, TAG_B_REQ);
        let (mut jc, mut lens) = (Vec::new(), Vec::new());
        let (mut rows, mut vals) = (Vec::new(), Vec::new());
        for (c, rs, vs) in b_loc.iter_cols() {
            let before = rows.len();
            for (&r, &v) in rs.iter().zip(vs) {
                if support_bit(&req, r as usize) {
                    rows.push(r);
                    vals.push(v);
                }
            }
            if rows.len() > before {
                jc.push(c);
                lens.push((rows.len() - before) as u32);
            }
        }
        b_served_bytes += (jc.len() + lens.len() + rows.len()) as u64 * 4 + vals.len() as u64 * 8;
        jc.extend(lens);
        col.send_vec(i, TAG_B_SHIP, jc);
        col.send_vec(i, TAG_B_SHIP, rows);
        col.send_vec(i, TAG_B_SHIP, vals);
    }
    // collect the filtered sub-blocks, keyed by owner row
    let mut b_parts: Vec<Option<BPart>> = (0..pr).map(|_| None).collect();
    let mut b_shipped_bytes = 0u64;
    for (t, part) in b_parts.iter_mut().enumerate() {
        if t == me_r {
            continue;
        }
        let head = col.recv_vec::<u32>(t, TAG_B_SHIP);
        let rows = col.recv_vec::<Vidx>(t, TAG_B_SHIP);
        let vals = col.recv_vec::<f64>(t, TAG_B_SHIP);
        b_shipped_bytes += (head.len() + rows.len()) as u64 * 4 + vals.len() as u64 * 8;
        *part = Some((head, rows, vals));
    }
    let b_exchange_s = t_b.elapsed().as_secs_f64();

    // --- assemble B̃: my block column of B, filtered rows, owners stacked
    // in row order so each column's global rows come out ascending ---
    let t_asm = Instant::now();
    let mut bbuf = ws.take_chunk();
    let mut bcp = ws.take_idx();
    bcp.push(0);
    let local_lens: Vec<u32> = (0..b_loc.nzc())
        .map(|q| (b_loc.cp()[q + 1] - b_loc.cp()[q]) as u32)
        .collect();
    let mut srcs: Vec<BSrc<'_>> = Vec::with_capacity(pr);
    for (t, part) in b_parts.iter().enumerate() {
        let base = b.row_offsets()[t];
        if t == me_r {
            srcs.push((b_loc.jc(), &local_lens, b_loc.ir(), b_loc.num(), base));
        } else {
            let (head, rows, vals) = part.as_ref().expect("shipped part");
            let (jc, lens) = head.split_at(head.len() / 2);
            srcs.push((jc, lens, rows, vals, base));
        }
    }
    let mut cur = vec![(0usize, 0usize); pr]; // (column pos, entry offset)
    loop {
        let mut next: Option<Vidx> = None;
        for (t, (jc, ..)) in srcs.iter().enumerate() {
            if cur[t].0 < jc.len() {
                let c = jc[cur[t].0];
                next = Some(match next {
                    Some(n) => n.min(c),
                    None => c,
                });
            }
        }
        let Some(cnext) = next else { break };
        for (t, (jc, lens, rows, vals, base)) in srcs.iter().enumerate() {
            let (q, e) = cur[t];
            if q < jc.len() && jc[q] == cnext {
                let len = lens[q] as usize;
                for &r in &rows[e..e + len] {
                    bbuf.rows.push(vidx(*base + r as usize));
                }
                bbuf.vals.extend_from_slice(&vals[e..e + len]);
                cur[t] = (q + 1, e + len);
            }
        }
        bbuf.lens.push(cnext);
        bcp.push(bbuf.rows.len());
    }
    let block_w = b.col_offsets()[grid.mycol + 1] - b.col_offsets()[grid.mycol];
    let btilde = Dcsc::from_parts(b.nrows(), block_w, bbuf.lens, bcp, bbuf.rows, bbuf.vals);
    assemble_s += t_asm.elapsed().as_secs_f64();

    // --- fused multiply: C_ij = Ã · B̃ over the full inner dimension ---
    let t_comp = Instant::now();
    let c_local = comm.install(|| {
        spgemm_with::<S, _, _>(&atilde, &btilde, Kernel::Hybrid, Schedule::FlopBalanced, ws)
    });
    let compute_s = t_comp.elapsed().as_secs_f64();
    let peak = atilde.mem_bytes() + (btilde.mem_bytes() + c_local.mem_bytes()) as u64;
    // hand the buffers back for the next multiply
    atilde.recycle(lens, ws);
    let (lens, cp, rows, vals) = btilde.into_parts();
    ws.put_chunk(ChunkBuf { lens, rows, vals });
    ws.put_idx(cp);

    let comm_delta = comm.stats() - stats0;
    let fetched = fplan.fetch_bytes();
    debug_assert_eq!(
        comm_delta.rdma_get_bytes, fetched,
        "metered A fetch == planned"
    );
    let c = DistMat2D::from_parts(
        a.nrows(),
        b.ncols(),
        a.row_offsets().clone(),
        b.col_offsets().clone(),
        c_local,
    );
    let report = SaSummaReport {
        a_fetched_bytes: fetched,
        a_needed_bytes: fplan.needed_bytes(),
        a_rdma_msgs: fplan.rdma_msgs(),
        b_request_bytes,
        b_shipped_bytes,
        b_served_bytes,
        meta_bytes: meta_delta.injected_bytes(),
        peak_local_bytes: peak,
        comm: comm_delta,
        phases: PhaseTimes {
            symbolic_s,
            fetch_s: fetch_s + b_exchange_s,
            compute_s,
            assemble_s,
        },
    };
    Ok((c, report))
}
