//! Local (shared-memory) SpGEMM kernels.
//!
//! The paper's local computation (§II) is "a hybrid version of Heap-based
//! SpGEMM [Azad et al. 2016] and Hash-based SpGEMM [Nagasaka et al. 2019]".
//! We implement both, plus a dense accumulator (SPA) ordered by an occupancy
//! bitmap, and a per-column [`Kernel::Hybrid`] dispatcher whose cut between
//! them is taken from measurement on this repository's operands
//! (`choose_kernel`).
//!
//! All kernels are column-by-column: `C(:,j) = ⊕_k A(:,k) ⊗ B(k,j)`, are
//! generic over [`Semiring`]s and over the column source of `A` (CSC or
//! DCSC — the distributed 1D algorithm feeds the fetched `Ã` as DCSC), and
//! parallelize over output columns with Rayon (the per-rank "OpenMP" pool).

mod hash;
mod heap;
pub mod schedule;
mod spa;
pub mod symbolic;
pub mod workspace;

use crate::csc::Csc;
use crate::dcsc::Dcsc;
use crate::semiring::Semiring;
use crate::types::Vidx;
use rayon::prelude::*;
use workspace::Scratch;

pub use schedule::{schedule_items, Schedule};
pub use symbolic::{upper_bound_flops, upper_bound_flops_per_col};
pub use workspace::{ChunkBuf, SpgemmWorkspace, WorkspaceCounters};

/// Column access abstraction so kernels run over CSC and DCSC alike.
pub trait ColSource<T>: Sync {
    fn nrows(&self) -> usize;
    fn ncols(&self) -> usize;
    /// (row ids, values) of column `j`; empty slices if the column is empty.
    fn col(&self, j: usize) -> (&[Vidx], &[T]);
    /// nnz of column `j` (cheap; used for flop estimation).
    fn col_nnz(&self, j: usize) -> usize {
        self.col(j).0.len()
    }
    /// Ascending ids of the stored columns when `col` has to search for
    /// them (DCSC); `None` when `col` is O(1) already. [`spgemm_with`] never
    /// searches a source that has one: as `B` it is walked by position, as
    /// `A` it is read through a column-pointer array over
    /// [`ColSource::entries`].
    fn jc(&self) -> Option<&[Vidx]> {
        None
    }
    /// Column at position `q` of [`ColSource::jc`] — how `B` is walked, and
    /// where `A`'s pointer array takes each stored column's length from;
    /// without a `jc`, position and id coincide.
    fn col_by_pos(&self, q: usize) -> (&[Vidx], &[T]) {
        self.col(q)
    }
    /// The columns of [`ColSource::col_by_pos`] back to back, position 0
    /// first: the arrays `A`'s pointer array indexes. Read only from a
    /// source with a `jc`.
    fn entries(&self) -> (&[Vidx], &[T]) {
        (&[], &[])
    }
}

impl<T: Copy + Send + Sync> ColSource<T> for Csc<T> {
    fn nrows(&self) -> usize {
        Csc::nrows(self)
    }
    fn ncols(&self) -> usize {
        Csc::ncols(self)
    }
    fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        Csc::col(self, j)
    }
    fn col_nnz(&self, j: usize) -> usize {
        Csc::col_nnz(self, j)
    }
}

impl<T: Copy + Send + Sync> ColSource<T> for Dcsc<T> {
    fn nrows(&self) -> usize {
        Dcsc::nrows(self)
    }
    fn ncols(&self) -> usize {
        Dcsc::ncols(self)
    }
    fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        Dcsc::col(self, j)
    }
    fn jc(&self) -> Option<&[Vidx]> {
        Some(Dcsc::jc(self))
    }
    fn col_by_pos(&self, q: usize) -> (&[Vidx], &[T]) {
        Dcsc::col_by_pos(self, q)
    }
    fn entries(&self) -> (&[Vidx], &[T]) {
        (self.ir(), self.num())
    }
}

/// `A` as the accumulators read it. A source with a `jc` is read as a CSC:
/// `csc` is the multiply's column-pointer array over all `ncols + 1` column
/// ids (an id the source does not store is an empty range) with the entry
/// arrays it indexes, so every B entry costs two adjacent loads where
/// `Dcsc::col` costs a binary search.
struct Mapped<'a, T, A: ?Sized> {
    a: &'a A,
    csc: Option<(&'a [usize], &'a [Vidx], &'a [T])>,
}

impl<T: Sync, A: ColSource<T> + ?Sized> ColSource<T> for Mapped<'_, T, A> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn ncols(&self) -> usize {
        self.a.ncols()
    }
    #[inline]
    fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        match self.csc {
            None => self.a.col(j),
            Some((ptr, rows, vals)) => {
                let (s, e) = (ptr[j], ptr[j + 1]);
                (&rows[s..e], &vals[s..e])
            }
        }
    }
    #[inline]
    fn col_nnz(&self, j: usize) -> usize {
        match self.csc {
            None => self.a.col_nnz(j),
            Some((ptr, ..)) => ptr[j + 1] - ptr[j],
        }
    }
}

/// Which accumulator a column (or a whole multiply) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Kernel {
    /// k-way merge with a binary heap; no state proportional to `nrows` or
    /// to the flops, `O(log nnz(B(:,j)))` per flop.
    Heap,
    /// Linear-probing hash accumulator — state sized by the column's flops,
    /// so it stays in cache whatever `nrows` is.
    Hash,
    /// Dense accumulator (sparse accumulator "SPA") — the least work per
    /// flop while its `nrows`-sized arrays are cache-resident.
    Spa,
    /// Per-column choice between the dense and the hash accumulator (the
    /// paper's hybrid; see `choose_kernel`).
    #[default]
    Hybrid,
}

/// Largest dense-accumulator footprint per thread — `nrows` values and the
/// occupancy bitmap over them, one bit per row plus a 64th of that for each
/// summary level — below which the hybrid always accumulates densely. The
/// cut was measured in rows (≈ 2.8 M of `f64`, docs/PERFORMANCE.md "ISSUE
/// 16", then 32 MiB of value + 4-byte stamp); 22 MiB of value + bitmap is the
/// same row count.
const SPA_RESIDENT_BYTES: usize = 22 << 20;

/// The dense accumulator drops the bitmap — accumulate unconditionally,
/// scan, keep the non-zeros — once a column's flop bound reaches
/// `SPA_DENSE_FLOPS ×` the rows of its window, first row to last row of the
/// A columns it names (`spa::dense_window`). Sized against all `nrows` on ER
/// squares of rising density (3 000 and 12 000 rows, one thread,
/// docs/PERFORMANCE.md "ISSUE 18"): forced on every column it took 0.5–0.8×
/// the time wherever the output fills a tenth of the rows or more, but
/// 1.3–2× on columns of few flops and sparse output (a late MCL iterate at
/// `ub` = 0.05 × `nrows`); from one flop per row up it was never behind, and
/// forcing MCL's dense columns through the bitmap instead measured 0.4–0.8×
/// (docs/PERFORMANCE.md "ISSUE 22"). Applied to the window instead, the same
/// cut also takes every column of a banded operand in natural order (4 000
/// flops over a few hundred rows: 2.2× the bitmap's rate, docs/PERFORMANCE.md
/// "ISSUE 24"); a stencil's columns and every column of a scrambled operand
/// stay below it.
const SPA_DENSE_FLOPS: usize = 1;

/// The hybrid's accumulator for one output column with upper-bound flop
/// count `ub`. The cut is read off `examples/kernel_rates.rs` and the
/// `local_kernels` bench (docs/PERFORMANCE.md "ISSUE 16"), not off a rule
/// of thumb. The dense accumulator does strictly less per flop than the hash
/// (no probing, no table to clear, no sort: its bitmap yields the rows in
/// order) and is 1.2–2× faster on every operand whose `nrows`-sized state
/// stays cache-resident, whatever the column's size; the hash, whose state
/// is sized by the column, only overtakes it beyond that — on millions of
/// rows with a handful of flops per column — unless the column touches a
/// sizable share of the rows anyway. The heap wins nowhere and is reachable
/// only as [`Kernel::Heap`].
#[inline]
fn choose_kernel<T>(ub: usize, nrows: usize) -> Kernel {
    let bitmap = nrows / 8 + nrows / 512 + nrows / 32_768;
    let footprint = nrows * std::mem::size_of::<T>() + bitmap;
    if footprint <= SPA_RESIDENT_BYTES || ub * 4 >= nrows {
        Kernel::Spa
    } else {
        Kernel::Hash
    }
}

/// Append one output column, rows ascending, to `rows`/`vals` (its length is
/// the caller's to record). `ub` is the column's upper-bound flop count,
/// computed once per multiply by the caller's symbolic pass and shared by
/// the hybrid dispatch, the hash-table sizing, the dense accumulator's
/// bitmap-or-not choice, and the output pre-sizing.
#[allow(clippy::too_many_arguments)]
fn compute_column<S: Semiring, A: ColSource<S::T> + ?Sized>(
    a: &A,
    brows: &[Vidx],
    bvals: &[S::T],
    kernel: Kernel,
    ub: usize,
    scratch: &mut Scratch<S::T>,
    rows: &mut Vec<Vidx>,
    vals: &mut Vec<S::T>,
) {
    if brows.is_empty() {
        return;
    }
    // Single B entry: a scaled copy of one A column, already sorted.
    if let ([k], [b]) = (brows, bvals) {
        let (ar, av) = a.col(*k as usize);
        for (&r, &x) in ar.iter().zip(av) {
            let v = S::mul(x, *b);
            if !S::is_zero(&v) {
                rows.push(r);
                vals.push(v);
            }
        }
        return;
    }
    let kernel = match kernel {
        Kernel::Hybrid => choose_kernel::<S::T>(ub, a.nrows()),
        fixed => fixed,
    };
    match kernel {
        Kernel::Heap => heap::heap_column::<S, A>(
            a,
            brows,
            bvals,
            &mut scratch.heap,
            &mut scratch.heap_pos,
            rows,
            vals,
        ),
        Kernel::Hash => {
            hash::hash_column::<S, A>(a, brows, bvals, ub, &mut scratch.hash, rows, vals)
        }
        Kernel::Spa => {
            // The O(nrows) dense arrays are paid only when a column
            // actually dispatches here.
            let nrows = a.nrows();
            scratch.ensure_spa(nrows, S::zero());
            spa::spa_column::<S, A>(
                a,
                brows,
                bvals,
                ub,
                &mut scratch.spa_vals[..nrows],
                &mut scratch.spa_rows,
                rows,
                vals,
            )
        }
        Kernel::Hybrid => unreachable!("resolved above"),
    }
}

/// General SpGEMM `C = A·B` over a semiring with an explicit kernel choice.
///
/// Runs [`spgemm_with`] under the default flop-balanced schedule with an
/// ephemeral workspace. Parallelizes over B's columns on the current Rayon
/// pool (so calling it inside `pool.install(..)` binds it to a per-rank
/// pool, mirroring MPI+OpenMP). Iterative callers should hold a
/// [`SpgemmWorkspace`] and call [`spgemm_with`] so scratch survives
/// between multiplies.
pub fn spgemm_kernel<S, A, B>(a: &A, b: &B, kernel: Kernel) -> Csc<S::T>
where
    S: Semiring,
    A: ColSource<S::T> + ?Sized,
    B: ColSource<S::T> + ?Sized,
{
    spgemm_with::<S, A, B>(a, b, kernel, Schedule::default(), &SpgemmWorkspace::new())
}

/// General SpGEMM `C = A·B` with explicit kernel, [`Schedule`], and
/// [`SpgemmWorkspace`].
///
/// An operand with a compressed column index (DCSC — what every distributed
/// caller passes) is never searched: A is read as a CSC, through a
/// column-pointer array over all of its column ids written once per multiply
/// (a column's length is a subtraction, its entries two adjacent loads and a
/// slice), B's columns are walked by position. One symbolic pass then
/// computes every stored B column's upper-bound flop count into a workspace
/// buffer; that single array drives
/// (1) the work-item boundaries of the schedule, (2) the hybrid per-column
/// kernel dispatch, (3) the hash accumulator's table sizing, and (4) the
/// per-item output pre-sizing (`Σ min(ub, nrows)`), so the accumulators
/// append each column straight to its item's tail and never reallocate it.
/// A schedule of one item (any single-thread pool) hands that item's
/// buffers over as the product; otherwise the items are stitched. Per-thread
/// scratch, per-item output buffers, the pointer array and the symbolic
/// arrays are all borrowed from `ws`: repeated multiplies through one
/// workspace allocate nothing but the product (see
/// [`SpgemmWorkspace::counters`]).
///
/// Neither the schedule nor the operands' formats change the result: output
/// is bit-identical across schedules, thread counts, accumulators and
/// column sources.
pub fn spgemm_with<S, A, B>(
    a: &A,
    b: &B,
    kernel: Kernel,
    schedule: Schedule,
    ws: &SpgemmWorkspace<S::T>,
) -> Csc<S::T>
where
    S: Semiring,
    A: ColSource<S::T> + ?Sized,
    B: ColSource<S::T> + ?Sized,
{
    spgemm_with_epilogue::<S, A, B, NoEpilogue<S::T>>(a, b, kernel, schedule, ws, None)
}

/// The epilogue type of a multiply that passes none.
pub type NoEpilogue<T> = fn(&[Vidx], &mut [T], &mut Vec<Vidx>, &mut Vec<T>);

/// [`spgemm_with`] with a per-column epilogue fused into the kernel: the one
/// driver behind every local multiply (`None` is `spgemm_with` itself).
///
/// `epilogue(rows, vals, rows_out, vals_out)` is called once per non-empty
/// product column, on the thread that computed it, and appends what it keeps
/// of the column to `rows_out`/`vals_out` — rows ascending, one value per
/// row. `rows` arrives ascending whichever accumulator produced it; `vals`
/// is scratch the epilogue may overwrite. Only what it appends reaches the
/// product, so a filtering epilogue (MCL's inflate-and-prune) never
/// materialises the unfiltered `A·B`: a finished column is staged in the
/// thread's scratch and the output is not pre-sized from the flop bound. The
/// result equals running the epilogue over each column of the plain product,
/// bit for bit, under every kernel, schedule and thread count.
pub fn spgemm_with_epilogue<S, A, B, E>(
    a: &A,
    b: &B,
    kernel: Kernel,
    schedule: Schedule,
    ws: &SpgemmWorkspace<S::T>,
    epilogue: Option<&E>,
) -> Csc<S::T>
where
    S: Semiring,
    A: ColSource<S::T> + ?Sized,
    B: ColSource<S::T> + ?Sized,
    E: Fn(&[Vidx], &mut [S::T], &mut Vec<Vidx>, &mut Vec<S::T>) + Sync,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "dimension mismatch: A is ..x{}, B is {}x..",
        a.ncols(),
        b.nrows()
    );
    let ncols = b.ncols();
    let nrows = a.nrows();
    let threads = rayon::current_num_threads();
    // --- column resolution: B by position, A through its column-pointer
    // array (written whole, so a pooled buffer's earlier contents cannot
    // leak) ---
    let bjc = b.jc();
    let nb = bjc.map_or(ncols, <[Vidx]>::len);
    if nb == 0 {
        return Csc::zeros(nrows, ncols);
    }
    let aptr = a.jc().map(|jc| {
        let mut ptr = ws.take_idx();
        ptr.reserve(a.ncols() + 1);
        let mut end = 0;
        for (q, &j) in jc.iter().enumerate() {
            // ids up to and including `j` start where `j`'s entries do
            ptr.resize(j as usize + 1, end);
            end += a.col_by_pos(q).0.len();
        }
        ptr.resize(a.ncols() + 1, end);
        assert_eq!(end, a.entries().0.len(), "entries() is every stored column");
        ptr
    });
    let (arows, avals) = a.entries();
    let a = &Mapped {
        a,
        csc: aptr.as_deref().map(|ptr| (ptr, arows, avals)),
    };
    // --- symbolic pass: one upper-bound flop count per stored B column,
    // parallelized over fixed segments when a pool is installed (a serial
    // prefix here would cap the multi-thread speedup the schedule buys).
    // Segment buffers come from the idx pool, so steady state stays
    // alloc-free.
    const SYMBOLIC_SEG: usize = 1024;
    let ub_of = |q: usize| -> usize {
        let (brows, _) = b.col_by_pos(q);
        brows.iter().map(|&k| a.col_nnz(k as usize)).sum()
    };
    let mut ubs = ws.take_idx();
    ubs.reserve(nb);
    if threads > 1 && nb > 2 * SYMBOLIC_SEG {
        let nseg = nb.div_ceil(SYMBOLIC_SEG);
        let mut segs: Vec<Vec<usize>> = (0..nseg)
            .into_par_iter()
            .map(|si| {
                let mut seg = ws.take_idx();
                seg.extend((si * SYMBOLIC_SEG..((si + 1) * SYMBOLIC_SEG).min(nb)).map(ub_of));
                seg
            })
            .collect();
        for seg in segs.drain(..) {
            ubs.extend_from_slice(&seg);
            ws.put_idx(seg);
        }
    } else {
        ubs.extend((0..nb).map(ub_of));
    }
    // --- work items from the same array ---
    let mut bounds = ws.take_idx();
    schedule::schedule_bounds_into(&mut bounds, &ubs, schedule, threads);
    let nitems = bounds.len() - 1;
    // One item: positions `bounds[ci]..bounds[ci + 1]` of B into a pooled
    // output buffer (column lengths + concatenated rows/values).
    let run_item = |scratch: &mut Scratch<S::T>, ci: usize| {
        let (q0, q1) = (bounds[ci], bounds[ci + 1]);
        let mut out = ws.take_chunk();
        out.lens.reserve(q1 - q0);
        if epilogue.is_none() {
            let est: usize = ubs[q0..q1].iter().map(|&u| u.min(nrows)).sum();
            out.rows.reserve(est);
            out.vals.reserve(est);
        }
        for (q, &ub) in (q0..q1).zip(&ubs[q0..q1]) {
            let (brows, bvals) = b.col_by_pos(q);
            let start = out.rows.len();
            match epilogue {
                None => compute_column::<S, _>(
                    a,
                    brows,
                    bvals,
                    kernel,
                    ub,
                    scratch,
                    &mut out.rows,
                    &mut out.vals,
                ),
                Some(epilogue) => {
                    let mut rows = std::mem::take(&mut scratch.col_rows);
                    let mut vals = std::mem::take(&mut scratch.col_vals);
                    rows.clear();
                    vals.clear();
                    compute_column::<S, _>(
                        a, brows, bvals, kernel, ub, scratch, &mut rows, &mut vals,
                    );
                    if !rows.is_empty() {
                        epilogue(&rows, &mut vals, &mut out.rows, &mut out.vals);
                    }
                    (scratch.col_rows, scratch.col_vals) = (rows, vals);
                }
            }
            out.lens.push((out.rows.len() - start) as u32);
        }
        out
    };
    let mut colptr = Vec::with_capacity(ncols + 1);
    colptr.push(0usize);
    // Close an item's columns in `colptr`; columns B does not store end
    // where their predecessor does.
    let mut close_cols = |q0: usize, lens: &[u32]| {
        for (q, &l) in (q0..).zip(lens) {
            let end = colptr[colptr.len() - 1];
            if let Some(jc) = bjc {
                colptr.resize(jc[q] as usize + 1, end);
            }
            colptr.push(end + l as usize);
        }
    };
    let (rowidx, vals) = if nitems == 1 {
        // The one item's buffers are the product: nothing to stitch.
        let mut out = run_item(ws.scratch_guard().get(), 0);
        close_cols(0, &out.lens);
        let (mut rowidx, mut vals) = (std::mem::take(&mut out.rows), std::mem::take(&mut out.vals));
        ws.put_chunk(out);
        rowidx.shrink_to_fit();
        vals.shrink_to_fit();
        (rowidx, vals)
    } else {
        let mut chunks: Vec<ChunkBuf<S::T>> = (0..nitems)
            .into_par_iter()
            .map_init(
                || ws.scratch_guard(),
                |guard, ci| {
                    let mut out = run_item(guard.get(), ci);
                    // Flop-proportional capacity is held by ALL items until
                    // the stitch; when the output compresses pathologically
                    // (many k-paths landing on one entry) release the slack
                    // so peak intermediate memory stays output-proportional.
                    // The 4× threshold keeps ordinary multiplies
                    // reallocation-free across workspace reuse.
                    if out.rows.capacity() > 4 * out.rows.len().max(1) {
                        out.rows.shrink_to_fit();
                        out.vals.shrink_to_fit();
                    }
                    out
                },
            )
            .collect();
        // Stitch items (ordered by construction), returning the buffers to
        // the pool as they drain.
        let nnz: usize = chunks.iter().map(|c| c.rows.len()).sum();
        let mut rowidx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for (buf, &q0) in chunks.drain(..).zip(&bounds) {
            close_cols(q0, &buf.lens);
            rowidx.extend_from_slice(&buf.rows);
            vals.extend_from_slice(&buf.vals);
            ws.put_chunk(buf);
        }
        (rowidx, vals)
    };
    colptr.resize(ncols + 1, rowidx.len());
    ws.put_idx(ubs);
    ws.put_idx(bounds);
    if let Some(ptr) = aptr {
        ws.put_idx(ptr);
    }
    Csc::from_parts(nrows, ncols, colptr, rowidx, vals)
}

/// SpGEMM with the hybrid kernel — the default entry point.
///
/// ```
/// use sa_sparse::semiring::PlusTimes;
/// use sa_sparse::spgemm::spgemm;
/// use sa_sparse::Coo;
///
/// // C = A·A on a 3-cycle: every vertex reaches its 2-hop neighbour
/// let mut coo = Coo::new(3, 3);
/// coo.push(1, 0, 1.0);
/// coo.push(2, 1, 1.0);
/// coo.push(0, 2, 1.0);
/// let a = coo.to_csc_with(|x, _| x);
/// let c = spgemm::<PlusTimes<f64>, _, _>(&a, &a);
/// assert_eq!(c.get(2, 0), Some(1.0)); // 0 → 1 → 2
/// ```
pub fn spgemm<S, A, B>(a: &A, b: &B) -> Csc<S::T>
where
    S: Semiring,
    A: ColSource<S::T> + ?Sized,
    B: ColSource<S::T> + ?Sized,
{
    spgemm_kernel::<S, A, B>(a, b, Kernel::Hybrid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::Dense;
    use crate::semiring::{MinPlus, OrAnd, PlusTimes};
    use rand::{Rng, SeedableRng};

    fn random_csc(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Csc<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Coo::new(nrows, ncols);
        for _ in 0..nnz {
            m.push(
                rng.gen_range(0..nrows as u32),
                rng.gen_range(0..ncols as u32),
                rng.gen_range(-4..5) as f64, // integers: exact arithmetic
            );
        }
        m.to_csc().filter(|_, _, v| v != 0.0)
    }

    fn reference(a: &Csc<f64>, b: &Csc<f64>) -> Csc<f64> {
        Dense::from_csc::<PlusTimes<f64>>(a)
            .matmul::<PlusTimes<f64>>(&Dense::from_csc::<PlusTimes<f64>>(b))
            .to_csc::<PlusTimes<f64>>()
    }

    #[test]
    fn all_kernels_match_dense_reference() {
        for seed in 0..6u64 {
            let a = random_csc(40, 30, 150, seed);
            let b = random_csc(30, 25, 120, seed + 100);
            let expect = reference(&a, &b);
            for kernel in [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid] {
                let got = spgemm_kernel::<PlusTimes<f64>, _, _>(&a, &b, kernel);
                assert_eq!(got, expect, "kernel {kernel:?} seed {seed}");
            }
        }
    }

    #[test]
    fn dcsc_source_matches_csc_source() {
        let a = random_csc(50, 40, 100, 9);
        let b = random_csc(40, 20, 80, 10);
        let ad = Dcsc::from_csc(&a);
        let via_csc = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
        let via_dcsc = spgemm::<PlusTimes<f64>, _, _>(&ad, &b);
        assert_eq!(via_csc, via_dcsc);
    }

    #[test]
    fn boolean_semiring_reachability() {
        // path graph 0->1->2; A² over OrAnd gives 2-hop reachability.
        let mut m = Coo::new(3, 3);
        m.push(1, 0, true);
        m.push(2, 1, true);
        let a = m.to_csc_with(|x, _| x);
        let a2 = spgemm::<OrAnd, _, _>(&a, &a);
        assert_eq!(a2.nnz(), 1);
        assert_eq!(a2.get(2, 0), Some(true));
    }

    #[test]
    fn empty_operands() {
        let a: Csc<f64> = Csc::zeros(5, 4);
        let b: Csc<f64> = Csc::zeros(4, 3);
        let c = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (5, 3, 0));
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_csc(20, 20, 60, 3);
        let i = Csc::diagonal(&[1.0; 20]);
        assert_eq!(spgemm::<PlusTimes<f64>, _, _>(&a, &i), a);
        assert_eq!(spgemm::<PlusTimes<f64>, _, _>(&i, &a), a);
    }

    #[test]
    fn numeric_cancellation_dropped() {
        // A row with +1 and -1 meeting the same output position.
        // A = [1 -1], B = [1; 1]  => C = [0] (stored empty).
        let mut ma = Coo::new(1, 2);
        ma.push(0, 0, 1.0);
        ma.push(0, 1, -1.0);
        let mut mb = Coo::new(2, 1);
        mb.push(0, 0, 1.0);
        mb.push(1, 0, 1.0);
        let c = spgemm::<PlusTimes<f64>, _, _>(&ma.to_csc(), &mb.to_csc());
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn rectangular_chain() {
        // (5x3)(3x7) valid; check shape + reference equality.
        let a = random_csc(5, 3, 10, 11);
        let b = random_csc(3, 7, 12, 12);
        let c = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
        assert_eq!((c.nrows(), c.ncols()), (5, 7));
        assert_eq!(c, reference(&a, &b));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = random_csc(5, 3, 5, 1);
        let b = random_csc(4, 2, 5, 2);
        let _ = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
    }

    #[test]
    fn schedules_are_bit_identical() {
        let a = random_csc(120, 120, 900, 31);
        let b = random_csc(120, 120, 900, 32);
        let ws = SpgemmWorkspace::new();
        for kernel in [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid] {
            let fixed =
                spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, kernel, Schedule::Fixed(256), &ws);
            let fixed7 =
                spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, kernel, Schedule::Fixed(7), &ws);
            let bal =
                spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, kernel, Schedule::FlopBalanced, &ws);
            assert_eq!(fixed, bal, "{kernel:?}");
            assert_eq!(fixed7, bal, "{kernel:?}");
        }
    }

    #[test]
    fn workspace_steady_state_allocates_nothing() {
        // pin to one thread so every counter is deterministic (with more
        // workers the scratch pool converges within `threads` allocs,
        // timing-dependent — the integration test covers that bound)
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("test pool");
        let a = random_csc(200, 200, 2000, 41);
        let b = random_csc(200, 200, 2000, 42);
        let ws = SpgemmWorkspace::new();
        // warm-up populates the pools
        let first = pool.install(|| {
            spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hybrid, Schedule::FlopBalanced, &ws)
        });
        let warm = ws.counters();
        assert!(warm.scratch_allocs >= 1 && warm.chunk_allocs >= 1);
        for _ in 0..3 {
            let c = pool.install(|| {
                spgemm_with::<PlusTimes<f64>, _, _>(
                    &a,
                    &b,
                    Kernel::Hybrid,
                    Schedule::FlopBalanced,
                    &ws,
                )
            });
            assert_eq!(c, first);
        }
        let steady = ws.counters();
        assert_eq!(steady.scratch_allocs, warm.scratch_allocs, "no new scratch");
        assert_eq!(
            steady.chunk_allocs, warm.chunk_allocs,
            "no new chunk buffers"
        );
        assert_eq!(steady.idx_allocs, warm.idx_allocs, "no new index buffers");
        assert!(steady.scratch_reuses > warm.scratch_reuses);
        assert!(steady.chunk_reuses > warm.chunk_reuses);
    }

    /// `PlusTimes<f64>` whose ⊗ panics on a NaN entry of A: a flop that
    /// unwinds out of an accumulate loop.
    #[derive(Clone, Copy)]
    struct NanPanics;

    impl Semiring for NanPanics {
        type T = f64;
        fn zero() -> f64 {
            0.0
        }
        fn add(a: f64, b: f64) -> f64 {
            a + b
        }
        fn mul(a: f64, b: f64) -> f64 {
            assert!(!a.is_nan(), "poisoned entry");
            a * b
        }
    }

    fn on_one_thread<S: Semiring<T = f64>>(
        a: &Csc<f64>,
        b: &Csc<f64>,
        ws: &SpgemmWorkspace<f64>,
    ) -> Csc<f64> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("test pool");
        pool.install(|| spgemm_with::<S, _, _>(a, b, Kernel::Spa, Schedule::FlopBalanced, ws))
    }

    #[test]
    fn scratch_abandoned_mid_column_yields_a_clean_next_column() {
        // ≈ 450 flops per hub column: over 3000 rows the accumulator is
        // abandoned with bits set, over 60 rows (the scanned window) with
        // values written and no bit to say so
        for nrows in [3000, 60] {
            let a = random_csc(nrows, 40, 900, 61);
            let (colptr, rowidx, mut vals) = a.clone().into_parts();
            vals[colptr[21] - 1] = f64::NAN;
            let poisoned = Csc::from_parts(nrows, 40, colptr, rowidx, vals);
            // one B column naming A's columns 0..=20: twenty of them are
            // accumulated when the last entry of the twenty-first panics
            let mut hub = Coo::new(40, 1);
            for k in 0..=20 {
                hub.push(k, 0, 1.0);
            }
            let hub = hub.to_csc();
            let ws = SpgemmWorkspace::new();
            let abandoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                on_one_thread::<NanPanics>(&poisoned, &hub, &ws)
            }));
            assert!(abandoned.is_err(), "the multiply panics mid-column");
            let b = random_csc(40, 30, 200, 62);
            let got = on_one_thread::<PlusTimes<f64>>(&a, &b, &ws);
            assert_eq!(ws.counters().scratch_reuses, 1, "the same scratch");
            let fresh = on_one_thread::<PlusTimes<f64>>(&a, &b, &SpgemmWorkspace::new());
            assert_eq!(got, fresh, "{nrows} rows");
        }
    }

    #[test]
    fn one_workspace_serves_semirings_of_different_zeros() {
        // the dense accumulator keeps the zero of the last multiply in every
        // slot: 0.0, then +∞, then 0.0 again through one scratch
        let a = random_csc(90, 70, 700, 71);
        let b = random_csc(70, 50, 500, 72);
        let bits = |c: Csc<f64>| {
            let (colptr, rowidx, vals) = c.into_parts();
            let vals: Vec<u64> = vals.into_iter().map(f64::to_bits).collect();
            (colptr, rowidx, vals)
        };
        let ws = SpgemmWorkspace::new();
        let fresh = SpgemmWorkspace::new;
        assert_eq!(
            bits(on_one_thread::<PlusTimes<f64>>(&a, &b, &ws)),
            bits(on_one_thread::<PlusTimes<f64>>(&a, &b, &fresh()))
        );
        assert_eq!(
            bits(on_one_thread::<MinPlus>(&a, &b, &ws)),
            bits(on_one_thread::<MinPlus>(&a, &b, &fresh()))
        );
        assert_eq!(
            bits(on_one_thread::<PlusTimes<f64>>(&a, &b, &ws)),
            bits(on_one_thread::<PlusTimes<f64>>(&a, &b, &fresh()))
        );
        assert_eq!(ws.counters().scratch_allocs, 1, "one scratch throughout");
    }

    #[test]
    fn single_heavy_column_and_empty_b() {
        // B with one hub column carrying every entry plus empty columns on
        // both sides — the flop-balanced splitter's degenerate case.
        let a = random_csc(80, 60, 600, 51);
        let mut coo = Coo::new(60, 40);
        for k in 0..60u32 {
            coo.push(k, 20, 1.0);
        }
        let b = coo.to_csc_with(|x: f64, _| x);
        let ws = SpgemmWorkspace::new();
        let fixed =
            spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hybrid, Schedule::Fixed(256), &ws);
        let bal = spgemm_with::<PlusTimes<f64>, _, _>(
            &a,
            &b,
            Kernel::Hybrid,
            Schedule::FlopBalanced,
            &ws,
        );
        assert_eq!(fixed, bal);
        assert_eq!(fixed, reference(&a, &b));
        // fully empty B
        let eb: Csc<f64> = Csc::zeros(60, 10);
        let c = spgemm_with::<PlusTimes<f64>, _, _>(
            &a,
            &eb,
            Kernel::Hybrid,
            Schedule::FlopBalanced,
            &ws,
        );
        assert_eq!((c.ncols(), c.nnz()), (10, 0));
    }

    #[test]
    fn larger_random_consistency_across_kernels() {
        let a = random_csc(300, 300, 3000, 21);
        let b = random_csc(300, 300, 3000, 22);
        let h = spgemm_kernel::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Heap);
        let s = spgemm_kernel::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hash);
        let p = spgemm_kernel::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Spa);
        let y = spgemm_kernel::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hybrid);
        assert_eq!(h, s);
        assert_eq!(s, p);
        assert_eq!(p, y);
    }
}
