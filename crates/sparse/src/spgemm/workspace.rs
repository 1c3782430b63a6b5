//! Reusable allocation arena for the SpGEMM hot path.
//!
//! A [`SpgemmWorkspace`] keeps every scratch structure a multiply needs
//! alive between calls: per-thread accumulator state (`Scratch`), the
//! per-work-item output buffers the accumulators append columns to, and
//! generic index buffers (the symbolic upper-bound array, work item
//! boundaries, A's column-pointer array, DCSC column pointers). Iterative
//! workloads — the session drivers in `sa_dist`/`sa_apps` call one multiply
//! per iteration for tens of iterations — reach steady state after the
//! first multiply and then allocate nothing on the hot path but each
//! product's own arrays.
//!
//! All pools are `Mutex`-guarded free lists. Contention is negligible:
//! the kernel takes one scratch per worker thread and one chunk buffer per
//! work item (~4·threads per multiply), so locks are touched O(threads)
//! times per multiply, not O(columns).
//!
//! Every pool miss (a fresh heap allocation) and hit (a reuse) is counted;
//! [`SpgemmWorkspace::counters`] exposes the totals so tests can assert
//! that a steady-state iteration allocates nothing — the acceptance
//! criterion the session integration test pins down.

use super::hash::HashAcc;
use super::spa::RowBitmap;
use crate::types::Vidx;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-thread scratch reused across columns: a dense accumulator (allocated
/// lazily — only once a column actually dispatches to the dense kernel), a
/// growable hash table, and the heap kernel's cursors.
pub(crate) struct Scratch<T> {
    /// Dense SPA value array; empty until [`Scratch::ensure_spa`] runs, and
    /// `spa_zero` in every slot between columns.
    pub(crate) spa_vals: Vec<T>,
    /// The semiring zero `spa_vals` is filled with.
    spa_zero: Option<T>,
    /// Which rows of `spa_vals` the current column has touched; all clear
    /// between columns.
    pub(crate) spa_rows: RowBitmap,
    pub(crate) hash: HashAcc<T>,
    /// Heap kernel: pending `(row, source)` heads of the merge.
    pub(crate) heap: BinaryHeap<Reverse<(Vidx, u32)>>,
    /// Heap kernel: entries consumed so far from each source column.
    pub(crate) heap_pos: Vec<u32>,
    /// Staging for one finished column on its way through a multiply's
    /// epilogue; unused (and empty) when there is none.
    pub(crate) col_rows: Vec<Vidx>,
    pub(crate) col_vals: Vec<T>,
}

impl<T: Copy> Scratch<T> {
    pub(crate) fn new() -> Self {
        Scratch {
            spa_vals: Vec::new(),
            spa_zero: None,
            spa_rows: RowBitmap::default(),
            hash: HashAcc::new(),
            heap: BinaryHeap::new(),
            heap_pos: Vec::new(),
            col_rows: Vec::new(),
            col_vals: Vec::new(),
        }
    }

    /// Make the SPA arrays cover `nrows` rows, the bitmap all clear and
    /// every value slot `zero`. The arrays start empty — `O(nrows)` per
    /// thread is only paid when a column actually dispatches to the dense
    /// kernel — and grow monotonically, by `zero`s, so a workspace shared
    /// across differently-sized multiplies stays valid. The dense kernel
    /// leaves every slot it wrote at `zero` again, so the values are refilled
    /// in two cases only: a column abandoned half-way (a panic unwound
    /// through the kernel), and a caller whose semiring zero is not the one
    /// they were filled with (one workspace serving `PlusTimes<f64>` and then
    /// `MinPlus`).
    pub(crate) fn ensure_spa(&mut self, nrows: usize, zero: T)
    where
        T: PartialEq,
    {
        if self.spa_rows.dirty || self.spa_zero != Some(zero) {
            self.spa_vals.fill(zero);
            self.spa_zero = Some(zero);
        }
        self.spa_rows.ensure(nrows);
        if self.spa_vals.len() < nrows {
            self.spa_vals.resize(nrows, zero);
        }
    }
}

/// One work item's output: per-column lengths plus concatenated rows and
/// values, stitched into the final CSC after the parallel loop. The
/// `lens` array doubles as a generic `u32` buffer when the distributed
/// layer borrows a `ChunkBuf` for DCSC assembly (`jc` is also `u32`).
pub struct ChunkBuf<T> {
    pub lens: Vec<u32>,
    pub rows: Vec<Vidx>,
    pub vals: Vec<T>,
}

impl<T> ChunkBuf<T> {
    fn empty() -> Self {
        ChunkBuf {
            lens: Vec::new(),
            rows: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.lens.clear();
        self.rows.clear();
        self.vals.clear();
    }
}

/// Pool hit/miss totals of one workspace (monotone counters).
///
/// `*_allocs` count pool misses — takes that had to heap-allocate a fresh
/// structure; `*_reuses` count takes served from the free list. In steady
/// state only the reuse counters move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceCounters {
    /// Per-thread `Scratch` structures created.
    pub scratch_allocs: u64,
    /// Per-thread scratch takes served from the pool.
    pub scratch_reuses: u64,
    /// Chunk output buffers created.
    pub chunk_allocs: u64,
    /// Chunk buffer takes served from the pool.
    pub chunk_reuses: u64,
    /// `usize` index buffers created.
    pub idx_allocs: u64,
    /// Index buffer takes served from the pool.
    pub idx_reuses: u64,
}

impl WorkspaceCounters {
    /// Total pool misses (fresh allocations) across all pools.
    pub fn total_allocs(&self) -> u64 {
        self.scratch_allocs + self.chunk_allocs + self.idx_allocs
    }
}

/// The arena itself — see the module docs. One workspace per rank (or per
/// [`SpgemmSession`](../../../sa_dist/session/struct.SpgemmSession.html)):
/// it is `Sync` so the rank's compute pool shares it, but it is not meant
/// to be shared across ranks.
pub struct SpgemmWorkspace<T> {
    scratch: Mutex<Vec<Scratch<T>>>,
    chunks: Mutex<Vec<ChunkBuf<T>>>,
    idx: Mutex<Vec<Vec<usize>>>,
    scratch_allocs: AtomicU64,
    scratch_reuses: AtomicU64,
    chunk_allocs: AtomicU64,
    chunk_reuses: AtomicU64,
    idx_allocs: AtomicU64,
    idx_reuses: AtomicU64,
}

impl<T: Copy> Default for SpgemmWorkspace<T> {
    fn default() -> Self {
        SpgemmWorkspace::new()
    }
}

impl<T: Copy> SpgemmWorkspace<T> {
    /// An empty workspace. Nothing is allocated until the first multiply
    /// populates the pools.
    pub fn new() -> Self {
        SpgemmWorkspace {
            scratch: Mutex::new(Vec::new()),
            chunks: Mutex::new(Vec::new()),
            idx: Mutex::new(Vec::new()),
            scratch_allocs: AtomicU64::new(0),
            scratch_reuses: AtomicU64::new(0),
            chunk_allocs: AtomicU64::new(0),
            chunk_reuses: AtomicU64::new(0),
            idx_allocs: AtomicU64::new(0),
            idx_reuses: AtomicU64::new(0),
        }
    }

    /// Snapshot of the pool hit/miss counters.
    pub fn counters(&self) -> WorkspaceCounters {
        WorkspaceCounters {
            scratch_allocs: self.scratch_allocs.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            chunk_allocs: self.chunk_allocs.load(Ordering::Relaxed),
            chunk_reuses: self.chunk_reuses.load(Ordering::Relaxed),
            idx_allocs: self.idx_allocs.load(Ordering::Relaxed),
            idx_reuses: self.idx_reuses.load(Ordering::Relaxed),
        }
    }

    /// Borrow a per-thread scratch for the duration of one worker's run;
    /// returned to the pool when the guard drops.
    pub(crate) fn scratch_guard(&self) -> ScratchGuard<'_, T> {
        let popped = self.scratch.lock().unwrap().pop();
        let scratch = match popped {
            Some(s) => {
                self.scratch_reuses.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                self.scratch_allocs.fetch_add(1, Ordering::Relaxed);
                Scratch::new()
            }
        };
        ScratchGuard {
            ws: self,
            scratch: Some(scratch),
        }
    }

    /// Take a cleared chunk buffer (capacity retained from earlier use).
    pub fn take_chunk(&self) -> ChunkBuf<T> {
        match self.chunks.lock().unwrap().pop() {
            Some(c) => {
                self.chunk_reuses.fetch_add(1, Ordering::Relaxed);
                c
            }
            None => {
                self.chunk_allocs.fetch_add(1, Ordering::Relaxed);
                ChunkBuf::empty()
            }
        }
    }

    /// Return a chunk buffer to the pool.
    pub fn put_chunk(&self, mut buf: ChunkBuf<T>) {
        buf.clear();
        self.chunks.lock().unwrap().push(buf);
    }

    /// Take a cleared `usize` buffer (capacity retained).
    pub fn take_idx(&self) -> Vec<usize> {
        match self.idx.lock().unwrap().pop() {
            Some(v) => {
                self.idx_reuses.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.idx_allocs.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return a `usize` buffer to the pool.
    pub fn put_idx(&self, mut buf: Vec<usize>) {
        buf.clear();
        self.idx.lock().unwrap().push(buf);
    }
}

/// RAII loan of a `Scratch`; hands the structure back on drop so the
/// next multiply's workers find it in the pool.
pub(crate) struct ScratchGuard<'w, T: Copy> {
    ws: &'w SpgemmWorkspace<T>,
    scratch: Option<Scratch<T>>,
}

impl<T: Copy> ScratchGuard<'_, T> {
    pub(crate) fn get(&mut self) -> &mut Scratch<T> {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl<T: Copy> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.ws.scratch.lock().unwrap().push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_spa_is_lazy_and_monotone() {
        let mut s: Scratch<f64> = Scratch::new();
        assert!(s.spa_vals.is_empty(), "SPA must not be allocated up front");
        s.ensure_spa(100, 0.0);
        assert_eq!(s.spa_vals.len(), 100);
        s.ensure_spa(50, 0.0);
        assert_eq!(s.spa_vals.len(), 100, "never shrinks");
        s.ensure_spa(200, 0.0);
        assert_eq!(s.spa_vals.len(), 200);
    }

    #[test]
    fn scratch_spa_is_refilled_after_an_abandoned_column_and_for_a_new_zero() {
        let mut s: Scratch<f64> = Scratch::new();
        s.ensure_spa(4, 0.0);
        // a column that wrote a value and never reached its read-back
        s.spa_rows.dirty = true;
        s.spa_vals[2] = 7.0;
        s.ensure_spa(4, 0.0);
        assert!(!s.spa_rows.dirty);
        assert_eq!(s.spa_vals, [0.0; 4]);
        // a taller multiply under another semiring, then back
        s.ensure_spa(6, f64::INFINITY);
        assert_eq!(s.spa_vals, [f64::INFINITY; 6]);
        s.ensure_spa(3, 0.0);
        assert_eq!(s.spa_vals, [0.0; 6], "beyond the caller's rows too");
    }

    #[test]
    fn pools_reuse_and_count() {
        let ws: SpgemmWorkspace<f64> = SpgemmWorkspace::new();
        let c1 = ws.take_chunk();
        ws.put_chunk(c1);
        let mut c2 = ws.take_chunk();
        c2.rows.push(7);
        ws.put_chunk(c2);
        let c3 = ws.take_chunk();
        assert!(c3.rows.is_empty(), "returned buffers come back cleared");
        ws.put_chunk(c3);
        let c = ws.counters();
        assert_eq!(c.chunk_allocs, 1);
        assert_eq!(c.chunk_reuses, 2);

        let i1 = ws.take_idx();
        ws.put_idx(i1);
        let _i2 = ws.take_idx();
        let c = ws.counters();
        assert_eq!(c.idx_allocs, 1);
        assert_eq!(c.idx_reuses, 1);
    }

    #[test]
    fn scratch_guard_returns_on_drop() {
        let ws: SpgemmWorkspace<f64> = SpgemmWorkspace::new();
        {
            let mut g = ws.scratch_guard();
            g.get().col_rows.reserve(64);
        }
        {
            let _g = ws.scratch_guard();
        }
        let c = ws.counters();
        assert_eq!(c.scratch_allocs, 1, "second take reuses the first");
        assert_eq!(c.scratch_reuses, 1);
    }
}
