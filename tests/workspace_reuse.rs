//! Zero-allocation steady state of the workspace arena (the PR 3
//! acceptance criterion): once a session's pools are warm, further
//! multiplies perform no per-thread scratch, chunk-output, or index-buffer
//! allocations — the reuse counters move, the alloc counters do not. The
//! pool counters cannot see an allocation made outside the pools (the heap
//! kernel used to build three `Vec`s per column), so the last test counts
//! the allocator's own calls.

use saspgemm::dist::{uniform_offsets, CacheConfig, DistMat1D, Plan1D, SpgemmSession, Wired};
use saspgemm::mpisim::{Comm, Universe};
use saspgemm::sparse::gen::erdos_renyi;
use saspgemm::sparse::semiring::PlusTimes;
use saspgemm::sparse::spgemm::{
    spgemm_with, spgemm_with_epilogue, Kernel, Schedule, SpgemmWorkspace, WorkspaceCounters,
};
use saspgemm::sparse::{Dcsc, Vidx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and growing reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread (so the tests of this binary,
/// which run on threads of their own, do not see each other).
struct Counting;

fn count_one() {
    // a thread being torn down has no counter left to bump, and no test
    // reading it
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller was promised; the counter is
// a const-initialised `Cell<u64>` thread-local without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count_one();
        }
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn session_steady_state_allocates_nothing() {
    let a = erdos_renyi(160, 160, 5.0, 17);
    let u = Universe::new(3);
    let results = u.run(|comm| {
        let offsets = uniform_offsets(160, comm.size());
        let da = DistMat1D::from_global(comm, &a, &offsets);
        let db = da.clone();
        let mut s = SpgemmSession::create(
            comm,
            da,
            Plan1D {
                global_stats: false,
                ..Default::default()
            },
            CacheConfig::unlimited(),
        );
        // two warm-up iterations: the first populates the pools, the
        // second settles sizes (e.g. Ã shrinks once the cache serves hits)
        let (c1, _) = s.multiply(comm, &db);
        let (_c2, _) = s.multiply(comm, &db);
        let warm: WorkspaceCounters = s.workspace().counters();
        let mut last = None;
        for _ in 0..4 {
            let (c, rep) = s.multiply(comm, &db);
            assert_eq!(rep.fresh_bytes, 0, "warm cache refetches nothing");
            last = Some(c);
        }
        let steady = s.workspace().counters();
        (
            Wired(c1.into_local_csc()),
            Wired(last.unwrap().into_local_csc()),
            Wired(warm),
            Wired(steady),
        )
    });
    for (first, last, warm, steady) in results {
        assert_eq!(first, last, "steady-state iterations stay correct");
        assert!(warm.total_allocs() > 0, "warm-up does allocate");
        assert_eq!(
            steady.scratch_allocs, warm.scratch_allocs,
            "steady state creates no per-thread scratch"
        );
        assert_eq!(
            steady.chunk_allocs, warm.chunk_allocs,
            "steady state creates no chunk-output buffers"
        );
        assert_eq!(
            steady.idx_allocs, warm.idx_allocs,
            "steady state creates no index buffers"
        );
        assert!(
            steady.scratch_reuses > warm.scratch_reuses && steady.chunk_reuses > warm.chunk_reuses,
            "steady state is served from the pools"
        );
    }
}

#[test]
fn local_kernel_steady_state_allocates_nothing_across_thread_counts() {
    let a = erdos_renyi(300, 300, 6.0, 9);
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let ws = SpgemmWorkspace::new();
        let first = pool.install(|| {
            spgemm_with::<PlusTimes<f64>, _, _>(&a, &a, Kernel::Hybrid, Schedule::FlopBalanced, &ws)
        });
        let warm = ws.counters();
        for _ in 0..3 {
            let c = pool.install(|| {
                spgemm_with::<PlusTimes<f64>, _, _>(
                    &a,
                    &a,
                    Kernel::Hybrid,
                    Schedule::FlopBalanced,
                    &ws,
                )
            });
            assert_eq!(c, first);
        }
        let steady = ws.counters();
        // chunk/index buffers are taken and returned within one multiply,
        // so their alloc counts freeze exactly after warm-up; per-thread
        // scratch is held for a worker's whole run, so the pool converges
        // to at most one scratch per worker slot (how fast depends on
        // worker overlap) and can never exceed `threads` lifetime allocs
        assert_eq!(steady.chunk_allocs, warm.chunk_allocs, "{threads} threads");
        assert_eq!(steady.idx_allocs, warm.idx_allocs, "{threads} threads");
        assert!(
            steady.scratch_allocs <= threads as u64,
            "{threads} threads: scratch allocs bounded by worker slots, got {}",
            steady.scratch_allocs
        );
    }
}

#[test]
fn ephemeral_and_warm_workspaces_agree() {
    // spgemm_kernel (ephemeral arena) vs a long-lived arena: same bits
    let a = erdos_renyi(90, 90, 4.0, 3);
    let ws = SpgemmWorkspace::new();
    let warm1 =
        spgemm_with::<PlusTimes<f64>, _, _>(&a, &a, Kernel::Hybrid, Schedule::FlopBalanced, &ws);
    let warm2 =
        spgemm_with::<PlusTimes<f64>, _, _>(&a, &a, Kernel::Hybrid, Schedule::FlopBalanced, &ws);
    let ephemeral = saspgemm::sparse::spgemm::spgemm::<PlusTimes<f64>, _, _>(&a, &a);
    assert_eq!(warm1, warm2);
    assert_eq!(warm1, ephemeral);
}

#[test]
fn warm_single_thread_multiply_allocates_only_the_product() {
    // DCSC operands, as the ranks pass them, so the position map is in play;
    // the narrow B has a quarter of the wide one's columns
    let a = erdos_renyi(400, 400, 6.0, 21);
    let (ad, wide) = (Dcsc::from_csc(&a), Dcsc::from_csc(&a));
    let narrow = Dcsc::from_csc(&a.extract_cols(0, 100));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    for kernel in [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid] {
        let ws = SpgemmWorkspace::new();
        let multiply = |b: &Dcsc<f64>| {
            pool.install(|| {
                spgemm_with::<PlusTimes<f64>, _, _>(&ad, b, kernel, Schedule::FlopBalanced, &ws)
            })
        };
        let warm = (multiply(&wide), multiply(&narrow));
        for (b, expect) in [(&wide, &warm.0), (&narrow, &warm.1)] {
            let before = ALLOCS.with(Cell::get);
            let c = multiply(b);
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(&c, expect);
            assert_eq!(
                allocs,
                3,
                "{kernel:?}, {} columns: a warm multiply allocates colptr, rowidx and vals of \
                 its product and nothing per column",
                b.ncols()
            );
        }
    }
}

#[test]
fn warm_multiply_with_an_epilogue_allocates_only_its_output() {
    // the epilogue keeps every other entry, so the output is not pre-sized
    // from the flop bound: it grows as a `Vec` does, by doubling, and what
    // the allocator sees beyond `colptr` is those growth steps — a number
    // set by the output's size, where one allocation per column would be
    // 400 or more
    let keep_even_rows =
        |rows: &[Vidx], vals: &mut [f64], rows_out: &mut Vec<Vidx>, vals_out: &mut Vec<f64>| {
            for (&r, &v) in rows.iter().zip(vals.iter()) {
                if r % 2 == 0 {
                    rows_out.push(r);
                    vals_out.push(v);
                }
            }
        };
    let a = erdos_renyi(400, 400, 6.0, 21);
    let ad = Dcsc::from_csc(&a);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    for kernel in [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid] {
        let ws = SpgemmWorkspace::new();
        let multiply = || {
            pool.install(|| {
                spgemm_with_epilogue::<PlusTimes<f64>, _, _, _>(
                    &ad,
                    &ad,
                    kernel,
                    Schedule::FlopBalanced,
                    &ws,
                    Some(&keep_even_rows),
                )
            })
        };
        let warm = multiply();
        let counters = ws.counters();
        let before = ALLOCS.with(Cell::get);
        let c = multiply();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(c, warm);
        assert_eq!(
            ws.counters().total_allocs(),
            counters.total_allocs(),
            "{kernel:?}: the staging pair lives in the pooled scratch"
        );
        let doublings = u64::from(usize::BITS - c.nnz().leading_zeros());
        assert!(
            c.nnz() > 400 && allocs <= 1 + 2 * doublings,
            "{kernel:?}: {allocs} allocations for {} output entries",
            c.nnz()
        );
    }
}
