//! Work scheduling for the parallel column loop.
//!
//! On the power-law matrices the paper targets, per-output-column flop
//! counts vary by orders of magnitude; splitting `B`'s columns into
//! fixed-width chunks then leaves every thread idle behind the one that
//! drew the hub columns — exactly the rank×thread (`c = p·t`) regime of
//! the paper's Figure 7. [`Schedule::FlopBalanced`] instead cuts the
//! column range by a greedy prefix-sum walk over the symbolic upper-bound
//! flop array (computed once per multiply and reused for hybrid kernel
//! dispatch, hash-table sizing, and output pre-sizing), producing work
//! items of roughly equal flops with a target of
//! `total / (OVERSUBSCRIPTION · threads)` — enough items that dynamic
//! stealing can also absorb estimation error.

use std::ops::Range;

/// Work items per thread the balanced splitter aims for. Oversubscribing
/// 4× keeps the tail short (the last items are small) while the per-item
/// constant cost (one pool take, one stitch entry) stays negligible.
const OVERSUBSCRIPTION: usize = 4;

/// Per-column constant cost added to the upper-bound flops, so long runs
/// of empty or near-empty columns still get split (their wall cost is the
/// per-column bookkeeping, not flops).
const COL_OVERHEAD: usize = 1;

/// How `B`'s columns are grouped into parallel work items.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Fixed-width chunks of the given column count (the pre-scheduling
    /// behaviour was `Fixed(256)`). Kept for A/B benches and as a fallback
    /// for callers that want deterministic item boundaries independent of
    /// thread count.
    Fixed(usize),
    /// Greedy prefix-sum splitting into items of roughly equal upper-bound
    /// flops, targeting `total / (4·threads)` flops per item (a single item
    /// for a single thread).
    #[default]
    FlopBalanced,
}

/// Compute work-item boundaries for `ubs.len()` output columns under
/// `schedule` with `threads` workers: `bounds[i]..bounds[i+1]` is item
/// `i`'s column range. `bounds` is cleared first; on return it starts at
/// 0 and ends at `ubs.len()` (a single `[0]` entry for zero columns).
///
/// The schedule never affects results — every column is computed
/// identically whatever item it lands in — only the parallel shape.
pub(crate) fn schedule_bounds_into(
    bounds: &mut Vec<usize>,
    ubs: &[usize],
    schedule: Schedule,
    threads: usize,
) {
    bounds.clear();
    bounds.push(0);
    let ncols = ubs.len();
    match schedule {
        Schedule::Fixed(width) => {
            let width = width.max(1);
            let mut j = width;
            while j < ncols {
                bounds.push(j);
                j += width;
            }
            if ncols > 0 {
                bounds.push(ncols);
            }
        }
        // one worker has nobody to balance against: one item, whose
        // buffers the multiply then hands over as the product unstitched
        Schedule::FlopBalanced if threads <= 1 && ncols > 0 => bounds.push(ncols),
        Schedule::FlopBalanced => {
            let total: usize = ubs
                .iter()
                .fold(0usize, |acc, &u| acc.saturating_add(u + COL_OVERHEAD));
            let items = OVERSUBSCRIPTION * threads.max(1);
            let target = (total / items).max(1);
            let mut acc = 0usize;
            for (j, &u) in ubs.iter().enumerate() {
                let cost = u + COL_OVERHEAD;
                // A column heavy enough to fill an item on its own gets
                // isolated: close the running item before it so light
                // neighbours don't queue behind the hub.
                if cost >= target && acc > 0 {
                    bounds.push(j);
                    acc = 0;
                }
                acc += cost;
                if acc >= target && j + 1 < ncols {
                    bounds.push(j + 1);
                    acc = 0;
                }
            }
            if ncols > 0 {
                bounds.push(ncols);
            }
        }
    }
}

/// The item ranges a
/// multiply with this schedule would execute. Exposed so benches and
/// external schedulers can inspect or model the parallel shape (the
/// `sched_compare` bench replays these items to compute makespans).
pub fn schedule_items(ubs: &[usize], schedule: Schedule, threads: usize) -> Vec<Range<usize>> {
    let mut bounds = Vec::new();
    schedule_bounds_into(&mut bounds, ubs, schedule, threads);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partition(items: &[Range<usize>], ncols: usize) {
        if ncols == 0 {
            assert!(items.is_empty());
            return;
        }
        assert_eq!(items[0].start, 0);
        assert_eq!(items.last().unwrap().end, ncols);
        for w in items.windows(2) {
            assert_eq!(w[0].end, w[1].start, "items must tile the range");
        }
        assert!(items.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn fixed_matches_chunking() {
        let ubs = vec![1usize; 1000];
        let items = schedule_items(&ubs, Schedule::Fixed(256), 4);
        check_partition(&items, 1000);
        assert_eq!(items.len(), 4);
        assert_eq!(items[0], 0..256);
        assert_eq!(items[3], 768..1000);
    }

    #[test]
    fn balanced_splits_uniform_evenly() {
        let ubs = vec![10usize; 800];
        let items = schedule_items(&ubs, Schedule::FlopBalanced, 4);
        check_partition(&items, 800);
        // ~4·threads items of ~equal width
        assert!(items.len() >= 14 && items.len() <= 17, "{}", items.len());
        let widths: Vec<usize> = items.iter().map(|r| r.len()).collect();
        let (min, max) = (*widths.iter().min().unwrap(), *widths.iter().max().unwrap());
        assert!(max <= min + min / 2 + 1, "uniform widths: {widths:?}");
    }

    #[test]
    fn balanced_isolates_heavy_columns() {
        // one hub column holding ~all the flops must not drag its whole
        // fixed-width chunk onto one thread: it becomes its own item
        let mut ubs = vec![1usize; 512];
        ubs[100] = 1_000_000;
        let items = schedule_items(&ubs, Schedule::FlopBalanced, 4);
        check_partition(&items, 512);
        let hub = items.iter().find(|r| r.contains(&100)).unwrap();
        assert_eq!(hub.len(), 1, "hub column isolated, got {hub:?}");
    }

    #[test]
    fn balanced_splits_empty_runs() {
        // all-empty columns: per-column overhead still gets distributed
        let ubs = vec![0usize; 4096];
        let items = schedule_items(&ubs, Schedule::FlopBalanced, 8);
        check_partition(&items, 4096);
        assert!(items.len() > 8, "empty run must still split");
    }

    #[test]
    fn edge_cases() {
        assert!(schedule_items(&[], Schedule::FlopBalanced, 4).is_empty());
        assert!(schedule_items(&[], Schedule::Fixed(256), 4).is_empty());
        let one = schedule_items(&[7], Schedule::FlopBalanced, 8);
        assert_eq!(one, vec![0..1]);
        // Fixed(0) is clamped, not a panic/livelock
        let items = schedule_items(&[1, 1, 1], Schedule::Fixed(0), 2);
        check_partition(&items, 3);
    }

    #[test]
    fn overflow_safe_totals() {
        let ubs = vec![usize::MAX / 2; 8];
        let items = schedule_items(&ubs, Schedule::FlopBalanced, 2);
        check_partition(&items, 8);
    }
}
