//! Symbolic fetch planning for Algorithm 1 — the sparsity-aware core.
//!
//! Before any numeric data moves, every rank learns *which* remote columns
//! of `A` its local `B` slice requires (the `⃗H` row-support test of
//! Algorithm 1 line 5) and coalesces those columns into ranged window
//! fetches according to the [`FetchMode`](crate::spgemm1d::FetchMode). The
//! plan is exact: executing it fetches precisely `fetch_entries` entries in
//! `intervals.len()` ranged gets, which is what lets
//! [`analyze_1d`](crate::spgemm1d::analyze_1d) price communication ahead of
//! time and the tests assert metered == planned to the byte.

use crate::spgemm1d::FetchMode;
use sa_mpisim::Comm;
use sa_sparse::types::Vidx;
use sa_sparse::Dcsc;

/// Bytes one stored entry moves over the wire: a `u32` row id from the
/// index window plus an `f64` from the value window.
pub(crate) const ENTRY_BYTES: u64 = 4 + 8;

/// One rank's replicated slice metadata: nonzero-column ids (local) and the
/// entry-range prefix — Algorithm 1's allgathered `⃗D` and prefix-sum arrays.
pub(crate) struct RankMeta {
    pub jc: Vec<Vidx>,
    pub cp: Vec<u64>,
}

impl RankMeta {
    #[inline]
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    #[inline]
    pub fn col_entries(&self, q: usize) -> u64 {
        self.cp[q + 1] - self.cp[q]
    }
}

/// Replicate every rank's (jc, cp) metadata. Collective; metered as
/// two-sided traffic (it is metadata exchange, not the RDMA fetch path).
/// Column *lengths* travel as `u32` and the `u64` entry-range prefix is
/// rebuilt locally — two thirds the wire bytes of shipping the prefix
/// array itself, which matters once every process row of a 2D grid
/// replicates its hypersparse block metadata per multiply.
pub(crate) fn exchange_meta<C: Comm>(comm: &C, local: &Dcsc<f64>) -> Vec<RankMeta> {
    let jcs = comm.allgatherv(local.jc().to_vec());
    let lens: Vec<u32> = (0..local.nzc())
        .map(|q| (local.cp()[q + 1] - local.cp()[q]) as u32)
        .collect();
    let lens_all = comm.allgatherv(lens);
    jcs.into_iter()
        .zip(lens_all)
        .map(|(jc, lens)| {
            let mut cp = Vec::with_capacity(lens.len() + 1);
            cp.push(0u64);
            for l in lens {
                cp.push(cp.last().unwrap() + l as u64);
            }
            RankMeta { jc, cp }
        })
        .collect()
}

/// Pack a boolean support over `0..len` into `u64` bitmap words — the
/// fixed-size "compact request bitmap" the 2D exchanges ship instead of
/// id lists (⌈len/64⌉·8 bytes regardless of support density).
pub(crate) fn pack_support(bits: impl Iterator<Item = bool>, len: usize) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for (i, hit) in bits.enumerate() {
        if hit {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// Test bit `i` of a packed support.
#[inline]
pub(crate) fn support_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// One ranged fetch: positions `pos` of `owner`'s nonzero-column list,
/// entries `entries` of its exposed ir/num windows.
pub(crate) struct Interval {
    pub owner: usize,
    pub pos: std::ops::Range<usize>,
    pub entries: std::ops::Range<u64>,
}

impl Interval {
    /// The paired-window request that moves this interval: `(owner, entry
    /// range)`.
    pub fn get(&self) -> (usize, std::ops::Range<usize>) {
        (
            self.owner,
            self.entries.start as usize..self.entries.end as usize,
        )
    }
}

/// The full fetch schedule of one multiply, plus its exact cost.
pub(crate) struct FetchPlan {
    /// Ranged fetches, ordered by owner rank then position — ascending
    /// global column order, which lets the fetched buffers concatenate
    /// directly into a DCSC.
    pub intervals: Vec<Interval>,
    /// Entries the plan moves (≥ `needed_entries` when blocks over-fetch).
    pub fetch_entries: u64,
    /// Entries the sparsity actually requires.
    pub needed_entries: u64,
}

impl FetchPlan {
    pub fn fetch_bytes(&self) -> u64 {
        self.fetch_entries * ENTRY_BYTES
    }

    pub fn needed_bytes(&self) -> u64 {
        self.needed_entries * ENTRY_BYTES
    }

    /// Two one-sided messages per interval (row-id window + value window).
    pub fn rdma_msgs(&self) -> u64 {
        2 * self.intervals.len() as u64
    }
}

/// Build the fetch schedule. `needed[k]` marks global A-columns the local
/// multiply requires (the row support of the local B slice); `offsets` is
/// A's 1D layout; `me` fetches from every other owner.
pub(crate) fn plan_fetch(
    mode: FetchMode,
    metas: &[RankMeta],
    offsets: &[usize],
    needed: &[bool],
    me: usize,
) -> FetchPlan {
    let mut intervals = Vec::new();
    let mut fetch_entries = 0u64;
    let mut needed_entries = 0u64;
    for (owner, meta) in metas.iter().enumerate() {
        if owner == me || meta.nzc() == 0 {
            continue;
        }
        let base = offsets[owner];
        if mode == FetchMode::FullMatrix {
            // sparsity-oblivious baseline: replicate the whole slice
            needed_entries += needed_entries_of(meta, base, needed);
            fetch_entries += meta.cp[meta.nzc()];
            intervals.push(Interval {
                owner,
                pos: 0..meta.nzc(),
                entries: 0..meta.cp[meta.nzc()],
            });
            continue;
        }
        // positions of needed columns, ascending
        let mut pos_runs: Vec<std::ops::Range<usize>> = Vec::new();
        match mode {
            FetchMode::ColumnExact => {
                for q in 0..meta.nzc() {
                    if needed[base + meta.jc[q] as usize] {
                        needed_entries += meta.col_entries(q);
                        pos_runs.push(q..q + 1);
                    }
                }
            }
            FetchMode::ContiguousRuns => {
                // merge columns adjacent in the owner's storage: same bytes
                // as exact, far fewer messages on clustered sparsity
                for q in 0..meta.nzc() {
                    if needed[base + meta.jc[q] as usize] {
                        needed_entries += meta.col_entries(q);
                        match pos_runs.last_mut() {
                            Some(run) if run.end == q => run.end = q + 1,
                            _ => pos_runs.push(q..q + 1),
                        }
                    }
                }
            }
            FetchMode::Block(k) => {
                // §III-A block fetching: the owner's nonzero-column list is
                // cut into K blocks; a block is fetched whole if any of its
                // columns is needed, trading bounded over-fetch for an
                // O(K)-bounded message count per remote rank.
                let k = k.max(1);
                let nzc = meta.nzc();
                let bound = |b: usize| b * nzc / k;
                let mut b = 0usize; // monotone block cursor (positions ascend)
                for q in 0..nzc {
                    if !needed[base + meta.jc[q] as usize] {
                        continue;
                    }
                    needed_entries += meta.col_entries(q);
                    while bound(b + 1) <= q {
                        b += 1;
                    }
                    // Merge on *position* adjacency of the selected blocks'
                    // ranges, not block-id adjacency: when K > nzc many
                    // block ids are empty (bound(b) == bound(b+1)) and
                    // id-based merging would split storage-contiguous
                    // columns into per-column messages.
                    let (s, e) = (bound(b), bound(b + 1));
                    match pos_runs.last_mut() {
                        Some(run) if s <= run.end => run.end = run.end.max(e),
                        _ => pos_runs.push(s..e),
                    }
                }
            }
            FetchMode::FullMatrix => unreachable!("handled above"),
        }
        for pos in pos_runs {
            let entries = meta.cp[pos.start]..meta.cp[pos.end];
            fetch_entries += entries.end - entries.start;
            intervals.push(Interval {
                owner,
                pos,
                entries,
            });
        }
    }
    FetchPlan {
        intervals,
        fetch_entries,
        needed_entries,
    }
}

fn needed_entries_of(meta: &RankMeta, base: usize, needed: &[bool]) -> u64 {
    (0..meta.nzc())
        .filter(|&q| needed[base + meta.jc[q] as usize])
        .map(|q| meta.col_entries(q))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(cols: &[(u32, u64)]) -> RankMeta {
        let mut cp = vec![0u64];
        for &(_, n) in cols {
            cp.push(cp.last().unwrap() + n);
        }
        RankMeta {
            jc: cols.iter().map(|&(j, _)| j).collect(),
            cp,
        }
    }

    fn needed(n: usize, which: &[usize]) -> Vec<bool> {
        let mut v = vec![false; n];
        for &k in which {
            v[k] = true;
        }
        v
    }

    #[test]
    fn exact_fetches_only_needed_columns() {
        // owner 1 holds global cols 10..20, nonzero at 10,12,13,17
        let metas = vec![meta(&[]), meta(&[(0, 3), (2, 1), (3, 2), (7, 5)])];
        let offsets = [0, 10, 20];
        let plan = plan_fetch(
            FetchMode::ColumnExact,
            &metas,
            &offsets,
            &needed(20, &[12, 13, 19]),
            0,
        );
        assert_eq!(plan.needed_entries, 3); // cols 12 (1) + 13 (2); 19 empty
        assert_eq!(plan.fetch_entries, 3);
        assert_eq!(plan.intervals.len(), 2);
        assert_eq!(plan.rdma_msgs(), 4);
    }

    #[test]
    fn runs_merge_storage_adjacent_columns_without_overfetch() {
        let metas = vec![meta(&[]), meta(&[(0, 3), (2, 1), (3, 2), (7, 5)])];
        let offsets = [0, 10, 20];
        // cols 12, 13, 17 sit at storage positions 1, 2, 3: one single run
        // even though the column *ids* have gaps — adjacency is in the
        // owner's storage, which is what a ranged get needs
        let plan = plan_fetch(
            FetchMode::ContiguousRuns,
            &metas,
            &offsets,
            &needed(20, &[12, 13, 17]),
            0,
        );
        assert_eq!(plan.intervals.len(), 1);
        assert_eq!(plan.fetch_entries, plan.needed_entries);
        assert_eq!(plan.fetch_entries, 1 + 2 + 5);
        // a real storage gap (position 0 unneeded between runs) splits them
        let plan = plan_fetch(
            FetchMode::ContiguousRuns,
            &metas,
            &offsets,
            &needed(20, &[10, 13, 17]),
            0,
        );
        assert_eq!(plan.intervals.len(), 2);
        assert_eq!(plan.fetch_entries, 3 + 2 + 5);
    }

    #[test]
    fn block_mode_bounds_intervals_and_overfetches() {
        // 8 nonzero columns of 1 entry each, K = 2 blocks of 4 positions
        let cols: Vec<(u32, u64)> = (0..8).map(|j| (j, 1)).collect();
        let metas = vec![meta(&[]), meta(&cols)];
        let offsets = [0, 0, 8]; // owner 1 holds all 8 columns
        let plan = plan_fetch(
            FetchMode::Block(2),
            &metas,
            &offsets,
            &needed(8, &[1, 6]),
            0,
        );
        // each needed column pulls its whole 4-column block
        assert_eq!(plan.needed_entries, 2);
        assert_eq!(plan.fetch_entries, 8);
        assert!(plan.intervals.len() <= 2);
    }

    #[test]
    fn block_mode_merges_adjacent_blocks() {
        let cols: Vec<(u32, u64)> = (0..8).map(|j| (j, 1)).collect();
        let metas = vec![meta(&[]), meta(&cols)];
        let offsets = [0, 0, 8];
        // K=4 blocks of 2 positions; needs at 1, 2, 5 select blocks 0, 1, 2
        // which are adjacent and coalesce into ONE ranged get of [0, 6)
        let plan = plan_fetch(
            FetchMode::Block(4),
            &metas,
            &offsets,
            &needed(8, &[1, 2, 5]),
            0,
        );
        assert_eq!(plan.intervals.len(), 1);
        assert_eq!(plan.fetch_entries, 6);
        // needs at 1 and 7 select blocks 0 and 3: a gap, two intervals
        let plan = plan_fetch(
            FetchMode::Block(4),
            &metas,
            &offsets,
            &needed(8, &[1, 7]),
            0,
        );
        assert_eq!(plan.intervals.len(), 2);
        assert_eq!(plan.fetch_entries, 4);
        assert_eq!(plan.needed_entries, 2);
    }

    #[test]
    fn block_mode_with_more_blocks_than_columns_stays_coalesced() {
        // K far above nzc leaves most block ids empty; storage-adjacent
        // needs must still coalesce into one ranged get rather than
        // degenerating to per-column messages
        let cols: Vec<(u32, u64)> = (0..4).map(|j| (j, 2)).collect();
        let metas = vec![meta(&[]), meta(&cols)];
        let offsets = [0, 0, 4];
        let plan = plan_fetch(
            FetchMode::Block(256),
            &metas,
            &offsets,
            &needed(4, &[0, 1, 2, 3]),
            0,
        );
        assert_eq!(plan.intervals.len(), 1);
        assert_eq!(plan.fetch_entries, 8);
        assert_eq!(plan.fetch_entries, plan.needed_entries);
    }

    #[test]
    fn full_matrix_ignores_sparsity() {
        let metas = vec![meta(&[]), meta(&[(0, 3), (5, 2)])];
        let offsets = [0, 10, 20];
        let plan = plan_fetch(FetchMode::FullMatrix, &metas, &offsets, &needed(20, &[]), 0);
        assert_eq!(plan.fetch_entries, 5);
        assert_eq!(plan.needed_entries, 0);
        assert_eq!(plan.intervals.len(), 1);
    }

    #[test]
    fn own_slice_never_fetched() {
        let metas = vec![meta(&[(0, 4)]), meta(&[(0, 4)])];
        let offsets = [0, 10, 20];
        let plan = plan_fetch(
            FetchMode::ColumnExact,
            &metas,
            &offsets,
            &needed(20, &[0, 10]),
            1,
        );
        assert_eq!(plan.intervals.len(), 1);
        assert_eq!(plan.intervals[0].owner, 0);
    }
}
