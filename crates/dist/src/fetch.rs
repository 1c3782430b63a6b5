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
//!
//! # The metadata record
//!
//! Algorithm 1's replicated `⃗D` and prefix sums cross the wire as one
//! `Vec<u8>` per rank, gathered by a single `allgatherv` ([`exchange_meta`]).
//! Every number in it is an LEB128 varint (seven bits a byte, low group
//! first, the high bit set on all bytes but the last):
//!
//! ```text
//! runs  = run_count, (gap, run_len) × run_count
//! record = runs(⃗D), entry_count × nzc
//! ```
//!
//! `⃗D` is cut into maximal runs of consecutive local column ids; a run's
//! `gap` counts from the end of the previous run (from 0 for the first),
//! so a slice without empty columns is one run whatever its width. The
//! entry counts follow in column order and rebuild the `u64` prefix array
//! on the receiver. A column holding fewer than 128 entries costs one
//! byte. The worst case is a hypersparse slice whose nonzero columns sit
//! at least 2^28 apart: each column is a run of its own, 5 B of gap and
//! 1 B of length, plus its count — at most 10 B per column while a column
//! holds fewer than 2^28 entries (11 B beyond that), and at most 5 B of
//! run count per record. [`SpgemmSession::update_a`] sends each rank's
//! changed-column list as bare runs ahead of its new record, in the same
//! `allgatherv` ([`exchange_update`]).
//!
//! [`SpgemmSession::update_a`]: crate::session::SpgemmSession::update_a

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

    /// This metadata's wire record (see the module doc).
    pub fn record(&self) -> Vec<u8> {
        meta_record(&self.jc, self.cp.windows(2).map(|w| w[1] - w[0]))
    }

    /// Decode the record rank `from` sent, panicking with its name on a
    /// malformed one.
    fn from_record(from: usize, rec: &[u8]) -> RankMeta {
        RankMeta::decode(rec).unwrap_or_else(|e| panic!("metadata record from rank {from}: {e}"))
    }

    /// Decode one rank's record; every malformed record is an `Err`.
    fn decode(rec: &[u8]) -> Result<RankMeta, RecordError> {
        let mut r = Reader(rec);
        let meta = RankMeta::read(&mut r)?;
        r.finish()?;
        Ok(meta)
    }

    /// Read one record off `r`.
    fn read(r: &mut Reader) -> Result<RankMeta, RecordError> {
        // ids are u32s, and each column's count takes at least one byte
        let jc = r.runs(1 << 32, r.0.len())?;
        let mut cp = Vec::with_capacity(jc.len() + 1);
        let mut end = 0u64;
        cp.push(end);
        for _ in 0..jc.len() {
            end = end.checked_add(r.varint()?).ok_or(RecordError::Overflow)?;
            cp.push(end);
        }
        Ok(RankMeta { jc, cp })
    }
}

/// Append `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The strictly ascending `ids` as maximal runs of consecutive ids: the
/// run count, then per run its gap from the previous run's end and its
/// length.
fn runs_record(ids: &[Vidx]) -> Vec<u8> {
    let runs = || ids.chunk_by(|&x, &y| u64::from(x) + 1 == u64::from(y));
    let mut out = Vec::new();
    put_varint(&mut out, runs().count() as u64);
    let mut end = 0u64;
    for run in runs() {
        put_varint(&mut out, u64::from(run[0]) - end);
        put_varint(&mut out, run.len() as u64);
        end = u64::from(run[0]) + run.len() as u64;
    }
    out
}

/// One rank's metadata record: its nonzero-column ids `jc` (strictly
/// ascending) as runs, then `lens`, the entry count of each column. The
/// one encoder behind both [`exchange_meta`] and the exact traffic
/// predictors.
pub(crate) fn meta_record(jc: &[Vidx], lens: impl Iterator<Item = u64>) -> Vec<u8> {
    let mut out = runs_record(jc);
    for l in lens {
        put_varint(&mut out, l);
    }
    out
}

/// Decode an update record (see [`exchange_update`]) whose changed ids all
/// lie below `width`.
fn decode_update(rec: &[u8], width: usize) -> Result<(Vec<Vidx>, RankMeta), RecordError> {
    let mut r = Reader(rec);
    let changed = r.runs(width as u64, width)?;
    let meta = RankMeta::read(&mut r)?;
    r.finish()?;
    Ok((changed, meta))
}

/// Why a record failed to decode.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RecordError {
    /// The record ended inside a field.
    Truncated,
    /// A varint or an entry-count sum ran past 64 bits.
    Overflow,
    /// A run was empty or reached past the ids the record may hold.
    BadRun,
    /// Bytes were left over after the last field.
    Trailing(usize),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::Overflow => write!(f, "value overflows 64 bits"),
            RecordError::BadRun => write!(f, "empty or out-of-range column run"),
            RecordError::Trailing(n) => write!(f, "{n} trailing bytes after the record"),
        }
    }
}

/// A cursor over one record.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn varint(&mut self) -> Result<u64, RecordError> {
        let mut v = 0u64;
        // ten groups of seven bits cover 64; the tenth may add one bit
        for shift in (0..64).step_by(7) {
            let (&b, rest) = self.0.split_first().ok_or(RecordError::Truncated)?;
            self.0 = rest;
            let group = u64::from(b & 0x7f);
            if shift == 63 && group > 1 {
                return Err(RecordError::Overflow);
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(RecordError::Overflow)
    }

    /// A run list's ids, all below `end` and at most `max_ids` of them.
    fn runs(&mut self, end: u64, max_ids: usize) -> Result<Vec<Vidx>, RecordError> {
        let n = self.varint()?;
        let mut ids = Vec::new();
        let mut prev = 0u64;
        for _ in 0..n {
            let start = prev.checked_add(self.varint()?);
            let len = self.varint()?;
            let room = (max_ids - ids.len()) as u64;
            prev = start
                .and_then(|s| s.checked_add(len))
                .filter(|&e| (1..=room).contains(&len) && e <= end)
                .ok_or(RecordError::BadRun)?;
            ids.extend((prev - len..prev).map(|c| c as Vidx));
        }
        Ok(ids)
    }

    fn finish(self) -> Result<(), RecordError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(RecordError::Trailing(n)),
        }
    }
}

/// Replicate every rank's (jc, cp) metadata: one `allgatherv` of each
/// rank's record (module doc), decoded into [`RankMeta`]s. Collective;
/// metered as two-sided traffic (it is metadata exchange, not the RDMA
/// fetch path), `len` bytes per record. A malformed record panics naming
/// the rank that sent it.
pub(crate) fn exchange_meta<C: Comm>(comm: &C, local: &Dcsc<f64>) -> Vec<RankMeta> {
    comm.allgatherv(local_record(local))
        .iter()
        .enumerate()
        .map(|(r, rec)| RankMeta::from_record(r, rec))
        .collect()
}

/// [`exchange_meta`] for a re-anchored operand, in the same one
/// `allgatherv`: each rank's record is led by a [`runs_record`] of its
/// `changed` local columns. Returns, per rank, its changed columns and its
/// new metadata; rank `r`'s ids must lie below its width in `offsets`. A
/// malformed record panics naming the rank that sent it.
pub(crate) fn exchange_update<C: Comm>(
    comm: &C,
    changed: &[Vidx],
    local: &Dcsc<f64>,
    offsets: &[usize],
) -> Vec<(Vec<Vidx>, RankMeta)> {
    let mut rec = runs_record(changed);
    rec.extend(local_record(local));
    comm.allgatherv(rec)
        .iter()
        .enumerate()
        .map(|(r, rec)| {
            decode_update(rec, offsets[r + 1] - offsets[r])
                .unwrap_or_else(|e| panic!("update record from rank {r}: {e}"))
        })
        .collect()
}

/// A local slice's metadata record.
fn local_record(local: &Dcsc<f64>) -> Vec<u8> {
    let lens = local.cp().windows(2).map(|w| (w[1] - w[0]) as u64);
    meta_record(local.jc(), lens)
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
    /// The paired-window request that moves this interval, landing at
    /// `at`: `(owner, entry range, at)`.
    pub fn get(&self, at: usize) -> (usize, std::ops::Range<usize>, usize) {
        let entries = self.entries.start as usize..self.entries.end as usize;
        (self.owner, entries, at)
    }
}

/// The full fetch schedule of one multiply, plus its exact cost.
pub(crate) struct FetchPlan {
    /// Ranged fetches, ordered by owner rank then position — ascending
    /// global column order, the order `Ã`'s layout walks.
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

    /// SplitMix64 — test randomness without a dependency.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Round-trip `cols` through the record; returns its length.
    fn round_trip(cols: &[(u32, u64)]) -> usize {
        let m = meta(cols);
        let rec = m.record();
        let back = RankMeta::decode(&rec).expect("a record decodes");
        assert_eq!(back.jc, m.jc);
        assert_eq!(back.cp, m.cp);
        rec.len()
    }

    #[test]
    fn record_round_trips_dense_and_empty_slices() {
        // no empty column: one run, one byte per count below 128
        let dense: Vec<(u32, u64)> = (0..1000).map(|j| (j, 1 + j as u64 % 127)).collect();
        // run count 1, gap 0, run length 1000 (2 B), 1000 one-byte counts
        assert_eq!(round_trip(&dense), 1 + 1 + 2 + 1000);
        // nzc = 0: the run count alone
        assert_eq!(round_trip(&[]), 1);
        assert_eq!(meta(&[]).record(), vec![0u8]);
        // runs split at every gap, wherever the first one starts
        assert_eq!(
            round_trip(&[(5, 1), (6, 2), (9, 3), (10, 4), (11, 5)]),
            1 + 4 + 5
        );
    }

    #[test]
    fn record_round_trips_hypersparse_slices_within_the_size_bound() {
        // gaps of 2^21 take four varint bytes, counts of 2^28 five
        let wide: Vec<(u32, u64)> = (0..8).map(|j| (j * ((1 << 21) + 1), 1 << 28)).collect();
        assert_eq!(round_trip(&wide), 1 + (1 + 1 + 5) + 7 * (4 + 1 + 5));
        // the worst case: columns 2^28 apart (five gap bytes), counts below
        // 2^28 (four bytes) — 10 B per column plus the run count
        let sparse: Vec<(u32, u64)> = (0..15)
            .map(|j| (j * ((1 << 28) + 1), (1 << 28) - 1))
            .collect();
        let len = round_trip(&sparse);
        assert_eq!(len, 1 + (1 + 1 + 4) + 14 * (5 + 1 + 4));
        assert!(len <= 10 * sparse.len() + 5, "{len} B");
        // the top of the u32 column-id range and the largest count
        assert!(round_trip(&[(0, u64::MAX >> 1), (u32::MAX - 1, 1), (u32::MAX, 2)]) > 0);
        // random hypersparse slices
        let mut st = 7;
        for _ in 0..50 {
            let mut j = 0u64;
            let mut cols = Vec::new();
            while cols.len() < 40 {
                j += 1 + (mix(&mut st) >> (20 + mix(&mut st) % 44));
                if j > u64::from(u32::MAX) {
                    break;
                }
                cols.push((j as u32, mix(&mut st) >> (mix(&mut st) % 64)));
            }
            round_trip(&cols);
        }
    }

    #[test]
    fn malformed_records_are_errors_not_index_panics() {
        let rec = meta(&[(0, 3), (1, 300), (1 << 22, 1)]).record();
        for cut in 0..rec.len() {
            assert_eq!(
                RankMeta::decode(&rec[..cut]).err(),
                Some(RecordError::Truncated),
                "cut at {cut}"
            );
        }
        let mut long = rec.clone();
        long.push(0);
        assert_eq!(
            RankMeta::decode(&long).err(),
            Some(RecordError::Trailing(1))
        );
        // an eleventh varint byte, or a tenth carrying more than bit 63
        let mut r = Reader(&[0xff; 11]);
        assert_eq!(r.varint(), Err(RecordError::Overflow));
        let mut r = Reader(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert_eq!(r.varint(), Err(RecordError::Overflow));
        let mut r = Reader(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(r.varint(), Ok(u64::MAX));
        // a run claiming more columns than the record could count, an
        // empty run, a run past the u32 range: refused before allocating
        let mut huge = vec![1, 0];
        put_varint(&mut huge, 1 << 40);
        assert_eq!(RankMeta::decode(&huge).err(), Some(RecordError::BadRun));
        assert_eq!(
            RankMeta::decode(&[1, 0, 0]).err(),
            Some(RecordError::BadRun)
        );
        let mut past = vec![1];
        put_varint(&mut past, u64::from(u32::MAX));
        past.extend([2, 0, 0]);
        assert_eq!(RankMeta::decode(&past).err(), Some(RecordError::BadRun));
        // an entry-count prefix that overflows u64
        let mut sum = vec![1, 0, 2];
        put_varint(&mut sum, u64::MAX);
        put_varint(&mut sum, 1);
        assert_eq!(RankMeta::decode(&sum).err(), Some(RecordError::Overflow));
    }

    #[test]
    #[should_panic(expected = "metadata record from rank 3: record truncated")]
    fn a_truncated_record_panics_naming_its_sender() {
        let rec = meta(&[(0, 3), (4, 1)]).record();
        RankMeta::from_record(3, &rec[..rec.len() - 1]);
    }

    #[test]
    fn run_records_round_trip_within_their_width() {
        let m = meta(&[(0, 3), (4, 1)]);
        let update = |ids: &[Vidx]| [runs_record(ids), m.record()].concat();
        for ids in [vec![], vec![0, 1, 2, 7, 9, 10], vec![99]] {
            let (got, got_meta) = decode_update(&update(&ids), 100).unwrap();
            assert_eq!(got, ids);
            assert_eq!((got_meta.jc, got_meta.cp), (m.jc.clone(), m.cp.clone()));
        }
        let err = |rec: &[u8], width| decode_update(rec, width).err();
        assert_eq!(err(&update(&[99]), 99), Some(RecordError::BadRun));
        assert_eq!(err(&[1, 0], 100), Some(RecordError::Truncated));
        // an empty run list and an empty metadata record, then one byte
        assert_eq!(err(&[0, 0, 0], 100), Some(RecordError::Trailing(1)));
        let rec = update(&[3]);
        assert_eq!(
            err(&rec[..rec.len() - 1], 100),
            Some(RecordError::Truncated)
        );
    }

    #[test]
    fn contiguous_runs_never_lose_to_column_exact() {
        // same needed bytes in no more intervals, on random slices and masks
        let mut st = 11;
        for _ in 0..200 {
            let offsets = [0, 40, 100, 130];
            let metas: Vec<RankMeta> = (0..3)
                .map(|o| {
                    let mut cols = Vec::new();
                    for j in 0..(offsets[o + 1] - offsets[o]) as u32 {
                        if !mix(&mut st).is_multiple_of(3) {
                            cols.push((j, 1 + mix(&mut st) % 9));
                        }
                    }
                    meta(&cols)
                })
                .collect();
            let density = mix(&mut st) % 100;
            let needed: Vec<bool> = (0..130).map(|_| mix(&mut st) % 100 < density).collect();
            let me = (mix(&mut st) % 3) as usize;
            let plan = |m| plan_fetch(m, &metas, &offsets, &needed, me);
            let (runs, exact) = (
                plan(FetchMode::ContiguousRuns),
                plan(FetchMode::ColumnExact),
            );
            assert_eq!(runs.fetch_bytes(), exact.fetch_bytes());
            assert_eq!(runs.needed_bytes(), exact.needed_bytes());
            assert_eq!(runs.fetch_bytes(), runs.needed_bytes());
            assert!(runs.intervals.len() <= exact.intervals.len());
        }
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
