//! Passive-target RDMA windows — the paper's key communication primitive.
//!
//! Algorithm 1 line 1: "Create two MPI Windows for row id and numeric
//! values of A"; line 7: "Use passive-target RDMA Calls (MPI_Get) to fetch
//! the remote column block data". A [`PairedWindow`] is those two windows
//! exposed in one collective round: [`PairedWindow::create`] is the
//! exposure (`MPI_Win_create`), [`PairedWindow::get_many_at`] the one
//! batched get — a whole plan, each request landing in place. The target
//! rank's thread never participates in a get — faithful to RDMA semantics
//! where the NIC serves remote reads.

use crate::backend::Comm;
use crate::wire::Wire;
use std::ops::Range;
use std::sync::Arc;

/// An element type a window can expose: fixed-size, byte-serializable.
///
/// In-process backends never serialize (they share the exposed `Arc`), but
/// a cross-process backend exposes the deposit as little-endian bytes its
/// peers map, so window elements must have a wire form. The set of
/// implementors mirrors the primitive types windows actually carry in this
/// workspace.
pub trait WinElem: Wire + Copy + Send + Sync + 'static {}

impl WinElem for u8 {}
impl WinElem for u16 {}
impl WinElem for u32 {}
impl WinElem for u64 {}
impl WinElem for i32 {}
impl WinElem for i64 {}
impl WinElem for f32 {}
impl WinElem for f64 {}

/// One rank's deposit as [`Comm::expose`] hands it to every rank — one
/// entry per rank of the communicator — and where a get against that rank
/// reads.
#[derive(Clone)]
pub enum Exposure<T, U> {
    /// Zero-copy: the rank's deposit itself (every rank in-process; the
    /// calling rank's own across processes).
    Shared(Arc<(Vec<T>, Vec<U>)>),
    /// A peer process's deposit, mapped read-only: part 0's little-endian
    /// bytes, then part 1's (empty for an empty deposit).
    Mapped(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

/// The elements `bytes` holds (little-endian, fixed width), in order: one
/// chunk per element, the block decode `Wire::get_into` runs.
fn decode<T: WinElem>(bytes: &[u8]) -> impl Iterator<Item = T> + '_ {
    bytes
        .chunks_exact(size_of::<T>())
        .map(|mut chunk| T::get(&mut chunk).expect("window payload decode"))
}

/// Decode `bytes` (exactly `out.len()` elements) over `out`.
fn decode_in_place<T: WinElem>(bytes: &[u8], out: &mut [T]) {
    assert_eq!(
        bytes.len(),
        std::mem::size_of_val(out),
        "window payload length"
    );
    for (x, v) in out.iter_mut().zip(decode(bytes)) {
        *x = v;
    }
}

/// Errors a one-sided access can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// Target rank does not exist in the communicator.
    BadRank { rank: usize, size: usize },
    /// Requested range exceeds the exposed buffer.
    OutOfRange {
        rank: usize,
        requested_end: usize,
        exposed_len: usize,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::BadRank { rank, size } => {
                write!(f, "window get from rank {rank}, communicator has {size}")
            }
            WindowError::OutOfRange {
                rank,
                requested_end,
                exposed_len,
            } => write!(
                f,
                "window get past end of rank {rank}'s buffer: {requested_end} > {exposed_len}"
            ),
        }
    }
}

impl std::error::Error for WindowError {}

/// Two parallel arrays exposed in a **single** collective round.
///
/// Algorithm 1 exposes both the row-id and the numeric-value array of the
/// local `A`; creating them as one paired window halves the per-multiply
/// rendezvous count, which matters when a multiply is issued per BFS level
/// (betweenness centrality) rather than once per application run. The
/// handle is cheap to clone (it holds `Arc`s of the exposed buffers) and
/// backend-neutral.
#[derive(Clone)]
pub struct PairedWindow<T, U> {
    /// Where a get against each rank reads from: the rank's shared deposit
    /// or its mapped bytes.
    srcs: Vec<Exposure<T, U>>,
    /// Length of each rank's exposed arrays.
    lens: Vec<usize>,
}

impl<T: WinElem, U: WinElem> PairedWindow<T, U> {
    /// Collectively expose `(a, b)` from every rank. The arrays must be
    /// parallel (same length); they are frozen for the window's lifetime
    /// (passive-target exposure epoch).
    pub fn create<C: Comm>(comm: &C, a: Vec<T>, b: Vec<U>) -> PairedWindow<T, U> {
        assert_eq!(a.len(), b.len(), "paired window arrays must be parallel");
        let elem_bytes = std::mem::size_of::<T>() + std::mem::size_of::<U>();
        let srcs = comm.expose(Arc::new((a, b)));
        let lens = srcs
            .iter()
            .map(|src| match src {
                Exposure::Shared(buf) => buf.0.len(),
                Exposure::Mapped(bytes) => (**bytes).as_ref().len() / elem_bytes,
            })
            .collect();
        PairedWindow { srcs, lens }
    }

    /// Length of `rank`'s exposed arrays.
    pub fn len_of(&self, rank: usize) -> usize {
        self.lens[rank]
    }

    /// One-sided fetch of a whole plan, each get landing in place: for each
    /// `(rank, range, at)` of `gets`, in order, `range` of both of `rank`'s
    /// arrays overwrites `out_a[at..]`/`out_b[at..]` — Algorithm 1 line 7's
    /// `MPI_Get`s followed by one `MPI_Win_flush`. Validated as a whole
    /// first (a failed batch meters nothing and leaves the outputs
    /// untouched; a destination past the end of the outputs panics before
    /// anything is read), then each get is metered (two RDMA messages per
    /// remote request, nothing for own-rank entries) and copied, in plan
    /// order on the calling thread: from the target's deposit in-process,
    /// decoded from its mapped bytes across processes.
    pub fn get_many_at<C: Comm>(
        &self,
        comm: &C,
        gets: &[(usize, Range<usize>, usize)],
        out_a: &mut [T],
        out_b: &mut [U],
    ) -> Result<(), WindowError> {
        for (rank, range, at) in gets {
            self.check(*rank, range)?;
            assert!(
                at + range.len() <= out_a.len().min(out_b.len()),
                "window get lands past the end of its destination"
            );
        }
        for (rank, range, at) in gets {
            let (dst_a, dst_b) = (
                &mut out_a[*at..at + range.len()],
                &mut out_b[*at..at + range.len()],
            );
            match self.read(comm, *rank, range) {
                Read::Typed(a, b) => {
                    dst_a.copy_from_slice(a);
                    dst_b.copy_from_slice(b);
                }
                Read::Bytes(a, b) => {
                    decode_in_place(a, dst_a);
                    decode_in_place(b, dst_b);
                }
            }
        }
        Ok(())
    }

    /// Whether `range` of `rank`'s arrays is exposed.
    fn check(&self, rank: usize, range: &Range<usize>) -> Result<(), WindowError> {
        let size = self.lens.len();
        let exposed_len = *self
            .lens
            .get(rank)
            .ok_or(WindowError::BadRank { rank, size })?;
        if range.end > exposed_len {
            return Err(WindowError::OutOfRange {
                rank,
                requested_end: range.end,
                exposed_len,
            });
        }
        Ok(())
    }

    /// Meter one checked get and borrow what it reads: the target's arrays
    /// in-process, their mapped bytes across processes.
    fn read<C: Comm>(&self, comm: &C, rank: usize, range: &Range<usize>) -> Read<'_, T, U> {
        let (ta, tb) = (std::mem::size_of::<T>(), std::mem::size_of::<U>());
        if rank != comm.rank() {
            comm.record_get(range.len() * ta);
            comm.record_get(range.len() * tb);
        }
        match &self.srcs[rank] {
            Exposure::Shared(buf) => Read::Typed(&buf.0[range.clone()], &buf.1[range.clone()]),
            Exposure::Mapped(bytes) => {
                let (a, b) = (**bytes).as_ref().split_at(self.lens[rank] * ta);
                let part = |elem: usize| range.start * elem..range.end * elem;
                Read::Bytes(&a[part(ta)], &b[part(tb)])
            }
        }
    }

    /// One-sided fetch of `range` from both of `rank`'s arrays, appended to
    /// `out_a`/`out_b`: checked and metered as one request of
    /// [`get_many_at`](PairedWindow::get_many_at), then appended where that
    /// lands in place, so the outputs grow by exactly what the get reads
    /// and nothing is written twice. A failed get meters nothing and leaves
    /// the outputs untouched.
    pub fn get_both_into<C: Comm>(
        &self,
        comm: &C,
        rank: usize,
        range: Range<usize>,
        out_a: &mut Vec<T>,
        out_b: &mut Vec<U>,
    ) -> Result<(), WindowError> {
        self.check(rank, &range)?;
        match self.read(comm, rank, &range) {
            Read::Typed(a, b) => {
                out_a.extend_from_slice(a);
                out_b.extend_from_slice(b);
            }
            Read::Bytes(a, b) => {
                out_a.extend(decode::<T>(a));
                out_b.extend(decode::<U>(b));
            }
        }
        Ok(())
    }
}

/// What one get reads: slices of the target's arrays, or their
/// little-endian bytes.
enum Read<'w, T, U> {
    Typed(&'w [T], &'w [U]),
    Bytes(&'w [u8], &'w [u8]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    /// Fetch `range` of both of `rank`'s arrays into fresh vectors.
    fn get<C: Comm, T: WinElem, U: WinElem>(
        win: &PairedWindow<T, U>,
        comm: &C,
        rank: usize,
        range: Range<usize>,
    ) -> (Vec<T>, Vec<U>) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        win.get_both_into(comm, rank, range, &mut a, &mut b)
            .unwrap();
        (a, b)
    }

    #[test]
    fn exposes_and_fetches() {
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let ids: Vec<u64> = (0..10).map(|i| (comm.rank() * 100 + i) as u64).collect();
            let vals: Vec<f64> = ids.iter().map(|&i| i as f64 / 2.0).collect();
            let win = PairedWindow::create(comm, ids, vals);
            // every rank reads a slice of rank 1
            get(&win, comm, 1, 2..5)
        });
        for (ids, vals) in got {
            assert_eq!(ids, vec![102, 103, 104]);
            assert_eq!(vals, vec![51.0, 51.5, 52.0]);
        }
    }

    #[test]
    fn gets_are_metered_and_local_reads_free() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = PairedWindow::create(comm, vec![1.0f64; 50], vec![1u32; 50]);
            let before = comm.stats();
            let _ = get(&win, comm, 1 - comm.rank(), 0..50); // remote: 400 + 200 B
            let _ = get(&win, comm, comm.rank(), 0..50); // local: free
            comm.stats() - before
        });
        for s in got {
            assert_eq!(s.rdma_gets, 2, "one message per exposed array");
            assert_eq!(s.rdma_get_bytes, 600);
        }
    }

    #[test]
    fn out_of_range_is_reported() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let n = comm.rank() * 4;
            let win = PairedWindow::create(comm, vec![0u32; n], vec![0u8; n]);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            win.get_both_into(comm, 0, 0..10, &mut a, &mut b).err()
        });
        assert_eq!(
            got[1],
            Some(WindowError::OutOfRange {
                rank: 0,
                requested_end: 10,
                exposed_len: 0
            })
        );
    }

    #[test]
    fn bad_rank_is_reported() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = PairedWindow::create(comm, vec![0u8; 1], vec![0u8; 1]);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            win.get_both_into(comm, 7, 0..1, &mut a, &mut b).err()
        });
        assert_eq!(got[0], Some(WindowError::BadRank { rank: 7, size: 2 }));
    }

    #[test]
    fn uneven_buffer_sizes() {
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let n = comm.rank() * 3;
            let win = PairedWindow::create(comm, vec![comm.rank() as u8; n], vec![0f32; n]);
            (0..4).map(|r| win.len_of(r)).collect::<Vec<_>>()
        });
        for lens in got {
            assert_eq!(lens, vec![0, 3, 6, 9]);
        }
    }

    #[test]
    fn ranged_fetches_meter_exact_bytes_per_rank() {
        // The fetch path's accounting contract: every ranged remote get
        // charges exactly range_len * size_of of each array to the
        // *issuing* rank, and nothing to the target.
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let win = PairedWindow::create(
                comm,
                vec![comm.rank() as u64; 16],
                vec![comm.rank() as u32; 16],
            );
            let before = comm.stats();
            if comm.rank() == 0 {
                let _ = get(&win, comm, 1, 2..7); // 5 * (8 + 4) B
                let _ = get(&win, comm, 2, 0..16); // 16 * (8 + 4) B
                let _ = get(&win, comm, 1, 10..10); // empty range: 2 msgs, 0 B
            }
            comm.barrier();
            comm.stats() - before
        });
        assert_eq!(got[0].rdma_gets, 6);
        assert_eq!(got[0].rdma_get_bytes, (5 + 16) * 12);
        // targets of one-sided gets stay idle and uncharged
        assert_eq!(got[1].rdma_gets, 0);
        assert_eq!(got[1].rdma_get_bytes, 0);
        assert_eq!(got[2].rdma_get_bytes, 0);
    }

    #[test]
    fn get_into_appends_preserving_existing_contents() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let r = comm.rank() as u32;
            let win = PairedWindow::create(comm, vec![r + 10; 4], vec![r as f64; 4]);
            let (mut a, mut b) = (vec![99u32], vec![-1.0f64]);
            for (rank, range) in [(0, 0..2), (1, 1..3)] {
                win.get_both_into(comm, rank, range, &mut a, &mut b)
                    .unwrap();
            }
            (a, b)
        });
        for (a, b) in got {
            assert_eq!(a, vec![99, 10, 10, 11, 11]);
            assert_eq!(b, vec![-1.0, 0.0, 0.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn get_at_lands_in_place_and_meters_like_appending() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let r = comm.rank() as u32;
            let win = PairedWindow::create(comm, vec![r + 10; 4], vec![r as f64; 4]);
            let (mut a, mut b) = (vec![99u32; 6], vec![-1.0f64; 6]);
            let before = comm.stats();
            win.get_many_at(comm, &[(1, 1..3, 3), (0, 0..1, 0)], &mut a, &mut b)
                .unwrap();
            let at = comm.stats() - before;
            let before = comm.stats();
            let (mut a1, mut b1) = (Vec::new(), Vec::new());
            for (rank, range) in [(1, 1..3), (0, 0..1)] {
                win.get_both_into(comm, rank, range, &mut a1, &mut b1)
                    .unwrap();
            }
            (a, b, at, comm.stats() - before)
        });
        for (a, b, at, into) in got {
            assert_eq!(a, vec![10, 99, 99, 11, 11, 99]);
            assert_eq!(b, vec![0.0, -1.0, -1.0, 1.0, 1.0, -1.0]);
            assert_eq!(at, into);
        }
    }

    #[test]
    fn out_of_range_error_carries_request_and_exposure() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = PairedWindow::create(comm, vec![0u8; 6], vec![0u64; 6]);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let err = win
                .get_both_into(comm, 1, 3..9, &mut a, &mut b)
                .unwrap_err();
            (err, a.len() + b.len())
        });
        for (err, len) in got {
            assert_eq!(
                err,
                WindowError::OutOfRange {
                    rank: 1,
                    requested_end: 9,
                    exposed_len: 6
                }
            );
            assert_eq!(len, 0, "failed get must not touch the output buffers");
        }
    }

    #[test]
    fn paired_window_returns_the_exposed_arrays_and_meters_both() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let ir: Vec<u32> = (0..12).map(|i| comm.rank() as u32 * 100 + i).collect();
            let num: Vec<f64> = (0..12)
                .map(|i| (comm.rank() * 12 + i) as f64 / 3.0)
                .collect();
            let paired = PairedWindow::create(comm, ir, num);
            let other = 1 - comm.rank();
            let before = comm.stats();
            let (a, b) = get(&paired, comm, other, 4..9);
            (other, a, b, comm.stats() - before)
        });
        for (other, a, b, delta) in got {
            let ir: Vec<u32> = (4..9).map(|i| other as u32 * 100 + i).collect();
            let num: Vec<f64> = (4..9).map(|i| (other * 12 + i) as f64 / 3.0).collect();
            assert_eq!((a, b), (ir, num));
            assert_eq!(delta.rdma_gets, 2, "one message per exposed array");
            assert_eq!(delta.rdma_get_bytes, 5 * 4 + 5 * 8);
        }
    }

    #[test]
    fn paired_window_rejects_bad_rank_and_overrun() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = PairedWindow::create(comm, vec![1u32; 3], vec![1.0f64; 3]);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let bad = win
                .get_both_into(comm, 5, 0..1, &mut a, &mut b)
                .unwrap_err();
            let oob = win
                .get_both_into(comm, 0, 0..4, &mut a, &mut b)
                .unwrap_err();
            (bad, oob, a.len(), b.len())
        });
        for (bad, oob, alen, blen) in got {
            assert!(matches!(bad, WindowError::BadRank { rank: 5, size: 2 }));
            assert!(matches!(
                oob,
                WindowError::OutOfRange {
                    requested_end: 4,
                    exposed_len: 3,
                    ..
                }
            ));
            assert_eq!((alen, blen), (0, 0));
        }
    }

    #[test]
    fn two_windows_coexist() {
        // A session keeps its window open while a sessionless multiply
        // exposes another: the two must not alias.
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let r = comm.rank();
            let w1 = PairedWindow::create(comm, vec![r as u32; 4], vec![r as f64 + 0.5; 4]);
            let w2 = PairedWindow::create(comm, vec![r as u64 + 7; 2], vec![r as u8; 2]);
            let other = 1 - r;
            (get(&w1, comm, other, 3..4), get(&w2, comm, other, 0..1))
        });
        assert_eq!(
            got[0],
            ((vec![1u32], vec![1.5f64]), (vec![8u64], vec![1u8]))
        );
        assert_eq!(
            got[1],
            ((vec![0u32], vec![0.5f64]), (vec![7u64], vec![0u8]))
        );
    }
}
