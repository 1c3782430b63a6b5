//! Passive-target RDMA windows — the paper's key communication primitive.
//!
//! Algorithm 1 line 1: "Create two MPI Windows for row id and numeric
//! values of A"; line 7: "Use passive-target RDMA Calls (MPI_Get) to fetch
//! the remote column block data". [`Window::create`] is the collective
//! exposure (`MPI_Win_create`), [`Window::get`] the one-sided fetch. The
//! target rank's thread never participates in a `get` — faithful to RDMA
//! semantics where the NIC serves remote reads.

use crate::backend::Comm;
use crate::wire::Wire;
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

/// An element type a window can expose: fixed-size, byte-serializable.
///
/// In-process backends never serialize (they share the exposed `Arc`), but
/// a cross-process backend serves ranged gets as little-endian bytes, so
/// window elements must have a wire form. The set of implementors mirrors
/// the primitive types windows actually carry in this workspace.
pub trait WinElem: Wire + Copy + Send + Sync + 'static {}

impl WinElem for u8 {}
impl WinElem for u16 {}
impl WinElem for u32 {}
impl WinElem for u64 {}
impl WinElem for i32 {}
impl WinElem for i64 {}
impl WinElem for f32 {}
impl WinElem for f64 {}

/// One exposed array of a window: element count and size, plus enough for
/// a remote backend to compute byte offsets. A plain [`Window`] has one
/// part, a [`PairedWindow`] two.
#[derive(Clone, Copy, Debug)]
pub struct PartSpec {
    /// Elements in this rank's exposed array.
    pub len: usize,
    /// Bytes per element on the wire (= `size_of::<T>()` for all `WinElem`s).
    pub elem_size: usize,
}

/// What one rank contributes to a collective window exposure — the typed
/// deposit (for in-process sharing) plus untyped byte extractors (for a
/// backend that must serve ranged gets over a socket).
pub struct WindowSpec {
    /// The deposit the in-process backends exchange zero-copy.
    pub arc: Arc<dyn Any + Send + Sync>,
    /// Shape of each exposed array.
    pub parts: Vec<PartSpec>,
    /// Serialize elements `range` of part `part` of `arc` as little-endian
    /// bytes appended to `out`. Monomorphized per window element type; a
    /// remote backend's progress engine calls this to answer peers' gets.
    pub extract: fn(&(dyn Any + Send + Sync), usize, Range<usize>, &mut Vec<u8>),
}

/// The one-sided fetch transport a non-shared-memory backend returns from
/// [`Comm::expose`]: fetches raw bytes from peers' exposed arrays. Called
/// only for remote ranks (local reads never leave the process) and only
/// with in-bounds ranges (the window validates first). On peer failure the
/// implementation raises the typed [`CommError`](crate::CommError) by
/// unwinding, like every blocking primitive — it does not return errors.
pub trait RemoteWindow: Send + Sync {
    /// Fetch every `(rank, part, range)` of `gets` — elements `range` of
    /// `rank`'s part `part` — and hand response `i`'s little-endian bytes
    /// to `sink(i, bytes)` in issue order (`i` ascending, each exactly
    /// once). Nonblocking inside the call, like `MPI_Get`s under one
    /// `MPI_Win_flush`: an implementation keeps a bounded window of
    /// requests in flight rather than one round trip per get, so a plan
    /// costs its bytes, not its message count. The single get is the batch
    /// of one. A failure mid-batch unwinds after a prefix of the responses
    /// was delivered.
    fn get_many(&self, gets: &[(usize, usize, Range<usize>)], sink: &mut dyn FnMut(usize, &[u8]));
}

/// Result of [`Comm::expose`]: either every rank's deposit shared directly
/// (in-process backends) or per-rank lengths plus a byte-fetch transport
/// (cross-process backends).
pub enum Exposure {
    /// Zero-copy: deposit `r` is rank `r`'s exposed data.
    Shared(Vec<Arc<dyn Any + Send + Sync>>),
    /// One-sided transport: `lens[r][p]` is the element count of rank `r`'s
    /// part `p`; `transport` fetches the bytes.
    Remote {
        lens: Vec<Vec<usize>>,
        transport: Arc<dyn RemoteWindow>,
    },
}

fn extract_vec<T: WinElem>(
    any: &(dyn Any + Send + Sync),
    part: usize,
    range: Range<usize>,
    out: &mut Vec<u8>,
) {
    debug_assert_eq!(part, 0);
    let v = any.downcast_ref::<Vec<T>>().expect("window deposit type");
    T::put_slice(&v[range], out);
}

fn extract_pair<T: WinElem, U: WinElem>(
    any: &(dyn Any + Send + Sync),
    part: usize,
    range: Range<usize>,
    out: &mut Vec<u8>,
) {
    let (a, b) = any
        .downcast_ref::<(Vec<T>, Vec<U>)>()
        .expect("paired window deposit type");
    match part {
        0 => T::put_slice(&a[range], out),
        1 => U::put_slice(&b[range], out),
        _ => unreachable!("paired window has two parts"),
    }
}

/// Decode `bytes` (little-endian, validated length) appending to `out`.
fn decode_elems<T: WinElem>(bytes: &[u8], count: usize, out: &mut Vec<T>) {
    let mut buf = bytes;
    T::get_into(&mut buf, count, out).expect("window payload decode");
    assert!(buf.is_empty(), "window payload had trailing bytes");
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

/// The validation every get passes before it is metered or moved: `rank`
/// exists among `nranks`, and `range` ends inside its exposed buffer.
fn check_get(
    rank: usize,
    range: &Range<usize>,
    nranks: usize,
    len_of: impl Fn(usize) -> usize,
) -> Result<(), WindowError> {
    if rank >= nranks {
        return Err(WindowError::BadRank { rank, size: nranks });
    }
    if range.end > len_of(rank) {
        return Err(WindowError::OutOfRange {
            rank,
            requested_end: range.end,
            exposed_len: len_of(rank),
        });
    }
    Ok(())
}

enum WinInner<T> {
    /// In-process: every rank's exposed buffer shared zero-copy.
    Shared { bufs: Vec<Arc<Vec<T>>> },
    /// Cross-process: own buffer held locally, peers' served over a
    /// byte-fetch transport.
    Remote {
        me: usize,
        local: Arc<Vec<T>>,
        lens: Vec<usize>,
        transport: Arc<dyn RemoteWindow>,
    },
}

impl<T> Clone for WinInner<T> {
    fn clone(&self) -> Self {
        match self {
            WinInner::Shared { bufs } => WinInner::Shared { bufs: bufs.clone() },
            WinInner::Remote {
                me,
                local,
                lens,
                transport,
            } => WinInner::Remote {
                me: *me,
                local: local.clone(),
                lens: lens.clone(),
                transport: transport.clone(),
            },
        }
    }
}

/// A window over per-rank exposed buffers of `T`.
///
/// The handle is cheap to clone (it holds `Arc`s of the exposed buffers).
pub struct Window<T> {
    inner: WinInner<T>,
}

impl<T: WinElem> Window<T> {
    /// Collectively expose `local` from every rank. The data is frozen for
    /// the window's lifetime (passive-target exposure epoch). Works on any
    /// backend; the window handle itself is backend-neutral.
    pub fn create<C: Comm>(comm: &C, local: Vec<T>) -> Window<T> {
        let len = local.len();
        let arc: Arc<dyn Any + Send + Sync> = Arc::new(local);
        let spec = WindowSpec {
            arc: arc.clone(),
            parts: vec![PartSpec {
                len,
                elem_size: std::mem::size_of::<T>(),
            }],
            extract: extract_vec::<T>,
        };
        let inner = match comm.expose(spec) {
            Exposure::Shared(deposits) => WinInner::Shared {
                bufs: deposits
                    .into_iter()
                    .map(|a| a.downcast::<Vec<T>>().expect("window type mismatch"))
                    .collect(),
            },
            Exposure::Remote { lens, transport } => WinInner::Remote {
                me: comm.rank(),
                local: arc.downcast::<Vec<T>>().expect("window type mismatch"),
                lens: lens.into_iter().map(|l| l[0]).collect(),
                transport,
            },
        };
        Window { inner }
    }

    /// Length of `rank`'s exposed buffer.
    pub fn len_of(&self, rank: usize) -> usize {
        match &self.inner {
            WinInner::Shared { bufs } => bufs[rank].len(),
            WinInner::Remote { lens, .. } => lens[rank],
        }
    }

    fn nranks(&self) -> usize {
        match &self.inner {
            WinInner::Shared { bufs } => bufs.len(),
            WinInner::Remote { lens, .. } => lens.len(),
        }
    }

    /// This rank's own exposed buffer (no traffic).
    pub fn local<'a, C: Comm>(&'a self, comm: &C) -> &'a [T] {
        match &self.inner {
            WinInner::Shared { bufs } => &bufs[comm.rank()],
            WinInner::Remote { me, local, .. } => {
                debug_assert_eq!(*me, comm.rank());
                local
            }
        }
    }

    /// One-sided fetch of `range` from `rank`'s buffer into a fresh vector,
    /// metered as one RDMA message. Local gets are free (the paper's ranks
    /// read their own slice directly).
    pub fn get<C: Comm>(&self, comm: &C, rank: usize, range: Range<usize>) -> Vec<T> {
        let mut out = Vec::new();
        self.get_into(comm, rank, range, &mut out).unwrap();
        out
    }

    /// As [`Window::get`], appending into `out`; returns errors instead of
    /// panicking (failure-injection friendly).
    pub fn get_into<C: Comm>(
        &self,
        comm: &C,
        rank: usize,
        range: Range<usize>,
        out: &mut Vec<T>,
    ) -> Result<(), WindowError> {
        check_get(rank, &range, self.nranks(), |r| self.len_of(r))?;
        if rank != comm.rank() {
            comm.record_get((range.end - range.start) * std::mem::size_of::<T>());
        }
        match &self.inner {
            WinInner::Shared { bufs } => out.extend_from_slice(&bufs[rank][range]),
            WinInner::Remote {
                me,
                local,
                transport,
                ..
            } => {
                if rank == *me {
                    out.extend_from_slice(&local[range]);
                } else {
                    let count = range.end - range.start;
                    transport.get_many(&[(rank, 0, range)], &mut |_, bytes| {
                        decode_elems(bytes, count, out)
                    });
                }
            }
        }
        Ok(())
    }
}

impl<T> Clone for Window<T> {
    fn clone(&self) -> Self {
        Window {
            inner: self.inner.clone(),
        }
    }
}

/// Two parallel arrays exposed in a **single** collective round.
///
/// Algorithm 1 exposes both the row-id and the numeric-value array of the
/// local `A`; creating them as one paired window halves the per-multiply
/// rendezvous count, which matters when a multiply is issued per BFS level
/// (betweenness centrality) rather than once per application run.
pub struct PairedWindow<T, U> {
    /// Where a get against each rank reads from: the rank's shared deposit
    /// (every rank in-process; this rank's own across processes) or the
    /// byte-fetch transport.
    srcs: Vec<GetSrc<T, U>>,
    /// Length of each rank's exposed arrays.
    lens: Vec<usize>,
}

impl<T: WinElem, U: WinElem> PairedWindow<T, U> {
    /// Collectively expose `(a, b)` from every rank. The arrays must be
    /// parallel (same length); they are frozen for the window's lifetime.
    pub fn create<C: Comm>(comm: &C, a: Vec<T>, b: Vec<U>) -> PairedWindow<T, U> {
        assert_eq!(a.len(), b.len(), "paired window arrays must be parallel");
        let len = a.len();
        let arc: Arc<dyn Any + Send + Sync> = Arc::new((a, b));
        let spec = WindowSpec {
            arc: arc.clone(),
            parts: vec![
                PartSpec {
                    len,
                    elem_size: std::mem::size_of::<T>(),
                },
                PartSpec {
                    len,
                    elem_size: std::mem::size_of::<U>(),
                },
            ],
            extract: extract_pair::<T, U>,
        };
        let pair = |d: Arc<dyn Any + Send + Sync>| {
            d.downcast::<(Vec<T>, Vec<U>)>()
                .expect("paired window type")
        };
        match comm.expose(spec) {
            Exposure::Shared(deposits) => {
                let bufs: Vec<_> = deposits.into_iter().map(pair).collect();
                PairedWindow {
                    lens: bufs.iter().map(|buf| buf.0.len()).collect(),
                    srcs: bufs.into_iter().map(GetSrc::Local).collect(),
                }
            }
            Exposure::Remote { lens, transport } => PairedWindow {
                srcs: (0..lens.len())
                    .map(|rank| {
                        if rank == comm.rank() {
                            GetSrc::Local(pair(arc.clone()))
                        } else {
                            GetSrc::Transport(transport.clone())
                        }
                    })
                    .collect(),
                lens: lens.into_iter().map(|l| l[0]).collect(),
            },
        }
    }

    /// Length of `rank`'s exposed arrays.
    pub fn len_of(&self, rank: usize) -> usize {
        self.lens[rank]
    }

    /// One-sided fetch of a whole plan: for each `(rank, range)` of `gets`,
    /// in order, append `range` of both of `rank`'s arrays to
    /// `out_a`/`out_b` — Algorithm 1 line 7's `MPI_Get`s followed by one
    /// `MPI_Win_flush`. Validated as a whole first (a failed batch meters
    /// nothing and leaves the outputs untouched), then metered exactly as
    /// the same gets issued one by one (two RDMA messages per remote
    /// request, nothing for own-rank entries, in plan order on the calling
    /// thread), then moved: in-process backends copy, a cross-process
    /// backend pipelines the requests under its bounded in-flight window
    /// instead of paying one round trip each.
    pub fn get_many_into<C: Comm>(
        &self,
        comm: &C,
        gets: &[(usize, Range<usize>)],
        out_a: &mut Vec<T>,
        out_b: &mut Vec<U>,
    ) -> Result<(), WindowError> {
        for (rank, range) in gets {
            check_get(*rank, range, self.lens.len(), |r| self.lens[r])?;
        }
        for (rank, range) in gets {
            if *rank != comm.rank() {
                comm.record_get(range.len() * std::mem::size_of::<T>());
                comm.record_get(range.len() * std::mem::size_of::<U>());
            }
        }
        // Local sources are copied; each run of consecutive remote gets
        // travels as one `RemoteWindow::get_many` batch (both arrays of
        // every get) through the window's transport.
        let mut i = 0;
        while i < gets.len() {
            let (rank, range) = &gets[i];
            match &self.srcs[*rank] {
                GetSrc::Local(buf) => {
                    out_a.extend_from_slice(&buf.0[range.clone()]);
                    out_b.extend_from_slice(&buf.1[range.clone()]);
                    i += 1;
                }
                GetSrc::Transport(transport) => {
                    let mut parts = Vec::new();
                    while let Some((rank, range)) = gets.get(i) {
                        if !matches!(self.srcs[*rank], GetSrc::Transport(_)) {
                            break;
                        }
                        parts.push((*rank, 0, range.clone()));
                        parts.push((*rank, 1, range.clone()));
                        i += 1;
                    }
                    transport.get_many(&parts, &mut |k, bytes| {
                        let (_, part, range) = &parts[k];
                        if *part == 0 {
                            decode_elems(bytes, range.len(), out_a)
                        } else {
                            decode_elems(bytes, range.len(), out_b)
                        }
                    });
                }
            }
        }
        Ok(())
    }

    /// One-sided fetch of `range` from both of `rank`'s arrays, appended to
    /// `out_a`/`out_b`: [`get_many_into`](PairedWindow::get_many_into) of
    /// one request (both arrays in flight together on a cross-process
    /// backend — one round trip, not two).
    pub fn get_both_into<C: Comm>(
        &self,
        comm: &C,
        rank: usize,
        range: Range<usize>,
        out_a: &mut Vec<T>,
        out_b: &mut Vec<U>,
    ) -> Result<(), WindowError> {
        self.get_many_into(comm, &[(rank, range)], out_a, out_b)
    }
}

impl<T, U> Clone for PairedWindow<T, U> {
    fn clone(&self) -> Self {
        PairedWindow {
            srcs: self.srcs.clone(),
            lens: self.lens.clone(),
        }
    }
}

/// Where a paired get reads from: the target's shared buffer pair
/// (in-process, or the issuing rank's own deposit) or the cross-process
/// byte-fetch transport.
enum GetSrc<T, U> {
    Local(Arc<(Vec<T>, Vec<U>)>),
    Transport(Arc<dyn RemoteWindow>),
}

impl<T, U> Clone for GetSrc<T, U> {
    fn clone(&self) -> Self {
        match self {
            GetSrc::Local(buf) => GetSrc::Local(buf.clone()),
            GetSrc::Transport(transport) => GetSrc::Transport(transport.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn exposes_and_fetches() {
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let data: Vec<u64> = (0..10).map(|i| (comm.rank() * 100 + i) as u64).collect();
            let win = Window::create(comm, data);
            // every rank reads a slice of rank 1

            win.get(comm, 1, 2..5)
        });
        for p in got {
            assert_eq!(p, vec![102, 103, 104]);
        }
    }

    #[test]
    fn gets_are_metered_and_local_reads_free() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = Window::create(comm, vec![1.0f64; 50]);
            let before = comm.stats();
            let _ = win.get(comm, 1 - comm.rank(), 0..50); // remote: 400 B
            let _ = win.get(comm, comm.rank(), 0..50); // local: free
            let _ = win.local(comm);
            comm.stats() - before
        });
        for s in got {
            assert_eq!(s.rdma_gets, 1);
            assert_eq!(s.rdma_get_bytes, 400);
        }
    }

    #[test]
    fn out_of_range_is_reported() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = Window::create(comm, vec![0u32; comm.rank() * 4]);
            let mut out = Vec::new();
            win.get_into(comm, 0, 0..10, &mut out).err()
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
            let win = Window::create(comm, vec![0u8; 1]);
            let mut out = Vec::new();
            win.get_into(comm, 7, 0..1, &mut out).err()
        });
        assert_eq!(got[0], Some(WindowError::BadRank { rank: 7, size: 2 }));
    }

    #[test]
    fn uneven_buffer_sizes() {
        let u = Universe::new(4);
        let got = u.run(|comm| {
            let win = Window::create(comm, vec![comm.rank() as u8; comm.rank() * 3]);
            (0..4).map(|r| win.len_of(r)).collect::<Vec<_>>()
        });
        for lens in got {
            assert_eq!(lens, vec![0, 3, 6, 9]);
        }
    }

    #[test]
    fn ranged_fetches_meter_exact_bytes_per_rank() {
        // The fetch path's accounting contract: every ranged remote get
        // charges exactly range_len * size_of::<T>() to the *issuing* rank,
        // and nothing to the target.
        let u = Universe::new(3);
        let got = u.run(|comm| {
            let win = Window::create(comm, vec![comm.rank() as u64; 16]);
            let before = comm.stats();
            if comm.rank() == 0 {
                let _ = win.get(comm, 1, 2..7); // 5 * 8 B
                let _ = win.get(comm, 2, 0..16); // 16 * 8 B
                let _ = win.get(comm, 1, 10..10); // empty range: 1 msg, 0 B
            }
            comm.barrier();
            comm.stats() - before
        });
        assert_eq!(got[0].rdma_gets, 3);
        assert_eq!(got[0].rdma_get_bytes, (5 + 16) * 8);
        // targets of one-sided gets stay idle and uncharged
        assert_eq!(got[1].rdma_gets, 0);
        assert_eq!(got[1].rdma_get_bytes, 0);
        assert_eq!(got[2].rdma_get_bytes, 0);
    }

    #[test]
    fn get_into_appends_preserving_existing_contents() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = Window::create(comm, vec![comm.rank() as u32 + 10; 4]);
            let mut out = vec![99u32];
            win.get_into(comm, 0, 0..2, &mut out).unwrap();
            win.get_into(comm, 1, 1..3, &mut out).unwrap();
            out
        });
        for o in got {
            assert_eq!(o, vec![99, 10, 10, 11, 11]);
        }
    }

    #[test]
    fn out_of_range_error_carries_request_and_exposure() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win = Window::create(comm, vec![0u8; 6]);
            let mut out = Vec::new();
            let err = win.get_into(comm, 1, 3..9, &mut out).unwrap_err();
            (err, out.len())
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
            assert_eq!(len, 0, "failed get must not touch the output buffer");
        }
    }

    #[test]
    fn paired_window_matches_two_plain_windows_and_meters_both_arrays() {
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let ir: Vec<u32> = (0..12).map(|i| comm.rank() as u32 * 100 + i).collect();
            let num: Vec<f64> = (0..12).map(|i| i as f64 / 3.0).collect();
            let paired = PairedWindow::create(comm, ir.clone(), num.clone());
            let w_ir = Window::create(comm, ir);
            let w_num = Window::create(comm, num);
            let other = 1 - comm.rank();
            let before = comm.stats();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            paired
                .get_both_into(comm, other, 4..9, &mut a, &mut b)
                .unwrap();
            let delta = comm.stats() - before;
            let a2 = w_ir.get(comm, other, 4..9);
            let b2 = w_num.get(comm, other, 4..9);
            (a == a2, b == b2, delta)
        });
        for (ir_same, num_same, delta) in got {
            assert!(ir_same && num_same);
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
        // Algorithm 1 uses two windows (row ids + values).
        let u = Universe::new(2);
        let got = u.run(|comm| {
            let win_ir = Window::create(comm, vec![comm.rank() as u32; 4]);
            let win_num = Window::create(comm, vec![comm.rank() as f64 + 0.5; 4]);
            let other = 1 - comm.rank();
            (
                win_ir.get(comm, other, 0..1),
                win_num.get(comm, other, 3..4),
            )
        });
        assert_eq!(got[0].0, vec![1u32]);
        assert_eq!(got[0].1, vec![1.5f64]);
        assert_eq!(got[1].0, vec![0u32]);
        assert_eq!(got[1].1, vec![0.5f64]);
    }
}
