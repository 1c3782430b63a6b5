//! Double-buffered prefetch: overlap planned ranged gets with compute.
//!
//! The staged multiplies (the 2D SUMMA stage and its per-layer 3D form)
//! share one shape: a *plan* of ranged
//! window gets whose coordinates are fully known before any byte moves,
//! followed by compute that does not need the fetched bytes until a
//! well-defined rendezvous point. [`Prefetcher`] exploits that shape: it
//! issues a budget-capped prefix of the plan on a background thread while
//! the foreground closure computes, joins at the rendezvous, and
//! demand-fetches the remainder inline.
//!
//! # The byte-identity invariant
//!
//! Overlap must never change what the run *meters* or *produces* — only
//! when the bytes move. Two design rules enforce this by construction:
//!
//! * **Metering happens at issue time, on the calling thread.** Consumers
//!   create [`PairedGet`](crate::PairedGet) handles for the whole plan
//!   up front (each handle records its RDMA messages/bytes exactly once,
//!   in plan order); the background and demand paths then perform pure
//!   data movement. A range can therefore never be metered twice, no
//!   matter which path fetches it — the double-meter hazard is
//!   structurally impossible, and per-rank [`CommStats`](crate::CommStats)
//!   totals are identical with overlap on or off.
//! * **Fetches land in plan order.** The background prefix `0..k` appends
//!   to the staging area first, the demand suffix `k..n` after the join,
//!   so staged bytes are laid out exactly as a sequential fetch loop would
//!   lay them out, and the rendezvous assembly is deterministic.
//!
//! # Backend degradation
//!
//! On backends whose gets are genuinely asynchronous round-trips
//! ([`ProcComm`](crate::ProcComm)'s `GetReq`/`GetResp` over sockets) or at
//! least concurrent memcpys ([`ThreadComm`](crate::ThreadComm)), the
//! prefix runs on a scoped background thread. On the serial simulator
//! ([`SimComm`](crate::SimComm)) a background thread would perturb the
//! run-permit discipline's determinism for no gain (gets never block), so
//! [`Comm::overlap_capable`] reports `false` and the prefetcher degrades
//! to deterministic in-order issue: foreground first, then every fetch
//! inline in plan order on the calling thread. Either way the same
//! closures run with the same arguments — only the interleaving differs.

use crate::backend::Comm;
use std::ops::Range;

/// Overlap knob for the staged multiplies: whether to prefetch at all and
/// how many bytes may be in flight on the background path per stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Whether consumers should overlap fetches with compute at all.
    pub enabled: bool,
    /// Byte budget for the background path of one stage: the prefetched
    /// prefix of a stage plan never exceeds this many bytes in flight;
    /// ranges past the budget are demand-fetched at the rendezvous.
    pub max_inflight_bytes: u64,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig::disabled()
    }
}

impl PrefetchConfig {
    /// Overlap off: every fetch is issued inline in plan order (the
    /// pre-prefetch behaviour, and the default).
    pub const fn disabled() -> PrefetchConfig {
        PrefetchConfig {
            enabled: false,
            max_inflight_bytes: u64::MAX,
        }
    }

    /// Overlap on with an unlimited in-flight budget.
    pub const fn on() -> PrefetchConfig {
        PrefetchConfig {
            enabled: true,
            max_inflight_bytes: u64::MAX,
        }
    }

    /// Overlap on, background path capped at `bytes` in flight per stage.
    pub const fn budget(bytes: u64) -> PrefetchConfig {
        PrefetchConfig {
            enabled: true,
            max_inflight_bytes: bytes,
        }
    }

    /// Config from the environment: `SA_PREFETCH` truthy (anything but
    /// unset, empty, or `0`) enables overlap; `SA_PREFETCH_BYTES` caps the
    /// per-stage in-flight budget (default unlimited).
    pub fn from_env() -> PrefetchConfig {
        let enabled = std::env::var("SA_PREFETCH")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        let max_inflight_bytes = std::env::var("SA_PREFETCH_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(u64::MAX);
        PrefetchConfig {
            enabled,
            max_inflight_bytes,
        }
    }
}

/// Pure accounting half of the prefetcher: splits each stage plan into the
/// budget-admitted background prefix and the demand suffix, and keeps the
/// running prefetched/demand byte totals. Separated from the execution
/// half so the invariants are property-testable without threads:
///
/// * `prefetched_bytes() + demand_bytes() == planned_bytes()` exactly;
/// * every admitted prefix's byte sum is `<=` the budget passed to
///   [`admit`](PrefetchMeter::admit);
/// * the prefix/suffix split covers each range exactly once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchMeter {
    prefetched_bytes: u64,
    demand_bytes: u64,
    stages: u64,
}

impl PrefetchMeter {
    /// Fresh meter with zero totals.
    pub fn new() -> PrefetchMeter {
        PrefetchMeter::default()
    }

    /// Admit a stage plan of per-range byte `sizes` under `max_inflight`
    /// budget: returns `k` such that ranges `0..k` go to the background
    /// path (their byte sum never exceeding the budget) and `k..n` stay
    /// for demand fetch. Admission is a plan-order prefix — reordering
    /// fetches would change where staged bytes land. A single range
    /// larger than the whole budget is never admitted.
    pub fn admit(&mut self, sizes: &[u64], max_inflight: u64) -> usize {
        let mut inflight = 0u64;
        let mut k = 0usize;
        for &s in sizes {
            match inflight.checked_add(s) {
                Some(total) if total <= max_inflight => inflight = total,
                _ => break,
            }
            k += 1;
        }
        self.prefetched_bytes += inflight;
        self.demand_bytes += sizes[k..].iter().sum::<u64>();
        self.stages += 1;
        k
    }

    /// Total bytes admitted to background paths so far.
    pub fn prefetched_bytes(&self) -> u64 {
        self.prefetched_bytes
    }

    /// Total bytes left to demand fetches so far.
    pub fn demand_bytes(&self) -> u64 {
        self.demand_bytes
    }

    /// Total planned bytes seen: prefetched + demand, by construction.
    pub fn planned_bytes(&self) -> u64 {
        self.prefetched_bytes + self.demand_bytes
    }

    /// Number of stage plans admitted.
    pub fn stages(&self) -> u64 {
        self.stages
    }
}

/// The double-buffered prefetch engine. Create one per staged multiply
/// with [`Prefetcher::new`]; run each stage through
/// [`Prefetcher::stage`]. See the module docs for the overlap protocol
/// and the determinism/byte-identity argument.
pub struct Prefetcher {
    cfg: PrefetchConfig,
    async_capable: bool,
    meter: PrefetchMeter,
}

impl Prefetcher {
    /// A prefetcher for `comm`'s backend under `cfg`. Captures
    /// [`Comm::overlap_capable`] once — the `Comm` handle itself is not
    /// thread-safe and never crosses to the background path.
    pub fn new<C: Comm>(comm: &C, cfg: PrefetchConfig) -> Prefetcher {
        Prefetcher {
            cfg,
            async_capable: comm.overlap_capable(),
            meter: PrefetchMeter::new(),
        }
    }

    /// Whether stages actually run a background thread (config enabled AND
    /// the backend advertises asynchronous gets).
    pub fn is_async(&self) -> bool {
        self.cfg.enabled && self.async_capable
    }

    /// The accounting so far (prefetched vs demand bytes, stage count).
    pub fn meter(&self) -> &PrefetchMeter {
        &self.meter
    }

    /// Run one stage. `sizes[i]` is the wire byte size of planned range
    /// `i`; `fetch(lo..hi, staging)` performs the *pure data movement* for
    /// ranges `lo..hi`, appending to `staging` in plan order (metering
    /// must already have happened at issue time — see
    /// [`PairedWindow::start_get_both`](crate::PairedWindow::start_get_both));
    /// `foreground` is the compute to overlap. Returns the staging area
    /// (now holding every planned range, in plan order) and the
    /// foreground's result.
    ///
    /// Async path: spawn `fetch(0..k)` on a scoped background thread (`k`
    /// budget-admitted), run `foreground` on the calling thread, join
    /// (re-raising a background panic with its original payload, so typed
    /// `CommError`s survive), then demand-fetch `k..n` inline. Serial /
    /// disabled path: `foreground`, then `fetch(0..n)` inline — identical
    /// closures, deterministic single-thread order.
    pub fn stage<S: Send, T>(
        &mut self,
        sizes: &[u64],
        staging: &mut S,
        fetch: impl Fn(Range<usize>, &mut S) + Sync,
        foreground: impl FnOnce() -> T,
    ) -> T {
        let n = sizes.len();
        if !self.is_async() {
            self.meter.admit(sizes, 0);
            let out = foreground();
            if n > 0 {
                fetch(0..n, staging);
            }
            return out;
        }
        let k = self.meter.admit(sizes, self.cfg.max_inflight_bytes);
        let out = {
            let fetch = &fetch;
            std::thread::scope(|scope| {
                let bg = scope.spawn(move || {
                    if k > 0 {
                        fetch(0..k, staging);
                    }
                    staging
                });
                let out = foreground();
                // Rendezvous: the stage's staged bytes are complete (or the
                // failure is re-raised with its typed payload) before anyone
                // reads them — no torn stage buffers.
                match bg.join() {
                    Ok(staging) => {
                        if k < n {
                            fetch(k..n, staging);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
                out
            })
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn config_defaults_off_and_budget_constructors() {
        assert!(!PrefetchConfig::default().enabled);
        assert!(PrefetchConfig::on().enabled);
        let b = PrefetchConfig::budget(1024);
        assert!(b.enabled);
        assert_eq!(b.max_inflight_bytes, 1024);
    }

    #[test]
    fn meter_splits_exactly_and_respects_budget() {
        let mut m = PrefetchMeter::new();
        let sizes = [100u64, 200, 50, 400, 10];
        let k = m.admit(&sizes, 350);
        assert_eq!(k, 3); // 100+200+50 = 350 <= 350; +400 would burst
        assert_eq!(m.prefetched_bytes(), 350);
        assert_eq!(m.demand_bytes(), 410);
        assert_eq!(m.planned_bytes(), 760);
        assert_eq!(m.stages(), 1);
    }

    #[test]
    fn meter_never_admits_an_oversized_first_range() {
        let mut m = PrefetchMeter::new();
        assert_eq!(m.admit(&[1000, 1], 999), 0);
        assert_eq!(m.prefetched_bytes(), 0);
        assert_eq!(m.demand_bytes(), 1001);
    }

    #[test]
    fn meter_handles_overflowing_plans() {
        let mut m = PrefetchMeter::new();
        assert_eq!(m.admit(&[u64::MAX, u64::MAX - 5], u64::MAX), 1);
        assert_eq!(m.prefetched_bytes(), u64::MAX);
    }

    #[test]
    fn serial_stage_fetches_everything_in_plan_order() {
        Universe::new(1).run(|comm| {
            let mut pf = Prefetcher::new(comm, PrefetchConfig::on());
            assert!(!pf.is_async(), "SimComm degrades to in-order issue");
            let mut log: Vec<usize> = Vec::new();
            let sizes = [8u64, 8, 8];
            let fg = pf.stage(&sizes, &mut log, |r, log| log.extend(r), || "computed");
            assert_eq!(fg, "computed");
            assert_eq!(log, vec![0, 1, 2]);
            assert_eq!(pf.meter().prefetched_bytes(), 0);
            assert_eq!(pf.meter().demand_bytes(), 24);
        });
    }

    #[test]
    fn async_stage_covers_the_plan_and_returns_foreground() {
        Universe::new(1).run_threads(|comm| {
            let mut pf = Prefetcher::new(comm, PrefetchConfig::budget(16));
            assert!(pf.is_async());
            let mut log: Vec<usize> = Vec::new();
            let sizes = [8u64, 8, 8, 8];
            let fg = pf.stage(&sizes, &mut log, |r, log| log.extend(r), || 7u32);
            assert_eq!(fg, 7);
            // background got 0..2 (16 bytes), demand appended 2..4 after
            assert_eq!(log, vec![0, 1, 2, 3]);
            assert_eq!(pf.meter().prefetched_bytes(), 16);
            assert_eq!(pf.meter().demand_bytes(), 16);
        });
    }

    #[test]
    fn async_stage_reraises_background_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            Universe::new(1).run_threads(|comm| {
                let mut pf = Prefetcher::new(comm, PrefetchConfig::on());
                let mut sink = ();
                pf.stage(
                    &[1u64],
                    &mut sink,
                    |_, _| std::panic::panic_any("typed payload"),
                    || (),
                );
            });
        });
        let payload = caught.expect_err("stage must propagate the background panic");
        let s = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(s, "typed payload", "original payload survives the join");
    }

    #[test]
    fn overlap_capability_tracks_backend() {
        Universe::new(2).run(|comm| assert!(!comm.overlap_capable()));
        Universe::new(2).run_threads(|comm| assert!(comm.overlap_capable()));
    }
}
