//! Per-phase wall-clock timing, matching the paper's breakdown legend
//! (Figures 4, 8, 10): *communication* (RDMA fetches), *computation*
//! (local SpGEMM), and *other* (metadata exchange, auxiliary structure
//! construction such as building the local DCSC and the compacted Ã).

use std::cell::RefCell;
use std::time::Instant;

/// The paper's three time-breakdown categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// RDMA requests fetching remote A data.
    Comm,
    /// Local SpGEMM computation.
    Comp,
    /// Auxiliary array/data-structure creation and metadata exchange.
    Other,
}

/// Accumulated seconds per phase.
///
/// These are wall-clock spans, so the *blocking* phases' meaning depends
/// on the backend executing the ranks: under `ThreadComm` on dedicated
/// cores, a span wrapping a blocking call (a receive, a broadcast leg)
/// measures genuine wait skew; under the serial `SimComm` scheduler the
/// same span also contains whatever other ranks executed while this rank
/// held no run permit — up to the whole job, so per-rank `comm_s`/`other_s`
/// around blocking calls are **not** comparable across backends and are
/// not a wait-skew measure under `SimComm`. Compute spans (`comp_s`) never
/// block and are interference-free under `SimComm`. For backend-honest
/// quantities use `rank_active_seconds` (own work) and the α–β model over
/// the exact metered traffic (network time) — the convention the benches
/// print (`sa_bench::modeled_total`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    pub comm_s: f64,
    pub comp_s: f64,
    pub other_s: f64,
}

impl Breakdown {
    pub fn total_s(&self) -> f64 {
        self.comm_s + self.comp_s + self.other_s
    }

    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Comm => self.comm_s,
            Phase::Comp => self.comp_s,
            Phase::Other => self.other_s,
        }
    }
}

impl std::ops::Add for Breakdown {
    type Output = Breakdown;
    fn add(self, o: Breakdown) -> Breakdown {
        Breakdown {
            comm_s: self.comm_s + o.comm_s,
            comp_s: self.comp_s + o.comp_s,
            other_s: self.other_s + o.other_s,
        }
    }
}

/// Finer wall-clock split of one SpGEMM call than [`Breakdown`]: the four
/// stages of the sparsity-aware pipeline. `symbolic` is the metadata /
/// needed-column / fetch-planning work plus window exposure, `fetch` the
/// one-sided window gets, `assemble` the `Ã` (and output) structure
/// builds excluding the gets, and `compute` the local kernel. Benches
/// report these as millis to show where a scheduling or caching change
/// moved the time.
///
/// Relation to [`Breakdown`]: `fetch ≈ comm`, `compute ≈ comp`, and
/// `symbolic + assemble` make up the bulk of `other` (the breakdown's
/// `other` also absorbs glue the phases don't attribute).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    pub symbolic_s: f64,
    pub fetch_s: f64,
    pub compute_s: f64,
    pub assemble_s: f64,
}

impl PhaseTimes {
    /// Σ of the four phases.
    pub fn total_s(&self) -> f64 {
        self.symbolic_s + self.fetch_s + self.compute_s + self.assemble_s
    }
}

impl std::ops::Add for PhaseTimes {
    type Output = PhaseTimes;
    fn add(self, o: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            symbolic_s: self.symbolic_s + o.symbolic_s,
            fetch_s: self.fetch_s + o.fetch_s,
            compute_s: self.compute_s + o.compute_s,
            assemble_s: self.assemble_s + o.assemble_s,
        }
    }
}

/// Phase accumulator with interior mutability (single-threaded per rank).
#[derive(Default)]
pub struct Timer {
    acc: RefCell<Breakdown>,
}

impl Timer {
    pub fn new() -> Self {
        Timer::default()
    }

    /// Run `f`, charging its wall time to `phase`.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(phase, t0.elapsed().as_secs_f64());
        r
    }

    /// Charge `secs` to `phase` directly.
    pub fn add(&self, phase: Phase, secs: f64) {
        let mut acc = self.acc.borrow_mut();
        match phase {
            Phase::Comm => acc.comm_s += secs,
            Phase::Comp => acc.comp_s += secs,
            Phase::Other => acc.other_s += secs,
        }
    }

    /// Current accumulated breakdown.
    pub fn breakdown(&self) -> Breakdown {
        *self.acc.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_phases() {
        let t = Timer::new();
        let v = t.time(Phase::Comp, || 42);
        assert_eq!(v, 42);
        t.add(Phase::Comm, 0.25);
        t.add(Phase::Comm, 0.25);
        t.add(Phase::Other, 0.1);
        let b = t.breakdown();
        assert!((b.comm_s - 0.5).abs() < 1e-12);
        assert!((b.other_s - 0.1).abs() < 1e-12);
        assert!(b.comp_s >= 0.0);
        assert!(b.total_s() >= 0.6);
    }

    #[test]
    fn phase_times_add_and_total() {
        let p = PhaseTimes {
            symbolic_s: 0.5,
            fetch_s: 1.0,
            compute_s: 2.0,
            assemble_s: 0.5,
        };
        let s = p + p;
        assert_eq!(s.total_s(), 8.0);
        assert_eq!(s.fetch_s, 2.0);
        assert_eq!(PhaseTimes::default().total_s(), 0.0);
    }

    #[test]
    fn breakdown_add() {
        let a = Breakdown {
            comm_s: 1.0,
            comp_s: 2.0,
            other_s: 3.0,
        };
        let s = a + a;
        assert_eq!(s.total_s(), 12.0);
        assert_eq!(s.get(Phase::Comp), 4.0);
    }
}
