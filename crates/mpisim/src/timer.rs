//! Per-stage wall-clock timing of one multiply, from which the paper's
//! breakdown legend (Figures 4, 8, 10) is read: *communication* is the
//! fetch stage, *computation* the local kernel, and *other* the symbolic
//! and assembly stages (metadata exchange, building the local DCSC and the
//! compacted `Ã`).

/// Wall-clock split of one SpGEMM call into four stages. `symbolic` is the
/// metadata / needed-column / fetch-planning work plus window exposure,
/// `fetch` the data movement (one-sided window gets, and on the grid
/// algorithms the broadcasts, B shipments, expand/reduce and fiber
/// reduce-scatter), `assemble` the `Ã` (and output) structure builds
/// excluding the gets, and `compute` the local kernel. A stage an algorithm
/// does not have reads 0. The paper's comm/comp/other columns are
/// `fetch` / `compute` / `symbolic + assemble`.
///
/// These are wall-clock spans, so the meaning of a span that wraps a
/// *blocking* call depends on the backend executing the ranks. Under
/// `threads` on dedicated cores it measures genuine wait skew. Under the
/// serial `sim` scheduler the same span also contains whatever other
/// ranks executed while this rank held no run permit — up to the whole job:
/// `fetch_s` around a broadcast leg, `symbolic_s` around the metadata
/// allgather. Those stages are therefore **not** comparable across backends
/// and are not a wait-skew measure under `sim`. Only `compute_s` never
/// blocks and is interference-free on every backend. For backend-honest
/// network time, apply the α–β model to the exact metered traffic — the
/// convention the benches print (`sa_bench::modeled_total`).
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
