//! Hockney α–β network cost model.
//!
//! Converts metered traffic into network time: `T = α·msgs + bytes/β`.
//! On one shared-memory machine the *measured* copy time underweights
//! latency relative to a dragonfly network; applying this model to the exact
//! per-rank counters recovers the figure shapes (e.g. Figure 6's message-
//! count effect) that depend on the network's α being ~10³× a memcpy's.

/// α–β network parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message latency, seconds.
    pub alpha_s: f64,
    /// Bandwidth, bytes/second.
    pub beta_bytes_per_s: f64,
}

impl CostModel {
    /// Slingshot-11-like constants (the paper's Perlmutter network):
    /// ~2 µs end-to-end latency, ~25 GB/s injection bandwidth per NIC.
    pub fn slingshot() -> Self {
        CostModel {
            alpha_s: 2e-6,
            beta_bytes_per_s: 25e9,
        }
    }

    /// Modeled seconds for `msgs` messages carrying `bytes` total.
    pub fn time_s(&self, msgs: u64, bytes: u64) -> f64 {
        self.alpha_s * msgs as f64 + bytes as f64 / self.beta_bytes_per_s
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::slingshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_messages() {
        let m = CostModel::slingshot();
        // 10k tiny messages vs 1 big one of the same total volume
        let many = m.time_s(10_000, 10_000 * 8);
        let one = m.time_s(1, 10_000 * 8);
        assert!(
            many > 100.0 * one,
            "fine-grained messaging must be penalized"
        );
    }

    #[test]
    fn bandwidth_term_scales() {
        let m = CostModel::slingshot();
        let t1 = m.time_s(1, 25_000_000_000);
        assert!((t1 - (2e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_zero_time() {
        assert_eq!(CostModel::default().time_s(0, 0), 0.0);
    }
}
