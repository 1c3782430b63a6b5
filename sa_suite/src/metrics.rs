//! The benchmark's metric names — the single table `BENCHMARK.json` is
//! generated from and the emitters and `--compare` read.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    /// Counts that must repeat exactly for one seed on one code version.
    pub exact: bool,
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "net_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "net_msgs",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single layers, timed from outside (README.md says which end-to-end
/// metric each should move, on which workload). A layer a workload never
/// enters reads 0 there.
pub const PER_LAYER: [PerLayer; 75] = [
    // sa_sparse, single-threaded, on the workload's own operands
    lower("sparse.kernel_s", "s"),
    lower("sparse.kernel_flops", "count"),
    higher("sparse.kernel_mflops", "Mflop/s"),
    higher("sparse.kernel_heap_mflops", "Mflop/s"),
    higher("sparse.kernel_hash_mflops", "Mflop/s"),
    higher("sparse.kernel_spa_mflops", "Mflop/s"),
    lower("sparse.symbolic_s", "s"),
    lower("sparse.dcsc_from_csc_s", "s"),
    higher("sparse.dcsc_from_csc_mb_per_s", "MB/s"),
    lower("sparse.ewise_add_s", "s"),
    lower("sparse.serial_spgemm_s", "s"),
    // sa_mpisim::universe
    lower("mpisim.launch_s", "s"),
    lower("mpisim.threads_per_proc", "count"),
    // sa_mpisim::wire
    lower("mpisim.wire_put_ns_per_byte", "ns/B"),
    lower("mpisim.wire_get_ns_per_byte", "ns/B"),
    lower("mpisim.crc32_ns_per_byte", "ns/B"),
    lower("mpisim.frame_rt_ns_per_byte", "ns/B"),
    // sa_mpisim::window / proc
    lower("mpisim.get_rtt_us", "us"),
    higher("mpisim.get_mb_per_s", "MB/s"),
    lower("mpisim.get_rtt_us_threads", "us"),
    higher("mpisim.get_mb_per_s_threads", "MB/s"),
    lower("mpisim.window_create_s", "s"),
    higher("mpisim.sendrecv_mb_per_s", "MB/s"),
    lower("mpisim.allreduce_us", "us"),
    lower("mpisim.barrier_us", "us"),
    // sa_dist, 1D
    lower("dist.prepare_s", "s"),
    lower("dist.from_global_s", "s"),
    lower("dist.analyze_s", "s"),
    lower("dist.multiply_s", "s"),
    lower("dist.phase_symbolic_s", "s"),
    lower("dist.phase_fetch_s", "s"),
    lower("dist.phase_compute_s", "s"),
    lower("dist.phase_assemble_s", "s"),
    lower("dist.fetched_bytes", "bytes"),
    lower("dist.needed_bytes", "bytes"),
    higher("dist.overfetch_ratio", "ratio"),
    lower("dist.rdma_msgs", "count"),
    higher("dist.bytes_per_msg", "bytes"),
    lower("dist.cv_over_mem", "ratio"),
    // sa_dist::session / summa2d_sa / checkpoint
    lower("dist.session_create_s", "s"),
    lower("dist.session_miss_multiply_s", "s"),
    lower("dist.session_hit_multiply_s", "s"),
    lower("dist.prefetch_on_over_off", "ratio"),
    higher("dist.prefetch_bit_identical", "bool"),
    lower("dist.summa2d_s", "s"),
    lower("dist.summa2d_phase_fetch_s", "s"),
    lower("dist.summa2d_phase_compute_s", "s"),
    lower("dist.summa2d_a_fetched_bytes", "bytes"),
    lower("dist.summa2d_b_shipped_bytes", "bytes"),
    lower("dist.summa2d_meta_bytes", "bytes"),
    higher("dist.ckpt_save_mb_per_s", "MB/s"),
    higher("dist.ckpt_load_mb_per_s", "MB/s"),
    // sa_apps
    lower("apps.mcl_s", "s"),
    lower("apps.mcl_iters", "count"),
    higher("apps.mcl_hit_ratio", "ratio"),
    lower("apps.bc_s", "s"),
    higher("apps.bc_hit_ratio", "ratio"),
    lower("apps.galerkin_s", "s"),
    higher("apps.galerkin_hit_ratio", "ratio"),
    lower("apps.mcl_ckpt_over_plain", "ratio"),
    // the same job on the other backends
    lower("ctl.wall_sim_s", "s"),
    lower("ctl.wall_threads_s", "s"),
    lower("ctl.wall_procs_s", "s"),
    lower("ctl.wall_serial_s", "s"),
    lower("ctl.procs_over_threads", "ratio"),
    higher("ctl.speedup_vs_serial", "ratio"),
    // the traced repetition, slowest rank
    lower("trace.launch_s", "s"),
    lower("trace.body_s", "s"),
    lower("trace.join_s", "s"),
    lower("trace.from_global_s", "s"),
    lower("trace.multiply_s", "s"),
    lower("trace.checksum_s", "s"),
    lower("trace.wall_s", "s"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.unattributed_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;
    use crate::workloads::SPECS;

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(SPECS.iter().map(|s| (s.name, "count")));
        for (name, unit) in all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
