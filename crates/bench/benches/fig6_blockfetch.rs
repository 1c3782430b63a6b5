//! Figure 6: the block fetch strategy on hv15r squaring — RDMA message
//! count and communication time versus the split parameter K, against
//! column-exact fetching.
//!
//! Paper: block fetching significantly reduces RDMA message count and
//! improves communication time via latency savings.

use sa_bench::*;
use sa_dist::{FetchMode, Plan1D, Strategy};
use sa_sparse::gen::Dataset;
use sa_sparse::spgemm::Kernel;

fn main() {
    banner(
        "Fig 6",
        "block fetch strategy: K sweep vs column-exact (hv15r squaring)",
        "block fetching cuts RDMA message counts by orders of magnitude and improves comm time",
    );
    let p = 16;
    let a = load(Dataset::Hv15rLike);
    row(&[
        "mode".into(),
        "total_rdma_msgs".into(),
        "fetched_MB".into(),
        "overfetch_ratio".into(),
        "measured_comm_ms_max".into(),
        "modeled_comm_ms".into(),
    ]);
    let mut modes: Vec<(String, FetchMode)> = vec![
        ("full_matrix_oblivious".into(), FetchMode::FullMatrix),
        ("exact_per_column".into(), FetchMode::ColumnExact),
        ("runs_extension".into(), FetchMode::ContiguousRuns),
    ];
    for k in [16usize, 64, 256, 1024, 4096] {
        modes.push((format!("block_K={k}"), FetchMode::Block(k)));
    }
    for (name, mode) in modes {
        let plan = Plan1D {
            fetch_mode: mode,
            kernel: Kernel::Hybrid,
            global_stats: true,
            ..Default::default()
        };
        let (reps, _) = square_1d(&a, p, Strategy::Original, plan);
        let msgs: u64 = reps.iter().map(|r| r.rdma_msgs).sum();
        let fetched: u64 = reps[0].fetched_bytes_global;
        let needed: u64 = reps.iter().map(|r| r.needed_bytes).sum::<u64>().max(1);
        let comm_max = reps.iter().map(|r| r.phases.fetch_s).fold(0.0f64, f64::max);
        // modeled time: slowest rank under the α–β model
        let modeled = reps
            .iter()
            .map(|r| model().time_s(r.rdma_msgs, r.fetched_bytes))
            .fold(0.0f64, f64::max);
        row(&[
            name,
            msgs.to_string(),
            mb(fetched),
            format!("{:.3}", fetched as f64 / needed as f64),
            ms(comm_max),
            ms(modeled),
        ]);
    }
    println!("## expected shape: msgs drop sharply with smaller K; bytes rise mildly; modeled comm time is minimized at intermediate K");
}
