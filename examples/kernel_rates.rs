//! Per-operand accumulator rates — the measurement `choose_kernel`'s policy
//! and the dense accumulator's bitmap cut-off are taken from
//! (docs/PERFORMANCE.md "ISSUE 16", "ISSUE 18", "ISSUE 22", "ISSUE 24").
//!
//! For each of the benchmark suite's operands, for the banded one once more
//! under a random permutation, for ER squares of sparse and of fuller product
//! columns, and for the MCL iterate whose square is the dense-output regime,
//! squares the operand the way a `P`-rank 1D run does —
//! `P` column slices `Bᵢ`, one multiply each — on one thread through a warm
//! workspace, and prints the rate of every [`Kernel`] (best of 5, Mflop/s)
//! for two A sources: the whole operand as a `Csc`, and a DCSC `Ã` holding
//! only the columns `Bᵢ` needs (what Algorithm 1 assembles), multiplied with
//! a DCSC `Bᵢ`. The scrambled cube and the block model are cut the way their
//! suite workloads cut them (4 and 2 slices), whatever `--p` says.
//!
//! Run with: `cargo run --release --example kernel_rates -- [--lin 24,34]
//! [--band 90] [--n 12000] [--p 8] [--seed 1]`

use saspgemm::apps::mcl::{mcl_iterate, MclConfig};
use saspgemm::sparse::gen::{
    banded, erdos_renyi_square, kkt_arrow, sbm, stencil3d, Dataset, Scale,
};
use saspgemm::sparse::permute::{permute_symmetric, Perm};
use saspgemm::sparse::semiring::PlusTimes;
use saspgemm::sparse::spgemm::{spgemm_with, upper_bound_flops, Kernel, Schedule, SpgemmWorkspace};
use saspgemm::sparse::{Csc, Dcsc};
use std::hint::black_box;
use std::time::Instant;

const KERNELS: [Kernel; 4] = [Kernel::Hybrid, Kernel::Heap, Kernel::Hash, Kernel::Spa];

/// Best-of-5 seconds of `f`.
fn best_of_5(mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn rates(name: &str, a: &Csc<f64>, p: usize) {
    let n = a.ncols();
    let slices: Vec<Csc<f64>> = (0..p)
        .map(|r| a.extract_cols(r * n / p, (r + 1) * n / p))
        .collect();
    let tildes: Vec<(Dcsc<f64>, Dcsc<f64>)> = slices
        .iter()
        .map(|b| {
            (
                Dcsc::from_csc_cols(a, &b.row_hit_vector()),
                Dcsc::from_csc(b),
            )
        })
        .collect();
    let flops: u64 = slices
        .iter()
        .map(|b| upper_bound_flops::<f64, _, _>(a, b))
        .sum();
    let ws = SpgemmWorkspace::new();
    print!("{name:<30} {:>8}", a.nrows());
    for kernel in KERNELS {
        let csc = best_of_5(|| {
            for b in &slices {
                black_box(spgemm_with::<PlusTimes<f64>, _, _>(
                    a,
                    b,
                    kernel,
                    Schedule::default(),
                    &ws,
                ));
            }
        });
        let dcsc = best_of_5(|| {
            for (at, bt) in &tildes {
                black_box(spgemm_with::<PlusTimes<f64>, _, _>(
                    at,
                    bt,
                    kernel,
                    Schedule::default(),
                    &ws,
                ));
            }
        });
        let mflops = |s: f64| flops as f64 / s / 1e6;
        print!(" {:>6.0} | {:<6.0}", mflops(csc), mflops(dcsc));
    }
    println!();
}

fn main() {
    let mut lins = vec![24usize];
    let (mut band, mut n, mut p, mut seed) = (90usize, 12_000usize, 8usize, 1u64);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value"));
        let num = || {
            value
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--lin" => {
                lins = value
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .unwrap_or_else(|_| panic!("--lin {value}: not numbers"))
                    })
                    .collect()
            }
            "--band" => band = num(),
            "--n" => n = num(),
            "--p" => p = num(),
            "--seed" => seed = num() as u64,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    println!("P = {p} column slices, one thread, best of 5; Mflop/s as  Csc A | DCSC Ã");
    print!("{:<30} {:>8}", "operand", "nrows");
    for kernel in KERNELS {
        print!(" {:>15}", format!("{kernel:?}"));
    }
    println!();
    pool.install(|| {
        for &lin in &lins {
            rates(
                &format!("queen-like {lin}^3"),
                &stencil3d(lin, lin, lin, true),
                p,
            );
        }
        // `sq_scrambled_procs` / `summa2d_scrambled_procs`: every product
        // column's rows are spread over the whole row range
        let cube = stencil3d(34, 34, 34, true);
        rates(
            "queen-like 34^3 scrambled P=4",
            &permute_symmetric(&cube, &Perm::random(cube.ncols(), seed)),
            4,
        );
        // `sq_colexact_procs`: flops ≈ outputs, where ordering the rows is
        // the largest share of a column's cost
        rates("sbm 8000 P=2", &sbm(8_000, 32, 16.0, 2.0, true, seed), 2);
        rates(
            "stokes-like Small",
            &Dataset::StokesLike.build(Scale::Small),
            p,
        );
        // natural order, every product column is dense over a window of a few
        // hundred rows and the dense accumulator scans it; scrambled, the
        // same flops spread over all the rows and go through its bitmap — the
        // two sides of its row-window cut
        let hv15r = banded(n, band, 0.35, false, seed);
        rates("hv15r-like", &hv15r, p);
        rates(
            "hv15r-like scrambled",
            &permute_symmetric(&hv15r, &Perm::random(n, seed)),
            p,
        );
        rates("nlpkkt-like", &kkt_arrow(n, n / 9, band / 2, 8, seed), p);
        // ER squares whose product columns fill ≈ 5 % and ≈ 20 % of the rows
        for d in [12.0, 26.0] {
            rates(
                &format!("er {} d={d}", n / 4),
                &erdos_renyi_square(n / 4, d, seed),
                p,
            );
        }
        // the apps workload's MCL graph after 1–3 expansion + inflation
        // rounds: squared, the first fills 80 % of every product column
        // before pruning, the second 28 %, the third 4 % from as many flops
        // as it has rows — the three regimes of the dense accumulator
        let graph = sbm(n / 4, n / 400, 14.0, 1.5, true, seed);
        for rounds in 1..=3 {
            rates(
                &format!("mcl-iterate {rounds}"),
                &mcl_iterate(&graph, &MclConfig::default(), rounds),
                p,
            );
        }
    });
}
