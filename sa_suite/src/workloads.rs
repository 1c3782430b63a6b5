//! The five workloads: what each runs, on which backend, and how its
//! operands come out of the seed.

use crate::adapter::{
    bc_batches, hv15r_like, nlpkkt_like, prepare_1d, queen_like, restrictions, sbm_graph,
    squaring_flops, stokes_like, Backend, Body, Fetch, Matrix, Prepared,
};
use crate::json::Json;

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub backend: Backend,
    /// Ranks.
    pub p: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "sq_natural_sim",
        why: "natural-order squarings on the serial simulator: fetch is ~0, so kernel, symbolic, \
              window exposure and output conversion do the work; a transport change must not move it",
        backend: Backend::Sim,
        p: 8,
    },
    Spec {
        name: "sq_scrambled_procs",
        why: "randomly permuted squaring on 4 processes: every rank pulls ~3/4 of A in a few large \
              gets, so wire encode, CRC, decode and socket copies carry the wall (bytes-bound)",
        backend: Backend::Procs,
        p: 4,
    },
    Spec {
        name: "sq_colexact_procs",
        why: "column-exact fetching on 2 processes: same bytes as block fetch but one blocking round \
              trip per needed column, so per-get latency carries the wall (message-bound)",
        backend: Backend::Procs,
        p: 2,
    },
    Spec {
        name: "apps_session_threads",
        why: "MCL, batched BC and Galerkin resetup through session fetch caches on 4 threads: BC \
              reads the cache (~90% hits), MCL invalidates it every iteration (~0% hits); no sockets",
        backend: Backend::Threads,
        p: 4,
    },
    Spec {
        name: "summa2d_scrambled_procs",
        why: "sparsity-aware 2D SUMMA on a 2x2 process grid: two-sided B shipping, sub-communicators \
              and collectives beside one-sided A gets, so a get-path change that taxes sends shows",
        backend: Backend::Procs,
        p: 4,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One workload's generated inputs.
pub struct Inputs {
    /// What every repetition launches.
    pub body: Body,
    /// Seconds of `sa_dist::prepare` inside this set-up.
    pub prepare_s: f64,
}

/// Sizes of a body's operands, for the result file.
pub fn describe(body: &Body) -> Json {
    Json::Arr(
        body.operands()
            .iter()
            .map(|m| {
                Json::obj([
                    ("n", Json::Int(m.ncols() as u64)),
                    ("nnz", Json::Int(m.nnz() as u64)),
                    ("squaring_flops", Json::Int(squaring_flops(m))),
                ])
            })
            .collect(),
    )
}

fn timed_prepare(a: &Matrix, p: usize, scramble: Option<u64>, acc: &mut f64) -> Prepared {
    let t0 = std::time::Instant::now();
    let prep = prepare_1d(a, p, scramble);
    *acc += t0.elapsed().as_secs_f64();
    prep
}

/// Generate `spec`'s operands from `seed`, lay them out, and build the rank
/// body — everything `setup_s` times. `check` shrinks every size so the
/// whole suite smoke-runs in seconds.
///
/// The full sizes keep the operands the issue probed wherever one launch of
/// them fits the run budget (workloads 2 and 5: queen-like 34³), and cut
/// multiplies per launch to one; workloads 1, 3 and 4 are scaled down so a
/// run still holds ten or more repetitions.
pub fn setup(spec: &Spec, seed: u64, check: bool) -> Inputs {
    let p = spec.p;
    let mut prepare_s = 0.0;
    let body = match spec.name {
        "sq_natural_sim" => {
            let (lin, n) = if check { (8, 1_500) } else { (24, 12_000) };
            let band = if check { 40 } else { 90 };
            let mats = [
                queen_like(lin),
                stokes_like(check),
                hv15r_like(n, band, seed),
                nlpkkt_like(n, n / 9, band / 2, seed),
            ];
            Body::Square1d {
                mats: mats
                    .iter()
                    .map(|m| timed_prepare(m, p, None, &mut prepare_s))
                    .collect(),
                fetch: Fetch::Block256,
                multiplies: 1,
            }
        }
        "sq_scrambled_procs" | "summa2d_scrambled_procs" => {
            let a = queen_like(if check { 8 } else { 34 });
            let prep = timed_prepare(&a, p, Some(seed), &mut prepare_s);
            if spec.name == "sq_scrambled_procs" {
                Body::Square1d {
                    mats: vec![prep],
                    fetch: Fetch::Block256,
                    multiplies: 1,
                }
            } else {
                Body::Summa2d {
                    mat: prep.a,
                    pr: 2,
                    pc: 2,
                    multiplies: 1,
                }
            }
        }
        "sq_colexact_procs" => {
            let (n, k) = if check { (600, 6) } else { (8_000, 32) };
            let a = sbm_graph(n, k, 16.0, 2.0, seed);
            Body::Square1d {
                mats: vec![timed_prepare(&a, p, None, &mut prepare_s)],
                fetch: Fetch::ColumnExact,
                multiplies: 1,
            }
        }
        "apps_session_threads" => {
            // the drivers lay the global graph out themselves: no `prepare`
            let (n, k, lin, batches, nr) = if check {
                (400, 8, 6, 2, 2)
            } else {
                (3_000, 30, 26, 6, 6)
            };
            let fine = queen_like(lin);
            Body::Apps {
                graph: sbm_graph(n, k, 14.0, 1.5, seed),
                batches: bc_batches(n, batches, 32.min(n / 4), seed),
                restrictions: restrictions(&fine, nr, seed),
                fine,
            }
        }
        other => unreachable!("no workload named {other}"),
    };
    Inputs { body, prepare_s }
}
