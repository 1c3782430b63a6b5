//! The traced pass (`--trace 1`): every layer timed from outside, the same
//! job on the other backends, and one repetition under the span recorder.

use crate::adapter::{
    checkpoint_probe, launch, run_comm_probe, run_sparse_probe, wire_probe, Backend, Body,
    CommProbe, Job, RankOut, SparseProbe,
};
use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::protocol::{check_same, num, prepare, rep, reps, signature, Checks, Metric, RunResult};
use crate::stats::median;
use crate::trace::{chrome_trace, self_times, Span};
use crate::workloads::{describe, Inputs, Spec};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Named numbers collected on the way; emitted against [`PER_LAYER`] at the
/// end so every run prints the same metric set.
#[derive(Default)]
struct Values(BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: impl Into<String>, x: f64) {
        self.0.insert(name.into(), x);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Take a probe's numbers under `prefix`, or count the probe failed.
    fn absorb(
        &mut self,
        checks: &mut Checks,
        what: &str,
        prefix: &str,
        r: Result<Vec<(String, f64)>, String>,
    ) {
        match r {
            Ok(vals) => {
                checks.attempted += 1;
                for (n, x) in vals {
                    self.set(format!("{prefix}{n}"), x);
                }
            }
            Err(e) => {
                checks.check(false, || format!("{what}: {e}"));
            }
        }
    }
}

/// Largest value of `name` over the ranks.
fn max_val(outs: &[RankOut], name: &str) -> f64 {
    outs.iter().map(|o| o.val(name)).fold(0.0, f64::max)
}

/// Sum of `name` over the ranks.
fn sum_val(outs: &[RankOut], name: &str) -> f64 {
    outs.iter().map(|o| o.val(name)).fold(0.0, |acc, x| acc + x)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Inclusive seconds of every span called `name`.
fn inclusive(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .fold(0.0, |acc, s| acc + s)
}

/// Median of the launches that completed; NaN (a failed metric) for none.
fn median_or_nan(walls: &[f64]) -> f64 {
    if walls.is_empty() {
        f64::NAN
    } else {
        median(walls)
    }
}

/// One traced repetition: its wall, the parent's call interval in
/// nanoseconds since the epoch, and every rank's output.
struct Traced {
    wall: f64,
    call: (u64, u64),
    outs: Vec<RankOut>,
}

/// Fold a traced repetition into the `trace.*`, `apps.*` and
/// `dist.summa2d_*` numbers, read off the slowest rank's spans.
fn fold_trace(v: &mut Values, t: &Traced, is_2d: bool) {
    // the slowest rank: the one whose body ended last
    let slowest = t
        .outs
        .iter()
        .max_by_key(|o| o.spans.first().map_or(0, |s| s.end_ns))
        .expect("at least one rank");
    let body = slowest.spans.first().expect("rank.body span");
    let own = self_times(&slowest.spans);
    let own_s = |name: &str| own.iter().find(|(n, _)| n == name).map_or(0.0, |(_, s)| *s);
    v.set("trace.wall_s", t.wall);
    v.set(
        "trace.launch_s",
        body.start_ns.saturating_sub(t.call.0) as f64 * 1e-9,
    );
    v.set("trace.body_s", body.dur_s());
    v.set(
        "trace.join_s",
        t.call.1.saturating_sub(body.end_ns) as f64 * 1e-9,
    );
    v.set("trace.from_global_s", own_s("dist.from_global"));
    v.set(
        "trace.multiply_s",
        own_s("dist.spgemm_1d") + own_s("dist.summa2d"),
    );
    v.set("trace.checksum_s", own_s("suite.checksum"));
    v.set("trace.unattributed_frac", own_s("rank.body") / t.wall);
    for app in ["mcl", "bc", "galerkin"] {
        v.set(
            format!("apps.{app}_s"),
            inclusive(&slowest.spans, &format!("apps.{app}")),
        );
        let hit = sum_val(&t.outs, &format!("{app}_hit_bytes"));
        let fresh = sum_val(&t.outs, &format!("{app}_fresh_bytes"));
        v.set(format!("apps.{app}_hit_ratio"), ratio(hit, hit + fresh));
    }
    v.set("apps.mcl_iters", max_val(&t.outs, "mcl_iters"));
    if is_2d {
        v.set("dist.summa2d_s", own_s("dist.summa2d"));
        for (metric, val) in [
            ("dist.summa2d_phase_fetch_s", "phase_fetch_s"),
            ("dist.summa2d_phase_compute_s", "phase_compute_s"),
        ] {
            v.set(metric, max_val(&t.outs, val));
        }
        for (metric, val) in [
            ("dist.summa2d_a_fetched_bytes", "fetched_bytes"),
            ("dist.summa2d_b_shipped_bytes", "summa2d_b_shipped_bytes"),
            ("dist.summa2d_meta_bytes", "summa2d_meta_bytes"),
        ] {
            v.set(metric, sum_val(&t.outs, val));
        }
    }
}

/// `sa_dist` taken apart: one 1D multiply and one session on the first
/// operand, at the workload's backend and rank count.
fn dist_probe(checks: &mut Checks, v: &mut Values, body: &Body, backend: Backend, p: usize) {
    // blocking spans mean nothing when one rank runs at a time
    let backend = if backend == Backend::Sim {
        Backend::Threads
    } else {
        backend
    };
    let probe = Job::new(body.probe_1d(p).expect("workloads have operands"));
    let Some((_, outs)) = rep(checks, "1D probe", backend, p, &probe) else {
        return;
    };
    for name in [
        "from_global_s",
        "analyze_s",
        "multiply_s",
        "phase_symbolic_s",
        "phase_fetch_s",
        "phase_compute_s",
        "phase_assemble_s",
        "session_create_s",
        "session_miss_multiply_s",
        "session_hit_multiply_s",
        "cv_over_mem",
    ] {
        v.set(format!("dist.{name}"), max_val(&outs, name));
    }
    v.set("mpisim.window_create_s", max_val(&outs, "window_create_s"));
    let (fetched, needed) = (
        sum_val(&outs, "fetched_bytes"),
        sum_val(&outs, "needed_bytes"),
    );
    let msgs = sum_val(&outs, "rdma_msgs");
    v.set("dist.fetched_bytes", fetched);
    v.set("dist.needed_bytes", needed);
    v.set("dist.rdma_msgs", msgs);
    v.set("dist.overfetch_ratio", ratio(needed, fetched));
    v.set("dist.bytes_per_msg", ratio(fetched, msgs));
}

/// `sa_mpisim` from outside: launch cost at the workload's backend, the wire
/// codecs in this process, and gets, ping-pong and collectives on fixed
/// small universes.
fn mpisim_probes(checks: &mut Checks, v: &mut Values, backend: Backend, p: usize, check: bool) {
    let empty = Job::new(Body::Empty);
    let launches: Vec<f64> = (0..if check { 3 } else { 20 })
        .map(|_| launch(backend, p, &empty).0)
        .collect();
    v.set("mpisim.launch_s", median(&launches));
    let wire = wire_probe(if check { 1 } else { 8 });
    v.absorb(checks, "wire probe", "mpisim.", Ok(wire));
    let scale = if check { 10 } else { 1 };
    let gets = CommProbe {
        small_gets: 2_000 / scale,
        big_gets: 20 / scale,
        big_elems: 349_525 / scale,
        pingpongs: 10 / scale,
        collectives: 0,
    };
    let r = run_comm_probe(Backend::Procs, 2, &gets);
    v.absorb(checks, "procs get probe", "mpisim.", r);
    let in_process = CommProbe {
        pingpongs: 0,
        ..gets
    };
    let r = run_comm_probe(Backend::Threads, 2, &in_process).map(|vals| {
        vals.into_iter()
            .filter(|(n, _)| n.starts_with("get_"))
            .map(|(n, x)| (format!("{n}_threads"), x))
            .collect()
    });
    v.absorb(checks, "threads get probe", "mpisim.", r);
    let collectives = CommProbe {
        small_gets: 0,
        big_gets: 0,
        big_elems: 0,
        pingpongs: 0,
        collectives: 1_000 / scale,
    };
    let r = run_comm_probe(Backend::Procs, 4, &collectives);
    v.absorb(checks, "procs collectives probe", "mpisim.", r);
}

/// The per-layer pass. `scratch` is a directory this run owns.
pub fn run_traced(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    check: bool,
    scratch: &Path,
    trace_file: &Path,
) -> RunResult {
    let mut checks = Checks::default();
    let mut v = Values::default();
    let Inputs { body, prepare_s } = prepare(spec, seed, check, 1, 0.0).inputs;
    let (backend, p) = (spec.backend, spec.p);
    let few = if check { 1 } else { 2 };
    v.set("dist.prepare_s", prepare_s);

    // --- the workload itself, untraced then traced -----------------------
    let mut job = Job::new(body);
    let warm = rep(&mut checks, "warm-up", backend, p, &job);
    let reference = warm.as_ref().map(|(_, outs)| signature(outs));
    let mut untraced = Vec::new();
    let t0 = Instant::now();
    while untraced.len() < few + 1
        || (t0.elapsed().as_secs_f64() < seconds / 4.0 && untraced.len() < 64)
    {
        match rep(&mut checks, "untraced repetition", backend, p, &job) {
            Some((wall, _)) => untraced.push(wall),
            None => break,
        }
    }
    let untraced_s = median_or_nan(&untraced);

    let epoch = Instant::now();
    job.trace = Some(epoch);
    let mut traced: Vec<Traced> = Vec::new();
    for _ in 0..few {
        let call0 = epoch.elapsed().as_nanos() as u64;
        let Some((wall, outs)) = rep(&mut checks, "traced repetition", backend, p, &job) else {
            continue;
        };
        let call1 = epoch.elapsed().as_nanos() as u64;
        check_same(&mut checks, "traced repetition", &outs, reference.as_ref());
        traced.push(Traced {
            wall,
            call: (call0, call1),
            outs,
        });
    }
    job.trace = None;
    if let Some(last) = traced.last() {
        fold_trace(&mut v, last, matches!(job.body, Body::Summa2d { .. }));
        let walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
        v.set(
            "trace.overhead_frac",
            (median(&walls) - untraced_s) / untraced_s,
        );
    }
    // one "process" per repetition, one "thread" per rank, the parent last
    let spans: Vec<Vec<Vec<Span>>> = traced
        .iter()
        .map(|t| {
            let parent = Span {
                name: format!("universe.try_run_backend[{}]", backend.name()),
                start_ns: t.call.0,
                end_ns: t.call.1,
                parent: 0,
            };
            let ranks = t.outs.iter().map(|o| o.spans.clone());
            ranks.chain([vec![parent]]).collect()
        })
        .collect();
    let wrote = std::fs::write(trace_file, chrome_trace(spec.name, &spans).emit());
    checks.check(wrote.is_ok(), || {
        format!("writing {}: {}", trace_file.display(), wrote.unwrap_err())
    });

    // --- the same job with overlap switched on by its environment knob ---
    // Overlap may reassociate the semiring's additions (ROADMAP item 1), so
    // only sizes and traffic are held to the reference; whether the value
    // bits survived is reported, not asserted.
    let loose = reference.as_ref().map(|r| r.sizes_and_traffic());
    let mut bit_identical = true;
    std::env::set_var("SA_PREFETCH", "1");
    let on = reps(
        &mut checks,
        "SA_PREFETCH=1",
        (backend, p),
        &job,
        few,
        |checks, outs| {
            let got = signature(outs);
            bit_identical &= Some(&got) == reference.as_ref();
            checks.check(Some(got.sizes_and_traffic()) == loose, || {
                "SA_PREFETCH=1: output sizes or traffic counters differ from the reference launch's"
                    .into()
            });
        },
    );
    std::env::remove_var("SA_PREFETCH");
    if !on.is_empty() {
        v.set("dist.prefetch_on_over_off", median(&on) / untraced_s);
        v.set("dist.prefetch_bit_identical", bit_identical as u8 as f64);
    }

    // --- the same job on the other backends ------------------------------
    for (name, other) in [
        ("ctl.wall_sim_s", Backend::Sim),
        ("ctl.wall_threads_s", Backend::Threads),
        ("ctl.wall_procs_s", Backend::Procs),
    ] {
        let wall = if other == backend {
            untraced_s
        } else {
            let what = format!("{} control", other.name());
            let walls = reps(&mut checks, &what, (other, p), &job, few, |checks, outs| {
                check_same(checks, &what, outs, reference.as_ref())
            });
            median_or_nan(&walls)
        };
        v.set(name, wall);
    }
    v.set(
        "ctl.procs_over_threads",
        v.get("ctl.wall_procs_s") / v.get("ctl.wall_threads_s"),
    );

    // --- sa_sparse, single-threaded, on the workload's operands ----------
    let sparse = SparseProbe {
        operands: job.body.operands(),
        p,
        accumulators: !check,
    };
    let r = run_sparse_probe(&sparse);
    v.absorb(&mut checks, "sparse probe", "sparse.", r);
    // the plain single-threaded baseline of the same problem: the serial
    // products, or for the applications the same drivers on one rank
    let serial_s = if matches!(job.body, Body::Apps { .. }) {
        rep(&mut checks, "serial control", Backend::Sim, 1, &job).map_or(f64::NAN, |(w, _)| w)
    } else {
        v.get("sparse.serial_spgemm_s")
    };
    v.set("ctl.wall_serial_s", serial_s);
    v.set("ctl.speedup_vs_serial", serial_s / untraced_s);

    dist_probe(&mut checks, &mut v, &job.body, backend, p);
    mpisim_probes(&mut checks, &mut v, backend, p, check);

    // --- checkpoint I/O --------------------------------------------------
    let r = checkpoint_probe(sparse.operands[0], &scratch.join("ckpt-probe"));
    v.absorb(&mut checks, "checkpoint probe", "dist.", r);
    if let Body::Apps { graph, .. } = &job.body {
        let ckpt = Job::new(Body::MclCheckpointed {
            graph: graph.clone(),
            dir: scratch.join("ckpt-mcl").to_string_lossy().into_owned(),
        });
        if let Some((_, outs)) = rep(&mut checks, "checkpointed MCL", backend, p, &ckpt) {
            let s = max_val(&outs, "mcl_checkpointed_s");
            v.set("apps.mcl_ckpt_over_plain", ratio(s, v.get("apps.mcl_s")));
            checks.check(
                max_val(&outs, "mcl_iters") == v.get("apps.mcl_iters"),
                || "checkpointed MCL took a different number of iterations".into(),
            );
        }
    }

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| num(m.name, m.unit, v.get(m.name)))
        .collect();
    for m in &metrics {
        let finite = m.value.as_f64().is_some_and(f64::is_finite);
        checks.check(finite, || format!("{} is not a finite number", m.name));
    }
    RunResult {
        workload: spec.name,
        seed,
        traced: true,
        metrics,
        info: vec![
            ("backend".into(), Json::str(backend.name())),
            ("ranks".into(), Json::Int(p as u64)),
            ("untraced_reps".into(), Json::Int(untraced.len() as u64)),
            ("traced_reps".into(), Json::Int(traced.len() as u64)),
            ("control_reps".into(), Json::Int(few as u64)),
            ("trace_file".into(), Json::str(trace_file.to_string_lossy())),
            ("operands".into(), describe(&job.body)),
        ],
        checks,
    }
}
