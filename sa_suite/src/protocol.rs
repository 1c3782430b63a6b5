//! The run protocol: set-up, warm-up, timed repetitions, controls and
//! verification of one workload, and the bookkeeping of what was attempted
//! and what failed.

use crate::adapter::{
    column_rows, launch, reference_bc, reference_galerkin, reference_square, Backend, Block, Body,
    Job, Matrix, RankOut,
};
use crate::json::{valid_name, Json};
use crate::stats::{summarize, Summary};
use crate::workloads::{describe, setup, Inputs, Spec};
use std::time::Instant;

/// Operations attempted and failed: every rank outcome of every launch and
/// every verification check is one operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the person reading the log.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let note = what();
            eprintln!("[sa_suite] FAILED: {note}");
            self.notes.push(note);
        }
        ok
    }

    /// Count one launch's rank outcomes; all outputs, or `None` if any rank
    /// failed.
    pub fn ranks(
        &mut self,
        what: &str,
        outs: Vec<Result<RankOut, String>>,
    ) -> Option<Vec<RankOut>> {
        let n = outs.len();
        let mut good = Vec::with_capacity(n);
        for (rank, o) in outs.into_iter().enumerate() {
            match o {
                Ok(v) => {
                    self.attempted += 1;
                    good.push(v);
                }
                Err(e) => {
                    self.check(false, || format!("{what}: rank {rank}: {e}"));
                }
            }
        }
        (good.len() == n).then_some(good)
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One emitted metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `Json::Int` for counts, `Json::Num` for measurements.
    pub value: Json,
    /// The sample behind a median, when there is one.
    pub dist: Option<Summary>,
}

/// Everything one invocation measured.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Sizes, repetition counts and whatever else explains the numbers.
    pub info: Vec<(String, Json)>,
}

/// What must repeat exactly between repetitions and across backends: every
/// rank's output size, output checksum and communication counters.
#[derive(Clone, PartialEq, Debug)]
pub struct Signature {
    nnz: Vec<u64>,
    checksums: Vec<u64>,
    counters: Vec<[u64; 6]>,
}

impl Signature {
    /// The same signature with the value-dependent part blanked: what must
    /// still match when a run may legitimately round differently.
    pub fn sizes_and_traffic(&self) -> Signature {
        Signature {
            checksums: Vec::new(),
            ..self.clone()
        }
    }

    /// Which parts differ from `other`, for a failure note.
    fn differences(&self, other: &Signature) -> String {
        [
            ("output sizes", self.nnz != other.nnz),
            ("output checksums", self.checksums != other.checksums),
            ("traffic counters", self.counters != other.counters),
        ]
        .iter()
        .filter(|(_, differs)| *differs)
        .map(|(what, _)| *what)
        .collect::<Vec<_>>()
        .join(", ")
    }
}

/// Check one launch's outputs and traffic against the reference launch's
/// (a missing reference — the warm-up failed — fails the check too).
pub fn check_same(
    checks: &mut Checks,
    what: &str,
    outs: &[RankOut],
    reference: Option<&Signature>,
) {
    let got = signature(outs);
    checks.check(Some(&got) == reference, || match reference {
        Some(r) => format!(
            "{what}: {} differ from the reference launch's",
            got.differences(r)
        ),
        None => format!("{what}: no reference launch to compare with"),
    });
}

pub fn signature(outs: &[RankOut]) -> Signature {
    Signature {
        nnz: outs.iter().map(|o| o.nnz).collect(),
        checksums: outs.iter().map(|o| o.checksum).collect(),
        counters: outs.iter().map(|o| o.counters).collect(),
    }
}

/// Σ over ranks of injected bytes and messages of one repetition.
pub fn traffic(outs: &[RankOut]) -> (u64, u64) {
    outs.iter()
        .fold((0, 0), |(b, m), o| (b + o.net_bytes, m + o.net_msgs))
}

/// One launch, counted: wall seconds and the rank outputs if all ranks
/// succeeded.
pub fn rep(
    checks: &mut Checks,
    what: &str,
    backend: Backend,
    p: usize,
    job: &Job,
) -> Option<(f64, Vec<RankOut>)> {
    let (wall, outs) = launch(backend, p, job);
    checks.ranks(what, outs).map(|o| (wall, o))
}

/// `n` launches after one warm-up: the walls of the `n`. `each` sees every
/// launch's outputs (the warm-up's too) to check them.
pub fn reps(
    checks: &mut Checks,
    what: &str,
    (backend, p): (Backend, usize),
    job: &Job,
    n: usize,
    mut each: impl FnMut(&mut Checks, &[RankOut]),
) -> Vec<f64> {
    let mut walls = Vec::new();
    for i in 0..=n {
        let Some((wall, outs)) = rep(checks, what, backend, p, job) else {
            continue;
        };
        each(checks, &outs);
        if i > 0 {
            walls.push(wall);
        }
    }
    walls
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: Json, dist: Option<Summary>) -> Metric {
        // the emitter writes names unescaped into tools that split on them
        assert!(valid_name(name), "illegal metric name {name:?}");
        Metric {
            name,
            unit,
            value,
            dist,
        }
    }
}

pub fn num(name: &'static str, unit: &'static str, x: f64) -> Metric {
    Metric::new(name, unit, Json::Num(x), None)
}

pub fn count(name: &'static str, unit: &'static str, x: u64) -> Metric {
    Metric::new(name, unit, Json::Int(x), None)
}

/// A timing sampled several times, reported as its lower quartile. On a
/// shared host contention only ever adds time, in bursts that can cover most
/// of a window: across passes of unchanged code the lower quartile varied
/// about half as much as the median (README.md, "Recorded baseline"). The
/// whole sample summary rides along in the result file.
pub fn timing(name: &'static str, unit: &'static str, sample: &[f64]) -> Metric {
    let s = summarize(sample);
    Metric::new(name, unit, Json::Num(s.q1), Some(s))
}

/// The set-up and the job both passes start from.
pub struct Prepared {
    pub inputs: Inputs,
    pub setup_samples: Vec<f64>,
}

/// Set up at least `min_setups` times and for at least `seconds` in all, so
/// a set-up of a few milliseconds is sampled often enough for a steady
/// figure; the last set-up's inputs are the ones the run uses. When more
/// than one set-up is asked for, an untimed one goes first: the process's
/// first large allocations fault their pages in and cost up to half again.
pub fn prepare(spec: &Spec, seed: u64, check: bool, min_setups: usize, seconds: f64) -> Prepared {
    if min_setups > 1 {
        drop(setup(spec, seed, check));
    }
    let mut setup_samples = Vec::new();
    let t_all = Instant::now();
    loop {
        let t0 = Instant::now();
        let inputs = setup(spec, seed, check);
        setup_samples.push(t0.elapsed().as_secs_f64());
        let enough = setup_samples.len() >= min_setups
            && (t_all.elapsed().as_secs_f64() >= seconds || setup_samples.len() >= 200);
        if enough {
            return Prepared {
                inputs,
                setup_samples,
            };
        }
    }
}

/// The end-to-end pass (`--trace 0`): set up several times, one warm-up,
/// repetitions for `seconds` (twice that on a disturbed host), then the
/// `sim` control and the verification.
pub fn run_timed(spec: &'static Spec, seed: u64, seconds: f64, check: bool) -> RunResult {
    let mut checks = Checks::default();
    let prepared = if check {
        prepare(spec, seed, check, 2, 0.0)
    } else {
        prepare(spec, seed, check, 7, 1.0)
    };
    let Inputs { body, .. } = prepared.inputs;
    let mut job = Job::new(body);
    let (backend, p) = (spec.backend, spec.p);

    let warm = rep(&mut checks, "warm-up", backend, p, &job);
    let reference = warm.as_ref().map(|(_, outs)| signature(outs));
    let min_reps = if check { 2 } else { 7 };
    let mut walls: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        // Contention from outside the benchmark comes in bursts of seconds
        // on a shared host and can cover a whole window. When the window's
        // own quartiles are more than 5% of its median apart, measure for as
        // long again, so a quarter of it sits outside a burst of that length.
        let disturbed = || summarize(&walls).spread() > 0.05;
        let enough = walls.len() >= min_reps
            && (elapsed >= 2.0 * seconds || (elapsed >= seconds && !disturbed()));
        if enough || walls.len() >= 10_000 {
            break;
        }
        match rep(&mut checks, "timed repetition", backend, p, &job) {
            Some((wall, outs)) => {
                check_same(&mut checks, "timed repetition", &outs, reference.as_ref());
                walls.push(wall);
            }
            // a failing workload must not spin until the time limit
            None if checks.failed > 8 => break,
            None => {}
        }
    }

    // the control: same job on the serial simulator, outputs kept
    job.keep_outputs = true;
    let control = rep(&mut checks, "sim control", Backend::Sim, p, &job);
    if let Some((_, outs)) = &control {
        check_same(&mut checks, "sim control", outs, reference.as_ref());
        verify(&mut checks, &job.body, outs);
    }

    let (bytes, msgs) = warm.as_ref().map_or((0, 0), |(_, outs)| traffic(outs));
    let mut metrics = Vec::new();
    if walls.is_empty() {
        checks.check(false, || "no repetition completed".into());
        walls.push(f64::NAN);
    }
    metrics.push(timing("wall_s", "s", &walls));
    metrics.push(timing("setup_s", "s", &prepared.setup_samples));
    metrics.push(count("net_bytes", "bytes", bytes));
    metrics.push(count("net_msgs", "count", msgs));
    RunResult {
        workload: spec.name,
        seed,
        traced: false,
        metrics,
        info: vec![
            ("backend".into(), Json::str(backend.name())),
            ("ranks".into(), Json::Int(p as u64)),
            ("timed_reps".into(), Json::Int(walls.len() as u64)),
            ("operands".into(), describe(&job.body)),
        ],
        checks,
    }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Compare the blocks of one distributed output against `reference`: same
/// pattern exactly, values within `tol` relative.
fn compare_blocks(reference: &Matrix, blocks: &[&Block], tol: f64) -> Result<(), String> {
    let nnz: usize = blocks.iter().map(|b| b.rows.len()).sum();
    if nnz != reference.nnz() {
        return Err(format!(
            "{nnz} entries where the reference has {}",
            reference.nnz()
        ));
    }
    for b in blocks {
        for j in 0..b.colptr.len().saturating_sub(1) {
            let (lo, hi) = (b.colptr[j] as usize, b.colptr[j + 1] as usize);
            let col = b.col_base as usize + j;
            let (rows, vals) = column_rows(reference, col, b.row_base as usize, b.row_end as usize);
            let same_pattern = rows.len() == hi - lo
                && rows
                    .iter()
                    .zip(&b.rows[lo..hi])
                    .all(|(&r, &l)| r as u64 == b.row_base + l as u64);
            if !same_pattern {
                return Err(format!("column {col}: pattern differs from the reference"));
            }
            if let Some(i) = (0..rows.len()).find(|&i| !close(vals[i], b.vals[lo + i], tol)) {
                return Err(format!(
                    "column {col} row {}: {} vs reference {}",
                    rows[i],
                    b.vals[lo + i],
                    vals[i]
                ));
            }
        }
    }
    Ok(())
}

fn blocks_of(outs: &[RankOut], output: u64) -> Vec<&Block> {
    outs.iter()
        .flat_map(|o| &o.blocks)
        .filter(|b| b.output == output)
        .collect()
}

fn vector<'a>(outs: &'a [RankOut], name: &str) -> Option<&'a [f64]> {
    outs[0]
        .vectors
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_slice())
}

/// Check the kept outputs of one launch of `body` against the serial
/// references. Each comparison is one attempted operation.
fn verify(checks: &mut Checks, body: &Body, outs: &[RankOut]) {
    let product = |checks: &mut Checks, what: String, reference: Matrix, output, tol| {
        let r = compare_blocks(&reference, &blocks_of(outs, output), tol);
        checks.check(r.is_ok(), || format!("{what}: {}", r.unwrap_err()));
    };
    match body {
        Body::Square1d { mats, .. } => {
            for (i, m) in mats.iter().enumerate() {
                let what = format!("A·A of operand {i} vs serial_spgemm");
                product(checks, what, reference_square(&m.a), i as u64, 1e-10);
            }
        }
        Body::Summa2d { mat, .. } => {
            let what = "2D A·A vs serial_spgemm".to_string();
            product(checks, what, reference_square(mat), 0, 1e-10);
        }
        Body::Apps {
            graph,
            batches,
            fine,
            restrictions,
        } => {
            let labels = vector(outs, "mcl.clusters");
            checks.check(labels.is_some_and(|l| l.len() == graph.ncols()), || {
                "MCL returned no label per vertex".into()
            });
            for (i, sources) in batches.iter().enumerate() {
                let expect = reference_bc(graph, sources);
                let got = vector(outs, &format!("bc.scores.{i}"));
                let ok = got.is_some_and(|g| {
                    g.len() == expect.len()
                        && g.iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-9)
                });
                checks.check(ok, || format!("BC batch {i} scores vs bc_serial"));
            }
            for (i, r) in restrictions.iter().enumerate() {
                let what = format!("Galerkin product {i} vs serial_galerkin");
                product(checks, what, reference_galerkin(r, fine), i as u64, 1e-9);
            }
        }
        Body::Probe1d { .. } | Body::MclCheckpointed { .. } | Body::Empty => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{queen_like, reference_square};

    fn as_block(m: &Matrix, c0: usize, c1: usize, r0: usize, r1: usize) -> Block {
        let mut b = Block {
            output: 0,
            row_base: r0 as u64,
            row_end: r1 as u64,
            col_base: c0 as u64,
            colptr: vec![0],
            ..Block::default()
        };
        for j in c0..c1 {
            let (rows, vals) = column_rows(m, j, r0, r1);
            b.rows.extend(rows.iter().map(|&r| r - r0 as u32));
            b.vals.extend_from_slice(vals);
            b.colptr.push(b.rows.len() as u64);
        }
        b
    }

    #[test]
    fn block_comparison_accepts_exact_covers_and_rejects_damage() {
        let c = reference_square(&queen_like(4));
        let n = c.ncols();
        // 1D slices and a 2x2 grid both cover the reference exactly
        let slices = [as_block(&c, 0, n / 3, 0, n), as_block(&c, n / 3, n, 0, n)];
        assert!(compare_blocks(&c, &slices.iter().collect::<Vec<_>>(), 1e-10).is_ok());
        let h = n / 2;
        let grid = [
            as_block(&c, 0, h, 0, h),
            as_block(&c, 0, h, h, n),
            as_block(&c, h, n, 0, h),
            as_block(&c, h, n, h, n),
        ];
        assert!(compare_blocks(&c, &grid.iter().collect::<Vec<_>>(), 1e-10).is_ok());
        // a missing block, a perturbed value and a moved entry are all caught
        assert!(compare_blocks(&c, &[&slices[0]], 1e-10).is_err());
        let mut bad = slices.clone();
        bad[1].vals[3] *= 1.0 + 1e-6;
        assert!(compare_blocks(&c, &bad.iter().collect::<Vec<_>>(), 1e-10).is_err());
        assert!(compare_blocks(&c, &bad.iter().collect::<Vec<_>>(), 1e-5).is_ok());
        let mut bad = slices.clone();
        bad[0].rows[0] += 1;
        assert!(compare_blocks(&c, &bad.iter().collect::<Vec<_>>(), 1e-10).is_err());
    }

    #[test]
    fn checks_count_every_operation() {
        let mut c = Checks::default();
        assert!(c.check(true, || unreachable!()));
        assert!(!c.check(false, || "boom".into()));
        let outs = vec![Ok(RankOut::default()), Err("rank died".to_string())];
        assert!(c.ranks("launch", outs).is_none());
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.fail_share(), 0.5);
        assert_eq!(c.notes.len(), 2);
    }
}
