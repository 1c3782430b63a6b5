//! `sa_suite` — the repository's benchmark. See README.md beside this
//! package for the protocol, the workloads and how to read the output.
//!
//! ```text
//! sa_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass of one workload
//! sa_suite --all --seed <n> [--seconds <s>] [--out <file>]            every workload, both passes
//! sa_suite --check                                                    tiny sizes, every code path
//! sa_suite --compare A.json B.json                                    apply the bounds to two results
//! sa_suite --benchmark-json                                           print BENCHMARK.json
//! ```

mod adapter;
mod checksum;
mod compare;
mod json;
mod layers;
mod metrics;
mod protocol;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use protocol::RunResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Spec, SPECS};

/// Seconds one pass measures when the caller does not say, and the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;

/// The benchmark's contract with its driver, generated from the tables so
/// the file cannot drift from the code (a unit test compares them).
fn benchmark_json() -> Json {
    let cmd = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "sa_suite/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(cmd.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("sa_suite")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

struct Args {
    workload: Option<String>,
    all: bool,
    check: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: sa_suite --workload <name> --seed <n> --seconds <s> --trace <0|1> [--check] [--out <file>]\n\
         \x20      sa_suite --all [--seed <n>] [--seconds <s>] [--check] [--out <file>]\n\
         \x20      sa_suite --check\n\
         \x20      sa_suite --compare <A.json> <B.json>\n\
         \x20      sa_suite --benchmark-json\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        check: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number from 0 to 600")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--all" => a.all = true,
            "--check" => a.check = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if a.workload.is_none() && !a.all {
        if !a.check {
            return Err(usage());
        }
        a.all = true;
    }
    if a.check && a.seconds == RUN_SECONDS as f64 {
        a.seconds = 0.0;
    }
    Ok(a)
}

/// Remove every `SA_*` variable from the environment, returning what was
/// there: the program reads its knobs from them, and a benchmark that
/// inherits one measures something else. Called before any thread starts.
fn scrub_environment() -> Vec<(String, String)> {
    let found: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("SA_"))
        .collect();
    for (k, _) in &found {
        std::env::remove_var(k);
    }
    found
}

/// Where results, traces and scratch files go: `sa_suite/` inside the cargo
/// target directory the binary was built into, which the repository's
/// `.gitignore` already covers.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("sa_suite")))
        .unwrap_or_else(|| PathBuf::from("sa_suite/target/sa_suite"))
}

/// A scratch directory removed when dropped, even on a failed run.
struct Scratch(PathBuf);

impl Scratch {
    fn create(parent: &Path) -> std::io::Result<Scratch> {
        let dir = parent.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // nothing to do about a failure here; the directory is under target/
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn host() -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease"))),
        // a checkout without git history has no revision to name
        ("git_rev", rev.map_or(Json::Null, Json::str)),
    ])
}

/// The full record of one pass, as written to the result file.
fn result_json(r: &RunResult) -> Json {
    let metrics = r.metrics.iter().map(|m| {
        let mut fields = vec![
            ("value".to_string(), m.value.clone()),
            ("unit".to_string(), Json::str(m.unit)),
        ];
        if let Some(d) = &m.dist {
            fields.extend([
                ("n".to_string(), Json::Int(d.n as u64)),
                ("q1".to_string(), Json::Num(d.q1)),
                ("median".to_string(), Json::Num(d.median)),
                ("q3".to_string(), Json::Num(d.q3)),
                ("min".to_string(), Json::Num(d.min)),
                ("max".to_string(), Json::Num(d.max)),
            ]);
        }
        (m.name.to_string(), Json::Obj(fields))
    });
    let mut fields = vec![
        ("workload".to_string(), Json::str(r.workload)),
        ("seed".to_string(), Json::Int(r.seed)),
        ("trace".to_string(), Json::Int(r.traced as u64)),
        ("correct".to_string(), Json::Bool(r.checks.failed == 0)),
        ("attempted".to_string(), Json::Int(r.checks.attempted)),
        ("failed".to_string(), Json::Int(r.checks.failed)),
        ("fail_share".to_string(), Json::Num(r.checks.fail_share())),
        (
            "failures".to_string(),
            Json::Arr(r.checks.notes.iter().map(Json::str).collect()),
        ),
    ];
    fields.extend(r.info.iter().cloned());
    fields.push(("metrics".to_string(), Json::Obj(metrics.collect())));
    Json::Obj(fields)
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and unit.
fn driver_line(r: &RunResult) -> String {
    let metrics = r.metrics.iter().map(|m| {
        (
            m.name.to_string(),
            Json::obj([("value", m.value.clone()), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.checks.failed == 0)),
        ("attempted", Json::Int(r.checks.attempted.max(1))),
        ("failed", Json::Int(r.checks.failed)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
    .emit()
}

fn print_table(r: &RunResult) {
    println!(
        "# {} seed {} trace {}: {} attempted, {} failed (fail_share {})",
        r.workload,
        r.seed,
        r.traced as u8,
        r.checks.attempted,
        r.checks.failed,
        r.checks.fail_share()
    );
    for m in &r.metrics {
        let value = m.value.emit();
        match &m.dist {
            Some(d) => println!(
                "{:<34} {:>22} {:<8} n={} median={} q3={} min={} max={} spread={:.4}",
                m.name,
                value,
                m.unit,
                d.n,
                d.median,
                d.q3,
                d.min,
                d.max,
                d.spread()
            ),
            None => println!("{:<34} {:>22} {}", m.name, value, m.unit),
        }
    }
}

fn run_pass(spec: &'static Spec, a: &Args, traced: bool, dir: &Path) -> Result<RunResult, String> {
    if !traced {
        return Ok(protocol::run_timed(spec, a.seed, a.seconds, a.check));
    }
    let scratch = Scratch::create(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_file = dir.join(format!("trace-{}.json", spec.name));
    Ok(layers::run_traced(
        spec,
        a.seed,
        a.seconds,
        a.check,
        &scratch.0,
        &trace_file,
    ))
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.emit_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(a: &Args, scrubbed: &[(String, String)]) -> Result<bool, String> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let header = vec![
        ("suite".to_string(), Json::str("sa_suite")),
        ("check_sizes".to_string(), Json::Bool(a.check)),
        ("seconds".to_string(), Json::Num(a.seconds)),
        ("host".to_string(), host()),
        (
            "scrubbed_env".to_string(),
            Json::obj(
                scrubbed
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.as_str()))),
            ),
        ),
    ];
    if let Some(name) = &a.workload {
        let spec =
            workloads::spec(name).ok_or_else(|| format!("no workload {name}\n{}", usage()))?;
        let r = run_pass(spec, a, a.trace, &dir)?;
        print_table(&r);
        let default = dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            r.workload, r.seed, r.traced as u8
        ));
        let mut doc = header;
        doc.push(("runs".to_string(), Json::Arr(vec![result_json(&r)])));
        write_json(a.out.as_deref().unwrap_or(&default), &Json::Obj(doc))?;
        println!("{}", driver_line(&r));
        return Ok(r.checks.failed == 0);
    }
    let mut runs = Vec::new();
    let mut ok = true;
    for spec in &SPECS {
        for traced in [false, true] {
            let r = run_pass(spec, a, traced, &dir)?;
            print_table(&r);
            ok &= r.checks.failed == 0;
            runs.push(result_json(&r));
        }
    }
    let default = dir.join(if a.check {
        "result-check.json"
    } else {
        "result.json"
    });
    let path = a.out.as_deref().unwrap_or(&default);
    let mut doc = header;
    doc.push(("runs".to_string(), Json::Arr(runs)));
    write_json(path, &Json::Obj(doc))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let scrubbed = scrub_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--benchmark-json") => {
            print!("{}", benchmark_json().emit_pretty());
            Ok(true)
        }
        Some("--compare") => match &argv[1..] {
            [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        _ => parse_args(&argv).and_then(|a| run(&a, &scrubbed)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sa_suite: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args("--workload sq_natural_sim --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sq_natural_sim"));
        assert_eq!((a.seed, a.seconds, a.trace, a.all), (7, 3.0, true, false));
        let a = args("--check").unwrap();
        assert!(a.all && a.check && a.seconds == 0.0);
        for bad in [
            "",
            "--seed",
            "--trace 2",
            "--seconds -1",
            "--bogus",
            "--seed x --all",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json().emit_pretty(),
            "regenerate with: sa_suite --benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn driver_line_has_exactly_the_four_keys() {
        let r = RunResult {
            workload: "w",
            seed: 1,
            traced: false,
            metrics: vec![protocol::num("wall_s", "s", 1.25)],
            checks: protocol::Checks::default(),
            info: vec![],
        };
        assert_eq!(
            driver_line(&r),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
