//! `--compare A.json B.json`: apply the end-to-end bounds to two result
//! files (A the baseline, B the candidate). This is the A/A check and the
//! regression gate.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    /// Worse than the bound allows.
    Regression,
    /// The metric's own quartiles are wider apart than its bound, so the
    /// two values cannot settle the question.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a value and, for timings, the quartiles of the
/// sample behind it.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
}

impl Side {
    fn spread(&self) -> f64 {
        match self.quartiles {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judge one end-to-end metric. `same_inputs` says both sides ran the same
/// seed, which is when an exact metric must not move at all.
pub fn judge(
    a: Side,
    b: Side,
    better: Better,
    bound: f64,
    exact: bool,
    same_inputs: bool,
) -> Verdict {
    if exact && same_inputs {
        return if a.value == b.value {
            Verdict::Unchanged
        } else {
            Verdict::Regression
        };
    }
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.value, b.value, better);
    if w > bound {
        Verdict::Regression
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Side {
        value: num("value")?,
        quartiles: num("q1").zip(num("q3")),
    })
}

fn key(run: &Json) -> Option<(String, u64)> {
    Some((
        run.get("workload")?.as_str()?.to_string(),
        run.get("trace")?.as_f64()? as u64,
    ))
}

/// Compare two result files; `Ok(true)` when nothing regressed.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let runs = |doc: &Json, p: &Path| -> Result<Vec<Json>, String> {
        doc.get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{}: no \"runs\" array", p.display()))
    };
    let (a_runs, b_runs) = (runs(&a, a_path)?, runs(&b, b_path)?);
    let mut regressions = 0usize;
    let mut unresolved = 0usize;
    let mut matched = 0usize;
    for ra in &a_runs {
        let Some(k) = key(ra) else {
            return Err(format!(
                "{}: a run without workload/trace",
                a_path.display()
            ));
        };
        let Some(rb) = b_runs.iter().find(|r| key(r).as_ref() == Some(&k)) else {
            println!("{} trace {}: only in {}", k.0, k.1, a_path.display());
            continue;
        };
        matched += 1;
        let seed = |r: &Json| r.get("seed").and_then(Json::as_f64);
        let same_inputs = seed(ra).is_some() && seed(ra) == seed(rb);
        println!(
            "## {} trace {} (seeds {:?} vs {:?})",
            k.0,
            k.1,
            seed(ra).unwrap_or(f64::NAN),
            seed(rb).unwrap_or(f64::NAN)
        );
        for (which, r) in [("A", ra), ("B", rb)] {
            let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            if failed != 0.0 {
                println!("  {which} has {failed} failed operations: REGRESSION");
                regressions += 1;
            }
        }
        if k.1 == 0 {
            for m in &END_TO_END {
                let (Some(sa), Some(sb)) = (side(ra, m.name), side(rb, m.name)) else {
                    println!("  {:<34} missing: REGRESSION", m.name);
                    regressions += 1;
                    continue;
                };
                let v = judge(sa, sb, m.better, m.bound, m.exact, same_inputs);
                regressions += (v == Verdict::Regression) as usize;
                unresolved += (v == Verdict::Unresolved) as usize;
                println!(
                    "  {:<34} {:>14.6} -> {:>14.6} {:<6} {:+7.2}% (bound {:.0}%, spreads {:.1}% / {:.1}%)  {}",
                    m.name,
                    sa.value,
                    sb.value,
                    m.unit,
                    100.0 * worsening(sa.value, sb.value, m.better),
                    100.0 * m.bound,
                    100.0 * sa.spread(),
                    100.0 * sb.spread(),
                    v.name()
                );
            }
        } else {
            // layers carry no bound: print how each moved, judge nothing
            for m in &PER_LAYER {
                if let (Some(sa), Some(sb)) = (side(ra, m.name), side(rb, m.name)) {
                    if sa.value == 0.0 && sb.value == 0.0 {
                        continue;
                    }
                    println!(
                        "  {:<34} {:>14.6} -> {:>14.6} {:<8} {:+7.2}%",
                        m.name,
                        sa.value,
                        sb.value,
                        m.unit,
                        100.0 * (sb.value - sa.value) / sa.value.abs().max(f64::MIN_POSITIVE)
                    );
                }
            }
        }
    }
    if matched == 0 {
        return Err("the two files share no (workload, trace) run".into());
    }
    println!("# {matched} runs compared: {regressions} regressions, {unresolved} unresolved");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(value: f64, q1: f64, q3: f64) -> Side {
        Side {
            value,
            quartiles: Some((q1, q3)),
        }
    }

    fn c(value: f64) -> Side {
        Side {
            value,
            quartiles: None,
        }
    }

    #[test]
    fn timings_follow_the_bound() {
        let a = t(1.0, 0.99, 1.01);
        let j = |b| judge(a, b, Better::Lower, 0.10, false, true);
        assert_eq!(j(t(1.05, 1.04, 1.06)), Verdict::Unchanged);
        assert_eq!(j(t(1.11, 1.10, 1.12)), Verdict::Regression);
        assert_eq!(j(t(0.85, 0.84, 0.86)), Verdict::Improved);
        // a side whose own quartiles are wider than the bound settles nothing
        assert_eq!(j(t(1.5, 1.3, 1.7)), Verdict::Unresolved);
        let noisy = t(1.0, 0.9, 1.1);
        assert_eq!(
            judge(noisy, t(1.0, 0.99, 1.01), Better::Lower, 0.10, false, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let j = |b| judge(c(100.0), c(b), Better::Higher, 0.10, false, true);
        assert_eq!(j(80.0), Verdict::Regression);
        assert_eq!(j(120.0), Verdict::Improved);
        assert_eq!(j(95.0), Verdict::Unchanged);
    }

    #[test]
    fn exact_metrics_must_be_equal_on_the_same_seed() {
        let j = |b, same| judge(c(1000.0), c(b), Better::Lower, 0.02, true, same);
        assert_eq!(j(1000.0, true), Verdict::Unchanged);
        assert_eq!(j(1001.0, true), Verdict::Regression);
        assert_eq!(j(999.0, true), Verdict::Regression);
        // across seeds the inputs differ, so the bound applies instead
        assert_eq!(j(1001.0, false), Verdict::Unchanged);
        assert_eq!(j(1100.0, false), Verdict::Regression);
    }
}
