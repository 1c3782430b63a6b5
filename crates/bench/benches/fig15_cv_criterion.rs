//! §V (Discussion): the CV/memA criterion for deciding whether to graph-
//! partition before running the 1D algorithm. Not a numbered figure in the
//! paper — this bench tabulates the criterion across all five datasets and
//! verifies the suggested 30% threshold makes the right call.

use sa_bench::*;
use sa_dist::{analyze_1d, prepare, DistMat1D, FetchMode, Strategy};

use sa_sparse::gen::Dataset;

fn main() {
    banner(
        "§V criterion",
        "CV/memA before communication, all datasets, original vs METIS",
        "CV/memA > ~30% => partition first; eukarya natural order sits at ~1.0",
    );
    let p = 16;
    row(&[
        "matrix".into(),
        "cv_original".into(),
        "cv_metis".into(),
        "recommend_partitioning".into(),
        "speedup_if_followed".into(),
    ]);
    for d in Dataset::ALL {
        let a = load(d);
        let cv_of = |m: &sa_sparse::Csc<f64>, offsets: &[usize]| -> f64 {
            let u = universe(p);
            let mut cvs = u.run(|comm| {
                let da = DistMat1D::from_global(comm, m, offsets);
                let db = da.clone();
                analyze_1d(comm, &da, &db, FetchMode::default()).cv_over_mem
            });
            cvs.remove(0)
        };
        let orig = prepare(&a, p, Strategy::Original);
        let metis = prepare(
            &a,
            p,
            Strategy::Partition {
                seed: 1,
                epsilon: 0.05,
            },
        );
        let cv_orig = cv_of(&orig.a, &orig.offsets);
        let cv_metis = cv_of(&metis.a, &metis.offsets);
        let recommend = cv_orig > 0.30;
        // measure actual effect of following the recommendation
        let t_orig = {
            let reps = run_square_prepared(&orig, p, plan());
            reps.iter()
                .map(|r| r.phases.total_s())
                .fold(0.0f64, f64::max)
        };
        let t_metis = {
            let reps = run_square_prepared(&metis, p, plan());
            reps.iter()
                .map(|r| r.phases.total_s())
                .fold(0.0f64, f64::max)
        };
        let speedup = if recommend {
            t_orig / t_metis
        } else {
            t_metis / t_orig
        };
        row(&[
            d.name().into(),
            format!("{:.3}", cv_orig),
            format!("{:.3}", cv_metis),
            recommend.to_string(),
            format!("{:.2}", speedup),
        ]);
    }
    println!("## expected: eukarya cv_original ≈ (P-1)/P (fetches ~everything) and recommend=true pays off; structured datasets stay below threshold");
}
