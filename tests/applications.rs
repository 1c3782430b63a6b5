//! Integration tests of the evaluation applications against serial oracles.

use saspgemm::apps::bc::{
    bc_batch_1d, bc_batch_1d_offsets, bc_batch_2d, bc_batch_3d, bc_batches_1d_session, bc_serial,
    pick_sources,
};
use saspgemm::apps::galerkin::{galerkin_product, RightAlgo};
use saspgemm::apps::mis2::{mis2, verify_mis2};
use saspgemm::apps::restriction::restriction_operator;
use saspgemm::apps::triangle::{triangles_1d, triangles_serial};
use saspgemm::dist::reference::serial_galerkin;
use saspgemm::dist::{uniform_offsets, CacheConfig, DistMat1D, Plan1D, Wired};
use saspgemm::mpisim::{Comm, Universe};
use saspgemm::sparse::gen::{erdos_renyi_square, rmat, sbm, stencil3d};

#[test]
fn galerkin_pipeline_matches_serial_triple_product() {
    for (label, a) in [
        ("stencil", stencil3d(6, 5, 4, true)),
        ("sbm", sbm(150, 3, 8.0, 1.0, true, 2)),
    ] {
        let r = restriction_operator(&a, 9);
        let expect = serial_galerkin(&r, &a);
        for right in [RightAlgo::OneD, RightAlgo::Outer] {
            let u = Universe::new(4);
            let got = u
                .run(|comm| {
                    let da =
                        DistMat1D::from_global(comm, &a, &uniform_offsets(a.ncols(), comm.size()));
                    let (c, _) = galerkin_product(comm, &da, &r, right, &Plan1D::default());
                    c.gather(comm).map(Wired)
                })
                .remove(0)
                .unwrap();
            assert!(
                got.max_abs_diff(&expect) < 1e-9,
                "{label} {right:?}: {}",
                got.max_abs_diff(&expect)
            );
        }
    }
}

#[test]
fn bc_engines_agree_with_each_other_and_serial() {
    let g = rmat(6, 6, (0.57, 0.19, 0.19, 0.05), 3);
    let sources = pick_sources(g.nrows(), 10, 4);
    let expect = bc_serial(&g, &sources);
    let close = |xs: &[f64]| xs.iter().zip(&expect).all(|(a, b)| (a - b).abs() < 1e-9);
    let plan = Plan1D::default();
    // uneven 1D slices, one of them empty
    let n = g.nrows();
    let uneven = vec![0, n / 8, n / 8, n / 2, n];

    let outcomes = [
        (
            "1D",
            Universe::new(4).run(|c| bc_batch_1d(c, &g, &sources, &plan)),
        ),
        (
            "1D uneven offsets",
            Universe::new(4).run(|c| bc_batch_1d_offsets(c, &g, &sources, &plan, &uneven)),
        ),
        (
            "1D session, one batch",
            Universe::new(4)
                .run(|c| {
                    let batches = [sources.clone()];
                    bc_batches_1d_session(c, &g, &batches, &plan, CacheConfig::unlimited()).0
                })
                .into_iter()
                .flatten()
                .collect(),
        ),
        (
            "2D on 3x3",
            Universe::new(9).run(|c| bc_batch_2d(c, &g, &sources)),
        ),
        (
            "3D 2x2x2",
            Universe::new(8).run(|c| bc_batch_3d(c, 2, &g, &sources)),
        ),
    ];
    let levels = outcomes[0].1[0].levels;
    assert!(levels >= 2);
    for (label, ranks) in &outcomes {
        for o in ranks {
            assert!(close(&o.scores), "{label}");
            // same BFS structure regardless of distribution
            assert_eq!(o.levels, levels, "{label}");
            assert_eq!(o.times.forward_s.len(), levels, "{label}");
            assert_eq!(o.times.backward_s.len(), levels - 2, "{label}");
        }
    }
}

/// FNV-1a over the scores' bit patterns.
fn score_bits(scores: &[f64]) -> u64 {
    let bytes = scores.iter().flat_map(|x| x.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every entry point's scores, bit for bit, on `bc_engines_agree…`'s graph
/// and sources (and a second batch through the session engine). The level
/// loop may change how it stores σ, δ and the visited set, but not one
/// floating-point operation or the order of the score sums: each vertex
/// adds its entries in ascending row order of the frontier block, which in
/// the transposed 1D layout spans several BFS levels.
#[test]
fn bc_score_bits_are_pinned() {
    let g = rmat(6, 6, (0.57, 0.19, 0.19, 0.05), 3);
    let sources = pick_sources(g.nrows(), 10, 4);
    let batches = [sources.clone(), pick_sources(g.nrows(), 10, 5)];
    let plan = Plan1D::default();
    let n = g.nrows();
    let uneven = vec![0, n / 8, n / 8, n / 2, n];
    let one = |ranks: Vec<Vec<f64>>| {
        let fp = score_bits(&ranks[0]);
        assert!(ranks.iter().all(|s| score_bits(s) == fp), "ranks disagree");
        fp
    };
    let sessions = Universe::new(4).run(|c| {
        let (outcomes, _) = bc_batches_1d_session(c, &g, &batches, &plan, CacheConfig::unlimited());
        outcomes.into_iter().map(|o| o.scores).collect::<Vec<_>>()
    });
    let got = [
        one(Universe::new(4).run(|c| bc_batch_1d(c, &g, &sources, &plan).scores)),
        one(Universe::new(4).run(|c| bc_batch_1d_offsets(c, &g, &sources, &plan, &uneven).scores)),
        one(sessions.iter().map(|b| b[0].clone()).collect()),
        one(sessions.iter().map(|b| b[1].clone()).collect()),
        one(Universe::new(9).run(|c| bc_batch_2d(c, &g, &sources).scores)),
        one(Universe::new(8).run(|c| bc_batch_3d(c, 2, &g, &sources).scores)),
    ];
    let recorded = [
        0xb7e3_0d11_5ad7_9daa, // 1D
        0xb7e3_0d11_5ad7_9daa, // 1D uneven offsets
        0x73a3_00eb_e442_9fe8, // session, first batch
        0xb5df_bc1a_c92e_3242, // session, second batch
        0xda2c_7af5_7c28_d847, // 2D on 3x3
        0x0b1d_1c14_26ab_9c2f, // 3D 2x2x2
    ];
    assert_eq!(got, recorded, "{got:#018x?}");
}

#[test]
fn bc_batching_is_additive() {
    // running two halves of the sources separately must sum to the full run
    let g = erdos_renyi_square(120, 5.0, 5);
    let sources = pick_sources(g.nrows(), 8, 6);
    let (left, right) = sources.split_at(4);
    let u = Universe::new(2);
    let full = u
        .run(|comm| bc_batch_1d(comm, &g, &sources, &Plan1D::default()))
        .remove(0);
    let a = u
        .run(|comm| bc_batch_1d(comm, &g, left, &Plan1D::default()))
        .remove(0);
    let b = u
        .run(|comm| bc_batch_1d(comm, &g, right, &Plan1D::default()))
        .remove(0);
    for v in 0..g.nrows() {
        assert!(
            (full.scores[v] - a.scores[v] - b.scores[v]).abs() < 1e-9,
            "vertex {v}"
        );
    }
}

#[test]
fn mis2_and_restriction_on_all_structures() {
    for (label, a) in [
        ("stencil", stencil3d(5, 5, 5, true)),
        ("er", erdos_renyi_square(250, 5.0, 7)),
        ("sbm", sbm(200, 5, 10.0, 1.0, true, 8)),
    ] {
        let roots = mis2(&a, 11);
        verify_mis2(&a, &roots).unwrap_or_else(|e| panic!("{label}: {e}"));
        let r = restriction_operator(&a, 11);
        assert_eq!(r.nnz(), a.nrows(), "{label}: one nnz per row");
        assert!(r.ncols() <= roots.len(), "{label}");
    }
}

#[test]
fn triangle_counts_distributed_vs_serial() {
    for seed in [1u64, 2, 3] {
        let g = erdos_renyi_square(150, 8.0, seed);
        let expect = triangles_serial(&g);
        let u = Universe::new(3);
        let got = u
            .run(|comm| triangles_1d(comm, &g, &Plan1D::default()))
            .remove(0);
        assert_eq!(got, expect, "seed {seed}");
    }
}
