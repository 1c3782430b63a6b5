//! Property-style integration tests: the algebra is invariant under the
//! permutation strategies (P(AB)Pᵀ = (PAPᵀ)(PBPᵀ)), the prep pipeline
//! preserves results, and the partitioner's layouts are sound end-to-end.

use proptest::prelude::*;
use saspgemm::dist::reference::serial_spgemm;
use saspgemm::dist::{prepare, spgemm_1d, DistMat1D, Plan1D, Strategy as PrepStrategy, Wired};
use saspgemm::mpisim::Universe;
use saspgemm::partition::{partition_kway, partition_to_perm, Graph, PartitionConfig};
use saspgemm::sparse::gen::sbm;
use saspgemm::sparse::permute::permute_symmetric;
use saspgemm::sparse::{Coo, Csc, Perm};

/// Arbitrary small square sparse matrix.
fn arb_square(n: usize, nnz: usize) -> impl Strategy<Value = Csc<f64>> {
    proptest::collection::vec((0..n as u32, 0..n as u32, -3i32..=3), nnz).prop_map(move |tr| {
        let mut coo = Coo::new(n, n);
        for (r, c, v) in tr {
            if v != 0 {
                coo.push(r, c, v as f64);
            }
        }
        coo.to_csc_with(|a, b| a + b).filter(|_, _, v| v != 0.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn squaring_commutes_with_symmetric_permutation(
        a in arb_square(24, 60),
        seed in 0u64..1000,
    ) {
        let p = Perm::random(24, seed);
        let pa = permute_symmetric(&a, &p);
        let left = permute_symmetric(&serial_spgemm(&a, &a), &p);
        let right = serial_spgemm(&pa, &pa);
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn distributed_result_is_strategy_independent(
        a in arb_square(30, 80),
        seed in 0u64..1000,
    ) {
        // run the 1D algorithm under random permutation, undo the
        // permutation, and compare with the unpermuted run
        let expect = serial_spgemm(&a, &a);
        let prep = prepare(&a, 3, PrepStrategy::RandomPerm { seed });
        let u = Universe::new(3);
        let permuted_c = u.run(|comm| {
            let da = DistMat1D::from_global(comm, &prep.a, &prep.offsets);
            let db = da.clone();
            let (c, _) = spgemm_1d(comm, &da, &db, &Plan1D::default());
            c.gather(comm).map(Wired)
        }).remove(0).unwrap();
        let undone = permute_symmetric(&permuted_c, &prep.perm.as_ref().unwrap().inverse());
        prop_assert!(undone.max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn partition_layout_roundtrips(parts in proptest::collection::vec(0u32..4, 1..60)) {
        let layout = partition_to_perm(&parts, 4);
        // permutation is a bijection and offsets partition the index space
        let inv = layout.perm.inverse();
        for i in 0..parts.len() {
            prop_assert_eq!(inv.apply(layout.perm.apply(i) as usize) as usize, i);
        }
        prop_assert_eq!(*layout.offsets.last().unwrap(), parts.len());
        // each index lands inside its part's range
        for (v, &part) in parts.iter().enumerate() {
            let pos = layout.perm.apply(v) as usize;
            prop_assert!(pos >= layout.offsets[part as usize]);
            prop_assert!(pos < layout.offsets[part as usize + 1]);
        }
    }
}

#[test]
fn metis_strategy_preserves_squaring_result() {
    let a = sbm(160, 4, 8.0, 1.0, true, 3);
    let expect = serial_spgemm(&a, &a);
    let prep = prepare(
        &a,
        4,
        PrepStrategy::Partition {
            seed: 2,
            epsilon: 0.05,
        },
    );
    let u = Universe::new(4);
    let c = u
        .run(|comm| {
            let da = DistMat1D::from_global(comm, &prep.a, &prep.offsets);
            let db = da.clone();
            let (c, _) = spgemm_1d(comm, &da, &db, &Plan1D::default());
            c.gather(comm).map(Wired)
        })
        .remove(0)
        .unwrap();
    let undone = permute_symmetric(&c, &prep.perm.as_ref().unwrap().inverse());
    assert!(undone.max_abs_diff(&expect) < 1e-9);
}

#[test]
fn partitioned_layout_cuts_volume_on_clustered_input() {
    // end-to-end: SBM + multilevel partitioner + 1D layout ⇒ less fetch
    // volume than uniform layout on the hidden-cluster ordering.
    let a = sbm(400, 8, 10.0, 0.8, true, 5);
    let g = Graph::from_matrix(&a);
    let parts = partition_kway(&g, &PartitionConfig::new(4));
    let layout = partition_to_perm(&parts, 4);
    let clustered = permute_symmetric(&a, &layout.perm);

    let volume = |m: &Csc<f64>, offsets: Vec<usize>| -> u64 {
        let u = Universe::new(4);
        u.run(|comm| {
            let da = DistMat1D::from_global(comm, m, &offsets);
            let db = da.clone();
            let (_c, rep) = spgemm_1d(comm, &da, &db, &Plan1D::default());
            rep.fetched_bytes_global
        })
        .remove(0)
    };
    let v_natural = volume(&a, saspgemm::dist::uniform_offsets(400, 4));
    let v_clustered = volume(&clustered, layout.offsets);
    assert!(
        v_clustered * 2 < v_natural,
        "partitioning should halve volume: {v_clustered} vs {v_natural}"
    );
}
