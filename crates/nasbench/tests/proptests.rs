//! Property-based tests for the CNN search-space invariants.

use codesign_nasbench::cell::{compute_vertex_channels, CellProgram, OpKind};
use codesign_nasbench::{
    surrogate, AdjMatrix, CellSpec, Dataset, Network, Op, MAX_EDGES, MAX_VERTICES,
};
use proptest::prelude::*;

/// Strategy: an arbitrary (frequently invalid) raw matrix + op labels.
fn raw_cell() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<u8>)> {
    (2usize..=MAX_VERTICES).prop_flat_map(|v| {
        let slots: Vec<(usize, usize)> = (0..v)
            .flat_map(|i| ((i + 1)..v).map(move |j| (i, j)))
            .collect();
        let n_slots = slots.len();
        (
            Just(v),
            prop::collection::vec(prop::bool::ANY, n_slots).prop_map(move |mask| {
                slots
                    .iter()
                    .zip(mask.iter())
                    .filter(|(_, &m)| m)
                    .map(|(&e, _)| e)
                    .collect::<Vec<_>>()
            }),
            prop::collection::vec(0u8..3, v - 2),
        )
    })
}

fn to_cell(v: usize, edges: &[(usize, usize)], op_labels: &[u8]) -> Option<CellSpec> {
    let matrix = AdjMatrix::from_edges(v, edges).ok()?;
    let ops: Vec<Op> = op_labels
        .iter()
        .map(|&l| Op::from_label(l).unwrap())
        .collect();
    CellSpec::new(matrix, ops).ok()
}

proptest! {
    #[test]
    fn valid_cells_respect_all_budgets((v, edges, ops) in raw_cell()) {
        if let Some(cell) = to_cell(v, &edges, &ops) {
            prop_assert!(cell.num_vertices() <= MAX_VERTICES);
            prop_assert!(cell.num_edges() <= MAX_EDGES);
            prop_assert_eq!(cell.ops().len(), cell.num_vertices() - 2);
            // Every vertex lies on an input->output path post-pruning.
            let m = cell.matrix();
            let fwd = m.reachable_from_input();
            let bwd = m.reaching_output();
            for i in 0..m.num_vertices() {
                prop_assert!(fwd[i] && bwd[i]);
            }
        }
    }

    #[test]
    fn construction_is_idempotent((v, edges, ops) in raw_cell()) {
        if let Some(cell) = to_cell(v, &edges, &ops) {
            let again = CellSpec::new(cell.matrix().clone(), cell.ops().to_vec()).unwrap();
            prop_assert_eq!(cell.canonical_hash(), again.canonical_hash());
            prop_assert_eq!(cell, again);
        }
    }

    #[test]
    fn output_feeder_channels_sum_to_c_out((v, edges, ops) in raw_cell()) {
        if let Some(cell) = to_cell(v, &edges, &ops) {
            let m = cell.matrix();
            let n = m.num_vertices();
            if n > 2 {
                let ch = compute_vertex_channels(128, 256, m);
                let sum: usize = (1..n - 1).filter(|&x| m.has_edge(x, n - 1)).map(|x| ch[x]).sum();
                prop_assert_eq!(sum, 256);
                for (i, &c) in ch[..n].iter().enumerate() {
                    prop_assert!(c > 0, "vertex {} has zero channels", i);
                }
            }
        }
    }

    #[test]
    fn lowered_programs_are_topological_and_positive((v, edges, ops) in raw_cell()) {
        if let Some(cell) = to_cell(v, &edges, &ops) {
            let prog = CellProgram::lower(&cell, 128, 128, 32, 32);
            for (i, node) in prog.nodes().iter().enumerate() {
                for d in node.deps.iter() {
                    prop_assert!(d < i);
                }
                prop_assert!(node.op.in_channels > 0 && node.op.out_channels > 0);
            }
            // Arity-1 concats must be elided.
            let has_trivial_combine = prog.nodes().iter().any(|n| {
                matches!(
                    n.op.kind,
                    OpKind::Concat { arity: 1 } | OpKind::Add { arity: 1 }
                )
            });
            prop_assert!(!has_trivial_combine);
        }
    }

    #[test]
    fn network_macs_grow_with_classes((v, edges, ops) in raw_cell()) {
        if let Some(cell) = to_cell(v, &edges, &ops) {
            let n10 = Network::assemble(&cell, Dataset::Cifar10);
            let n100 = Network::assemble(&cell, Dataset::Cifar100);
            prop_assert!(n100.macs() > n10.macs());
            prop_assert!(n100.params() > n10.params());
        }
    }

    #[test]
    fn surrogate_is_deterministic_and_bounded((v, edges, ops) in raw_cell()) {
        if let Some(cell) = to_cell(v, &edges, &ops) {
            for ds in [Dataset::Cifar10, Dataset::Cifar100] {
                let a = surrogate::evaluate(&cell, ds);
                let b = surrogate::evaluate(&cell, ds);
                prop_assert_eq!(a.accuracy, b.accuracy);
                for acc in a.accuracy {
                    prop_assert!((0.10..=0.999).contains(&acc));
                }
                prop_assert!(a.training_seconds > 0.0);
            }
        }
    }
}
