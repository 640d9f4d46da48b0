//! Property-based tests of the joint codesign space and the evaluator.

use codesign_core::{CodesignSpace, Evaluator, ScenarioSpec, INVALID_PROPOSAL_REWARD};
use codesign_nasbench::Dataset;
use proptest::prelude::*;

fn arb_actions(space: &CodesignSpace) -> impl Strategy<Value = Vec<usize>> {
    let vocab = space.vocab_sizes();
    vocab
        .into_iter()
        .map(|v| (0..v).boxed())
        .collect::<Vec<BoxedStrategy<usize>>>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_action_sequence_decodes_without_panicking(
        actions in arb_actions(&CodesignSpace::paper())
    ) {
        let space = CodesignSpace::paper();
        let proposal = space.decode(&actions);
        // The HW half always decodes; the CNN half is Ok or a typed error.
        prop_assert!(proposal.config.filter_par == 8 || proposal.config.filter_par == 16);
        if let Ok(cell) = &proposal.cell {
            prop_assert!(cell.num_edges() <= 9);
        }
    }

    #[test]
    fn valid_decodes_roundtrip_through_encode(
        actions in arb_actions(&CodesignSpace::with_max_vertices(5))
    ) {
        let space = CodesignSpace::with_max_vertices(5);
        let n_cnn = space.cnn().vocab_sizes().len();
        if let Ok(cell) = space.cnn().decode(&actions[..n_cnn]) {
            let re = space.cnn().encode(&cell);
            let cell2 = space.cnn().decode(&re).expect("re-encoded actions are valid");
            prop_assert_eq!(cell.canonical_hash(), cell2.canonical_hash());
        }
    }

    #[test]
    fn evaluation_metrics_are_physical(
        actions in arb_actions(&CodesignSpace::with_max_vertices(5))
    ) {
        let space = CodesignSpace::with_max_vertices(5);
        let mut evaluator =
            Evaluator::with_trainer(Dataset::Cifar10);
        let proposal = space.decode(&actions);
        if let Some(eval) = evaluator.evaluate(&proposal).evaluation() {
            prop_assert!((0.0..=1.0).contains(&eval.accuracy));
            prop_assert!(eval.latency_ms > 0.5 && eval.latency_ms < 5000.0);
            prop_assert!(eval.area_mm2 > 40.0 && eval.area_mm2 < 250.0);
            prop_assert!(eval.perf_per_area() > 0.0);
        }
    }

    #[test]
    fn scenario_rewards_are_bounded(
        actions in arb_actions(&CodesignSpace::with_max_vertices(5))
    ) {
        let space = CodesignSpace::with_max_vertices(5);
        let mut evaluator =
            Evaluator::with_trainer(Dataset::Cifar10);
        let proposal = space.decode(&actions);
        let outcome = evaluator.evaluate(&proposal);
        for scenario in ScenarioSpec::paper_presets() {
            let spec = scenario.compile();
            match outcome.evaluation() {
                Some(eval) => {
                    let r = spec.reward(eval);
                    // Feasible rewards live in [0, sum(w)]; punishments are
                    // negative and bounded by the scaled-violation cap.
                    prop_assert!(r.value() <= 1.0 + 1e-9);
                    prop_assert!(r.value() >= -1.2);
                    prop_assert_eq!(
                        r.is_feasible(),
                        spec.reward_spec().is_feasible(&spec.metric_point(eval))
                    );
                }
                None => {
                    prop_assert_eq!(INVALID_PROPOSAL_REWARD, -0.2);
                }
            }
        }
    }
}
