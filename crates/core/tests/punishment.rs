//! Ablation of the punishment function `Rv` (§II-A): scaled-violation vs
//! constant punishment under the hardest (2-constraint) scenario, declared
//! through the open scenario API.

use codesign_core::{
    CodesignSpace, CombinedSearch, CompiledScenario, Evaluator, MetricId, PairEvaluation,
    ScenarioSpec, SearchConfig, SearchContext, SearchStrategy,
};
use codesign_moo::Punishment;
use codesign_nasbench::NasbenchDatabase;

fn two_constraint_spec(punishment: Punishment) -> CompiledScenario {
    ScenarioSpec::builder("2 Constraints (custom Rv)")
        .weight(MetricId::AreaMm2, 0.0)
        .constraint(MetricId::AreaMm2, 100.0)
        .weight(MetricId::LatencyMs, 1.0)
        .weight(MetricId::Accuracy, 0.0)
        .constraint(MetricId::Accuracy, 0.92)
        .punishment(punishment)
        .build()
        .expect("static scenario")
        .compile()
}

fn feasible_rate(punishment: Punishment, seeds: std::ops::Range<u64>) -> f64 {
    let db = std::sync::Arc::new(NasbenchDatabase::exhaustive(5));
    let space = CodesignSpace::with_max_vertices(5);
    let spec = two_constraint_spec(punishment);
    let mut total = 0.0;
    let n = (seeds.end - seeds.start) as f64;
    for seed in seeds {
        let mut evaluator = Evaluator::with_shared_database(std::sync::Arc::clone(&db));
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &spec,
        };
        let outcome = CombinedSearch.run(&mut ctx, &SearchConfig::quick(400, seed));
        total += outcome.feasible_rate();
    }
    total / n
}

#[test]
fn both_punishments_reach_the_feasible_region() {
    let scaled = feasible_rate(Punishment::ScaledViolation { scale: 0.1 }, 0..2);
    let constant = feasible_rate(Punishment::Constant(0.1), 0..2);
    assert!(scaled > 0.05, "scaled-violation feasible rate {scaled}");
    assert!(constant > 0.05, "constant feasible rate {constant}");
}

#[test]
fn scaled_violation_orders_infeasible_points() {
    // The property that makes scaled violation useful for phase search:
    // less-violating points receive strictly better (less negative) rewards,
    // whereas constant punishment is flat.
    let scaled = two_constraint_spec(Punishment::ScaledViolation { scale: 0.1 });
    let constant = two_constraint_spec(Punishment::Constant(0.1));
    let pair = |accuracy, area_mm2| PairEvaluation {
        accuracy,
        latency_ms: 50.0,
        area_mm2,
        power_w: 3.0,
    };
    let near_miss = pair(0.93, 101.0); // area barely over
    let far_miss = pair(0.85, 200.0); // both constraints badly missed
    let value = |spec: &CompiledScenario, e: &PairEvaluation| spec.reward(e).value();
    assert!(value(&scaled, &near_miss) > value(&scaled, &far_miss));
    assert_eq!(value(&constant, &near_miss), value(&constant, &far_miss));
}
