//! End-to-end integration tests across every crate: database construction,
//! joint-space decoding, evaluation, search, and reporting.

use std::sync::Arc;

use codesign_nas::accel::ConfigSpace;
use codesign_nas::core::{
    CodesignSpace, CombinedSearch, Evaluator, PhaseSearch, RandomSearch, ScenarioSpec,
    SearchConfig, SearchContext, SearchStrategy, SeparateSearch,
};
use codesign_nas::engine::{Campaign, ShardedDriver, StrategyKind};
use codesign_nas::nasbench::{known_cells, Dataset, NasbenchDatabase};

fn quick_context_db() -> (CodesignSpace, Arc<NasbenchDatabase>) {
    (
        CodesignSpace::with_max_vertices(4),
        Arc::new(NasbenchDatabase::exhaustive(4)),
    )
}

#[test]
fn every_strategy_completes_and_finds_feasible_points() {
    let (space, db) = quick_context_db();
    let reward = ScenarioSpec::unconstrained().compile();
    let strategies: Vec<Box<dyn SearchStrategy>> = vec![
        Box::new(CombinedSearch),
        Box::new(PhaseSearch::scaled(150)),
        Box::new(SeparateSearch::scaled(150)),
        Box::new(RandomSearch),
    ];
    for strategy in strategies {
        let mut evaluator = Evaluator::with_shared_database(Arc::clone(&db));
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &reward,
        };
        let outcome = strategy.run(&mut ctx, &SearchConfig::quick(150, 3));
        assert_eq!(outcome.history.len(), 150, "{}", outcome.strategy);
        assert!(
            outcome.best.is_some(),
            "{} found nothing feasible",
            outcome.strategy
        );
        assert!(!outcome.front.is_empty(), "{}", outcome.strategy);
    }
}

#[test]
fn search_improves_over_early_best() {
    // The controller's late-stage best must be at least as good as its
    // step-50 best (monotone best tracking), and usually strictly better.
    let (space, db) = quick_context_db();
    let reward = ScenarioSpec::unconstrained().compile();
    let mut evaluator = Evaluator::with_shared_database(db);
    let mut ctx = SearchContext {
        space: &space,
        evaluator: &mut evaluator,
        reward: &reward,
    };
    let outcome = CombinedSearch.run(&mut ctx, &SearchConfig::quick(600, 11));
    let best = outcome.best.expect("feasible");
    let early_best = outcome
        .history
        .iter()
        .take(50)
        .filter(|r| r.feasible)
        .map(|r| r.reward)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(best.reward >= early_best);
}

#[test]
fn full_comparison_pipeline_runs() {
    // The Figs. 5-6 comparison: the paper's three strategies x 2 seeds as one
    // campaign, with histories kept for the averaged reward curves.
    let (space, db) = quick_context_db();
    let strategies = [
        StrategyKind::Separate,
        StrategyKind::Combined,
        StrategyKind::Phase,
    ];
    let campaign = Campaign::new(space)
        .scenarios(vec![ScenarioSpec::one_constraint()])
        .strategies(strategies.to_vec())
        .seeds(vec![0, 1])
        .steps(80)
        .record_histories(true);
    let report = ShardedDriver::new(2).run(&campaign, &db);
    assert_eq!(report.shards.len(), 3 * 2);
    for strategy in strategies {
        let curve = report
            .average_reward_curve("1 Constraint", strategy, 20)
            .expect("histories recorded");
        assert_eq!(curve.len(), 80);
        assert!(curve.iter().all(|v| v.is_finite() || v.is_nan()));
    }
}

#[test]
fn trainer_backed_search_accounts_gpu_hours() {
    let space = CodesignSpace::with_max_vertices(5);
    let mut evaluator = Evaluator::with_trainer(Dataset::Cifar100);
    let reward = ScenarioSpec::unconstrained().compile();
    let mut ctx = SearchContext {
        space: &space,
        evaluator: &mut evaluator,
        reward: &reward,
    };
    let _ = CombinedSearch.run(&mut ctx, &SearchConfig::quick(200, 5));
    assert!(evaluator.gpu_hours() > 1.0, "got {}", evaluator.gpu_hours());
    assert!(evaluator.distinct_cells() > 5);
    assert!(evaluator.evaluations() >= 200);
}

#[test]
fn database_and_trainer_agree_on_accuracy() {
    // The database is materialized from the same surrogate the trainer uses,
    // so both evaluator backends must report identical accuracies.
    let db = NasbenchDatabase::exhaustive(4);
    let mut via_db = Evaluator::with_database(db);
    assert!(via_db.database().is_some());
    let mut via_trainer = Evaluator::with_trainer(Dataset::Cifar10);
    let config = ConfigSpace::chaidnn().get(1234);
    for (_, cell) in known_cells::all_named() {
        if cell.num_vertices() > 4 {
            continue;
        }
        let a = via_db.evaluate_pair(&cell, &config).expect("in db");
        let b = via_trainer.evaluate_pair(&cell, &config).expect("trainer");
        assert!((a.accuracy - b.accuracy).abs() < 1e-12);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.area_mm2, b.area_mm2);
    }
}

#[test]
fn phase_search_uses_both_controllers() {
    // After a few phase flips, both CNN-side and HW-side exploration must
    // have happened: the visited front should contain multiple distinct
    // accelerators AND multiple distinct cells.
    let (space, db) = quick_context_db();
    let reward = ScenarioSpec::unconstrained().compile();
    let mut evaluator = Evaluator::with_shared_database(db);
    let mut ctx = SearchContext {
        space: &space,
        evaluator: &mut evaluator,
        reward: &reward,
    };
    let outcome = PhaseSearch::scaled(200).run(&mut ctx, &SearchConfig::quick(200, 2));
    let mut cells = std::collections::HashSet::new();
    let mut configs = std::collections::HashSet::new();
    for (_, (cell, config)) in outcome.front.iter() {
        cells.insert(cell.canonical_hash());
        configs.insert(*config);
    }
    assert!(
        cells.len() >= 2,
        "phase search explored {} cells",
        cells.len()
    );
    assert!(
        configs.len() >= 2,
        "phase search explored {} configs",
        configs.len()
    );
}
