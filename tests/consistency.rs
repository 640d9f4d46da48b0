//! Cross-crate consistency invariants: the search, the enumerator and the
//! evaluator must agree about the same codesign space.

use std::sync::Arc;

use codesign_nas::core::{
    enumerate_scenario_front, CodesignSpace, CombinedSearch, Evaluator, RandomSearch, ScenarioSpec,
    SearchConfig, SearchContext, SearchStrategy,
};
use codesign_nas::moo::dominates_dyn;
use codesign_nas::nasbench::NasbenchDatabase;

/// The exact Pareto front must dominate (or tie) every point any search
/// visits in the same space — the foundational guarantee behind Fig. 5's
/// "how close did the search get" methodology.
#[test]
fn search_never_beats_the_exact_front() {
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let space = CodesignSpace::with_max_vertices(4);
    let reward = ScenarioSpec::unconstrained().compile();
    let front = enumerate_scenario_front(&db, &reward, 0);

    for (strategy, seed) in [
        (&CombinedSearch as &dyn SearchStrategy, 1u64),
        (&RandomSearch as &dyn SearchStrategy, 2u64),
    ] {
        let mut evaluator = Evaluator::with_shared_database(Arc::clone(&db));
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &reward,
        };
        let outcome = strategy.run(&mut ctx, &SearchConfig::quick(300, seed));
        for record in &outcome.history {
            let Some(eval) = record.evaluation else {
                continue;
            };
            let m = reward.metric_point(&eval);
            let beats_front = front
                .iter()
                .all(|(f, _)| m.as_slice() != f && !dominates_dyn(f, &m))
                && front.iter().any(|(f, _)| dominates_dyn(&m, f));
            assert!(
                !beats_front,
                "{}: visited point {m:?} dominates the exact front",
                outcome.strategy
            );
        }
    }
}

/// The enumerator's metrics must match the evaluator's for the same pair
/// (they share models but take different code paths).
#[test]
fn enumerator_and_evaluator_agree() {
    let db = Arc::new(NasbenchDatabase::exhaustive(3));
    let scenario = ScenarioSpec::unconstrained().compile();
    let enumeration = enumerate_scenario_front(&db, &scenario, 0);
    let mut evaluator = Evaluator::with_shared_database(Arc::clone(&db));
    for (metrics, (cell_index, config)) in enumeration.iter().take(40) {
        let cell = &db.entry(*cell_index).expect("front index valid").spec;
        let eval = evaluator.evaluate_pair(cell, config).expect("cell in db");
        let point = scenario.metric_point(&eval);
        for (axis, (a, b)) in scenario
            .metrics()
            .iter()
            .zip(point.iter().zip(metrics.iter()))
        {
            assert!((a - b).abs() < 1e-9, "{axis} mismatch for {config}");
        }
    }
}

/// Encoding a cell and decoding it back must hit the same database row.
#[test]
fn space_roundtrip_is_database_stable() {
    let db = NasbenchDatabase::exhaustive(4);
    let space = CodesignSpace::with_max_vertices(4);
    for entry in db.iter().take(100) {
        let actions = space.cnn().encode(&entry.spec);
        let decoded = space
            .cnn()
            .decode(&actions)
            .expect("encode produces valid actions");
        let round = db
            .query(&decoded)
            .expect("decoded cell is the same database row");
        assert_eq!(round.spec.canonical_hash(), entry.spec.canonical_hash());
    }
}

/// Different strategies over the same seed and space see identical metrics
/// for identical proposals (the evaluator is pure).
#[test]
fn evaluator_is_referentially_transparent() {
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let space = CodesignSpace::with_max_vertices(4);
    let reward = ScenarioSpec::unconstrained().compile();
    let run = |seed: u64| {
        let mut evaluator = Evaluator::with_shared_database(Arc::clone(&db));
        let mut ctx = SearchContext {
            space: &space,
            evaluator: &mut evaluator,
            reward: &reward,
        };
        RandomSearch.run(&mut ctx, &SearchConfig::quick(200, seed))
    };
    let a = run(9);
    let b = run(9);
    for (ra, rb) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(ra.evaluation, rb.evaluation);
        assert_eq!(ra.reward, rb.reward);
    }
}
