//! The Fig. 5 reference set of the §III-C strategy comparison.
//!
//! Fig. 5 plots the best point of each search run against the top-100
//! Pareto points for that scenario's reward; [`top_pareto_points`] computes
//! that reference set from an enumeration. The runs themselves — every
//! strategy × seed under each scenario, with the Fig. 6 reward curves —
//! execute as one sharded campaign (`codesign_engine::Campaign` with
//! `record_histories` on).

use crate::enumerate::EnumerationResult;
use crate::scenarios::ScenarioSpec;

/// The Fig. 5 reference set: the top `k` Pareto-optimal points under the
/// scenario's reward function.
///
/// The enumeration retains the paper's `(−area, −lat, acc)` triples, so
/// only scenarios whose objectives are derivable from that triple
/// (everything except power — see
/// [`crate::scenarios::CompiledScenario::derivable_from_triple`]) have a
/// reference set; other scenarios return an empty vector.
#[must_use]
pub fn top_pareto_points(
    scenario: &ScenarioSpec,
    enumeration: &EnumerationResult,
    k: usize,
) -> Vec<[f64; 3]> {
    let compiled = scenario.compile();
    if !compiled.derivable_from_triple() {
        return Vec::new();
    }
    let mut scored: Vec<(f64, [f64; 3])> = enumeration
        .front
        .iter()
        .filter_map(
            |p| match compiled.reward_from_triple(&p.metrics).expect("derivable") {
                codesign_moo::RewardOutcome::Feasible(r) => Some((r, p.metrics)),
                codesign_moo::RewardOutcome::Punished(_) => None,
            },
        )
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored.into_iter().map(|(_, m)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_codesign_space;
    use codesign_nasbench::{Dataset, NasbenchDatabase};

    #[test]
    fn top_pareto_points_are_scenario_feasible() {
        let db = NasbenchDatabase::exhaustive(4);
        let enumeration = enumerate_codesign_space(&db, Dataset::Cifar10, 2);
        let top = top_pareto_points(&ScenarioSpec::one_constraint(), &enumeration, 100);
        let spec = ScenarioSpec::one_constraint().compile();
        assert!(!top.is_empty());
        for m in &top {
            assert!(
                spec.is_feasible_triple(m).unwrap(),
                "top point {m:?} violates the scenario constraint"
            );
        }
        // Sorted by reward descending.
        let rewards: Vec<f64> = top
            .iter()
            .map(|m| spec.scalarize_triple(m).unwrap())
            .collect();
        assert!(rewards.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }
}
