//! Exhaustive enumeration of the codesign space (§III-A, Fig. 4) and the
//! Fig. 5 reference set ranked from it (§III-C).
//!
//! "This allows us to enumerate the entire search space ... and find the
//! Pareto-optimal points within that space." Every `(cell, accelerator)`
//! pair is evaluated and inserted into a Pareto front in a scenario's own
//! metric axes, which keeps only the non-dominated pairs; the paper's
//! `(−area, −lat, acc)` front is the front on the Unconstrained preset's
//! axes. Work parallelizes over CNN chunks with `std::thread::scope`, one
//! front per thread, merged at the end. A thread walks its chunk in blocks
//! of `CELL_BLOCK` cells and holds only one block's networks; within a
//! block the accelerator loop is outermost, so each configuration's
//! scheduler is built once for the block's cells. Every op latency comes
//! from the process-wide lookup table.
//!
//! Fig. 5 plots the best point of each search run against the top-100
//! Pareto points under that scenario's reward; [`top_pareto_points`] ranks
//! them from an enumerated front. The runs themselves execute as one
//! sharded campaign (`codesign_engine::Campaign`).

use codesign_accel::{area, power, AcceleratorConfig, ConfigSpace, Scheduler};
use codesign_moo::{DynParetoFront, RewardOutcome};
use codesign_nasbench::{Dataset, NasbenchDatabase, Network};

use crate::evaluator::PairEvaluation;
use crate::scenarios::{CompiledScenario, MetricId, ScenarioSpec};

/// Cells per block of an enumeration thread's walk: the thread assembles
/// one block's networks at a time, so its memory does not grow with the
/// census.
const CELL_BLOCK: usize = 16;

/// Evaluates a deterministic stride of `(cell, accelerator)` pairs and
/// returns their full metric evaluations — the enumeration probe sample
/// behind auto-ranged scenario normalizations
/// ([`crate::scenarios::ScenarioSpec::resolve_auto_norms`]).
///
/// The stride walks the flattened `cells × configs` grid so the sample
/// spans both axes; the same `(database, samples)` input always yields the
/// same sample. Metrics are computed by the same models a database-backed
/// evaluator uses (area, scheduler latency on the 10-class classifier, peak
/// power, CIFAR-10 database accuracy), so probe-fed normalizations range
/// exactly the values search will see.
#[must_use]
pub fn probe_pair_evaluations(database: &NasbenchDatabase, samples: usize) -> Vec<PairEvaluation> {
    let space = ConfigSpace::chaidnn();
    let n_cells = database.len() as u64;
    let n_configs = space.len() as u64;
    let total = n_cells.saturating_mul(n_configs);
    if total == 0 {
        return Vec::new();
    }
    let samples = (samples.max(2) as u64).min(total);
    let mut out = Vec::with_capacity(samples as usize);
    for i in 0..samples {
        // The i-th of `samples` evenly-spaced flat indices: monotone and
        // wrap-free, so the walk never cycles onto already-visited pairs
        // (samples <= total guarantees the indices are distinct), and the
        // config axis — the fast dimension of the flattened grid — varies
        // between consecutive samples.
        let flat = (u128::from(i) * u128::from(total) / u128::from(samples)) as u64;
        let cell_index = (flat / n_configs) as usize;
        let config_index = (flat % n_configs) as usize;
        let entry = database.entry(cell_index).expect("index in range");
        let config = space.get(config_index);
        let network = Network::assemble(&entry.spec, Dataset::Cifar10);
        out.push(PairEvaluation {
            accuracy: entry.mean_accuracy(Dataset::Cifar10),
            latency_ms: Scheduler::new(config).network_latency_ms(&network),
            area_mm2: area::area_mm2(&config),
            power_w: power::peak_power(&config).total_w(),
        });
    }
    out
}

/// Enumerates `database × ConfigSpace::chaidnn()` and extracts the exact
/// Pareto front **in the scenario's own metric axes**; Fig. 4's front is
/// the one on [`ScenarioSpec::unconstrained`]'s axes. Pairs are scored in
/// the NASBench setting Fig. 4 enumerates: CIFAR-10 database accuracy and
/// networks with the 10-class classifier.
///
/// Every pair's full evaluation (accuracy, latency, area, power) is
/// inserted into a [`DynParetoFront`] in the scenario's axes, so a
/// power-capped or efficiency-first scenario gets an exact front too; a
/// front holds only its members, never the stream of pairs. Payloads are
/// `(cell_index, AcceleratorConfig)`, built only for the pairs a front
/// keeps, and the members come sorted by them, so the front is the same
/// sequence at any thread count.
///
/// `threads = 0` uses the machine's available parallelism.
#[must_use]
pub fn enumerate_scenario_front(
    database: &NasbenchDatabase,
    scenario: &CompiledScenario,
    threads: usize,
) -> DynParetoFront<(usize, AcceleratorConfig)> {
    let configs: Vec<AcceleratorConfig> = ConfigSpace::chaidnn().iter().collect();
    let hw: Vec<(f64, f64)> = configs
        .iter()
        .map(|c| (area::area_mm2(c), power::peak_power(c).total_w()))
        .collect();

    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let n = database.len();
    let chunk_size = n.div_ceil(threads.max(1)).max(1);
    let indices: Vec<usize> = (0..n).collect();

    let mut merged = scenario.empty_front();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in indices.chunks(chunk_size) {
            let configs = &configs;
            let hw = &hw;
            let handle = scope.spawn(move || {
                let mut front = scenario.empty_front();
                // Per-pair scheduling dominates the enumeration cost; skip
                // it entirely for scenarios whose metrics never read
                // latency (e.g. acc × power) — the field is then left at
                // 0.0 and never extracted.
                let needs_latency = scenario.metrics().iter().any(MetricId::uses_latency);
                let mut networks: Vec<(usize, Network, f64)> = Vec::with_capacity(CELL_BLOCK);
                for block in chunk.chunks(CELL_BLOCK) {
                    networks.clear();
                    networks.extend(block.iter().map(|&i| {
                        let entry = database.entry(i).expect("index in range");
                        let network = Network::assemble(&entry.spec, Dataset::Cifar10);
                        (i, network, entry.mean_accuracy(Dataset::Cifar10))
                    }));
                    // Accelerator loop outermost: one scheduler per
                    // configuration and block.
                    for (config_index, config) in configs.iter().enumerate() {
                        let scheduler = Scheduler::new(*config);
                        let (area_mm2, power_w) = hw[config_index];
                        for (cell_index, network, accuracy) in &networks {
                            let eval = PairEvaluation {
                                accuracy: *accuracy,
                                latency_ms: if needs_latency {
                                    scheduler.network_latency_ms(network)
                                } else {
                                    0.0
                                },
                                area_mm2,
                                power_w,
                            };
                            front.insert_with(&scenario.metric_point(&eval), || {
                                (*cell_index, *config)
                            });
                        }
                    }
                }
                front
            });
            handles.push(handle);
        }
        for handle in handles {
            merged.merge(handle.join().expect("enumeration worker panicked"));
        }
    });
    let mut members = merged.into_vec();
    members.sort_by_key(|member| member.1);
    let mut front = scenario.empty_front();
    front.extend(members);
    front
}

/// The Fig. 5 reference set: the `k` best feasible members of `front`
/// under the scenario's reward, best first.
///
/// `front` must be collected in the scenario's own axes
/// ([`enumerate_scenario_front`]); the three paper presets share the
/// Unconstrained axes, so one enumeration serves them all. Exact reward
/// ties go to the smaller `(cell_index, config)`.
///
/// # Panics
///
/// Panics if the front's axes are not the scenario's.
#[must_use]
pub fn top_pareto_points<'a>(
    scenario: &ScenarioSpec,
    front: &'a DynParetoFront<(usize, AcceleratorConfig)>,
    k: usize,
) -> Vec<(&'a [f64], &'a (usize, AcceleratorConfig))> {
    let compiled = scenario.compile();
    assert_eq!(
        front.schema(),
        &compiled.axis_schema(),
        "the front is not in the axes of scenario '{}'",
        scenario.name()
    );
    let reward = compiled.reward_spec();
    let mut scored: Vec<_> = front
        .iter()
        .filter_map(|member| match reward.evaluate(member.0) {
            RewardOutcome::Feasible(r) => Some((r, member)),
            RewardOutcome::Punished(_) => None,
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1 .1.cmp(b.1 .1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, member)| member).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_moo::dominates_dyn;

    type Front = DynParetoFront<(usize, AcceleratorConfig)>;

    /// The exact front of the V<=3 space (7 unique cells x 8640
    /// accelerators = 60k pairs) on the Unconstrained axes.
    fn small_front(threads: usize) -> (NasbenchDatabase, Front) {
        let db = NasbenchDatabase::exhaustive(3);
        let scenario = ScenarioSpec::unconstrained().compile();
        let front = enumerate_scenario_front(&db, &scenario, threads);
        (db, front)
    }

    fn bits(metrics: &[f64]) -> Vec<u64> {
        metrics.iter().map(|x| x.to_bits()).collect()
    }

    fn distinct<T: Ord>(values: impl Iterator<Item = T>) -> usize {
        values.collect::<std::collections::BTreeSet<T>>().len()
    }

    #[test]
    fn front_is_tiny_fraction_of_space() {
        let (db, front) = small_front(2);
        let total_pairs = db.len() * ConfigSpace::chaidnn().len();
        assert_eq!(total_pairs, 7 * 8640);
        assert!(front.len() > 5, "front size {}", front.len());
        let fraction = front.len() as f64 / total_pairs as f64;
        assert!(fraction < 0.01, "front fraction {fraction} should be tiny");
    }

    #[test]
    fn front_points_are_mutually_non_dominated() {
        let (_, front) = small_front(2);
        for (i, (a, _)) in front.iter().enumerate() {
            for (j, (b, _)) in front.iter().enumerate() {
                if i != j {
                    assert!(!dominates_dyn(a, b), "front point {i} dominates {j}");
                }
            }
        }
    }

    #[test]
    fn front_is_diverse_in_cells_and_accelerators() {
        let (_, front) = small_front(2);
        let cells = distinct(front.iter().map(|(_, (cell, _))| *cell));
        let accels = distinct(front.iter().map(|(_, (_, config))| *config));
        assert!(cells >= 2, "cells {cells}");
        assert!(accels >= 5, "accels {accels}");
    }

    #[test]
    fn enumeration_is_thread_count_invariant() {
        // The member sequence itself, not just the set: metric bits and
        // payloads in order.
        let sequence = |front: Front| -> Vec<(Vec<u64>, (usize, AcceleratorConfig))> {
            front.iter().map(|(m, p)| (bits(m), *p)).collect()
        };
        let one = sequence(small_front(1).1);
        assert!(one.windows(2).all(|w| w[0].1 < w[1].1), "sorted by payload");
        assert_eq!(one, sequence(small_front(4).1));
    }

    #[test]
    fn probe_is_deterministic_and_spans_both_axes() {
        let db = NasbenchDatabase::exhaustive(3);
        let a = probe_pair_evaluations(&db, 64);
        let b = probe_pair_evaluations(&db, 64);
        assert_eq!(a, b, "probe must be a pure function of its inputs");
        assert_eq!(a.len(), 64);
        // The stride must vary both the cell (accuracy) and the accelerator
        // (area) axes, or auto-ranged norms would be degenerate.
        assert!(distinct(a.iter().map(|e| e.accuracy.to_bits())) > 1);
        assert!(distinct(a.iter().map(|e| e.area_mm2.to_bits())) > 1);
        assert!(a.iter().all(|e| e.power_w > 0.0 && e.latency_ms > 0.0));
    }

    /// Checks `front` against the definition of the exact front of
    /// `db × ConfigSpace::chaidnn()` in `scenario`'s axes, with no filter:
    /// every member's metrics are its own pair's as the evaluator scores
    /// it, and a pair is a member if and only if no member dominates it.
    /// `O(pairs × front)`.
    fn assert_exact_front(db: &NasbenchDatabase, scenario: &CompiledScenario, front: &Front) {
        assert_eq!(front.schema(), &scenario.axis_schema());
        let members: Vec<_> = front.iter().collect();
        let mut evaluator = crate::Evaluator::with_database(db.clone());
        // Pairs are walked in `(cell_index, config)` order, the members'
        // order, so one walk meets each member at its own pair.
        let mut next = 0;
        for (cell_index, entry) in db.iter().enumerate() {
            for config in ConfigSpace::chaidnn().iter() {
                let e = evaluator
                    .evaluate_pair(&entry.spec, &config)
                    .expect("known");
                let point = scenario.metric_point(&e);
                let pair = (cell_index, config);
                let is_member = members.get(next).is_some_and(|m| *m.1 == pair);
                if is_member {
                    assert_eq!(bits(members[next].0), bits(&point), "{pair:?}");
                    next += 1;
                }
                let dominated = members.iter().any(|(m, _)| dominates_dyn(m, &point));
                assert_eq!(is_member, !dominated, "{pair:?}");
            }
        }
        assert_eq!(next, members.len(), "a member is no enumerated pair");
    }

    #[test]
    fn scenario_front_on_the_paper_axes_matches_the_triple_enumeration() {
        // The Unconstrained preset's axes are the signed paper triple of
        // Eq. 4, so its front must be the exact front of every pair's
        // `(-area, -lat, acc)` as the evaluator scores it.
        let (db, front) = small_front(2);
        assert_eq!(front.schema().names(), ["area", "lat", "acc"]);
        assert_exact_front(&db, &ScenarioSpec::unconstrained().compile(), &front);
    }

    #[test]
    fn scenario_fronts_in_two_and_four_axes_are_exact() {
        let db = NasbenchDatabase::exhaustive(3);
        let file = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenarios/custom.json"
        );
        let mut scenarios = ScenarioSpec::load_file(file).expect("custom.json loads");
        scenarios.push(ScenarioSpec::parse_compact("w=acc:1,lat:1,area:1,power:1").expect("valid"));
        for spec in &scenarios {
            let scenario = spec.compile();
            let front = enumerate_scenario_front(&db, &scenario, 2);
            assert_exact_front(&db, &scenario, &front);
        }
    }

    fn power_capped() -> ScenarioSpec {
        ScenarioSpec::builder("power-capped")
            .weight(MetricId::Accuracy, 1.0)
            .constraint(MetricId::PowerW, 6.0)
            .build()
            .unwrap()
    }

    #[test]
    fn scenario_front_carries_two_metric_axes_when_declared() {
        let db = NasbenchDatabase::exhaustive(3);
        let front = enumerate_scenario_front(&db, &power_capped().compile(), 2);
        assert_eq!(front.schema().names(), ["acc", "power"]);
        assert!(!front.is_empty());
        for (m, _) in front.iter() {
            assert_eq!(m.len(), 2);
        }
        // A power scenario has a Fig. 5 reference set of its own.
        assert!(!top_pareto_points(&power_capped(), &front, 10).is_empty());
    }

    #[test]
    fn accessors_decode_metric_signs() {
        // Front members carry Eq. 4's signed values; negating the minimized
        // axes gives back the natural units.
        let e = PairEvaluation {
            accuracy: 0.92,
            latency_ms: 30.0,
            area_mm2: 120.0,
            power_w: 4.0,
        };
        let scenario = ScenarioSpec::unconstrained().compile();
        let point = scenario.metric_point(&e);
        for (metric, signed) in scenario.metrics().iter().zip(point.iter()) {
            let natural = if metric.maximize() { *signed } else { -signed };
            assert_eq!(natural, metric.extract(&e), "{metric}");
        }
    }

    #[test]
    fn top_pareto_points_are_scenario_feasible() {
        let db = NasbenchDatabase::exhaustive(4);
        let unconstrained = ScenarioSpec::unconstrained().compile();
        let front = enumerate_scenario_front(&db, &unconstrained, 2);
        let top = top_pareto_points(&ScenarioSpec::one_constraint(), &front, 100);
        let spec = ScenarioSpec::one_constraint().compile();
        let reward = spec.reward_spec();
        assert!(!top.is_empty());
        for (m, _) in &top {
            assert!(
                reward.is_feasible(m),
                "top point {m:?} violates the scenario constraint"
            );
        }
        // Sorted by reward descending.
        let rewards: Vec<f64> = top.iter().map(|(m, _)| reward.scalarize(m)).collect();
        assert!(rewards.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    #[should_panic(expected = "not in the axes")]
    fn top_pareto_points_reject_a_front_in_other_axes() {
        let db = NasbenchDatabase::exhaustive(3);
        let front = enumerate_scenario_front(&db, &power_capped().compile(), 1);
        let _ = top_pareto_points(&ScenarioSpec::unconstrained(), &front, 10);
    }
}
