//! Exhaustive enumeration of the codesign space (§III-A, Fig. 4).
//!
//! "This allows us to enumerate the entire search space ... and find the
//! Pareto-optimal points within that space." Every `(cell, accelerator)`
//! pair is evaluated; per-CNN two-dimensional dominance pruning (accuracy is
//! constant for a fixed cell, so only `(area, latency)` matter within it)
//! shrinks candidates by orders of magnitude before the exact global 3-D
//! Pareto filter runs. Work parallelizes over CNN chunks with
//! `std::thread::scope`; within a chunk the accelerator loop is outermost so
//! each configuration's latency lookup table stays warm across cells.

use codesign_accel::{AcceleratorConfig, AreaModel, ConfigSpace, LatencyModel, Scheduler};
use codesign_moo::pareto::pareto_indices_3d;
use codesign_moo::{AxisSchema, DynParetoFront, DynStreamingParetoFilter};
use codesign_nasbench::{Dataset, NasbenchDatabase, Network, NetworkConfig};

use crate::evaluator::PairEvaluation;
use crate::scenarios::{CompiledScenario, MetricId};

/// One Pareto-optimal codesign point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// `(-area mm², -latency ms, accuracy)`.
    pub metrics: [f64; 3],
    /// Index of the cell in the enumerated database.
    pub cell_index: usize,
    /// The accelerator configuration.
    pub config: AcceleratorConfig,
}

impl ParetoPoint {
    /// Accelerator area in mm².
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        -self.metrics[0]
    }

    /// Latency in ms.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        -self.metrics[1]
    }

    /// CNN accuracy.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.metrics[2]
    }
}

/// Output of a full-space enumeration.
#[derive(Debug, Clone)]
pub struct EnumerationResult {
    /// The Pareto-optimal points.
    pub front: Vec<ParetoPoint>,
    /// Total `(cell, accelerator)` pairs evaluated.
    pub total_pairs: u64,
    /// Number of distinct cells enumerated.
    pub distinct_cells: usize,
    /// Distinct cells appearing on the front (the paper found 136).
    pub distinct_front_cells: usize,
    /// Distinct accelerator configs on the front (the paper found 338).
    pub distinct_front_accels: usize,
}

impl EnumerationResult {
    /// Fraction of the space that is Pareto-optimal (the paper: <0.0001%).
    #[must_use]
    pub fn front_fraction(&self) -> f64 {
        self.front.len() as f64 / self.total_pairs.max(1) as f64
    }
}

/// Enumerates `database × ConfigSpace::chaidnn()` and extracts the exact
/// Pareto front over `(-area, -lat, acc)`.
///
/// `threads = 0` uses the machine's available parallelism.
#[must_use]
pub fn enumerate_codesign_space(
    database: &NasbenchDatabase,
    dataset: Dataset,
    threads: usize,
) -> EnumerationResult {
    let space = ConfigSpace::chaidnn();
    let area_model = AreaModel::default();
    let latency_model = LatencyModel::default();
    let net_config = match dataset {
        Dataset::Cifar10 => NetworkConfig::default(),
        Dataset::Cifar100 => NetworkConfig::cifar100(),
    };
    // Precompute per-config area once: identical across cells.
    let configs: Vec<AcceleratorConfig> = space.iter().collect();
    let areas: Vec<f64> = configs.iter().map(|c| area_model.area_mm2(c)).collect();

    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let n = database.len();
    let chunk_size = n.div_ceil(threads.max(1)).max(1);
    let indices: Vec<usize> = (0..n).collect();

    let mut candidates: Vec<([f64; 3], (usize, usize))> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in indices.chunks(chunk_size) {
            let configs = &configs;
            let areas = &areas;
            let latency_model = &latency_model;
            let net_config = &net_config;
            let handle = scope.spawn(move || {
                enumerate_chunk(database, chunk, configs, areas, latency_model, net_config)
            });
            handles.push(handle);
        }
        for handle in handles {
            candidates.extend(handle.join().expect("enumeration worker panicked"));
        }
    });

    let metrics: Vec<[f64; 3]> = candidates.iter().map(|(m, _)| *m).collect();
    let keep = pareto_indices_3d(&metrics);
    let front: Vec<ParetoPoint> = keep
        .into_iter()
        .map(|i| {
            let (metrics, (cell_index, config_index)) = candidates[i];
            ParetoPoint {
                metrics,
                cell_index,
                config: configs[config_index],
            }
        })
        .collect();

    let front_cells: std::collections::HashSet<usize> =
        front.iter().map(|p| p.cell_index).collect();
    let front_accels: std::collections::HashSet<AcceleratorConfig> =
        front.iter().map(|p| p.config).collect();

    EnumerationResult {
        total_pairs: (n as u64) * (configs.len() as u64),
        distinct_cells: n,
        distinct_front_cells: front_cells.len(),
        distinct_front_accels: front_accels.len(),
        front,
    }
}

/// Evaluates a deterministic stride of `(cell, accelerator)` pairs and
/// returns their full metric evaluations — the enumeration probe sample
/// behind auto-ranged scenario normalizations
/// ([`crate::scenarios::ScenarioSpec::resolve_auto_norms`]).
///
/// The stride walks the flattened `cells × configs` grid so the sample
/// spans both axes; the same `(database, dataset, samples)` input always
/// yields the same sample. Metrics are computed by the same models the
/// evaluator uses (area, scheduler latency, peak power, database accuracy
/// for the given dataset), so probe-fed normalizations range exactly the
/// values search will see.
#[must_use]
pub fn probe_pair_evaluations(
    database: &NasbenchDatabase,
    dataset: Dataset,
    samples: usize,
) -> Vec<PairEvaluation> {
    let space = ConfigSpace::chaidnn();
    let area_model = AreaModel::default();
    let power_model = codesign_accel::PowerModel::default();
    let latency_model = LatencyModel::default();
    let net_config = match dataset {
        Dataset::Cifar10 => NetworkConfig::default(),
        Dataset::Cifar100 => NetworkConfig::cifar100(),
    };
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
        let network = Network::assemble(&entry.spec, &net_config);
        out.push(PairEvaluation {
            accuracy: entry.mean_accuracy(dataset),
            latency_ms: Scheduler::new(latency_model, config).network_latency_ms(&network),
            area_mm2: area_model.area_mm2(&config),
            power_w: power_model.peak_power(&area_model, &config).total_w(),
        });
    }
    out
}

/// Enumerates `database × ConfigSpace::chaidnn()` and extracts the exact
/// Pareto front **in the scenario's own metric axes** — the
/// scenario-native counterpart of [`enumerate_codesign_space`], which
/// always reports the paper triple.
///
/// Every pair's full evaluation (accuracy, latency, area, power) is
/// streamed through a bounded-memory
/// [`DynStreamingParetoFilter`], so a power-capped or
/// efficiency-first scenario gets an exact front over metrics the triple
/// enumeration cannot even express. Payloads are
/// `(cell_index, AcceleratorConfig)`.
///
/// `threads = 0` uses the machine's available parallelism.
#[must_use]
pub fn enumerate_scenario_front(
    database: &NasbenchDatabase,
    dataset: Dataset,
    scenario: &CompiledScenario,
    threads: usize,
) -> DynParetoFront<(usize, AcceleratorConfig)> {
    let space = ConfigSpace::chaidnn();
    let area_model = AreaModel::default();
    let power_model = codesign_accel::PowerModel::default();
    let latency_model = LatencyModel::default();
    let net_config = match dataset {
        Dataset::Cifar10 => NetworkConfig::default(),
        Dataset::Cifar100 => NetworkConfig::cifar100(),
    };
    let configs: Vec<AcceleratorConfig> = space.iter().collect();
    let hw: Vec<(f64, f64)> = configs
        .iter()
        .map(|c| {
            (
                area_model.area_mm2(c),
                power_model.peak_power(&area_model, c).total_w(),
            )
        })
        .collect();

    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let n = database.len();
    let chunk_size = n.div_ceil(threads.max(1)).max(1);
    let indices: Vec<usize> = (0..n).collect();

    let mut merged: DynStreamingParetoFilter<(usize, AcceleratorConfig)> =
        DynStreamingParetoFilter::new(scenario.axis_schema());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in indices.chunks(chunk_size) {
            let configs = &configs;
            let hw = &hw;
            let latency_model = &latency_model;
            let net_config = &net_config;
            let handle = scope.spawn(move || {
                let mut filter: DynStreamingParetoFilter<(usize, AcceleratorConfig)> =
                    DynStreamingParetoFilter::new(scenario.axis_schema());
                let networks: Vec<(usize, Network, f64)> = chunk
                    .iter()
                    .map(|&i| {
                        let entry = database.entry(i).expect("index in range");
                        let network = Network::assemble(&entry.spec, net_config);
                        (i, network, entry.mean_accuracy(dataset))
                    })
                    .collect();
                // Per-pair scheduling dominates the enumeration cost; skip
                // it entirely for scenarios whose metrics never read
                // latency (e.g. acc × power) — the field is then left at
                // 0.0 and never extracted.
                let needs_latency = scenario.metrics().iter().any(MetricId::uses_latency);
                // Accelerator loop outermost so each configuration's latency
                // lookup table stays warm across cells, as in the triple path.
                for (config_index, config) in configs.iter().enumerate() {
                    let mut scheduler = Scheduler::new(*latency_model, *config);
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
                        filter.push(scenario.metric_point(&eval), (*cell_index, *config));
                    }
                }
                filter
            });
            handles.push(handle);
        }
        for handle in handles {
            merged.merge(handle.join().expect("enumeration worker panicked"));
        }
    });
    merged.finish_front()
}

/// Evaluates one CNN chunk against every accelerator, returning per-CNN
/// 2-D-pruned candidates `(metrics, (cell_index, config_index))`.
fn enumerate_chunk(
    database: &NasbenchDatabase,
    chunk: &[usize],
    configs: &[AcceleratorConfig],
    areas: &[f64],
    latency_model: &LatencyModel,
    net_config: &NetworkConfig,
) -> Vec<([f64; 3], (usize, usize))> {
    let dataset = if net_config.num_classes == 100 {
        Dataset::Cifar100
    } else {
        Dataset::Cifar10
    };
    // Assemble every network in the chunk once.
    let networks: Vec<(usize, Network, f64)> = chunk
        .iter()
        .map(|&i| {
            let entry = database.entry(i).expect("index in range");
            let network = Network::assemble(&entry.spec, net_config);
            (i, network, entry.mean_accuracy(dataset))
        })
        .collect();
    // Per-cell 2D fronts over (-area, -lat); payload = config index.
    let schema = AxisSchema::new(["area", "lat"]);
    let mut fronts: Vec<DynParetoFront<usize>> = (0..networks.len())
        .map(|_| DynParetoFront::new(schema.clone()))
        .collect();
    for (config_index, config) in configs.iter().enumerate() {
        let mut scheduler = Scheduler::new(*latency_model, *config);
        let area = areas[config_index];
        for (slot, (_, network, _)) in networks.iter().enumerate() {
            let latency = scheduler.network_latency_ms(network);
            fronts[slot].insert([-area, -latency].into(), config_index);
        }
    }
    let mut out = Vec::new();
    for (slot, front) in fronts.into_iter().enumerate() {
        let (cell_index, _, accuracy) = &networks[slot];
        for (m2, config_index) in front.into_vec() {
            out.push(([m2[0], m2[1], *accuracy], (*cell_index, config_index)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_result() -> EnumerationResult {
        // V<=3 space: 7 unique cells x 8640 accelerators = 60k pairs.
        let db = NasbenchDatabase::exhaustive(3);
        enumerate_codesign_space(&db, Dataset::Cifar10, 2)
    }

    #[test]
    fn front_is_tiny_fraction_of_space() {
        let r = small_result();
        assert_eq!(r.total_pairs, 7 * 8640);
        assert!(r.front.len() > 5, "front size {}", r.front.len());
        assert!(
            r.front_fraction() < 0.01,
            "front fraction {} should be tiny",
            r.front_fraction()
        );
    }

    #[test]
    fn front_points_are_mutually_non_dominated() {
        let r = small_result();
        for (i, a) in r.front.iter().enumerate() {
            for (j, b) in r.front.iter().enumerate() {
                if i != j {
                    assert!(
                        !codesign_moo::dominates(&a.metrics, &b.metrics),
                        "front point {i} dominates {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn front_is_diverse_in_cells_and_accelerators() {
        let r = small_result();
        assert!(
            r.distinct_front_cells >= 2,
            "cells {}",
            r.distinct_front_cells
        );
        assert!(
            r.distinct_front_accels >= 5,
            "accels {}",
            r.distinct_front_accels
        );
    }

    #[test]
    fn enumeration_is_thread_count_invariant() {
        let db = NasbenchDatabase::exhaustive(3);
        let a = enumerate_codesign_space(&db, Dataset::Cifar10, 1);
        let b = enumerate_codesign_space(&db, Dataset::Cifar10, 4);
        let mut ma: Vec<[f64; 3]> = a.front.iter().map(|p| p.metrics).collect();
        let mut mb: Vec<[f64; 3]> = b.front.iter().map(|p| p.metrics).collect();
        let key = |m: &[f64; 3]| (m[0].to_bits(), m[1].to_bits(), m[2].to_bits());
        ma.sort_by_key(key);
        mb.sort_by_key(key);
        assert_eq!(ma, mb);
    }

    #[test]
    fn probe_is_deterministic_and_spans_both_axes() {
        let db = NasbenchDatabase::exhaustive(3);
        let a = probe_pair_evaluations(&db, Dataset::Cifar10, 64);
        let b = probe_pair_evaluations(&db, Dataset::Cifar10, 64);
        assert_eq!(a, b, "probe must be a pure function of its inputs");
        assert_eq!(a.len(), 64);
        // The stride must vary both the cell (accuracy) and the accelerator
        // (area) axes, or auto-ranged norms would be degenerate.
        let distinct = |values: Vec<u64>| {
            let mut v = values;
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct(a.iter().map(|e| e.accuracy.to_bits()).collect()) > 1);
        assert!(distinct(a.iter().map(|e| e.area_mm2.to_bits()).collect()) > 1);
        assert!(a.iter().all(|e| e.power_w > 0.0 && e.latency_ms > 0.0));
    }

    #[test]
    fn scenario_front_on_the_paper_axes_matches_the_triple_enumeration() {
        // The Unconstrained preset's axes are exactly the signed paper
        // triple, so the scenario-native enumeration must reproduce the
        // triple enumeration's front point set bit-for-bit.
        let db = NasbenchDatabase::exhaustive(3);
        let triple = enumerate_codesign_space(&db, Dataset::Cifar10, 2);
        let scenario = crate::scenarios::ScenarioSpec::unconstrained().compile();
        let native = enumerate_scenario_front(&db, Dataset::Cifar10, &scenario, 2);
        assert_eq!(native.schema().names(), ["area", "lat", "acc"]);
        let mut a: Vec<Vec<u64>> = triple
            .front
            .iter()
            .map(|p| p.metrics.iter().map(|v| v.to_bits()).collect())
            .collect();
        let mut b: Vec<Vec<u64>> = native.iter().map(|(m, _)| m.to_bits()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_front_carries_two_metric_axes_when_declared() {
        let db = NasbenchDatabase::exhaustive(3);
        let scenario = crate::scenarios::ScenarioSpec::builder("power-capped")
            .weight(crate::scenarios::MetricId::Accuracy, 1.0)
            .constraint(crate::scenarios::MetricId::PowerW, 6.0)
            .build()
            .unwrap()
            .compile();
        let front = enumerate_scenario_front(&db, Dataset::Cifar10, &scenario, 2);
        assert_eq!(front.schema().names(), ["acc", "power"]);
        assert!(!front.is_empty());
        for (m, _) in front.iter() {
            assert_eq!(m.len(), 2);
        }
        // Mutually non-dominated in the declared axes.
        let points: Vec<&(codesign_moo::MetricVector, (usize, AcceleratorConfig))> =
            front.iter().collect();
        for (i, (a, _)) in points.iter().enumerate() {
            for (j, (b, _)) in points.iter().enumerate() {
                if i != j {
                    assert!(!codesign_moo::dominates_dyn(a, b), "{i} dominates {j}");
                }
            }
        }
    }

    #[test]
    fn accessors_decode_metric_signs() {
        let p = ParetoPoint {
            metrics: [-120.0, -30.0, 0.92],
            cell_index: 0,
            config: ConfigSpace::chaidnn().get(0),
        };
        assert_eq!(p.area_mm2(), 120.0);
        assert_eq!(p.latency_ms(), 30.0);
        assert_eq!(p.accuracy(), 0.92);
    }
}
