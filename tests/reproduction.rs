//! Paper-claim regression tests: every table and figure has a scaled-down
//! assertion here, so `cargo test` alone certifies the reproduction's shape.
//! Full-scale numbers come from the `codesign-bench` binaries listed under
//! "Reproduction binaries" in `README.md`.

use std::collections::HashSet;

use codesign_nas::accel::{validate_area_model, validate_latency_model, ConfigSpace, DEVICE};
use codesign_nas::core::{
    enumerate_scenario_front, run_cifar100_codesign, table2_baselines, top_pareto_points,
    Cifar100Config, ScenarioSpec, ThresholdSchedule,
};
use codesign_nas::nasbench::NasbenchDatabase;

// ---------- Table I ----------

#[test]
fn table1_device_constants() {
    assert_eq!(DEVICE.clb_area_mm2, 0.0044);
    assert_eq!(DEVICE.bram_area_mm2, 0.026);
    assert_eq!(DEVICE.dsp_area_mm2, 0.044);
    let clb_eq = DEVICE.total_clb_equivalents();
    assert_eq!(clb_eq, 64_922, "paper: 64,922 CLB-equivalents");
    // Table I's total area is its CLB-equivalents at a CLB's area.
    let table1_area = clb_eq as f64 * DEVICE.clb_area_mm2;
    assert_eq!(
        table1_area.round(),
        286.0,
        "paper: 286 mm2, got {table1_area}"
    );
    assert!(
        (DEVICE.total_area_mm2() - 286.0).abs() < 3.0,
        "the tile sum stays near Table I's 286 mm2"
    );
}

#[test]
fn section2c_model_validation_errors() {
    // Paper: area model 1.6% mean error; latency model "85% accurate".
    let area = validate_area_model();
    assert!(
        area.mean_abs_pct_error < 5.0,
        "area error {}",
        area.mean_abs_pct_error
    );
    let latency = validate_latency_model();
    assert!(
        latency.mean_abs_pct_error < 25.0,
        "latency error {}",
        latency.mean_abs_pct_error
    );
}

// ---------- Fig. 3 ----------

#[test]
fn fig3_space_has_8640_accelerators() {
    assert_eq!(ConfigSpace::chaidnn().len(), 8640);
}

// ---------- Fig. 4 ----------

#[test]
fn fig4_pareto_structure() {
    let db = NasbenchDatabase::exhaustive(4);
    let unconstrained = ScenarioSpec::unconstrained().compile();
    let front = enumerate_scenario_front(&db, &unconstrained, 0);
    // "less than 0.0001% of points were Pareto-optimal" at full scale; at
    // this reduced scale the fraction is still well under a percent.
    let fraction = front.len() as f64 / (db.len() * ConfigSpace::chaidnn().len()) as f64;
    assert!(fraction < 0.002, "fraction {fraction}");
    // "the Pareto-optimal points are very diverse".
    let cells: HashSet<usize> = front.iter().map(|(_, (cell, _))| *cell).collect();
    let accels: HashSet<_> = front.iter().map(|(_, (_, config))| *config).collect();
    assert!(cells.len() >= 3);
    assert!(accels.len() >= 10);
    // Three-way tradeoff: the frontier is not a single accelerator area
    // (the Unconstrained axes are `(-area, -lat, acc)`).
    let areas: Vec<f64> = front.iter().map(|(m, _)| -m[0]).collect();
    let min = areas.iter().copied().fold(f64::INFINITY, f64::min);
    let max = areas.iter().copied().fold(0.0, f64::max);
    assert!(
        max > 1.5 * min,
        "areas {min}..{max} should span a wide range"
    );
}

#[test]
fn fig5_reference_points_maximize_reward() {
    let db = NasbenchDatabase::exhaustive(4);
    let unconstrained = ScenarioSpec::unconstrained().compile();
    let front = enumerate_scenario_front(&db, &unconstrained, 0);
    for scenario in ScenarioSpec::paper_presets() {
        let top = top_pareto_points(&scenario, &front, 10);
        let compiled = scenario.compile();
        let reward = compiled.reward_spec();
        // Every other front point scores no better than the top-10 floor.
        if let Some(floor) = top.last().map(|(m, _)| reward.scalarize(m)) {
            let better = front
                .iter()
                .filter(|(m, _)| reward.is_feasible(m))
                .filter(|(m, _)| reward.scalarize(m) > floor + 1e-12)
                .count();
            assert!(
                better < 10,
                "{}: {better} points above the top-10 floor",
                scenario.name()
            );
        }
    }
}

// ---------- Fig. 7 / Tables II-III ----------

#[test]
fn fig7_flow_shape() {
    let config = Cifar100Config {
        schedule: ThresholdSchedule {
            stages: vec![(2.0, 40), (16.0, 40), (40.0, 80)],
        },
        seed: 0,
        max_steps_per_stage: 3_000,
    };
    let result = run_cifar100_codesign(&config);
    assert_eq!(result.total_valid_points, 160);
    // Higher thresholds push efficiency up...
    let best_ppa_first = result.stages[0]
        .top_points
        .iter()
        .map(|p| p.evaluation.perf_per_area())
        .fold(0.0, f64::max);
    let best_ppa_last = result.stages[2]
        .top_points
        .iter()
        .map(|p| p.evaluation.perf_per_area())
        .fold(0.0, f64::max);
    assert!(
        best_ppa_last > best_ppa_first,
        "{best_ppa_first} -> {best_ppa_last}"
    );
    // ...and every stage point satisfies its own threshold.
    for stage in &result.stages {
        for p in &stage.top_points {
            assert!(p.evaluation.perf_per_area() >= stage.threshold);
        }
    }
    // Simulated training cost is accounted per distinct model.
    assert!(result.gpu_hours > 5.0);
    assert!(result.models_trained >= 20);
}

#[test]
fn table2_baseline_ordering_matches_paper() {
    let rows = table2_baselines();
    let resnet = &rows[0].evaluation;
    let googlenet = &rows[1].evaluation;
    // Paper: ResNet 72.9% > GoogLeNet 71.5%; GoogLeNet 39.3 >> ResNet 12.8.
    assert!(resnet.accuracy > googlenet.accuracy);
    assert!(googlenet.perf_per_area() > 2.0 * resnet.perf_per_area());
    // Absolute calibration bands (generous: our substrate is a simulator).
    assert!((0.70..0.76).contains(&resnet.accuracy));
    assert!((0.69..0.74).contains(&googlenet.accuracy));
    assert!((8.0..20.0).contains(&resnet.perf_per_area()));
    assert!((25.0..55.0).contains(&googlenet.perf_per_area()));
}

#[test]
fn cod1_exists_at_moderate_scale() {
    // A half-scale §IV run must already find a pair that beats ResNet on
    // both axes (the paper's Cod-1 headline claim).
    let config = Cifar100Config {
        schedule: ThresholdSchedule {
            stages: vec![
                (2.0, 150),
                (8.0, 150),
                (16.0, 150),
                (30.0, 200),
                (40.0, 300),
            ],
        },
        seed: 0,
        max_steps_per_stage: 6_000,
    };
    let result = run_cifar100_codesign(&config);
    let baselines = table2_baselines();
    let cod1 = result.best_against(&baselines[0]);
    assert!(
        cod1.is_some(),
        "no discovered point beat ResNet on both axes"
    );
    let cod1 = &cod1.expect("checked").evaluation;
    let resnet = &baselines[0].evaluation;
    assert!(cod1.accuracy > resnet.accuracy);
    assert!(cod1.perf_per_area() > resnet.perf_per_area());
}
