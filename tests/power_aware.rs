//! Extension test: four-objective codesign with the power model.
//!
//! Fig. 1 of the paper lists power among the evaluator outputs but the
//! evaluation never uses it; this test wires `codesign_accel::power`
//! into a four-objective `DynRewardSpec` over `(-area, -lat, acc, -power)`
//! and checks the machinery composes end to end.

use codesign_nas::accel::{area, power, ConfigSpace, Scheduler};
use codesign_nas::moo::{AxisSchema, DynParetoFront, DynRewardSpec, LinearNorm};
use codesign_nas::nasbench::{known_cells, surrogate, Dataset, Network};

fn four_objective_spec() -> DynRewardSpec {
    DynRewardSpec::builder()
        .weights(vec![0.1, 0.5, 0.2, 0.2])
        .expect("static weights")
        .norms(vec![
            LinearNorm::new(-215.0, -45.0).expect("static"),
            LinearNorm::new(-400.0, -5.0).expect("static"),
            LinearNorm::new(0.80, 0.95).expect("static"),
            LinearNorm::new(-12.0, -0.5).expect("static"),
        ])
        .threshold(3, -6.0) // peak power under 6 W
        .expect("index in bounds")
        .build()
        .expect("complete spec")
}

fn metrics_for(cell_name: &str, config_idx: usize) -> [f64; 4] {
    let cell = known_cells::all_named()
        .into_iter()
        .find(|(n, _)| *n == cell_name)
        .expect("known cell")
        .1;
    let config = ConfigSpace::chaidnn().get(config_idx);
    let network = Network::assemble(&cell, Dataset::Cifar10);
    let area = area::area_mm2(&config);
    let latency = Scheduler::new(config).network_latency_ms(&network);
    let accuracy = surrogate::evaluate(&cell, Dataset::Cifar10).mean_accuracy();
    let power = power::peak_power(&config).total_w();
    [-area, -latency, accuracy, -power]
}

#[test]
fn four_objective_reward_composes() {
    let spec = four_objective_spec();
    let small = metrics_for("googlenet", 0);
    let large = metrics_for("googlenet", 8639);
    // Small configurations stay under the power cap; the largest blows it.
    assert!(
        spec.evaluate(&small).is_feasible(),
        "small config metrics {small:?}"
    );
    assert!(
        !spec.evaluate(&large).is_feasible(),
        "large config metrics {large:?}"
    );
    assert!(
        spec.evaluate(&large).value() < 0.0,
        "power violations are punished"
    );
}

#[test]
fn power_adds_a_real_tradeoff_dimension() {
    // Sweep a slice of the space for one cell and check the 4-D Pareto front
    // is larger than the 3-D front projected from it: power must be partially
    // independent of area (utilization and interface width matter).
    let mut four_d: Vec<[f64; 4]> = Vec::new();
    for idx in (0..8640).step_by(160) {
        four_d.push(metrics_for("resnet", idx));
    }
    let front_len = |axes: &[&str]| {
        let mut front = DynParetoFront::new(AxisSchema::new(axes.iter().copied()));
        for m in &four_d {
            front.insert_with(&m[..axes.len()], || ());
        }
        front.len()
    };
    let front4 = front_len(&["area", "lat", "acc", "power"]);
    let front3 = front_len(&["area", "lat", "acc"]);
    assert!(
        front4 >= front3,
        "adding an objective cannot shrink the front"
    );
}

#[test]
fn energy_ranks_differently_than_latency() {
    // The fastest configuration is not the most energy-efficient one:
    // energy = power x latency penalizes oversized arrays.
    let network = Network::assemble(&known_cells::googlenet_cell(), Dataset::Cifar10);
    let space = ConfigSpace::chaidnn();
    let mut best_latency = (f64::INFINITY, 0usize);
    let mut energies: Vec<(usize, f64)> = Vec::new();
    for idx in (0..8640).step_by(97) {
        let config = space.get(idx);
        let latency = Scheduler::new(config).network_latency_ms(&network);
        if latency < best_latency.0 {
            best_latency = (latency, idx);
        }
        // Energy per inference, mJ: watts times milliseconds.
        let energy = power::power(&config, 0.6, 0.2).total_w() * latency;
        energies.push((idx, energy));
    }
    let best_energy = energies
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");
    assert_ne!(
        best_energy.0, best_latency.1,
        "energy-optimal config should differ from latency-optimal"
    );
}
