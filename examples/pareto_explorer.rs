//! Enumerate a complete codesign space and interrogate its Pareto frontier —
//! the §III-A analysis that motivates automated codesign: the optimal points
//! are few, diverse, and impossible to guess by hand.
//!
//! Every front is *scenario-native*: it is enumerated in the axes a
//! declared scenario names, so the same code explores the paper's
//! `(area, lat, acc)` front — the Unconstrained preset's axes — and a
//! two-metric accuracy × power tradeoff.
//!
//! Run: `cargo run --release --example pareto_explorer`

use std::collections::HashSet;

use codesign_nas::accel::ConfigSpace;
use codesign_nas::core::{enumerate_scenario_front, top_pareto_points, MetricId, ScenarioSpec};
use codesign_nas::nasbench::NasbenchDatabase;

fn main() {
    // The complete <=4-vertex space keeps this example fast; the fig4_pareto
    // binary scales the same code to millions of pairs.
    let db = NasbenchDatabase::exhaustive(4);
    println!("enumerating {} cells x 8640 accelerators...", db.len());
    let unconstrained = ScenarioSpec::unconstrained().compile();
    let front = enumerate_scenario_front(&db, &unconstrained, 0);

    let total_pairs = db.len() * ConfigSpace::chaidnn().len();
    println!(
        "{} Pareto-optimal pairs out of {total_pairs} ({:.5}% of the space)",
        front.len(),
        front.len() as f64 / total_pairs as f64 * 100.0
    );
    let cells: HashSet<usize> = front.iter().map(|(_, (cell, _))| *cell).collect();
    let accels: HashSet<_> = front.iter().map(|(_, (_, config))| *config).collect();
    println!(
        "diversity: {} distinct cells, {} distinct accelerator configs",
        cells.len(),
        accels.len()
    );

    // Scenario-native frontiers: each scenario's front is enumerated in its
    // *own* axes, and its quality scored as one scalar — the dominated
    // hypervolume against the scenario's normalization box. Each axis's
    // extreme point summarizes the tradeoff.
    let power_capped = ScenarioSpec::builder("power-capped")
        .weight(MetricId::Accuracy, 1.0)
        .constraint(MetricId::PowerW, 6.0)
        .build()
        .expect("static scenario");
    // One triple-axis scenario stands in for all three presets (the front
    // depends only on the axes, not the weights) plus the two-axis one.
    let scenarios = [ScenarioSpec::unconstrained(), power_capped];
    for scenario in &scenarios {
        let compiled = scenario.compile();
        let front = enumerate_scenario_front(&db, &compiled, 0);
        let hv = front.hypervolume(&compiled.hypervolume_reference());
        println!(
            "\n{}: exact front of {} points over axes [{}]; hypervolume {:.4}",
            scenario.name(),
            front.len(),
            front.schema(),
            hv
        );
        // The front's extreme point per axis, printed in natural units
        // (signed values are negated back for minimized metrics).
        for (i, axis) in front.schema().names().iter().enumerate() {
            let metric = MetricId::from_name(axis).expect("registry axis");
            if let Some((m, (cell_index, config))) =
                front.iter().max_by(|(a, _), (b, _)| a[i].total_cmp(&b[i]))
            {
                let natural = if metric.maximize() { m[i] } else { -m[i] };
                println!("  best {axis:>5}: {natural:.3} (cell {cell_index}, {config})");
            }
        }
    }

    // What each paper scenario's reward considers the "top" of the
    // `(-area, -lat, acc)` frontier (Fig. 5's reference series).
    for scenario in ScenarioSpec::paper_presets() {
        let top = top_pareto_points(&scenario, &front, 5);
        println!("\ntop-5 under the {} reward:", scenario.name());
        for (m, _) in top {
            println!("  {:.1} ms, {:.2}%, {:.0} mm2", -m[1], m[2] * 100.0, -m[0]);
        }
    }
}
