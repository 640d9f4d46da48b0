//! The paper's §IV headline flow in miniature: CIFAR-100 codesign with a
//! rising perf/area threshold, ending with the Table II comparison against
//! ResNet and GoogLeNet on their best accelerators.
//!
//! Run: `cargo run --release --example codesign_cifar100`

use codesign_nas::core::{
    run_cifar100_codesign, table2_baselines, Cifar100Config, ThresholdSchedule,
};

fn main() {
    let config = Cifar100Config {
        schedule: ThresholdSchedule {
            stages: vec![
                (2.0, 100),
                (8.0, 100),
                (16.0, 100),
                (30.0, 150),
                (40.0, 300),
            ],
        },
        seed: 0,
        max_steps_per_stage: 5_000,
    };
    println!("running Codesign-NAS on CIFAR-100 (miniature §IV schedule)...");
    let result = run_cifar100_codesign(&config);
    println!(
        "{} steps, {} valid points, {} models trained, {:.0} simulated GPU-hours\n",
        result.total_steps, result.total_valid_points, result.models_trained, result.gpu_hours
    );

    for stage in &result.stages {
        let best = stage.top_points.first();
        println!(
            "threshold {:>4.0} img/s/cm2: {:>4} valid, best accuracy {}",
            stage.threshold,
            stage.valid_points,
            best.map_or("-".to_owned(), |p| format!(
                "{:.2}% at {:.1} img/s/cm2",
                p.evaluation.accuracy * 100.0,
                p.evaluation.perf_per_area()
            ))
        );
    }

    let baselines = table2_baselines();
    println!();
    for (baseline, pick) in [
        (&baselines[0], result.best_against(&baselines[0])),
        (&baselines[1], result.most_efficient_against(&baselines[1])),
    ] {
        let b = &baseline.evaluation;
        println!(
            "{:<15} acc {:.1}%, perf/area {:.1}",
            baseline.name,
            b.accuracy * 100.0,
            b.perf_per_area()
        );
        match pick.map(|point| &point.evaluation) {
            Some(p) => println!(
                "  -> beaten by a discovered pair: acc {:.1}% ({:+.1}), perf/area {:.1} ({:+.0}%)",
                p.accuracy * 100.0,
                (p.accuracy - b.accuracy) * 100.0,
                p.perf_per_area(),
                (p.perf_per_area() / b.perf_per_area() - 1.0) * 100.0
            ),
            None => println!("  -> not beaten in this miniature run (try the full fig7 binary)"),
        }
    }
}
